import json
import math

import numpy as np
import pytest

from dpconsensus import cli, engine, experiments
from dpconsensus.experiments import (
    ConfigError,
    ExperimentConfig,
    NonpositiveValuesError,
    config_from_dict,
    estimate_rate,
    load_config,
    named_config,
    run_experiment,
    schedule_from_dict,
    schedule_to_dict,
)
from dpconsensus.graphs import fixture_graph
from dpconsensus.schedules import (
    ConstantNoise,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
)


def minimal_doc(**over):
    doc = {
        "name": "t",
        "graph": {"fixture": "fig1a"},
        "x0": [10.0, -8.0, 6.0, -4.0, 2.0],
        "step": {"kind": "power", "a1": 0.3, "a2": 1.0, "beta": 1.0},
        "noise": {"kind": "power", "b_floor": 1.0, "gamma": 0.1, "a2": 1.0, "offset": 1},
        "horizon": 200,
        "runs": 8,
    }
    doc.update(over)
    return doc


class TestScheduleCodec:
    @pytest.mark.parametrize(
        "sched",
        [
            PowerStep(0.3, 1.0, 0.9),
            PowerNoise(1.5, -0.2, 2.0, offset=1),
            GeometricStep(0.8),
            GeometricNoise(1.0, 0.9),
            ConstantNoise(2.0),
        ],
    )
    def test_round_trip(self, sched):
        assert schedule_from_dict(schedule_to_dict(sched)) == sched

    def test_none_round_trip(self):
        assert schedule_to_dict(None) is None
        assert schedule_from_dict(None) is None

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"kind": "spline"})


class TestConfig:
    def test_from_dict(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg.graph.n == 5 and cfg.horizon == 200 and cfg.runs == 8
        assert isinstance(cfg.step, PowerStep)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()))
        cfg = load_config(str(p))
        assert cfg.name == "t"

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.json")

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["x0"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_wrong_x0_length(self):
        with pytest.raises(ConfigError, match="length"):
            config_from_dict(minimal_doc(x0=[1.0, 2.0]))

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            config_from_dict(minimal_doc(horizon=0))

    def test_assumption_gate(self):
        # gamma >= beta - 1/2 fails the convergence assumptions
        bad = {"kind": "power", "b_floor": 1.0, "gamma": 0.9, "a2": 1.0, "offset": 1}
        with pytest.raises(ConfigError, match="allow_unvalidated"):
            config_from_dict(minimal_doc(noise=bad))
        cfg = config_from_dict(minimal_doc(noise=bad, allow_unvalidated=True))
        assert cfg.allow_unvalidated

    def test_geometric_step_needs_opt_in(self):
        step = {"kind": "geometric", "p": 0.8}
        with pytest.raises(ConfigError):
            config_from_dict(minimal_doc(step=step))
        cfg = config_from_dict(minimal_doc(step=step, allow_unvalidated=True))
        assert isinstance(cfg.step, GeometricStep)

    def test_explicit_edge_graph(self):
        doc = minimal_doc(
            graph={"n": 2, "edges": [[1, 2, 1.0]]}, x0=[1.0, -1.0]
        )
        cfg = config_from_dict(doc)
        assert cfg.graph.n == 2

    @pytest.mark.parametrize("name", ["fig2a", "fig2_caption", "fig3a", "sec4_text"])
    def test_named_configs_ship(self, name):
        cfg = named_config(name)
        assert cfg.graph.n == 5
        assert isinstance(cfg.step, PowerStep)
        if name != "sec4_text":
            assert cfg.baselines  # figure configs carry a geometric baseline

    def test_unknown_named_config(self):
        with pytest.raises(ConfigError):
            named_config("fig99")


class TestEstimateRate:
    def test_exact_power_law(self):
        ks = np.arange(10, 2000)
        v = 3.7 * ks ** (-1.6)
        fit = estimate_rate(ks, v, (100, 2000))
        assert fit.slope == pytest.approx(-1.6, abs=1e-9)
        assert fit.ci_low <= -1.6 <= fit.ci_high
        assert fit.stderr < 1e-8

    def test_log_factor_biases_slope_up(self):
        # v = ln(k)/k decays slower than 1/k over a finite window.
        ks = np.arange(10, 5000)
        fit = estimate_rate(ks, np.log(ks) / ks, (100, 5000))
        assert -1.0 < fit.slope < -0.7

    def test_too_few_points(self):
        ks = np.arange(1, 100)
        with pytest.raises(ValueError, match="at least 10"):
            estimate_rate(ks, 1.0 / ks, (95, 99))

    def test_nonpositive_values(self):
        ks = np.arange(1, 100)
        v = 1.0 / ks
        v[50] = 0.0
        with pytest.raises(NonpositiveValuesError):
            estimate_rate(ks, v, (10, 99))


class TestRunExperiment:
    def test_zero_noise_single_run_deterministic(self):
        cfg = config_from_dict(minimal_doc(noise=None, runs=1))
        rep = run_experiment(cfg)
        assert rep.diverged == 0
        assert rep.terminal_gauge_var == 0.0
        assert rep.terminal_gauge_mean == pytest.approx(rep.initial_gauge_mean, abs=1e-12)

    def test_aggregates_recomputable(self):
        cfg = config_from_dict(minimal_doc(runs=12, horizon=300))
        rep = run_experiment(cfg)
        from dpconsensus.graphs import check_structural_balance

        gauge = check_structural_balance(cfg.graph)
        vs = []
        for r in range(12):
            traj = engine.run(
                cfg.x0, cfg.graph, gauge, cfg.step, cfg.noise, cfg.horizon,
                seed=cfg.seed, run_index=r, stride=cfg.stride,
            )
            vs.append(traj.v_series)
        vs = np.array(vs)
        assert np.allclose(rep.v_mean, vs.mean(axis=0), rtol=1e-12, atol=1e-12)
        assert np.allclose(rep.v_q50, np.quantile(vs, 0.5, axis=0), rtol=1e-12)

    def test_artifacts_byte_identical(self, tmp_path):
        cfg = config_from_dict(minimal_doc(runs=6, horizon=150))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=str(d1))
        run_experiment(cfg, out_dir=str(d2))
        for name in ("trajectory_000.csv", "aggregate.csv", "report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_artifact_shapes(self, tmp_path):
        cfg = config_from_dict(minimal_doc(runs=4, horizon=120))
        rep = run_experiment(cfg, out_dir=str(tmp_path))
        header = (tmp_path / "trajectory_000.csv").read_text().splitlines()[0]
        assert header.startswith("k,V,gauge_mean,x_1")
        assert ",y_1" in header
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["runs"] == 4
        assert doc["config"]["horizon"] == 120
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "k,v_mean,v_q10,v_q50,v_q90"
        assert len(agg) - 1 == len(rep.ks)

    def test_seed_override_changes_draws(self):
        cfg = config_from_dict(minimal_doc(runs=4))
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg, seed=cfg.seed + 1)
        assert r1.terminal_gauge_mean != r2.terminal_gauge_mean

    def test_divergence_aborts(self):
        doc = minimal_doc(
            step={"kind": "power", "a1": 50.0, "a2": 1.0, "beta": 1.0},
            runs=4,
            allow_unvalidated=True,
        )
        cfg = config_from_dict(doc)
        with pytest.raises(experiments.ExperimentDivergence):
            with pytest.warns(RuntimeWarning):
                run_experiment(cfg)


class TestCompareBaselines:
    @pytest.fixture(scope="class")
    def verdicts(self):
        cfg = named_config("fig2a")
        return {
            v.name: v
            for v in experiments.compare_baselines(cfg, runs=40)
        }

    def test_protocol_noise_alive_and_not_frozen(self, verdicts):
        p = verdicts["protocol"]
        assert not p.froze
        assert p.noise_alive  # growing power-law noise
        assert p.noise_std_last > p.noise_std_first

    def test_geometric_baseline_freezes(self, verdicts):
        g = next(v for name, v in verdicts.items() if name != "protocol")
        assert g.froze
        assert g.tail_delta < 1e-9
        assert not g.noise_alive  # decaying noise dies out

    def test_protocol_unbiased(self, verdicts):
        assert not verdicts["protocol"].biased


class TestCli:
    def test_simulate_ok(self, capsys):
        rc = cli.main(["simulate", "--config", "fig2a", "--runs", "5", "--seed", "7"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "terminal mean" in out

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--config", "fig2a", "--runs", "3", "--out", str(tmp_path)]
        )
        assert rc == cli.EXIT_OK
        assert (tmp_path / "report.json").exists()

    def test_simulate_config_error(self, capsys):
        rc = cli.main(["simulate", "--config", "no_such_config"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"graph": {"fixture": "no_such_graph"}}, "no fixture graph named 'no_such_graph'"),
            ({"x0": [10.0, float("nan"), 6.0, -4.0, 2.0]}, "x0 must be finite"),
            ({"x0": [10.0, -8.0, float("inf"), -4.0, 2.0]}, "x0 must be finite"),
        ],
        ids=["unknown-fixture", "nan-x0", "inf-x0"],
    )
    def test_simulate_bad_config_fails_fast(self, tmp_path, capsys, over, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(minimal_doc(**over)))
        rc = cli.main(["simulate", "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("command", [["simulate"], ["rates"]])
    def test_unbalanced_graph_is_config_error(self, tmp_path, capsys, command):
        triangle = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, -1.0]]}
        p = tmp_path / "frustrated.json"
        p.write_text(json.dumps(minimal_doc(graph=triangle, x0=[1.0, 2.0, 3.0])))
        rc = cli.main([*command, "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: graph is not structurally balanced")
        assert err.count("\n") == 1

    def test_simulate_divergence_exit(self, tmp_path, capsys):
        doc = minimal_doc(
            step={"kind": "power", "a1": 50.0, "a2": 1.0, "beta": 1.0},
            runs=3,
            allow_unvalidated=True,
        )
        p = tmp_path / "div.json"
        p.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning):
            rc = cli.main(["simulate", "--config", str(p)])
        assert rc == cli.EXIT_DIVERGENCE

    def test_run0_divergence_exits_when_writing_artifacts(self, tmp_path, capsys):
        # At this seed run 0 is the only one of 100 to diverge: the batch is
        # within its 1% tolerance, but trajectory_000.csv cannot be written.
        doc = minimal_doc(noise={"kind": "constant", "b": 5e11}, horizon=1, runs=100, seed=303)
        p = tmp_path / "run0.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(p)]) == cli.EXIT_OK
        assert "(1 diverged)" in capsys.readouterr().out
        rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_DIVERGENCE
        assert "at step 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:alpha\\(0\\)\\*c_max:RuntimeWarning")
    def test_design_points_simulate(self, tmp_path, capsys, stats1a):
        """Points that design recommends with a2 = 1 and gamma < 0 simulate.

        Their offset-1 noise has base k + a2 - 1 = 0 at k = 0, where b(0) = 0.
        """
        assert cli.main(["design", "--config", "sec4_text"]) == cli.EXIT_OK
        doc, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        points = [q for q in doc["feasible"] if q["a2"] == 1.0 and q["gamma"] < 0]
        assert (0.7, 1.0, 0.6, -0.5) in {(q["a1"], q["a2"], q["beta"], q["gamma"]) for q in points}
        for q in points:
            step = {"kind": "power", "a1": q["a1"], "a2": q["a2"], "beta": q["beta"]}
            noise = {"kind": "power", "b_floor": q["b_floor"], "gamma": q["gamma"], "a2": q["a2"], "offset": 1}
            p = tmp_path / "point.json"
            p.write_text(json.dumps(minimal_doc(step=step, noise=noise)))
            rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
            assert rc == cli.EXIT_OK, q
        sched, nsched = PowerStep(0.7, 1.0, 0.6), PowerNoise(4.6416, -0.5, 1.0, offset=1)
        x0 = np.array(minimal_doc()["x0"])
        ls = engine.limit_statistics(x0, np.ones(5), stats1a.degrees, sched, nsched)
        assert 0.0 < ls.tail_bound < ls.limit_variance < math.inf

    def test_privacy_report(self, capsys):
        rc = cli.main(["privacy", "report", "--config", "sec4_text"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "epsilon(T=" in out and "epsilon(inf)" in out

    def test_privacy_sweep(self, capsys):
        rc = cli.main(["privacy", "sweep", "--config", "sec4_text", "--delta", "1.0"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "gamma" in out and "ms_exponent" in out

    def test_design_feasible(self, capsys):
        rc = cli.main(["design", "--config", "sec4_text"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "feasible point(s)" in out

    def test_design_infeasible_exit(self, tmp_path, capsys):
        doc = minimal_doc(
            design={"s_star": 0.59, "r_star": 9.0, "epsilon_star": 1e-9, "delta": 1.0}
        )
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["design", "--config", str(p)])
        assert rc == cli.EXIT_INFEASIBLE

    def test_design_without_targets(self, tmp_path):
        p = tmp_path / "nd.json"
        p.write_text(json.dumps(minimal_doc()))
        assert cli.main(["design", "--config", str(p)]) == cli.EXIT_CONFIG

    def test_rates(self, capsys):
        rc = cli.main(["rates", "--config", "fig3a"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "mean-square" in out and "almost-sure" in out
        assert "infimum exponent" in out  # beta < 1 path
