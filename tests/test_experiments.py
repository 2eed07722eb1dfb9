import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus import _kernels, cli, engine, experiments
from dpconsensus.graphs import check_structural_balance, fixture_graph
from dpconsensus.noise import laplace_matrix
from dpconsensus.experiments import (
    ConfigError,
    NonpositiveValuesError,
    config_from_dict,
    estimate_rate,
    load_config,
    named_config,
    run_experiment,
    schedule_from_dict,
)
from dpconsensus.schedules import (
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
)

from oracles import artifact_csvs


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
            ({"kind": "power", "a1": 0.3, "a2": 1.0, "beta": 0.9}, "step", PowerStep(0.3, 1.0, 0.9)),
            (
                {"kind": "power", "b_floor": 1.5, "gamma": -0.2, "a2": 2.0, "offset": 1},
                "noise",
                PowerNoise(1.5, -0.2, 2.0, offset=1),
            ),
            ({"kind": "geometric", "p": 0.8}, "step", GeometricStep(0.8)),
            ({"kind": "geometric", "c": 1.0, "q": 0.9}, "noise", GeometricNoise(1.0, 0.9)),
            (
                {"kind": "power", "b_floor": 2.0, "gamma": 0.0, "a2": 1.0, "offset": 0},
                "noise",
                PowerNoise(2.0, 0.0, a2=1.0),
            ),
        ],
    )
    def test_round_trip(self, sched):
        # A literal config record decodes to its schedule, whose fields give the record back.
        doc, role, want = sched
        assert schedule_from_dict(doc, role) == want
        assert {"kind": doc["kind"], **dataclasses.asdict(want)} == doc

    def test_none_round_trip(self):
        assert schedule_from_dict(None, "noise") is None

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"kind": "spline"}, "step")


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

    def test_constant_series_fits_exactly(self):
        ks = np.arange(1, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate_rate(ks, np.ones(99), (10, 99))
        assert (fit.slope, fit.ci_low, fit.ci_high, fit.stderr) == (0.0, 0.0, 0.0, 0.0)


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
        gauge = check_structural_balance(cfg.graph)
        ks = np.arange(cfg.horizon)
        batch = (
            cfg.graph.weights, cfg.graph.laplacian(), gauge, cfg.x0,
            cfg.step.alpha(ks), cfg.noise.scale(ks), cfg.seed,
        )
        rec = engine.record_points(cfg.horizon, cfg.stride)
        # Run r alone: its draws do not depend on the batch.
        vs = np.array([_kernels.simulate(*batch, np.array([r]), rec).v0 for r in range(12)])
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
        # Without a noise block nothing is transmitted but the states: no y columns.
        quiet = tmp_path / "quiet"
        run_experiment(config_from_dict(minimal_doc(runs=4, horizon=120, noise=None)), out_dir=str(quiet))
        header = (quiet / "trajectory_000.csv").read_text().splitlines()[0]
        assert header == "k,V,gauge_mean,x_1,x_2,x_3,x_4,x_5"

    @pytest.mark.parametrize(
        "over",
        [
            {"noise": None},
            {
                "graph": {"n": 7, "edges": [[1, 2, 1.0], [2, 3, -0.5], [3, 4, 0.8], [4, 5, 1.0],
                                            [5, 6, -1.0], [6, 7, 0.7], [1, 7, 0.3]]},
                "x0": [10.0, -8.0, 6.0, -4.0, 2.0, 0.5, -1e-3],
            },
        ],
        ids=["noiseless", "noisy-n7"],
    )
    def test_csv_files_equal_the_row_formatter(self, tmp_path, over):
        cfg = config_from_dict(minimal_doc(runs=4, horizon=150, **over))
        rep = run_experiment(cfg, out_dir=str(tmp_path))
        _, res = engine.run_many(
            cfg.x0, cfg.graph, check_structural_balance(cfg.graph), cfg.step, cfg.noise,
            cfg.horizon, cfg.runs, seed=cfg.seed, record_idx=engine.record_points(cfg.horizon, cfg.stride),
        )
        want = artifact_csvs(rep, res, noisy=cfg.noise is not None)
        assert {name: (tmp_path / name).read_bytes() for name in want} == want

    def test_seed_override_changes_draws(self):
        cfg = config_from_dict(minimal_doc(runs=4))
        r1 = run_experiment(cfg)
        r2 = run_experiment(dataclasses.replace(cfg, seed=cfg.seed + 1))
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


@pytest.mark.filterwarnings("ignore:alpha\\(0\\)\\*c_max:RuntimeWarning")
@pytest.mark.parametrize("diverged", [(), (7,)], ids=["all-finite", "one-diverged"])
def test_aggregate_holds_no_batch_matrix(tmp_path, monkeypatch, diverged):
    """sec4_text at M = 1000, T = 1e4: the traced peak holds no (M, R) matrix of V.

    It may hold the kernel's four block-sized buffers (the draws, the drive,
    the record stash and the buffer of V's columns) and, doubled for
    temporaries of their sizes, the batch's smaller arrays: three of length T
    (steps, alpha, b), R * (2n + 8) values for the records (run 0's x and y,
    V and gauge mean, the record steps and their list, and the aggregate's
    rows) and six (M, n) states.  When the first pass reports a diverged
    run, here run 7 marked as diverged at step 5000, the batch runs again
    with that run dropped from the aggregate.
    """
    cfg = dataclasses.replace(named_config("sec4_text"), runs=1000, horizon=10_000)
    run_many, passes = engine.run_many, []

    def batch(*args, drop=None, **kwargs):
        ks, res = run_many(*args, drop=drop, **kwargs)
        if drop is None:
            for r in diverged:
                res.diverged_at[r] = 5000
                res.x_final[r] = np.nan
        passes.append((drop, res))
        return ks, res

    run_experiment(dataclasses.replace(cfg, runs=2, horizon=200))  # lazy imports outside the trace
    monkeypatch.setattr(engine, "run_many", batch)
    tracemalloc.start()
    try:
        rep = run_experiment(cfg, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.diverged == len(diverged)
    assert passes[0][0] is None and len(passes) == 1 + len(diverged)
    drop, res = passes[-1]
    for got, want in zip((rep.v_mean, rep.v_q10, rep.v_q50, rep.v_q90), (res.v_mean, *res.v_deciles)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    if diverged:
        np.testing.assert_array_equal(drop, np.isin(np.arange(cfg.runs), diverged))
        assert not np.array_equal(rep.v_mean, passes[0][1].v_mean)
    want = artifact_csvs(rep, res, noisy=True)
    assert {name: (tmp_path / name).read_bytes() for name in want} == want
    t, r, m, n = cfg.horizon, len(rep.ks), cfg.runs, cfg.graph.n
    slack = 2 * 8 * (3 * t + r * (2 * n + 8) + 6 * m * n)
    assert peak <= 4 * 8 * _kernels._BLOCK_ELEMENTS + slack


def _noise_stds(noise, t, runs=2):
    """compare_baselines' (first, last) decile noise std for ``noise`` at horizon ``t``."""
    cfg = dataclasses.replace(named_config("fig2a"), noise=noise, allow_unvalidated=True, baselines=(), horizon=t, runs=runs)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"alpha\(0\)\*c_max", RuntimeWarning)
        (v,) = experiments.compare_baselines(cfg)
    return v.noise_std_first, v.noise_std_last


@pytest.mark.parametrize(
    "noise",
    [PowerNoise(1, 0.1, 1, 1), PowerNoise(2, 0.3, 5), GeometricNoise(1, 0.9), PowerNoise(2.0, 0.0, a2=1.0)],
    ids=["power-offset1", "power", "geometric", "constant"],
)
@pytest.mark.parametrize("runs, t", [(7, 1000), (80, 257)])
def test_decile_noise_std_equals_the_per_step_draws(noise, runs, t):
    """Each decile's noise std is sqrt(2 mean b(k)^2), which 10^5 per-step draws per decile agree with."""
    cfg = named_config("fig2a")
    d, n = t // 10, cfg.graph.n
    draw_runs = max(runs, -(-(10**5) // (d * n)))  # the batch's own runs, and more up to 10^5 draws
    for lo, got in zip((0, t - d), _noise_stds(noise, t, runs)):
        b = noise.scale(np.arange(lo, lo + d))
        assert got == math.sqrt(2.0 * np.mean(b**2))
        w = np.concatenate(
            [laplace_matrix(cfg.seed, np.arange(draw_runs), n, k, bk).ravel() for k, bk in zip(range(lo, lo + d), b)]
        )
        # The standard error of the sample variance, from the mix's fourth moment 24 mean b^4.
        se = math.sqrt((24.0 * np.mean(b**4) - got**4) / len(w)) / (2.0 * got)
        assert len(w) >= 10**5 and abs(w.std() - got) <= 5 * se


def test_decile_noise_std_is_zero_where_the_noise_is():
    # b(0) = 0 under the offset-1 schedule, and a decile at t < 10 is that one step.
    assert _noise_stds(PowerNoise(1, 0.1, 1, 1), 9)[0] == 0.0
    assert _noise_stds(None, 100) == (0.0, 0.0)


class TestCompareBaselines:
    @pytest.fixture(scope="class")
    def verdicts(self):
        cfg = named_config("fig2a")
        return {
            v.name: v
            for v in experiments.compare_baselines(dataclasses.replace(cfg, runs=40))
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

    @pytest.mark.parametrize("t", [5, 9])
    def test_horizon_below_ten_takes_one_step_deciles(self, t):
        cfg = dataclasses.replace(named_config("fig2a"), horizon=t, runs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", r"alpha\(0\)\*c_max", RuntimeWarning)
            verdicts = experiments.compare_baselines(cfg)
        assert all(math.isfinite(v.noise_std_first) and math.isfinite(v.noise_std_last) for v in verdicts)
        # b(0) = 0 under the offset-1 schedule, so the protocol's first decile is silent.
        assert verdicts[0].noise_std_first == 0.0 and verdicts[0].noise_alive


def _interpreter(*argv):
    """A fresh interpreter, run with ``argv``, that imports dpconsensus from this tree."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True)


def _python(code, *args):
    """stdout of ``code`` in a fresh interpreter that imports dpconsensus from this tree."""
    return _interpreter("-c", code, *args).stdout.strip()


def test_package_import_leaves_numpy_unloaded():
    # The package root re-exports nothing: each name comes from the module that
    # defines it, so a bare import loads none of them, and NumPy with them.
    code = "import sys, dpconsensus; print('numpy' in sys.modules, [n for n in vars(dpconsensus) if n[0] != '_'])"
    assert _python(code) == "False []"


def test_cli_warning_prints_as_one_line():
    # sec4_text's alpha(0)*c_max = 1.5 warns; the command line shows the message
    # alone, without the warning's file, line and source.
    out = _interpreter("-m", "dpconsensus.cli", "simulate", "--config", "sec4_text", "--runs", "2")
    assert out.stderr == (
        "warning: alpha(0)*c_max = 1.5 >= 1: early steps may transiently amplify disagreement\n"
    )
    formatwarning = warnings.formatwarning
    with pytest.warns(RuntimeWarning, match=r"alpha\(0\)\*c_max"), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", "sec4_text", "--runs", "2"]) == cli.EXIT_OK
    assert warnings.formatwarning is formatwarning
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", "--config", "sec4_text", "--runs", "0"]) == cli.EXIT_CONFIG
    assert warnings.formatwarning is formatwarning


def test_cli_import_leaves_scipy_unloaded():
    # SciPy's import is most of a cold start, and no command needs it: the
    # graph layer finds its gauge with NumPy, and the rate fit takes its
    # Student-t quantile from dpconsensus.special.
    code = "import sys, dpconsensus.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _python(code) == "[]"


def test_simulate_leaves_scipy_unloaded():
    # fig2a's horizon of 1000 runs the rate fit, whose t quantile came from scipy.special.
    code = textwrap.dedent("""
        import contextlib, io, sys
        from dpconsensus import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(sys.argv[1:])
        print(rc, sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    assert _python(code, "simulate", "--config", "fig2a", "--runs", "2") == "0 []"


@pytest.mark.filterwarnings("ignore:alpha\\(0\\)\\*c_max:RuntimeWarning")
def test_every_command_exits_alike_without_scipy(capsys):
    commands = [
        [*command, "--config", name]
        for name in ("fig2a", "fig2_caption", "fig3a", "sec4_text")
        for command in (["simulate", "--runs", "2"], ["privacy", "report"], ["privacy", "sweep"], ["rates"], ["design"])
    ]
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from dpconsensus import cli
        codes = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # a traceback and exit 1 from the console script
                    codes.append(repr(exc))
        print(json.dumps(codes))
    """)
    blocked = json.loads(_python(code, json.dumps(commands)))
    unblocked = [cli.main(argv) for argv in commands]
    capsys.readouterr()
    names = [" ".join(argv) for argv in commands]
    assert dict(zip(names, blocked)) == dict(zip(names, unblocked))


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

    @pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "under-a-file"])
    def test_simulate_unusable_out_fails_before_the_batch(self, tmp_path, capsys, monkeypatch, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(engine, "run_many", lambda *a, **k: pytest.fail("the batch ran"))
        out = str(taken / below if below else taken)
        rc = cli.main(["simulate", "--config", "fig2a", "--runs", "2", "--out", out])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    def test_simulate_config_error(self, capsys):
        rc = cli.main(["simulate", "--config", "no_such_config"])
        assert rc == cli.EXIT_CONFIG

    def test_shipped_config_name_is_not_a_path(self, capsys):
        rc = cli.main(["rates", "--config", "../fixtures/fig2a"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: no shipped config named '../fixtures/fig2a'\n"

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"graph": {"fixture": "no_such_graph"}}, "no fixture graph named 'no_such_graph'"),
            ({"x0": [10.0, float("nan"), 6.0, -4.0, 2.0]}, "x0 must be finite"),
            ({"x0": [10.0, -8.0, float("inf"), -4.0, 2.0]}, "x0 must be finite"),
            ({"seed": -1}, "seed must satisfy 0 <= seed < 2**64"),
            ({"seed": 2**64}, "seed must satisfy 0 <= seed < 2**64"),
            ({"stride": 0}, "stride must be >= 1"),
            ({"stride": -5}, "stride must be >= 1"),
        ],
        ids=[
            "unknown-fixture", "nan-x0", "inf-x0",
            "negative-seed", "seed-2**64", "zero-stride", "negative-stride",
        ],
    )
    def test_simulate_bad_config_fails_fast(self, tmp_path, capsys, over, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(minimal_doc(**over)))
        rc = cli.main(["simulate", "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("name", ["../fixtures/fig1a", "graphs", "", 5, ["fig1a"]])
    def test_fixture_name_must_be_a_shipped_graph(self, tmp_path, capsys, name):
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(minimal_doc(graph={"fixture": name})))
        rc = cli.main(["rates", "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_directory_named_after_a_shipped_config_leaves_it_served(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig2a").mkdir()
        (tmp_path / "out").mkdir()
        assert cli.main(["rates", "--config", "fig2a"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["rates", "--config", "out"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: no shipped config named 'out'\n"

    def test_frozen_batch_writes_strict_json(self, tmp_path, capsys):
        # a1 = 0 and no noise hold every state, so V is constant over the rate window.
        p = tmp_path / "frozen.json"
        p.write_text(json.dumps(minimal_doc(step={"kind": "power", "a1": 0, "a2": 1, "beta": 1}, noise=None, runs=2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_OK
        assert "95% CI [0.0000, 0.0000]" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
        assert doc["rate"]["ci"] == [0.0, 0.0] and doc["rate"]["stderr"] == 0.0

    def test_graph_fixture_file_is_not_a_config(self, capsys):
        # fixtures/ also holds graphs.json, the fixture graph table, which no name serves.
        rc = cli.main(["rates", "--config", "graphs"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: no shipped config named 'graphs'\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--runs", "0"], "horizon and runs must be >= 1"),
            (["--seed", "-1"], "seed must satisfy 0 <= seed < 2**64"),
        ],
        ids=["zero-runs", "negative-seed"],
    )
    def test_simulate_bad_override_fails_fast(self, capsys, flags, message):
        rc = cli.main(["simulate", "--config", "fig2a", *flags])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("mode", ["report", "sweep"])
    def test_privacy_bad_delta_fails_fast(self, capsys, mode, delta):
        rc = cli.main(["privacy", mode, "--config", "sec4_text", "--delta", delta])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: delta must be finite and > 0") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, over, message",
        [
            (["design"], {"delta": "abc"}, 'design block: "abc" is not a number'),
            (["design"], {"r_star": None}, "design block needs exactly the keys"),
            (["design"], {"r_star": float("nan")}, "design block: r_star, epsilon_star, delta must be positive"),
            (["privacy", "report"], {"delta": "abc"}, 'design block: "abc" is not a number'),
        ],
        ids=["design-text-delta", "design-no-r_star", "design-nan-r_star", "report-text-delta"],
    )
    def test_bad_design_block_fails_fast(self, tmp_path, capsys, command, over, message):
        design = {"s_star": 0.59, "r_star": 9, "epsilon_star": 2.5, "delta": 1, **over}
        design = {k: v for k, v in design.items() if v is not None}
        p = tmp_path / "bad_design.json"
        p.write_text(json.dumps(minimal_doc(design=design)))
        rc = cli.main([*command, "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            (["privacy", "report"], "privacy accounting needs a power step schedule"),
            (["privacy", "sweep"], "privacy accounting needs a power step schedule"),
            (["rates"], "rate prediction needs a power step schedule"),
        ],
        ids=["privacy-report", "privacy-sweep", "rates"],
    )
    def test_non_power_step_is_config_error(self, tmp_path, capsys, command, message):
        p = tmp_path / "geometric.json"
        p.write_text(json.dumps(minimal_doc(step={"kind": "geometric", "p": 0.8}, allow_unvalidated=True)))
        rc = cli.main([*command, "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    @pytest.mark.parametrize("command", [["rates"], ["design"], ["simulate"]])
    def test_infinite_weight_is_config_error(self, tmp_path, capsys, command):
        edges = [[1, 4, 1.0], [1, 2, -1.0], [4, 5, -1.0], [2, 5, 1.0], [3, 4, float("inf")]]
        design = {"s_star": 0.59, "r_star": 9, "epsilon_star": 2.5, "delta": 1}
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(minimal_doc(graph={"n": 5, "edges": edges}, design=design)))
        rc = cli.main([*command, "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: weights must be finite\n"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            (
                ["simulate"],
                minimal_doc(noise={"kind": "geometric", "p": 0.8}, allow_unvalidated=True),
                "geometric noise block needs exactly the keys c, q",
            ),
            (
                ["simulate"],
                minimal_doc(step={"kind": "power", "a2": 1.0, "beta": 1.0}),
                "power step block needs exactly the keys a1, a2, beta",
            ),
            (
                ["simulate"],
                minimal_doc(noise={"kind": "power", "b_floor": 1.0, "gamma": 0.1, "a2": 1.0, "ofset": 1}),
                "power noise block needs exactly the keys b_floor, gamma, [a2], [offset]",
            ),
            (
                ["simulate"],
                minimal_doc(step={"kind": "power", "a1": 0.3, "a2": 1.0, "beta": 1.0, "gamma": 5}),
                "power step block needs exactly the keys a1, a2, beta",
            ),
            (
                ["simulate"],
                minimal_doc(baselines=[{
                    "name": "hot",
                    "step": {"kind": "power", "a1": 0.3, "a2": 1.0, "beta": 1.0},
                    "noise": {"kind": "power", "b_floor": 1.0, "gamma": 0.9, "a2": 1.0, "offset": 1},
                    "allow_unvalidated": False,
                }]),
                "baseline 'hot': schedule pair fails the convergence assumptions",
            ),
            (["rates"], [1, 2], "config must be a JSON object"),
            (["rates"], minimal_doc(graph=[1, 2]), "graph block needs exactly"),
            (["rates"], minimal_doc(baselines=["geometric"]), "baseline must be a JSON object"),
            (
                ["simulate"],
                minimal_doc(graph={"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}, x0=[1.0, 2.0, 3.0]),
                "edge (0,1) has an endpoint outside 1..3",
            ),
            (
                ["simulate"],
                minimal_doc(graph={"n": 3, "edges": [[1, 4, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}, x0=[1.0, 2.0, 3.0]),
                "edge (1,4) has an endpoint outside 1..3",
            ),
            (["simulate"], minimal_doc(x0=[[10.0], [-8.0], [6.0], [-4.0], [2.0]]), "flat list of length n = 5"),
            (
                ["privacy", "sweep"],
                minimal_doc(step={"kind": "power", "a1": 0.3, "a2": math.inf, "beta": 1.0}),
                "power step block: a2 must be finite and > 0",
            ),
            *(
                (["rates"], minimal_doc(**{key: math.inf}), "cannot convert float infinity to integer")
                for key in ("horizon", "runs", "stride", "seed")
            ),
            (
                ["rates"],
                minimal_doc(noise={"kind": "power", "b_floor": 1.0, "gamma": 0.1, "a2": 1.0, "offset": math.inf}),
                "power noise block: cannot convert float infinity to integer",
            ),
        ],
        ids=[
            "geometric-step-as-noise", "step-without-a1", "noise-typo-key", "step-extra-key",
            "baseline-fails-gate", "list-document", "list-graph", "string-baseline",
            "endpoint-0", "endpoint-n+1", "column-x0", "inf-step-a2",
            "inf-horizon", "inf-runs", "inf-stride", "inf-seed", "inf-offset",
        ],
    )
    def test_input_outside_the_schema_is_config_error(self, tmp_path, capsys, command, doc, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # json writes math.inf as Infinity, which loads as 1e999 does
        rc = cli.main([*command, "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "doc, message",
        [
            (minimal_doc(horizon=10.7), "config error: 10.7 is not an integer"),
            (minimal_doc(runs=True), "config error: true is not an integer"),
            (minimal_doc(name=[1, 2]), "config error: [1, 2] is not a string"),
            (minimal_doc(stride="10"), 'config error: "10" is not an integer'),
            (minimal_doc(seed=None), "config error: null is not an integer"),
            (
                minimal_doc(noise={"kind": "power", "b_floor": 1.0, "gamma": 0.1, "a2": 1.0, "offset": False}),
                "config error: power noise block: false is not an integer",
            ),
            (
                minimal_doc(graph={"n": 2.5, "edges": [[1, 2, 1.0]]}, x0=[1.0, 2.0]),
                "config error: 2.5 is not an integer",
            ),
            (
                minimal_doc(graph={"n": 2, "edges": [[1, 1.5, 1.0]]}, x0=[1.0, 2.0]),
                "config error: 1.5 is not an integer",
            ),
            (
                minimal_doc(baselines=[{"name": 7, "step": {"kind": "geometric", "p": 0.8},
                                        "allow_unvalidated": True}]),
                "config error: baseline: 7 is not a string",
            ),
            (
                minimal_doc(step={"kind": "power", "a1": "0.3", "a2": 1.0, "beta": 1.0}),
                'config error: power step block: "0.3" is not a number',
            ),
            (
                minimal_doc(step={"kind": "power", "a1": 0.3, "a2": True, "beta": 1.0}),
                "config error: power step block: true is not a number",
            ),
            (minimal_doc(x0=["10", True, 6, -4, 2]), 'config error: "10" is not a number'),
            (
                minimal_doc(graph={"n": 2, "edges": [[1, 2, "1.5"]]}, x0=[1.0, 2.0]),
                'config error: "1.5" is not a number',
            ),
        ],
        ids=[
            "fractional-horizon", "bool-runs", "list-name", "string-stride", "null-seed",
            "bool-offset", "fractional-n", "fractional-endpoint", "number-baseline-name",
            "string-a1", "bool-a2", "string-x0", "string-weight",
        ],
    )
    def test_value_of_another_json_type_is_config_error(self, tmp_path, capsys, doc, message):
        """An integer field takes a JSON integer or an integral float, a float field a JSON number
        (x0 entries and edge weights too), and a string field a string."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", "--config", str(p)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"

    def test_integral_floats_load_as_integers(self, tmp_path):
        p = tmp_path / "floats.json"
        p.write_text(json.dumps(minimal_doc(horizon=200.0, runs=8.0, stride=1e1)))
        cfg = load_config(str(p))
        assert (cfg.horizon, cfg.runs, cfg.stride) == (200, 8, 10)
        assert all(type(v) is int for v in (cfg.horizon, cfg.runs, cfg.stride))

    @pytest.mark.parametrize(
        "config, runs, pins",
        [
            ("fig2a", 2, (
                "c630601b065741b00b778bf48fdabafd0c42fe40ae53a36be5cd8a7bccccbeb5",
                "e6280d8718c5eac24e1b949c7b03847eab6a4d897f1e37943d2266c0181d5408",
                "363443ab0cf497293b2e980e6ec56c28355f4c0430f0b54996d22754898dba2a",
            )),
            ("fig3a", 20, (
                "8935fcd1b3becf568fab5a9720d4ebe12ad8f5297a76f5888a5392956582947d",
                "a38e17633f4745eb52f9ce1b6b160c01127c986986224c6aba2b7bdd180a85c2",
                "55d34021f6e6e9287079ae94f87af02f74645101dfb72c7d522cfd189843a2f9",
            )),
            ("sec4_text", 50, (
                "64cea00e2d67d25db545e720ab19c0764d19c5663d56e433f757bae560940c83",
                "cd5e42a047671acb4a59d8f4482f6718100e58e9c7e6122a8a9238c5d036ee74",
                "42116c4bd33773c9eb22306190f564ac8a95a39d7fae1e2d116267297d09c19f",
            )),
        ],
        ids=["fig2a", "fig3a", "sec4_text"],
    )
    def test_fig2a_artifacts_are_pinned(self, tmp_path, capsys, config, runs, pins):
        """SHA-256 of each ``simulate --config <config> --runs <runs> --out`` artifact.

        fig2a's were recorded with the kernel that allocated its blocks and
        states afresh at every step, and fig3a's (fig1b, alpha(0) * c_max = 3)
        and sec4_text's with the one that screened every step for divergence,
        so any drift in the last bit of a draw, a step or a record fails here.
        The hashes hold for one NumPy/BLAS build: a BLAS with other rounding
        in its matmul kernels gives other bits.
        """
        rc = cli.main(["simulate", "--config", config, "--runs", str(runs), "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        capsys.readouterr()
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == dict(zip(["aggregate.csv", "report.json", "trajectory_000.csv"], pins))

    def test_alias_serves_its_target_under_its_own_name(self):
        alias = named_config("fig2_caption")
        assert alias.name == "fig2_caption"
        assert alias.raw == {**named_config("fig2a").raw, "name": "fig2_caption"}

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
        noise = {"kind": "power", "b_floor": 5e11, "gamma": 0.0, "a2": 1.0, "offset": 0}
        doc = minimal_doc(noise=noise, horizon=1, runs=100, seed=303)
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
        assert "+0.00 " in out and "-0.00" not in out  # the gamma = 0 row is not -0.00

    @pytest.mark.parametrize("mode", ["report", "sweep"])
    def test_privacy_without_contraction(self, tmp_path, capsys, mode):
        # a1 = 0 with beta < 1: the sensitivity never contracts, so the bound diverges.
        p = tmp_path / "a1_zero.json"
        p.write_text(json.dumps(minimal_doc(step={"kind": "power", "a1": 0, "a2": 1, "beta": 0.8})))
        rc = cli.main(["privacy", mode, "--config", str(p)])
        assert rc == cli.EXIT_OK
        assert "divergent" in capsys.readouterr().out

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

    def test_rates_without_mean_square_prediction(self, tmp_path, capsys):
        noise = {"kind": "power", "b_floor": 1.0, "gamma": 0.9, "a2": 1.0, "offset": 1}
        p = tmp_path / "g09.json"
        p.write_text(json.dumps(minimal_doc(noise=noise, allow_unvalidated=True)))
        rc = cli.main(["rates", "--config", str(p)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "mean-square : no prediction (gamma must satisfy gamma < beta - 1/2)" in out
        assert "almost-sure" in out

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_allow_unvalidated_takes_only_json_booleans(self, tmp_path, capsys, flag):
        noise = {"kind": "power", "b_floor": 1.0, "gamma": 0.9, "a2": 1.0, "offset": 1}
        p = tmp_path / "flag.json"
        p.write_text(json.dumps(minimal_doc(noise=noise, allow_unvalidated=flag)))
        assert cli.main(["simulate", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: allow_unvalidated must be true or false, got {flag!r}\n"

    @pytest.mark.parametrize("command", [["simulate"], ["rates"], ["privacy", "report"]])
    def test_power_step_with_a2_zero_is_config_error(self, tmp_path, capsys, command):
        # alpha(0) = a1 / 0 is infinite, so the schedule has no first step.
        doc = copy.deepcopy(shipped_doc("sec4_text"))
        doc["step"]["a2"] = 0
        p = tmp_path / "a2zero.json"
        p.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(p)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: power step block: a2 must be finite and > 0\n"

    @pytest.mark.parametrize("command", [["simulate"], ["rates"], ["privacy", "report"]])
    def test_power_step_with_subnormal_a2_is_config_error(self, tmp_path, capsys, command):
        # a2 > 0, but alpha(0) = 0.5 / 1e-310 overflows to inf.
        doc = copy.deepcopy(shipped_doc("sec4_text"))
        doc["step"]["a2"] = 1e-310
        p = tmp_path / "a2subnormal.json"
        p.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: power step block: alpha(0) = a1 / a2**beta must be finite\n"


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["simulate"], ["rates"], ["privacy", "report"]])
    def test_power_noise_with_subnormal_a2_is_config_error(self, tmp_path, capsys, command):
        # b(0) = 1 * (1e-310)**-1 overflows to inf; every run would diverge at step 1.
        doc = copy.deepcopy(shipped_doc("sec4_text"))
        doc["noise"].update({"a2": 1e-310, "gamma": -1, "offset": 0})
        p = tmp_path / "b0inf.json"
        p.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: power noise block: "
            "b_floor * (k + a2 - offset)**gamma must be finite where the schedule starts\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["simulate"], ["rates"], ["privacy", "report"]])
    def test_power_noise_overflowing_before_the_horizon_is_config_error(self, tmp_path, capsys, command):
        # b(1) = 1e308 is finite, but b(99) = 1e308 * 99**0.4 is not: every run would diverge.
        doc = copy.deepcopy(shipped_doc("sec4_text"))
        doc["noise"].update({"b_floor": 1e308, "gamma": 0.4})
        doc.update(horizon=100, runs=3)
        p = tmp_path / "bTinf.json"
        p.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(p)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: noise scale b(99) = inf is not finite\n"

    @pytest.mark.filterwarnings("error")
    def test_baseline_noise_overflowing_before_the_horizon_is_config_error(self, tmp_path, capsys):
        doc = copy.deepcopy(shipped_doc("fig2a"))
        doc["baselines"][0]["noise"] = {"kind": "power", "b_floor": 1e308, "gamma": 0.4, "a2": 1, "offset": 0}
        p = tmp_path / "baseline_inf.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["rates", "--config", str(p)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: baseline 'geometric': noise scale b(999) = inf is not finite\n"

    def test_constant_noise_kind_is_config_error(self, tmp_path, capsys):
        # Constant noise b is power noise with gamma = 0; the loader has no kind of its own for it.
        p = tmp_path / "constant.json"
        p.write_text(json.dumps(minimal_doc(noise={"kind": "constant", "b": 2})))
        assert cli.main(["simulate", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: unknown noise schedule kind 'constant' (one of power, geometric)\n"

    @pytest.mark.parametrize(
        "mode, step_a2, noise",
        [
            # Loaded at offset 0, rebuilt at the step's a2 = 1e300 with offset 1: (1e300 - 1)**2 overflows.
            ("report", 1e300, {"gamma": 2, "offset": 0}),
            ("sweep", 1e300, {"gamma": 2, "offset": 0}),
            # Accounted as loaded, but the sweep's gamma = +0.1 takes b_floor * (1e6 - 1)**0.1 past the top.
            ("sweep", 1e6, {"a2": 1e6, "gamma": -0.5, "b_floor": 1e308}),
        ],
        ids=["report-rebuild", "sweep-rebuild", "sweep-gamma"],
    )
    def test_accounting_noise_overflow_is_config_error(self, tmp_path, capsys, mode, step_a2, noise):
        doc = copy.deepcopy(shipped_doc("sec4_text"))
        doc["step"]["a2"] = step_a2
        doc["noise"].update(noise)
        doc["allow_unvalidated"] = True
        p = tmp_path / "rebuilt.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["privacy", mode, "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: accounting noise: "
            "b_floor * (k + a2 - offset)**gamma must be finite where the schedule starts\n"
        )


SHIPPED = ("fig2a", "fig2_caption", "fig3a", "sec4_text")
OTHER_TYPES = ("x", [1], {"a": 1}, None, True)
NONFINITE = (math.nan, math.inf, -math.inf)


@functools.cache
def shipped_doc(name):
    return named_config(name).raw


def json_slots(node):
    """Every (container, key) pair below a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from json_slots(value)


@st.composite
def mutated_configs(draw):
    """A shipped config with exactly one change."""
    doc = copy.deepcopy(shipped_doc(draw(st.sampled_from(SHIPPED))))
    how = draw(st.sampled_from(["drop", "add", "swap", "nonfinite", "endpoint", "wrap"]))
    slots = list(json_slots(doc))
    if how == "wrap":
        return [doc]
    if how == "endpoint":  # the fixture graph, inline, with one endpoint out of 1..n
        w = fixture_graph(doc["graph"]["fixture"]).weights
        edges = [[int(i) + 1, int(j) + 1, float(w[i, j])] for i, j in zip(*np.nonzero(np.triu(w)))]
        doc["graph"] = {"n": len(w), "edges": edges}
        draw(st.sampled_from(edges))[draw(st.integers(0, 1))] = draw(st.sampled_from([0, -1, len(w) + 1]))
    elif how == "add":
        draw(st.sampled_from([doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]))["extra"] = 1
    elif how == "drop":
        container, key = draw(st.sampled_from([(c, k) for c, k in slots if isinstance(c, dict)]))
        del container[key]
    else:
        container, key = draw(st.sampled_from(slots))
        pool = NONFINITE if how == "nonfinite" else [v for v in OTHER_TYPES if type(v) is not type(container[key])]
        container[key] = draw(st.sampled_from(pool))
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_mutated_shipped_configs_exit_cleanly(tmp_path_factory, doc):
    # simulate allocates by horizon x runs and privacy report streams to T = 1e7,
    # so the fuzz runs the three commands that only load, balance and account.
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    for command in (["rates"], ["privacy", "sweep"], ["design"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([*command, "--config", str(path)])
        assert rc in (0, 2, 3, 4), (command, doc)
        if rc:
            assert err.getvalue().count("\n") == 1, (command, doc, err.getvalue())

