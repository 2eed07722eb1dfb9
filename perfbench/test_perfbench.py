"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dpconsensus import cli, experiments, graphs, privacy  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_match_the_spec():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layers + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.END_TO_END_UNITS)
    assert layers == list(run.PER_LAYER_UNITS)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["unit"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_seed_changes_generated_inputs(tmp_path):
    a = workloads.prepare("wide_graph", 1, tmp_path / "a")
    b = workloads.prepare("wide_graph", 2, tmp_path / "b")
    again = workloads.prepare("wide_graph", 1, tmp_path / "c")
    text = [Path(w.config_refs[0]).read_text() for w in (a, b, again)]
    assert text[0] != text[1] and text[0] == text[2]
    assert a.mc_seed != b.mc_seed and a.mc_seed == again.mc_seed
    m1 = workloads.prepare("mc_paper", 1, tmp_path / "d")
    m2 = workloads.prepare("mc_paper", 2, tmp_path / "e")
    assert m1.mc_seed != m2.mc_seed
    assert m1.commands != m2.commands


def test_wide_graph_is_balanced_and_stable():
    doc, camps = workloads.wide_graph_config(workloads.derived_rng("wide_graph", 3))
    cfg = experiments.config_from_dict(doc)
    assert cfg.graph.n == workloads.WIDE_N
    assert checks.gauge_matches_planted(graphs.check_structural_balance(cfg.graph), camps) == []
    assert cfg.step.alpha(0) * cfg.graph.degrees.max() < 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_does_not_change_the_metric_set(trace):
    names = {0: list(run.END_TO_END_UNITS), 1: list(run.PER_LAYER_UNITS)}[trace]
    for seed in (1, 2):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "mc_paper", "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, cwd=HERE.parent, timeout=170, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert list(result["metrics"]) == names
        assert result["correct"] and result["failed"] == 0


def test_agent_steps_count_n(tmp_path):
    w = workloads.prepare("wide_graph", 1, tmp_path)
    assert w.agent_steps == workloads.WIDE_N * workloads.WIDE_RUNS * workloads.WIDE_HORIZON
    rep = workloads.Repetition(wall_s=2.0, commands=[])
    assert run.work_per_rep(w, rep) / rep.wall_s == 96 * 200 * 2000 / 2.0
    m = workloads.prepare("mc_paper", 1, tmp_path)
    assert m.agent_steps == 5 * 1000 * 10_000


def test_pinned_noise_detects_a_changed_stream():
    assert checks.pinned_noise() == []
    values = [np.array(want, dtype=float) for _, want in checks.PINNED_NOISE]
    assert checks.pinned_noise(values) == []
    values[1][0, 2] = np.nextafter(values[1][0, 2], np.inf)
    assert len(checks.pinned_noise(values)) == 1


def test_kernel_reference_detects_a_perturbed_final_state():
    cfg = experiments.named_config("fig2a")
    gauge = graphs.check_structural_balance(cfg.graph)
    kernel_x, ref_x = checks.kernel_short_horizon(cfg, gauge, seed=11)
    assert checks.kernel_matches_reference(kernel_x, ref_x) == []
    bad = kernel_x.copy()
    bad[1, 3] += 1e-8
    assert checks.kernel_matches_reference(bad, ref_x)


REPORT = {
    "runs": 1000,
    "diverged": 0,
    "initial_gauge_mean": 3.6,
    "terminal_gauge_mean": 3.61,
    "terminal_gauge_var": 0.5,
}


def test_terminal_mean_and_variance_detect_corruption():
    assert checks.terminal_mean(REPORT) == []
    assert checks.terminal_variance(REPORT, 0.52) == []
    shifted = dict(REPORT, terminal_gauge_mean=3.8)
    assert checks.terminal_mean(shifted)
    assert checks.terminal_variance(REPORT, 1.0)


def test_identical_detects_a_changed_report():
    assert checks.identical([b"{}", b"{}"], "report.json") == []
    assert checks.identical([b"{}", b"{ }"], "report.json")


def test_gauge_check_detects_a_flipped_entry():
    planted = np.array([1.0, -1.0, -1.0, 1.0])
    assert checks.gauge_matches_planted(-planted, planted) == []
    flipped = planted.copy()
    flipped[2] = 1.0
    assert checks.gauge_matches_planted(flipped, planted)


def test_lambda2_check_detects_a_wrong_value():
    g = graphs.fixture_graph("fig1a")
    stats = graphs.spectrum(g, graphs.check_structural_balance(g))
    assert checks.lambda2_matches(stats.lambda2, stats.gauge_laplacian) == []
    assert checks.lambda2_matches(stats.lambda2 + 1e-6, stats.gauge_laplacian)


def test_epsilon_check_detects_a_perturbed_value():
    sched, noise = workloads.grid_schedules(0.5, 0.1)
    value = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 10_000)
    ref = checks.epsilon_fsum(sched, noise, 1.0, 1.0, 10_000)
    assert checks.epsilon_matches(value, ref) == []
    assert checks.epsilon_matches(value * (1 + 1e-10), ref)


def test_design_recheck_detects_an_infeasible_point():
    cmd = workloads.call_cli(["design", "--config", "sec4_text"])
    doc = workloads.design_doc(cmd)
    cfg = experiments.named_config("sec4_text")
    stats = graphs.spectrum(cfg.graph, graphs.check_structural_balance(cfg.graph))
    assert doc["feasible"] and checks.design_points(doc, stats) == []
    bad = copy.deepcopy(doc)
    bad["feasible"][0]["b_floor"] = 1e-3  # epsilon bound >= delta / b(1) = 1000
    assert checks.design_points(bad, stats)


def test_privacy_report_check_detects_inconsistency():
    sched, noise = workloads.grid_schedules(0.9, 0.3)
    rep = privacy.privacy_report(sched, noise, 1.0, 1.0, horizons=(10, 100))
    assert rep.infinity.convergent and checks.privacy_report_consistent(rep) == []
    decreasing = privacy.PrivacyReport((10, 100), rep.epsilon_at[::-1], rep.infinity, 1.0, 1.0)
    assert checks.privacy_report_consistent(decreasing)
    low = privacy.PrivacyReport(
        rep.horizons, rep.epsilon_at, privacy.EpsilonBound(rep.epsilon_at[0], "case1", True), 1.0, 1.0
    )
    assert checks.privacy_report_consistent(low)


def test_tracer_wraps_every_binding_and_restores_it():
    orig = cli.spectrum
    with tracing.Tracer() as tracer:
        assert cli.spectrum is not orig and graphs.spectrum is cli.spectrum
        workloads.call_cli(["rates", "--config", "fig3a"])
    assert cli.spectrum is orig and graphs.spectrum is orig
    names = [s.name for s in tracer.spans]
    assert names.count("graphs.spectrum") == 1 and "experiments.config" in names
    for s in tracer.spans:
        assert s.self_s <= s.duration + 1e-12 and s.self_s >= -1e-6
