"""Correctness checks on the outputs of each workload.

Each check returns a list of failure messages; an empty list is a pass.
The checks take the values to judge as arguments, so the self-tests can
feed them corrupted inputs.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import workloads

from dpconsensus import engine, experiments, graphs, noise, privacy
from dpconsensus.designer import DesignTarget, check_accuracy_design
from dpconsensus.privacy import check_epsilon_design
from dpconsensus.schedules import PowerNoise, PowerStep

# laplace_matrix(seed, runs, n_agents, step, b) -> values pinned bit for bit,
# so the counter-based stream cannot change without this check noticing.
PINNED_NOISE = (
    (
        (noise.DEFAULT_SEED, (0, 1, 999), 3, 0, 1.0),
        (
            (0.18224794106767922, -0.3121991559358202, 1.2044849660710772),
            (-0.15243011957575298, -4.389478922831979, 0.5431374317851102),
            (-0.48449339834762484, -0.24816920241143905, 0.3873147764432139),
        ),
    ),
    (
        (12345, (7,), 4, 98765, 2.5),
        ((0.04603602175832763, -1.6114793400998864, 3.344443925592204, -2.076354940421012),),
    ),
)

MEAN_SIGMAS = 5.0  # terminal gauge mean vs initial, in standard errors
VAR_SIGMAS = 5.0  # terminal variance vs the limit law, in standard errors
LAPLACE_EXCESS_KURTOSIS = 3.0  # upper bound for a sum of Laplace draws
KERNEL_RTOL = 1e-12
LAMBDA2_ATOL = 1e-9
EPSILON_RTOL = 1e-12
FSUM_HORIZON = 10_000


def pinned_noise(values=None) -> list[str]:
    """``values`` defaults to fresh laplace_matrix output for the pinned keys."""
    fails = []
    for i, ((seed, runs, n, step, b), want) in enumerate(PINNED_NOISE):
        got = (
            noise.laplace_matrix(seed, np.array(runs), n, step, b)
            if values is None
            else values[i]
        )
        if not np.array_equal(np.asarray(got), np.array(want)):
            fails.append(f"laplace_matrix{(seed, runs, n, step, b)} changed: {np.asarray(got).tolist()}")
    return fails


def reference_states(weights, x0, step, noise_sched, steps: int, seed: int, run_ids) -> np.ndarray:
    """x(k+1) = x - alpha(k) L x + alpha(k) A w(k), w(k) drawn by laplace_matrix."""
    weights = np.asarray(weights, dtype=float)
    lap = np.diag(np.abs(weights).sum(axis=1)) - weights
    x = np.tile(np.asarray(x0, dtype=float), (len(run_ids), 1))
    for k in range(steps):
        a = step.alpha(k)
        b = noise_sched.scale(k) if noise_sched is not None else 0.0
        w = noise.laplace_matrix(seed, run_ids, weights.shape[0], k, b)
        x = x - a * (x @ lap.T) + a * (w @ weights.T)
    return x


def kernel_short_horizon(cfg, gauge, seed: int, steps: int = 50, runs: int = 3):
    """(final states from engine.run_many, reference final states) on ``cfg``."""
    with warnings.catch_warnings():  # the CLI already reports an alpha(0) * c_max warning
        warnings.simplefilter("ignore", RuntimeWarning)
        _, res = engine.run_many(
            cfg.x0, cfg.graph, gauge, cfg.step, cfg.noise, steps, runs,
            seed=seed, record_idx=np.array([0, steps]),
        )
    ref = reference_states(cfg.graph.weights, cfg.x0, cfg.step, cfg.noise, steps, seed, np.arange(runs))
    return res.x_final, ref


def kernel_matches_reference(kernel_x, ref_x) -> list[str]:
    kernel_x, ref_x = np.asarray(kernel_x), np.asarray(ref_x)
    scale = max(1.0, float(np.abs(ref_x).max()))
    err = float(np.abs(kernel_x - ref_x).max()) if kernel_x.shape == ref_x.shape else math.inf
    if not err <= KERNEL_RTOL * scale:
        return [f"kernel differs from the reference recursion by {err:.3g}"]
    return []


def terminal_mean(report: dict) -> list[str]:
    """Unbiasedness: the terminal gauge mean stays near the initial one."""
    m = report["runs"] - report["diverged"]
    se = math.sqrt(report["terminal_gauge_var"] / m)
    gap = abs(report["terminal_gauge_mean"] - report["initial_gauge_mean"])
    if not gap <= MEAN_SIGMAS * se:
        return [f"terminal gauge mean off by {gap:.4g} ({gap / se:.1f} standard errors)"]
    return []


def variance_tolerance(runs: int) -> float:
    """Relative tolerance on a sample variance of ``runs`` draws."""
    return VAR_SIGMAS * math.sqrt(2.0 / (runs - 1) + LAPLACE_EXCESS_KURTOSIS / runs)


def terminal_variance(report: dict, limit_variance: float) -> list[str]:
    m = report["runs"] - report["diverged"]
    rel = abs(report["terminal_gauge_var"] / limit_variance - 1.0)
    if not rel <= variance_tolerance(m):
        return [f"terminal variance {report['terminal_gauge_var']:.4g} vs limit {limit_variance:.4g}"]
    return []


def identical(blobs: list[bytes], what: str) -> list[str]:
    if any(b != blobs[0] for b in blobs[1:]):
        return [f"same-seed {what} differ between repetitions"]
    return []


def gauge_matches_planted(gauge, planted) -> list[str]:
    gauge, planted = np.asarray(gauge, dtype=float), np.asarray(planted, dtype=float)
    if not (np.array_equal(gauge, planted) or np.array_equal(gauge, -planted)):
        return ["structural-balance gauge differs from the planted camps"]
    return []


def lambda2_matches(lambda2: float, gauge_laplacian) -> list[str]:
    ref = float(np.linalg.eigvalsh(np.asarray(gauge_laplacian))[1])
    if not abs(lambda2 - ref) <= LAMBDA2_ATOL:
        return [f"lambda2 {lambda2!r} vs eigvalsh {ref!r}"]
    return []


def epsilon_fsum(sched: PowerStep, noise_sched: PowerNoise, c_min: float, delta: float, horizon: int) -> float:
    """sum_{k=1}^T S(k)/b(k) by a plain loop and math.fsum."""
    terms, s = [], delta
    for k in range(1, horizon + 1):
        if k > 1:
            s *= 1.0 - c_min * sched.a1 / (k - 2 + sched.a2) ** sched.beta
        terms.append(s / noise_sched.scale(k))
    return math.fsum(terms)


def epsilon_matches(value: float, reference: float) -> list[str]:
    if not abs(value - reference) <= EPSILON_RTOL * abs(reference):
        return [f"epsilon_finite {value!r} vs fsum {reference!r}"]
    return []


def design_points(doc: dict, stats) -> list[str]:
    """Every printed feasible point passes both design checks again."""
    target = DesignTarget(**doc["targets"])
    fails = []
    for p in doc["feasible"]:
        sched = PowerStep(p["a1"], p["a2"], p["beta"])
        acc_ok, _ = check_accuracy_design(
            target, sched, PowerNoise(p["b_floor"], p["gamma"], p["a2"], offset=0), stats
        )
        eps_ok, _ = check_epsilon_design(
            sched, PowerNoise(p["b_floor"], p["gamma"], p["a2"], offset=1),
            stats.c_min, target.delta, target.epsilon_star,
        )
        if not (acc_ok and eps_ok):
            fails.append(f"design point {json.dumps(p, sort_keys=True)} fails on re-check")
    return fails


def privacy_report_consistent(rep) -> list[str]:
    """epsilon(T) is finite and nondecreasing in T, and below a convergent bound."""
    eps = np.array(rep.epsilon_at)
    fails = []
    if not (np.all(np.isfinite(eps)) and np.all(np.diff(eps) >= 0)):
        fails.append(f"epsilon(T) not finite and nondecreasing: {eps.tolist()}")
    if rep.infinity.convergent and not rep.infinity.value >= eps.max():
        fails.append(f"bound {rep.infinity.value!r} below epsilon(T) {eps.max()!r}")
    return fails


def _load(ref: str):
    return experiments.load_config(ref) if os.path.exists(ref) else experiments.named_config(ref)


def _command(rep, verb: str):
    return next(c for c in rep.commands if c.argv[0] == verb)


def _balanced(ref: str):
    cfg = _load(ref)
    return cfg, graphs.check_structural_balance(cfg.graph)


def _stats(ref: str):
    cfg, gauge = _balanced(ref)
    return graphs.spectrum(cfg.graph, gauge)


def _epsilon_case(sched, nz, c_min) -> list[str]:
    return epsilon_matches(
        privacy.epsilon_finite(sched, nz, c_min, 1.0, FSUM_HORIZON),
        epsilon_fsum(sched, nz, c_min, 1.0, FSUM_HORIZON),
    )


def _config_epsilon_case(ref: str) -> list[str]:
    """The accounting convention the CLI uses: offset-1 noise sharing a2."""
    cfg = _load(ref)
    nz = PowerNoise(cfg.noise.b_floor, cfg.noise.gamma, cfg.step.a2, offset=1)
    return _epsilon_case(cfg.step, nz, _stats(ref).c_min)


def _report(rep) -> dict:
    return json.loads(Path(rep.out_dir, "report.json").read_bytes())


def _limit_variance(ref: str) -> float:
    cfg, gauge = _balanced(ref)
    return engine.limit_statistics(cfg.x0, gauge, cfg.graph.degrees, cfg.step, cfg.noise).limit_variance


def verify_workload(w, reps) -> list[list[str]]:
    """Run the checks of workload ``w`` on its repetitions; one entry per check.

    A check that raises counts as failed, so a changed output format shows
    up as a failure instead of stopping the benchmark.
    """
    todo = []
    if w.mc_seed is not None:
        todo.append(pinned_noise)
        todo.append(lambda: kernel_matches_reference(*kernel_short_horizon(*_balanced(w.config_refs[0]), w.mc_seed)))
    if w.name in ("mc_paper", "single_long"):
        todo.append(lambda: identical([Path(r.out_dir, "report.json").read_bytes() for r in reps], "report.json"))
    if w.name == "mc_paper":
        todo.append(lambda: terminal_mean(_report(reps[0])))
        todo.append(lambda: terminal_variance(_report(reps[0]), _limit_variance(w.config_refs[0])))
    if w.name == "wide_graph":
        todo.append(lambda: gauge_matches_planted(_balanced(w.config_refs[0])[1], w.planted_gauge))
        stats = functools.cache(lambda: _stats(w.config_refs[0]))
        todo.append(lambda: lambda2_matches(stats().lambda2, stats().gauge_laplacian))
        todo.append(lambda: design_points(workloads.design_doc(_command(reps[0], "design")), stats()))
    if w.name == "accounting":
        todo.append(lambda: design_points(workloads.design_doc(_command(reps[0], "design")), _stats("sec4_text")))
        todo += [functools.partial(_config_epsilon_case, ref) for ref in w.config_refs]
        todo += [
            functools.partial(_epsilon_case, *workloads.grid_schedules(a1, g), workloads.FIG1A_C_MIN)
            for a1, g in w.grid
        ]
    results = []
    for check in todo:
        try:
            results.append(check())
        except Exception as exc:  # a check that cannot run is a failed check
            results.append([f"check raised {type(exc).__name__}: {exc}"])
    return results
