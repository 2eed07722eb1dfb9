"""Monte Carlo orchestration: configs, aggregate reports, rate fits, baselines.

A config is one JSON document describing the graph, initial states, the
step-size and noise schedules (tagged records), the horizon/run counts, and
optional design targets and baseline variants.  Artifacts are plot-ready
CSV plus a JSON report that echoes the config; identical config + seed
gives byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy import stats as sstats

from . import engine
from .graphs import SignedGraph, check_structural_balance, fixture_graph, spectrum
from .noise import DEFAULT_SEED, laplace_matrix
from .schedules import (
    ConstantNoise,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
    validate_assumptions,
)

__all__ = [
    "ConfigError",
    "ExperimentDivergence",
    "NonpositiveValuesError",
    "ExperimentConfig",
    "BaselineVariant",
    "AggregateReport",
    "RateFit",
    "BaselineVerdict",
    "load_config",
    "named_config",
    "run_experiment",
    "estimate_rate",
    "compare_baselines",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ExperimentDivergence(RuntimeError):
    def __init__(self, count: int, runs: int):
        super().__init__(f"{count} of {runs} runs diverged (> 1% tolerance)")
        self.count = count
        self.runs = runs


class NonpositiveValuesError(ValueError):
    """A rate window contains nonpositive disagreement estimates."""


def schedule_from_dict(d: dict):
    if d is None:
        return None
    kind = d.get("kind")
    if kind == "power":
        if "a1" in d:
            return PowerStep(float(d["a1"]), float(d["a2"]), float(d["beta"]))
        return PowerNoise(
            float(d["b_floor"]),
            float(d["gamma"]),
            float(d.get("a2", 0.0)),
            int(d.get("offset", 0)),
        )
    if kind == "geometric":
        if "p" in d:
            return GeometricStep(float(d["p"]))
        return GeometricNoise(float(d["c"]), float(d["q"]))
    if kind == "constant":
        return ConstantNoise(float(d["b"]))
    raise ConfigError(f"unknown schedule kind {kind!r}")


def schedule_to_dict(s) -> dict | None:
    if s is None:
        return None
    if isinstance(s, PowerStep):
        return {"kind": "power", "a1": s.a1, "a2": s.a2, "beta": s.beta}
    if isinstance(s, PowerNoise):
        return {"kind": "power", "b_floor": s.b_floor, "gamma": s.gamma, "a2": s.a2, "offset": s.offset}
    if isinstance(s, GeometricStep):
        return {"kind": "geometric", "p": s.p}
    if isinstance(s, GeometricNoise):
        return {"kind": "geometric", "c": s.c, "q": s.q}
    if isinstance(s, ConstantNoise):
        return {"kind": "constant", "b": s.b}
    raise TypeError(type(s).__name__)


@dataclass(frozen=True)
class BaselineVariant:
    name: str
    step: object
    noise: object
    allow_unvalidated: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    graph: SignedGraph
    x0: np.ndarray
    step: object
    noise: object
    horizon: int
    runs: int
    seed: int = DEFAULT_SEED
    stride: int = 10
    allow_unvalidated: bool = False
    out_dir: str | None = None
    design: dict | None = None
    baselines: tuple[BaselineVariant, ...] = ()
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.horizon < 1 or self.runs < 1:
            raise ConfigError("horizon and runs must be >= 1")
        if len(self.x0) != self.graph.n:
            raise ConfigError("initial state length does not match graph size")
        if not np.isfinite(np.asarray(self.x0, dtype=float)).all():
            raise ConfigError("initial state x0 must be finite")
        if (
            isinstance(self.step, PowerStep)
            and self.noise is not None
            and not self.allow_unvalidated
        ):
            verdict = validate_assumptions(self.step, self.noise)
            if not verdict.satisfies_a:
                raise ConfigError(
                    f"schedule pair fails the convergence assumptions ({verdict.reason}); "
                    "set allow_unvalidated to run it anyway"
                )
        if not isinstance(self.step, PowerStep) and not self.allow_unvalidated:
            raise ConfigError("non-power step schedules require allow_unvalidated")


def _graph_from_dict(d: dict) -> SignedGraph:
    if "fixture" in d:
        try:
            return fixture_graph(d["fixture"])
        except FileNotFoundError as exc:
            raise ConfigError(f"no fixture graph named {d['fixture']!r}") from exc
    edges = [(int(i), int(j), float(w)) for i, j, w in d["edges"]]
    return SignedGraph.from_edges(int(d["n"]), edges)


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        baselines = tuple(
            BaselineVariant(
                name=b["name"],
                step=schedule_from_dict(b["step"]),
                noise=schedule_from_dict(b.get("noise")),
                allow_unvalidated=bool(b.get("allow_unvalidated", False)),
            )
            for b in doc.get("baselines", [])
        )
        return ExperimentConfig(
            name=doc.get("name", "experiment"),
            graph=_graph_from_dict(doc["graph"]),
            x0=np.asarray(doc["x0"], dtype=float),
            step=schedule_from_dict(doc["step"]),
            noise=schedule_from_dict(doc.get("noise")),
            horizon=int(doc["horizon"]),
            runs=int(doc.get("runs", 1)),
            seed=int(doc.get("seed", DEFAULT_SEED)),
            stride=int(doc.get("stride", 10)),
            allow_unvalidated=bool(doc.get("allow_unvalidated", False)),
            out_dir=doc.get("out_dir"),
            design=doc.get("design"),
            baselines=baselines,
            raw=doc,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


def named_config(name: str) -> ExperimentConfig:
    """A config shipped with the package (fig2a, fig3a, sec4_text)."""
    ref = resources.files("dpconsensus") / "fixtures" / f"{name}.json"
    try:
        doc = json.loads(ref.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"no shipped config named {name!r}") from exc
    return config_from_dict(doc)


@dataclass
class RateFit:
    slope: float
    ci_low: float
    ci_high: float
    stderr: float
    window: tuple[int, int]
    n_points: int


@dataclass
class AggregateReport:
    ks: np.ndarray
    v_mean: np.ndarray
    v_q10: np.ndarray
    v_q50: np.ndarray
    v_q90: np.ndarray
    terminal_gauge_mean: float
    terminal_gauge_var: float
    initial_gauge_mean: float
    terminal_gauge_means: np.ndarray
    rate: RateFit | None
    diverged: int
    runs: int
    backend: str
    config_echo: dict = field(default_factory=dict)


def estimate_rate(ks, v_mean, window: tuple[float, float]) -> RateFit:
    """OLS of log mean-disagreement on log step over a step-index window."""
    ks = np.asarray(ks, dtype=float)
    v = np.asarray(v_mean, dtype=float)
    mask = (ks >= window[0]) & (ks <= window[1]) & (ks > 0)
    if mask.sum() < 10:
        raise ValueError("need at least 10 recorded points in the window")
    if np.any(v[mask] <= 0):
        raise NonpositiveValuesError("nonpositive disagreement in window; use a later window")
    res = sstats.linregress(np.log(ks[mask]), np.log(v[mask]))
    dof = int(mask.sum()) - 2
    half = sstats.t.ppf(0.975, dof) * res.stderr if dof > 0 else math.inf
    return RateFit(
        slope=float(res.slope),
        ci_low=float(res.slope - half),
        ci_high=float(res.slope + half),
        stderr=float(res.stderr),
        window=(int(window[0]), int(window[1])),
        n_points=int(mask.sum()),
    )


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    runs: int | None = None,
    seed: int | None = None,
) -> AggregateReport:
    """Execute the Monte Carlo batch, optionally writing CSV/JSON artifacts."""
    runs = cfg.runs if runs is None else runs
    seed = cfg.seed if seed is None else seed
    out_dir = cfg.out_dir if out_dir is None else out_dir
    gauge = check_structural_balance(cfg.graph)
    ks, res = engine.run_many(
        cfg.x0,
        cfg.graph,
        gauge,
        cfg.step,
        cfg.noise,
        cfg.horizon,
        runs,
        seed=seed,
        stride=cfg.stride,
        collect_states=out_dir is not None,
        collect_y=out_dir is not None and cfg.noise is not None,
    )
    diverged = int(np.sum(res.diverged_at >= 0))
    if diverged > max(1, runs) * 0.01:
        raise ExperimentDivergence(diverged, runs)
    ok = res.diverged_at < 0
    v = res.v[ok]
    terminal = (res.x_final[ok] * gauge).mean(axis=1)
    rate = None
    if cfg.horizon >= 100:
        try:
            rate = estimate_rate(ks, v.mean(axis=0), (cfg.horizon / 10, cfg.horizon))
        except (ValueError, NonpositiveValuesError):
            rate = None
    report = AggregateReport(
        ks=ks,
        v_mean=v.mean(axis=0),
        v_q10=np.quantile(v, 0.1, axis=0),
        v_q50=np.quantile(v, 0.5, axis=0),
        v_q90=np.quantile(v, 0.9, axis=0),
        terminal_gauge_mean=float(terminal.mean()),
        terminal_gauge_var=float(terminal.var(ddof=1)) if len(terminal) > 1 else 0.0,
        initial_gauge_mean=float((np.asarray(cfg.x0) * gauge).mean()),
        terminal_gauge_means=terminal,
        rate=rate,
        diverged=diverged,
        runs=runs,
        backend=engine.BACKEND_NAME,
        config_echo=dict(cfg.raw) if cfg.raw else _echo(cfg),
    )
    if out_dir is not None:
        _write_artifacts(report, engine.Trajectory.first_run(ks, res), out_dir, seed)
    return report


def _echo(cfg: ExperimentConfig) -> dict:
    return {
        "name": cfg.name,
        "graph": {"n": cfg.graph.n},
        "x0": list(map(float, cfg.x0)),
        "step": schedule_to_dict(cfg.step),
        "noise": schedule_to_dict(cfg.noise),
        "horizon": cfg.horizon,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "stride": cfg.stride,
    }


def _write_artifacts(report, traj, out_dir, seed) -> None:
    """report.json, aggregate.csv and trajectory_000.csv (run 0 of the batch)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    traj.to_csv(os.path.join(out_dir, "trajectory_000.csv"))
    with open(os.path.join(out_dir, "aggregate.csv"), "w") as f:
        f.write("k,v_mean,v_q10,v_q50,v_q90\n")
        for i, k in enumerate(report.ks):
            f.write(
                f"{int(k)},{float(report.v_mean[i])!r},{float(report.v_q10[i])!r},"
                f"{float(report.v_q50[i])!r},{float(report.v_q90[i])!r}\n"
            )
    doc = {
        "config": report.config_echo,
        "seed": seed,
        "runs": report.runs,
        "backend": report.backend,
        "diverged": report.diverged,
        "initial_gauge_mean": report.initial_gauge_mean,
        "terminal_gauge_mean": report.terminal_gauge_mean,
        "terminal_gauge_var": report.terminal_gauge_var,
        "rate": None
        if report.rate is None
        else {
            "slope": report.rate.slope,
            "ci": [report.rate.ci_low, report.rate.ci_high],
            "stderr": report.rate.stderr,
            "window": list(report.rate.window),
            "n_points": report.rate.n_points,
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass
class BaselineVerdict:
    name: str
    froze: bool
    tail_delta: float
    bias: float
    bias_stderr: float
    biased: bool
    noise_std_first: float
    noise_std_last: float
    noise_alive: bool


def _decile_noise_std(noise, seed, runs, n, t, first: bool) -> float:
    """Empirical std of the injected noise over one decile of the horizon."""
    if noise is None:
        return 0.0
    lo, hi = (0, t // 10) if first else (t - t // 10, t)
    r = min(runs, 50)
    samples = []
    for k, b in zip(range(lo, hi), noise.scale(np.arange(lo, hi))):
        samples.append(laplace_matrix(seed, np.arange(r), n, k, b).ravel())
    stacked = np.concatenate(samples)
    return float(stacked.std())


def compare_baselines(cfg: ExperimentConfig, runs: int | None = None) -> list[BaselineVerdict]:
    """Protocol vs baseline variants: freeze, bias, and noise-liveness checks."""
    runs = cfg.runs if runs is None else runs
    gauge = check_structural_balance(cfg.graph)
    target = float((np.asarray(cfg.x0) * gauge).mean())
    variants = [BaselineVariant("protocol", cfg.step, cfg.noise)] + list(cfg.baselines)
    out = []
    t = cfg.horizon
    tail_start = t - max(t // 10, 1)
    for var in variants:
        _, res = engine.run_many(
            cfg.x0, cfg.graph, gauge, var.step, var.noise, t, runs,
            seed=cfg.seed, stride=cfg.stride, tail_start=tail_start,
        )
        ok = res.diverged_at < 0
        tail_delta = float(res.max_tail_delta[ok].max()) if ok.any() else math.inf
        terminal = (res.x_final[ok] * gauge).mean(axis=1)
        bias = float(terminal.mean() - target)
        stderr = float(terminal.std(ddof=1) / math.sqrt(len(terminal))) if len(terminal) > 1 else 0.0
        s_first = _decile_noise_std(var.noise, cfg.seed, runs, cfg.graph.n, t, first=True)
        s_last = _decile_noise_std(var.noise, cfg.seed, runs, cfg.graph.n, t, first=False)
        out.append(
            BaselineVerdict(
                name=var.name,
                froze=tail_delta < 1e-9,
                tail_delta=tail_delta,
                bias=bias,
                bias_stderr=stderr,
                biased=stderr > 0 and abs(bias) > 4 * stderr,
                noise_std_first=s_first,
                noise_std_last=s_last,
                noise_alive=s_last > s_first,
            )
        )
    return out
