"""Monte Carlo orchestration: configs, aggregate reports, rate fits, baselines.

A config is one JSON document describing the graph, initial states, the
step-size and noise schedules (tagged records), the horizon/run counts, and
optional design targets and baseline variants.  Artifacts are plot-ready
CSV plus a JSON report that echoes the config; identical config + seed
gives byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import engine
from .designer import DesignTarget
from .graphs import SignedGraph, check_structural_balance, fixture_graph, spectrum
from .noise import DEFAULT_SEED
from .schedules import GeometricNoise, GeometricStep, PowerNoise, PowerStep, validate_assumptions
from .special import t975

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


# The class of a schedule block, by its role (its place in the document) and its kind.
_SCHEDULE_KINDS = {
    "step": {"power": PowerStep, "geometric": GeometricStep},
    "noise": {"power": PowerNoise, "geometric": GeometricNoise},
}


def schedule_from_dict(d: dict | None, role: str):
    """The ``role`` ("step" or "noise") schedule a config block describes."""
    if d is None and role == "noise":
        return None
    if not isinstance(d, dict):
        raise ConfigError(f"{role} block must be a JSON object")
    kinds, kind = _SCHEDULE_KINDS[role], d.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {role} schedule kind {kind!r} (one of {', '.join(kinds)})")
    return _build(kinds[kind], {k: v for k, v in d.items() if k != "kind"}, f"{kind} {role} block")


def _assumption_gate(step, noise, allow_unvalidated: bool, label: str = "") -> None:
    """The convergence-assumption check every configured schedule pair passes unless it opts out."""
    if allow_unvalidated:
        return
    if not isinstance(step, PowerStep):
        raise ConfigError(f"{label}non-power step schedules require allow_unvalidated")
    reason = None if noise is None else validate_assumptions(step, noise)
    if reason is not None:
        raise ConfigError(
            f"{label}schedule pair fails the convergence assumptions ({reason}); "
            "set allow_unvalidated to run it anyway"
        )


@dataclass(frozen=True)
class BaselineVariant:
    name: str
    step: object
    noise: object = None
    allow_unvalidated: bool = False

    def __post_init__(self):
        _assumption_gate(self.step, self.noise, self.allow_unvalidated, f"baseline {self.name!r}: ")


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
    design: DesignTarget | None = None
    baselines: tuple[BaselineVariant, ...] = ()
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.horizon < 1 or self.runs < 1:
            raise ConfigError("horizon and runs must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must satisfy 0 <= seed < 2**64")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if np.shape(self.x0) != (self.graph.n,):
            raise ConfigError(f"initial state x0 must be a flat list of length n = {self.graph.n}")
        if not np.isfinite(np.asarray(self.x0, dtype=float)).all():
            raise ConfigError("initial state x0 must be finite")
        _assumption_gate(self.step, self.noise, self.allow_unvalidated)
        # Every noise family is monotone in k and checks where it starts, so a
        # finite b at the last step k = T - 1 keeps b finite on every step.
        for label, noise in [("", self.noise), *((f"baseline {b.name!r}: ", b.noise) for b in self.baselines)]:
            if noise is None:
                continue
            with np.errstate(over="ignore"):
                last = noise.scale(self.horizon - 1)
            if not math.isfinite(last):
                raise ConfigError(f"{label}noise scale b({self.horizon - 1}) = {last:g} is not finite")


def _integer(v) -> int:
    # int() would truncate 10.7 and take true; int(inf) and int(nan) raise.
    if isinstance(v, bool) or not isinstance(v, (int, float)) or int(v) != v:
        raise ValueError(f"{json.dumps(v)} is not an integer")
    return int(v)


def _number(v) -> float:
    # float() would take "0.3" and true.
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{json.dumps(v)} is not a number")
    return float(v)


def _states(v) -> np.ndarray:
    # Nested lists are left to ExperimentConfig's flat-list check.
    if isinstance(v, list):
        v = [e if isinstance(e, list) else _number(e) for e in v]
    return np.asarray(v, dtype=float)


def _string(v) -> str:
    if not isinstance(v, str):  # str() would take any value
        raise ValueError(f"{json.dumps(v)} is not a string")
    return v


def _graph_from_dict(d: dict) -> SignedGraph:
    if not isinstance(d, dict) or set(d) not in ({"fixture"}, {"n", "edges"}):
        raise ConfigError("graph block needs exactly the key fixture, or the keys n and edges")
    if "fixture" in d:
        name = _string(d["fixture"])
        try:
            return fixture_graph(name)
        except KeyError as exc:
            raise ConfigError(f"no fixture graph named {name!r}") from exc
    edges = [(_integer(i), _integer(j), _number(w)) for i, j, w in d["edges"]]
    return SignedGraph.from_edges(_integer(d["n"]), edges)


def _flag(v) -> bool:
    if not isinstance(v, bool):  # bool("false") is True
        raise ValueError(f"allow_unvalidated must be true or false, got {v!r}")
    return v


# A field's JSON value to its value: by name where the field is a block or a flag, else by annotation.
_CASTS = {
    "graph": _graph_from_dict,
    "x0": _states,
    "step": lambda d: schedule_from_dict(d, "step"),
    "noise": lambda d: schedule_from_dict(d, "noise"),
    "design": lambda d: None if d is None else _build(DesignTarget, d, "design block"),
    "baselines": lambda bs: tuple(_build(BaselineVariant, b, "baseline") for b in bs),
    "allow_unvalidated": _flag,
    "float": _number, "int": _integer, "str": _string,
}


def _build(cls, block, label: str, defaults=(), **given):
    """``cls`` from a JSON object whose keys are exactly ``cls``'s fields less ``given``.

    A field without a default in ``cls`` or ``defaults`` must be present.  Errors
    name ``label``, the block's place in the document (empty for the document).
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{label or 'config'} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in given}
    optional = {n for n, f in fields.items() if n in defaults or f.default is not f.default_factory}
    block = {**dict(defaults), **block}
    if not fields.keys() - optional <= block.keys() <= fields.keys():
        keys = ", ".join(f"[{n}]" if n in optional else n for n in fields)
        raise ConfigError(f"{label or 'config'} needs exactly the keys {keys}")
    try:
        return cls(**given, **{k: (_CASTS.get(k) or _CASTS[fields[k].type])(v) for k, v in block.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{label}: {exc}" if label else str(exc)) from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, doc, "", {"name": "experiment", "noise": None, "runs": 1}, raw=doc)


def load_config(ref: str) -> ExperimentConfig:
    """A config from a JSON file, or the shipped config of that name if no such file exists."""
    if not os.path.isfile(ref):  # a directory named after a shipped config leaves it served
        return named_config(ref)
    try:
        with open(ref) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {ref}: {exc}") from exc
    return config_from_dict(doc)


# Each shipped config name and the file in fixtures/ that serves it.
_SHIPPED = {"fig2a": "fig2a", "fig2_caption": "fig2a", "fig3a": "fig3a", "sec4_text": "sec4_text"}


def named_config(name: str) -> ExperimentConfig:
    """A config shipped with the package, served under its own name."""
    if name not in _SHIPPED:
        raise ConfigError(f"no shipped config named {name!r}")
    doc = json.loads((resources.files("dpconsensus") / "fixtures" / f"{_SHIPPED[name]}.json").read_text())
    return config_from_dict({**doc, "name": name})


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
    rate: RateFit | None
    diverged: int
    runs: int


def estimate_rate(ks, v_mean, window: tuple[float, float]) -> RateFit:
    """OLS of log mean-disagreement on log step over a step-index window."""
    ks = np.asarray(ks, dtype=float)
    v = np.asarray(v_mean, dtype=float)
    mask = (ks >= window[0]) & (ks <= window[1]) & (ks > 0)
    if mask.sum() < 10:
        raise ValueError("need at least 10 recorded points in the window")
    if np.any(v[mask] <= 0):
        raise NonpositiveValuesError("nonpositive disagreement in window; use a later window")
    # scipy.stats.linregress's arithmetic, without importing scipy.stats, on exactly
    # rounded sums: a BLAS dot product's bits depend on the CPU kernels it picks.
    x, y = np.log(ks[mask]), np.log(v[mask])
    dx, dy = x - math.fsum(x.tolist()) / len(x), y - math.fsum(y.tolist()) / len(y)
    sxx, sxy, syy = (math.fsum((p * q).tolist()) / len(x) for p, q in ((dx, dx), (dx, dy), (dy, dy)))
    r = 0.0 if syy == 0 else np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)  # a constant series fits exactly
    slope = sxy / sxx
    dof = int(mask.sum()) - 2
    stderr = np.sqrt((1 - r**2) * syy / sxx / dof)
    half = t975(dof) * stderr
    return RateFit(
        slope=float(slope),
        ci_low=float(slope - half),
        ci_high=float(slope + half),
        stderr=float(stderr),
        window=(int(window[0]), int(window[1])),
        n_points=int(mask.sum()),
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> AggregateReport:
    """Execute the Monte Carlo batch, optionally writing CSV/JSON artifacts."""
    gauge = check_structural_balance(cfg.graph)
    if out_dir is not None:  # before the batch, so a bad path fails fast
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    def batch(drop=None):
        return engine.run_many(
            cfg.x0, cfg.graph, gauge, cfg.step, cfg.noise, cfg.horizon, cfg.runs,
            seed=cfg.seed, record_idx=engine.record_points(cfg.horizon, cfg.stride), drop=drop,
        )

    ks, res = batch()
    dead = res.diverged_at >= 0
    diverged = int(dead.sum())
    if diverged > cfg.runs * 0.01:
        raise ExperimentDivergence(diverged, cfg.runs)
    if out_dir is not None and dead[0]:
        raise engine.DivergenceError(int(res.diverged_at[0]))  # trajectory_000.csv is run 0
    if diverged:
        # The aggregate leaves out every run that diverged, which the kernel learns only
        # after it has aggregated their early records.  The noise is counter-based, so
        # the same batch again gives every kept run's records bit for bit.
        ks, res = batch(drop=dead)
    terminal = (res.x_final[~dead] * gauge).mean(axis=1)
    v_q10, v_q50, v_q90 = res.v_deciles
    rate = None
    if cfg.horizon >= 100:
        try:
            rate = estimate_rate(ks, res.v_mean, (cfg.horizon / 10, cfg.horizon))
        except ValueError:
            rate = None
    report = AggregateReport(
        ks=ks,
        v_mean=res.v_mean,
        v_q10=v_q10,
        v_q50=v_q50,
        v_q90=v_q90,
        terminal_gauge_mean=float(terminal.mean()),
        terminal_gauge_var=float(terminal.var(ddof=1)) if len(terminal) > 1 else 0.0,
        initial_gauge_mean=float((np.asarray(cfg.x0) * gauge).mean()),
        rate=rate,
        diverged=diverged,
        runs=cfg.runs,
    )
    if out_dir is not None:
        _write_artifacts(report, res, out_dir, cfg)
    return report


def _write_artifacts(report, res, out_dir, cfg) -> None:
    """report.json, aggregate.csv and trajectory_000.csv (run 0 of the batch; y only with noise)."""
    n = res.x_rec.shape[1]
    cols = ["k", "V", "gauge_mean"] + [f"x_{i + 1}" for i in range(n)]
    states = [res.x_rec]
    if cfg.noise is not None:
        cols += [f"y_{i + 1}" for i in range(n)]
        states.append(res.y_rec)
    _write_csv(os.path.join(out_dir, "trajectory_000.csv"), cols, report.ks, [res.v0, res.gmean, *states])
    _write_csv(
        os.path.join(out_dir, "aggregate.csv"),
        ["k", "v_mean", "v_q10", "v_q50", "v_q90"],
        report.ks,
        [report.v_mean, report.v_q10, report.v_q50, report.v_q90],
    )
    doc = {
        "config": cfg.raw,
        "seed": cfg.seed,
        "runs": report.runs,
        "backend": engine.BACKEND_NAME,
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


def _write_csv(path, header, ks, columns) -> None:
    """A header line, then per record step k and the columns' values at it.

    Each value is the repr of a Python float, the text of ``repr(float(v))``;
    rows are converted one at a time, as a whole-table list would take
    megabytes.
    """
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for k, row in zip(ks.tolist(), np.column_stack(columns)):
            f.write(",".join(map(repr, [k, *row.tolist()])) + "\n")


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


def compare_baselines(cfg: ExperimentConfig) -> list[BaselineVerdict]:
    """Protocol vs baseline variants: freeze, bias, and noise-liveness checks."""
    gauge = check_structural_balance(cfg.graph)
    target = float((np.asarray(cfg.x0) * gauge).mean())
    variants = [BaselineVariant("protocol", cfg.step, cfg.noise, cfg.allow_unvalidated), *cfg.baselines]
    out = []
    t = cfg.horizon
    d = max(t // 10, 1)  # a decile of the horizon, one step at t < 10: the tail and the noise windows
    for var in variants:
        _, res = engine.run_many(
            cfg.x0, cfg.graph, gauge, var.step, var.noise, t, cfg.runs,
            seed=cfg.seed, record_idx=np.array([0, t]), tail_start=t - d,
        )
        ok = res.diverged_at < 0
        tail_delta = float(res.max_tail_delta[ok].max()) if ok.any() else math.inf
        terminal = (res.x_final[ok] * gauge).mean(axis=1)
        bias = float(terminal.mean() - target)
        stderr = float(terminal.std(ddof=1) / math.sqrt(len(terminal))) if len(terminal) > 1 else 0.0
        # A window's noise std is that of an equal mix of its Lap(0, b(k)): sqrt(2 mean b(k)^2).
        s_first, s_last = (
            0.0 if var.noise is None else math.sqrt(2.0 * np.mean(var.noise.scale(np.arange(lo, lo + d)) ** 2))
            for lo in (0, t - d)
        )
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
