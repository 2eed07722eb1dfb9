"""Execution of the privacy-preserving consensus recursion.

Each step draws Laplace noise on the transmitted states and applies

    x(k+1) = (I - alpha(k) L) x(k) + alpha(k) A w(k)

which is the compact form of the per-agent update
``x_i(k+1) = x_i(k) - alpha(k) sum_j |a_ij| (x_i(k) - sgn(a_ij) y_j(k))``.
Noise is injected at every step k >= 0; a zero scale (e.g. the k = 0 value
of an offset-1 power schedule) means no noise at that step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import SignedGraph
from .noise import DEFAULT_SEED, LaplaceStream
from .schedules import (
    ConstantNoise,
    DivergentSeriesError,
    GeometricNoise,
    PowerNoise,
    PowerStep,
)

__all__ = [
    "Trajectory",
    "LimitStatistics",
    "DivergenceError",
    "step",
    "apply_update",
    "run",
    "run_many",
    "disagreement",
    "limit_statistics",
    "record_points",
    "alpha_array",
    "scale_array",
    "BACKEND_NAME",
]

BACKEND_NAME = _kernels.BACKEND_NAME
DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    def __init__(self, step_index: int):
        super().__init__(
            f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at step {step_index}; "
            "check the step-size/graph pairing"
        )
        self.step_index = step_index


@dataclass
class Trajectory:
    """Recorded series of one run; states at the steps in ``ks``."""

    ks: np.ndarray
    v_series: np.ndarray
    gauge_mean_series: np.ndarray
    x_series: np.ndarray | None = None
    y_series: np.ndarray | None = None

    def to_csv(self, path) -> None:
        n = self.x_series.shape[1] if self.x_series is not None else 0
        cols = ["k", "V", "gauge_mean"]
        cols += [f"x_{i + 1}" for i in range(n)]
        if self.y_series is not None:
            cols += [f"y_{i + 1}" for i in range(n)]
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for idx, k in enumerate(self.ks):
                row = [str(int(k)), repr(float(self.v_series[idx])), repr(float(self.gauge_mean_series[idx]))]
                if self.x_series is not None:
                    row += [repr(float(v)) for v in self.x_series[idx]]
                if self.y_series is not None:
                    row += [repr(float(v)) for v in self.y_series[idx]]
                f.write(",".join(row) + "\n")


@dataclass(frozen=True)
class LimitStatistics:
    """Mean and variance of the random bipartite consensus limit."""

    limit_mean: float
    limit_variance: float
    truncation_steps: int
    tail_bound: float


def alpha_array(sched, t: int) -> np.ndarray:
    ks = np.arange(t)
    if isinstance(sched, PowerStep):
        return sched.a1 / (ks + sched.a2) ** sched.beta
    return np.array([sched.alpha(int(k)) for k in ks], dtype=float)


def scale_array(noise, k0: int, k1: int) -> np.ndarray:
    """b(k) for k in [k0, k1); zero where a power base is nonpositive."""
    ks = np.arange(k0, k1)
    if isinstance(noise, PowerNoise):
        base = ks + noise.a2 - noise.offset
        out = np.zeros(len(ks))
        pos = base > 0
        out[pos] = noise.b_floor * base[pos] ** noise.gamma
        if noise.gamma < 0 and not pos.all():
            raise ValueError("power noise with gamma < 0 undefined at nonpositive base")
        if noise.gamma == 0:
            out[~pos] = noise.b_floor
        return out
    if isinstance(noise, GeometricNoise):
        return noise.c * noise.q ** ks.astype(float)
    if isinstance(noise, ConstantNoise):
        return np.full(len(ks), noise.b)
    if noise is None:
        return np.zeros(len(ks))
    return np.array([noise.scale(int(k)) for k in ks], dtype=float)


def apply_update(x: np.ndarray, weights: np.ndarray, alpha_k: float, y: np.ndarray) -> np.ndarray:
    """Per-agent (scalar form) update from received transmissions ``y``."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            a_ij = weights[i, j]
            if a_ij != 0.0:
                acc += abs(a_ij) * (x[i] - np.sign(a_ij) * y[j])
        out[i] = x[i] - alpha_k * acc
    return out


def step(
    x: np.ndarray,
    graph: SignedGraph,
    sched,
    noise_sched,
    k: int,
    streams: list[LaplaceStream] | None = None,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """One reference step; noise comes from ``streams`` or is injected."""
    b = noise_sched.scale(k) if noise_sched is not None else 0.0
    if omega is None:
        if streams is not None and b > 0.0:
            omega = np.array([st.sample(b) for st in streams])
        else:
            omega = np.zeros(graph.n)
            if streams is not None:
                for st in streams:
                    st.counter += 1
    y = x + omega
    out = apply_update(x, graph.weights, sched.alpha(k), y)
    if not np.all(np.isfinite(out)) or np.abs(out).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(k + 1)
    return out


def record_points(t: int, stride: int = 10) -> np.ndarray:
    """Record set: 0, T, every ``stride`` steps, log-densified near k = 0."""
    pts = set(range(0, t + 1, stride))
    pts.update({0, t})
    if t >= 1:
        logs = np.unique(np.round(np.logspace(0, np.log10(t), 120)).astype(int))
        pts.update(int(v) for v in logs if 0 <= v <= t)
    return np.array(sorted(pts), dtype=np.int64)


def run_many(
    x0,
    graph: SignedGraph,
    gauge: np.ndarray,
    sched,
    noise_sched,
    t: int,
    runs: int,
    seed: int = DEFAULT_SEED,
    first_run: int = 0,
    record_idx: np.ndarray | None = None,
    stride: int = 10,
    collect_states: bool = False,
    collect_y: bool = False,
    tail_start: int | None = None,
):
    """Simulate ``runs`` independent runs; returns (record_idx, KernelResult)."""
    if t < 1:
        raise ValueError("horizon must be >= 1")
    c_max = float(np.max(graph.degrees))
    if sched.alpha(0) * c_max >= 1.0:
        warnings.warn(
            f"alpha(0)*c_max = {sched.alpha(0) * c_max:g} >= 1: early steps may "
            "transiently amplify disagreement",
            RuntimeWarning,
            stacklevel=2,
        )
    if record_idx is None:
        record_idx = record_points(t, stride)
    res = _kernels.simulate(
        np.asarray(graph.weights, dtype=float),
        graph.laplacian(),
        np.asarray(gauge, dtype=float),
        np.asarray(x0, dtype=float),
        alpha_array(sched, t),
        scale_array(noise_sched, 0, t),
        seed,
        np.arange(first_run, first_run + runs, dtype=np.int64),
        record_idx,
        collect_states=collect_states,
        collect_y=collect_y,
        tail_start=tail_start,
        limit=DIVERGENCE_LIMIT,
    )
    return record_idx, res


def run(
    x0,
    graph: SignedGraph,
    gauge: np.ndarray,
    sched,
    noise_sched,
    t: int,
    seed: int = DEFAULT_SEED,
    run_index: int = 0,
    stride: int = 10,
    collect_y: bool = False,
) -> Trajectory:
    """One seeded run with recorded states; raises on divergence."""
    ks, res = run_many(
        x0,
        graph,
        gauge,
        sched,
        noise_sched,
        t,
        runs=1,
        seed=seed,
        first_run=run_index,
        stride=stride,
        collect_states=True,
        collect_y=collect_y,
    )
    if res.diverged_at[0] >= 0:
        raise DivergenceError(int(res.diverged_at[0]))
    return Trajectory(
        ks=ks,
        v_series=res.v[0],
        gauge_mean_series=res.gmean[0],
        x_series=res.x_rec[0],
        y_series=res.y_rec[0] if collect_y else None,
    )


def disagreement(x: np.ndarray, gauge: np.ndarray) -> float:
    """V = ||(I - J) S x||^2, the squared deviation from the gauge mean."""
    z = np.asarray(x, dtype=float) * np.asarray(gauge, dtype=float)
    dev = z - z.mean()
    return float(dev @ dev)


def _series_sum_and_tail(sched: PowerStep, noise, k_trunc: int) -> tuple[float, float, int]:
    """Partial sum of alpha^2 b^2 over 0..K plus an upper bound on the tail."""
    if isinstance(noise, PowerNoise):
        if noise.gamma >= sched.beta - 0.5:
            raise DivergentSeriesError("gamma >= beta - 1/2: variance series diverges")
        # Push the truncation past the peak of the integrand so the
        # integral from K dominates the remaining sum.
        u = sched.a2
        w = noise.a2 - noise.offset
        if noise.gamma > 0 and sched.beta > noise.gamma:
            x_dec = (noise.gamma * u - sched.beta * w) / (sched.beta - noise.gamma)
            k_trunc = max(k_trunc, int(np.ceil(x_dec)) + 1)

        # Beyond the (bumped) truncation the summand decreases, so the sum is
        # at most the integral of the envelope C*(x+u)^(2g-2b), where C caps
        # the ratio ((x+w)/(x+u))^(2g) on [K, inf).
        two_g, two_b = 2 * noise.gamma, 2 * sched.beta
        ratio = (k_trunc + w) / (k_trunc + u)
        cap = max(1.0, ratio**two_g)
        tail = (
            sched.a1**2
            * noise.b_floor**2
            * cap
            * (k_trunc + u) ** (two_g - two_b + 1)
            / (two_b - two_g - 1)
        )
    elif isinstance(noise, GeometricNoise):
        a_next = sched.alpha(k_trunc + 1)
        tail = a_next**2 * noise.c**2 * noise.q ** (2 * (k_trunc + 1)) / (1 - noise.q**2)
    elif isinstance(noise, ConstantNoise):
        if sched.beta <= 0.5:
            raise DivergentSeriesError("beta <= 1/2 with constant noise: series diverges")
        tail = (
            noise.b**2
            * sched.a1**2
            * (k_trunc + sched.a2) ** (1 - 2 * sched.beta)
            / (2 * sched.beta - 1)
        )
    else:
        raise TypeError(f"unsupported noise schedule {type(noise).__name__}")
    a = alpha_array(sched, k_trunc + 1)
    b = scale_array(noise, 0, k_trunc + 1)
    partial = float(np.sum(a**2 * b**2))
    return partial, float(tail), k_trunc


def limit_statistics(
    x0,
    gauge: np.ndarray,
    degrees: np.ndarray,
    sched: PowerStep,
    noise,
    k_trunc: int = 100_000,
) -> LimitStatistics:
    """Mean and variance of the consensus limit x*.

    ``Var(x*) = (2 sum_i c_i^2 / N^2) * sum_{j>=0} alpha(j)^2 b(j)^2``,
    evaluated as a truncated sum plus an integral tail bound.
    """
    x0 = np.asarray(x0, dtype=float)
    gauge = np.asarray(gauge, dtype=float)
    n = len(x0)
    mean = float((gauge * x0).mean())
    coeff = 2.0 * float((np.asarray(degrees) ** 2).sum()) / n**2
    if noise is None or (isinstance(noise, PowerNoise) and noise.b_floor == 0.0) or sched.a1 == 0.0:
        return LimitStatistics(mean, 0.0, k_trunc, 0.0)
    partial, tail, k_eff = _series_sum_and_tail(sched, noise, k_trunc)
    return LimitStatistics(mean, coeff * (partial + tail), k_eff, coeff * tail)
