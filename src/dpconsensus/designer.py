"""Joint accuracy/privacy parameter design and rate prediction.

Accuracy uses the Chebyshev route: the consensus limit has variance
``kappa = (2 sum c_i^2 / N^2) sum alpha^2(k) b^2(k)``, and (s, r)-accuracy
holds with ``s = kappa / r^2``.  The sufficient design condition bounds the
series in closed form (offset-0 power noise sharing a2 with the step
schedule).  Privacy feasibility reuses the closed-form infinite-horizon
bound, which lives on the offset-1 convention; the search evaluates each
constraint in its own convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphSpectrum
from .privacy import check_epsilon_design
from .schedules import DivergentSeriesError, PowerNoise, PowerStep, sum_alpha2_b2_bound

__all__ = [
    "DesignTarget",
    "RatePrediction",
    "DesignPoint",
    "DesignResult",
    "check_accuracy_design",
    "design_search",
    "default_grid",
    "predict_ms_rate",
    "predict_as_rate",
    "as_exponent_infimum",
]


@dataclass(frozen=True)
class DesignTarget:
    """(s*, r*)-accuracy plus epsilon* privacy at adjacency bound delta."""

    s_star: float
    r_star: float
    epsilon_star: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.s_star <= 1.0:
            raise ValueError("s_star must lie in [0, 1]")
        if not (self.r_star > 0 and self.epsilon_star > 0 and self.delta > 0):
            raise ValueError("r_star, epsilon_star, delta must be positive")


@dataclass(frozen=True)
class RatePrediction:
    regime: str
    exponent: float
    log_factor: str = "none"  # none | ln k | sqrt(ln ln k) | sqrt(ln k * ln ln ln k)


@dataclass(frozen=True)
class DesignPoint:
    a1: float
    a2: float
    beta: float
    gamma: float
    b_floor: float
    ms_exponent: float
    epsilon_bound: float
    epsilon_case: str
    accuracy_margin: float


@dataclass(frozen=True)
class DesignResult:
    points: tuple[DesignPoint, ...]
    failure_counts: dict = field(default_factory=dict)
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return len(self.points) > 0


def _accuracy_rhs(target: DesignTarget, stats: GraphSpectrum) -> float:
    n = len(stats.degrees)
    return target.s_star * target.r_star**2 * n**2 / (2.0 * stats.degree_square_sum)


def check_accuracy_design(
    target: DesignTarget, sched: PowerStep, nsched: PowerNoise, stats: GraphSpectrum
) -> tuple[bool, float]:
    """Sufficient closed-form accuracy condition; margin = RHS - LHS.

    The bound checks the noise convention; it is 0 at a1 = 0 whatever gamma,
    so the divergence test is repeated here.
    """
    lhs = sum_alpha2_b2_bound(sched, nsched)
    if nsched.gamma >= sched.beta - 0.5:
        raise DivergentSeriesError("gamma >= beta - 1/2: limit variance diverges")
    margin = _accuracy_rhs(target, stats) - lhs
    return margin >= 0.0, margin


def predict_ms_rate(
    beta: float, gamma: float, alpha_lower: float, lambda2: float
) -> RatePrediction:
    """Exponent e of the O(k^e) upper bound on the mean-square disagreement.

    The disagreement decays at least this fast; e is not its exact rate.  A
    fitted log-log slope may lie below e, down to the noise floor
    alpha(k)*b(k)^2 ~ k^(2*gamma - beta).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if gamma >= beta - 0.5:
        raise ValueError("gamma must satisfy gamma < beta - 1/2")
    if beta < 1.0:
        return RatePrediction("power-step", 1 + 2 * gamma - 2 * beta)
    drive = gamma + alpha_lower * lambda2
    if drive < 0.5:
        return RatePrediction("harmonic-step gain-limited", -2 * alpha_lower * lambda2)
    if drive == 0.5:
        return RatePrediction("harmonic-step critical", 2 * gamma - 1, "ln k")
    return RatePrediction("harmonic-step noise-limited", 2 * gamma - 1)


def as_exponent_infimum(beta: float, gamma: float) -> float:
    """Infimum of the almost-sure exponent over admissible eta (at eta -> 1/4)."""
    return gamma + 0.25 * (1 - beta) - beta / 2


def predict_as_rate(
    beta: float,
    gamma: float,
    alpha_lower: float,
    lambda2: float,
    eta: float | None = None,
) -> RatePrediction:
    """Almost-sure decay exponent of the pairwise gap |s_i x_i - s_j x_j|."""
    if not 0.5 < beta <= 1.0:
        raise ValueError("beta must lie in (1/2, 1]")
    if gamma >= beta - 0.5:
        raise ValueError("gamma must satisfy gamma < beta - 1/2")
    if beta == 1.0:
        drive = alpha_lower * lambda2 + gamma
        if drive > 0.5:
            return RatePrediction("harmonic-step noise-limited", gamma - 0.5, "sqrt(ln ln k)")
        if drive == 0.5:
            return RatePrediction(
                "harmonic-step critical", gamma - 0.5, "sqrt(ln k * ln ln ln k)"
            )
        return RatePrediction("harmonic-step gain-limited", -alpha_lower * lambda2)
    eta_max = (beta / 2 - gamma) / (1 - beta)
    if eta is None:
        eta = 0.5 * (0.25 + eta_max)
    if not 0.25 < eta < eta_max:
        raise ValueError(f"eta must lie in (1/4, {eta_max:g})")
    return RatePrediction("power-step", gamma + eta - (eta + 0.5) * beta)


def default_grid() -> dict:
    """Documented default search grid over (a1, a2, beta, gamma, b_floor)."""
    return {
        "a1": [0.2, 0.3, 0.5, 0.7, 1.0],
        "a2": [1.0, 2.0],
        "beta": [0.6, 0.7, 0.8, 0.9, 1.0],
        "gamma": None,  # per-beta: -0.5 to beta - 0.51 in steps of 0.1
        "b_floor": list(np.geomspace(0.1, 10.0, 7)),
    }


def _gammas_for(beta: float, grid: dict) -> list[float]:
    if grid.get("gamma") is not None:
        return [g for g in grid["gamma"] if g < beta - 0.5]
    return [round(float(g), 10) for g in np.arange(-0.5, beta - 0.51 + 1e-12, 0.1)]


def design_search(
    target: DesignTarget, stats: GraphSpectrum, grid: dict | None = None
) -> DesignResult:
    """Exhaustive grid search; feasible points sorted fastest-rate first."""
    grid = dict(default_grid(), **(grid or {}))
    # _gammas_for yields only gamma < beta - 1/2, so "assumption" stays 0; design JSON reports it.
    fails = {"accuracy": 0, "epsilon": 0, "assumption": 0}
    points: list[DesignPoint] = []
    evaluated = 0
    all_above_floor = True
    for beta in grid["beta"]:
        for gamma in _gammas_for(beta, grid):
            for a1 in grid["a1"]:
                for a2 in grid["a2"]:
                    for bf in grid["b_floor"]:
                        evaluated += 1
                        floor = target.delta / (bf * a2**gamma)  # delta/b(1)
                        if floor <= target.epsilon_star:
                            all_above_floor = False
                        sched = PowerStep(a1, a2, beta)
                        acc_ok, margin = check_accuracy_design(
                            target, sched, PowerNoise(bf, gamma, a2, offset=0), stats
                        )
                        if not acc_ok:
                            fails["accuracy"] += 1
                            continue
                        try:
                            eps_ok, bound = check_epsilon_design(
                                sched,
                                PowerNoise(bf, gamma, a2, offset=1),
                                stats.c_min,
                                target.delta,
                                target.epsilon_star,
                            )
                        except ValueError:
                            eps_ok, bound = False, None
                        if not eps_ok:
                            fails["epsilon"] += 1
                            continue
                        ms = predict_ms_rate(beta, gamma, a1, stats.lambda2)
                        points.append(
                            DesignPoint(
                                a1=a1,
                                a2=a2,
                                beta=beta,
                                gamma=gamma,
                                b_floor=float(bf),
                                ms_exponent=ms.exponent,
                                epsilon_bound=bound.value,
                                epsilon_case=bound.case,
                                accuracy_margin=margin,
                            )
                        )
    if evaluated == 0:
        raise ValueError("empty search grid")
    points.sort(key=lambda p: (p.ms_exponent, p.beta, p.gamma, p.a1, p.a2, p.b_floor))
    reason = None
    if not points:
        reason = "epsilon floor" if all_above_floor else "no grid point satisfies both constraints"
    return DesignResult(tuple(points), fails, reason)
