"""Differential-privacy accounting for the noisy consensus protocol.

Adjacency is single-agent: two initial-state vectors differing in one entry
by at most ``delta``.  The per-step sensitivity contracts as

    S(1) = delta,   S(k) = delta * prod_{l=0}^{k-2} (1 - alpha(l) c_min)

and the privacy loss over a horizon T is ``sum_{k=1}^T S(k) / b(k)``.
The infinite-horizon bound admits four closed forms depending on the
step-size exponent and the sign of the noise-growth exponent; all assume
the offset-1 power noise ``b(k) = b_floor * (k + a2 - 1)^gamma`` sharing
``a2`` with the step-size schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedules import PowerNoise, PowerStep
from .special import upper_incomplete_gamma

__all__ = [
    "EpsilonBound",
    "PrivacyReport",
    "sensitivity",
    "sensitivity_series",
    "epsilon_finite",
    "epsilon_infinity_bound",
    "check_epsilon_design",
    "privacy_report",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class EpsilonBound:
    """Infinite-horizon privacy bound with the closed-form branch used."""

    value: float
    case: str
    convergent: bool


@dataclass(frozen=True)
class PrivacyReport:
    horizons: tuple[int, ...]
    epsilon_at: tuple[float, ...]
    infinity: EpsilonBound
    delta: float
    c_min: float
    params: dict = field(default_factory=dict)


def _check_contraction(sched: PowerStep, c_min: float) -> None:
    if sched.a1 * c_min >= sched.a2**sched.beta:
        raise ValueError(
            "step schedule too aggressive for the sensitivity bound: "
            "need a1 * c_min < a2^beta so every contraction factor stays in (0, 1)"
        )


def sensitivity(k: int, sched: PowerStep, c_min: float, delta: float) -> float:
    """S(k) for a single step index k >= 1."""
    if k < 1:
        raise ValueError("step index must be >= 1")
    if k == 1:
        return delta
    ls = np.arange(k - 1)
    return delta * float(np.prod(1.0 - c_min * sched.a1 / (ls + sched.a2) ** sched.beta))


def sensitivity_series(t: int, sched: PowerStep, c_min: float, delta: float) -> np.ndarray:
    """S(1), ..., S(t) as one array."""
    ls = np.arange(max(t - 1, 0))
    factors = 1.0 - c_min * sched.a1 / (ls + sched.a2) ** sched.beta
    return delta * np.concatenate(([1.0], np.cumprod(factors)))[:t]


def epsilon_finite(sched: PowerStep, noise, c_min: float, delta: float, horizon: int) -> float:
    """Privacy loss sum_{k=1}^T S(k)/b(k), streamed in chunks."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    total = 0.0
    running = 1.0  # prod of contraction factors consumed so far
    k = 1
    while k <= horizon:
        hi = min(horizon, k + _CHUNK - 1)
        ls = np.arange(k - 1, hi, dtype=float)
        factors = 1.0 - c_min * sched.a1 / (ls + sched.a2) ** sched.beta
        cp = np.cumprod(factors)
        s_vals = delta * running * np.concatenate(([1.0], cp[:-1]))
        b_vals = noise.scale(np.arange(k, hi + 1))
        if np.any(b_vals <= 0.0):
            return math.inf
        total += float(np.sum(s_vals / b_vals))
        running *= float(cp[-1])
        if abs(running) < 1e-300:
            break
        k = hi + 1
    return total


def _require_shared_power_noise(sched: PowerStep, noise) -> PowerNoise:
    if not isinstance(noise, PowerNoise):
        raise ValueError("the closed-form privacy bound needs a power-law noise schedule")
    if noise.offset != 1 or noise.a2 != sched.a2:
        raise ValueError(
            "the closed-form privacy bound assumes b(k) = b_floor*(k + a2 - 1)^gamma "
            "with the same a2 as the step-size schedule"
        )
    return noise


def epsilon_infinity_bound(
    sched: PowerStep, noise, c_min: float, delta: float
) -> EpsilonBound:
    """Closed-form upper bound on sup_T of the privacy loss.

    Four convergent branches: beta = 1 with nonnegative / negative gamma
    (both needing a1*c_min + gamma > 1), and beta < 1 with nonnegative /
    negative gamma via the upper incomplete gamma function.  Where the
    beta < 1 form overflows (beta near 1) the case is "overflow": no finite
    bound, ``convergent`` False.
    """
    noise = _require_shared_power_noise(sched, noise)
    _check_contraction(sched, c_min)
    a2, beta, gamma = sched.a2, sched.beta, noise.gamma
    bf = noise.b_floor
    acm = sched.a1 * c_min
    first = delta / (bf * a2**gamma)  # delta / b(1)

    if beta == 1.0:
        if acm + gamma <= 1.0:
            return EpsilonBound(math.inf, "divergent", False)
        if gamma >= 0.0:
            rest = delta * (1 + a2) ** acm * a2 ** (1 - acm - gamma) / (bf * (acm + gamma - 1))
            return EpsilonBound(first + rest, "case1", True)
        m = math.floor(-gamma)
        terms = []
        for t in range(m + 1):
            num = math.prod(gamma + i for i in range(t))  # empty product -> 1
            num *= (1 + a2) ** (-gamma - t) * a2 ** (-acm + t + m + 1)
            den = math.prod(-acm + 1 + i for i in range(t + 1))
            terms.append(num / den)
        head = abs(math.fsum(terms))
        num2 = math.prod(-gamma - i for i in range(m + 1)) * a2 ** (-acm - gamma + 1)
        den2 = math.prod(acm - 1 - i for i in range(m + 1)) * (acm + gamma - 1)
        rest = delta * (1 + a2) ** acm / bf * (head + num2 / den2)
        return EpsilonBound(first + rest, "case2", True)

    # beta < 1: always convergent under the contraction check, but e^z and
    # Gamma(shape) leave the float range as beta -> 1.
    shape = (1 - gamma) / (1 - beta)
    z = acm * a2 ** (1 - beta) / (1 - beta)
    try:
        pre = delta * math.exp(z) / (bf * (1 - beta))
        rest = pre * (acm / (1 - beta)) ** (-shape) * upper_incomplete_gamma(shape, z)
    except OverflowError:
        return EpsilonBound(math.inf, "overflow", False)
    if gamma >= 0.0:
        return EpsilonBound(first + rest, "case3", True)
    # Negative gamma: the summand peaks in the interior, so one extra term
    # bounds the sum-vs-integral gap around the peak -- but only when the
    # peak sits at step index >= 2.
    try:
        x_peak = (-gamma / acm) ** (-1.0 / beta)
    except OverflowError:  # gamma -> 0-: the peak recedes to infinity and its term to 0
        x_peak = math.inf
    if x_peak - a2 + 1 >= 2:
        peak = (
            delta
            * math.exp(z)
            / bf
            * (-gamma / acm) ** (gamma / beta)
            * math.exp(gamma / (1 - beta) * x_peak)
        )
        rest += peak
    return EpsilonBound(first + rest, "case4", True)


def check_epsilon_design(
    sched: PowerStep, noise, c_min: float, delta: float, epsilon_target: float
) -> tuple[bool, EpsilonBound]:
    """Does the schedule pair meet the target privacy level forever?"""
    bound = epsilon_infinity_bound(sched, noise, c_min, delta)
    return bound.convergent and bound.value <= epsilon_target, bound


def privacy_report(
    sched: PowerStep,
    noise,
    c_min: float,
    delta: float,
    horizons: tuple[int, ...] = (100, 10_000, 1_000_000, 10_000_000),
) -> PrivacyReport:
    """Finite-horizon losses at several horizons plus the limiting bound."""
    try:
        inf_bound = epsilon_infinity_bound(sched, noise, c_min, delta)
    except ValueError:
        inf_bound = EpsilonBound(math.nan, "no-case-applies", False)
    eps = tuple(epsilon_finite(sched, noise, c_min, delta, h) for h in horizons)
    return PrivacyReport(
        horizons=tuple(int(h) for h in horizons),
        epsilon_at=eps,
        infinity=inf_bound,
        delta=delta,
        c_min=c_min,
        params={
            "a1": sched.a1,
            "a2": sched.a2,
            "beta": sched.beta,
            "gamma": getattr(noise, "gamma", None),
            "b_floor": getattr(noise, "b_floor", None),
        },
    )
