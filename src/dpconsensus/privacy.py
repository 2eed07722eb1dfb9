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
from .special import log_scaled_upper_gamma

__all__ = [
    "EpsilonBound",
    "PrivacyReport",
    "epsilon_finite",
    "epsilon_infinity_bound",
    "check_epsilon_design",
    "privacy_report",
]

_BLOCK = 1 << 15


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


def _contraction(sched: PowerStep, c_min: float, ls: np.ndarray) -> np.ndarray:
    """Per-step sensitivity factors 1 - c_min * alpha(l) at step indices ``ls``."""
    x = sched.alpha(ls)
    x *= c_min
    return np.subtract(1.0, x, out=x)


def _epsilon_at(sched: PowerStep, noise, c_min: float, delta: float, horizons) -> tuple[float, ...]:
    """Privacy loss at every horizon from one pass up to the largest.

    Steps go in blocks of ``_BLOCK``.  A block's step indices fill one
    reused buffer and its contraction factors are worked in place in the
    array ``alpha`` returns; their cumulative product, scaled by delta times
    the product of every factor before the block, fills a second reused
    buffer with the block's quotients S(k)/b(k).  A horizon's loss is the
    running total of whole blocks plus one sum over its own block's prefix,
    so it equals a separate pass to that horizon bit for bit.  The loss is
    infinite from the first ``b(k) <= 0`` on, and the pass stops early once
    S(k) underflows.  A b(k) that overflows to inf, as growing noise can past
    the config's horizon, releases nothing: its term S(k)/inf is 0.
    """
    hs = [int(h) for h in horizons]
    if any(h < 1 for h in hs):
        raise ValueError("horizon must be >= 1")
    pending = sorted(set(hs))
    found: dict[int, float] = {}
    offsets = np.arange(min(_BLOCK, max(hs, default=0)), dtype=float)
    idx = np.empty_like(offsets)  # a block's step indices, offsets shifted to its start
    q = np.empty_like(offsets)  # a block's quotients S(k)/b(k)
    total = 0.0
    running = 1.0  # prod of contraction factors before the block
    rest = math.inf  # the loss at horizons the pass never reaches
    k = 1
    while pending:
        n = min(pending[-1] - k + 1, _BLOCK)  # this block holds steps k .. k + n - 1
        ls = np.add(offsets[:n], k - 1, out=idx[:n])
        cp = _contraction(sched, c_min, ls)
        np.cumprod(cp, out=cp)
        scale = delta * running
        q[0] = scale
        np.multiply(cp[:-1], scale, out=q[1:n])
        with np.errstate(over="ignore"):
            b_vals = noise.scale(np.add(ls, 1.0, out=ls))  # S(k) pairs with b(k), k = l + 1
        bad = b_vals <= 0.0
        valid = int(bad.argmax()) if bad.any() else n  # quotients before the first b(k) <= 0
        q[:valid] /= b_vals[:valid]
        while pending and pending[0] < k + n:
            h = pending.pop(0)
            found[h] = total + float(np.sum(q[: h - k + 1])) if h - k < valid else math.inf
        if valid < n:
            break
        total += float(np.sum(q[:n]))
        running *= float(cp[-1])
        if abs(running) < 1e-300:
            rest = total
            break
        k += n
    return tuple(found.get(h, rest) for h in hs)


def epsilon_finite(sched: PowerStep, noise, c_min: float, delta: float, horizon: int) -> float:
    """Privacy loss sum_{k=1}^T S(k)/b(k), streamed in ``_BLOCK``-step blocks."""
    return _epsilon_at(sched, noise, c_min, delta, (horizon,))[0]


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

    Four convergent branches: beta = 1 (or a1*c_min = 0) with nonnegative /
    negative gamma (both needing a1*c_min + gamma > 1), and beta < 1 with
    nonnegative / negative gamma via the upper incomplete gamma function,
    always evaluated in log space.  Only a bound beyond the float range is
    case "overflow": no finite bound, ``convergent`` False.
    """
    noise = _require_shared_power_noise(sched, noise)
    _check_contraction(sched, c_min)
    a2, beta, gamma = sched.a2, sched.beta, noise.gamma
    bf = noise.b_floor
    if bf == 0.0:  # no noise: the first step alone leaks without bound
        return EpsilonBound(math.inf, "divergent", False)
    acm = sched.a1 * c_min
    first = delta / (bf * a2**gamma)  # delta / b(1)

    # With acm = 0 the step never contracts the sensitivity, beta plays no
    # part, and the beta = 1 forms are exact.
    if beta == 1.0 or acm == 0.0:
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

    # beta < 1: always convergent under the contraction check.  The closed
    # form is e^z c^-shape Gamma(shape, z) with c = acm / (1 - beta); e^z and
    # Gamma leave the float range as beta -> 1, so rest is taken in log space,
    # where Lentz's h = e^z z^-shape Gamma(shape, z) cancels e^z and
    # (z/c)^shape = a2^(1 - gamma).  Only a bound beyond the float range is
    # "overflow".
    shape = (1 - gamma) / (1 - beta)
    z = acm * a2 ** (1 - beta) / (1 - beta)
    try:
        rest = math.exp(
            math.log(delta / (bf * (1 - beta)))
            + (1 - gamma) * math.log(a2)
            + log_scaled_upper_gamma(shape, z)
        )
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
            log_peak = math.log(delta / bf) + gamma / beta * math.log(-gamma / acm)
            rest += math.exp(log_peak + (z + gamma / (1 - beta) * x_peak))
    except OverflowError:
        return EpsilonBound(math.inf, "overflow", False)
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
    """Finite-horizon losses at several horizons, from one pass, plus the limiting bound."""
    try:
        inf_bound = epsilon_infinity_bound(sched, noise, c_min, delta)
    except ValueError:
        inf_bound = EpsilonBound(math.nan, "no-case-applies", False)
    eps = _epsilon_at(sched, noise, c_min, delta, horizons)
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
