"""Step-size and noise-scale families and their summability checks.

Step sizes are power schedules ``alpha(k) = a1 / (k + a2)**beta``.  Privacy
noise scales are power schedules, whose variance grows (gamma > 0), stays
constant (gamma = 0; constant noise b is ``PowerNoise(b, 0.0, a2=1.0)``) or
decays (gamma < 0), or the geometric baseline.  The power noise carries an
explicit ``offset`` in {0, 1} because the accuracy condition is stated with
``b(k) = b_floor * (k + a2)**gamma`` while the privacy bounds use
``b(k) = b_floor * (k + a2 - 1)**gamma``; both conventions must be
representable exactly.

Each schedule evaluates itself: ``alpha(k)`` and ``scale(k)`` take a step
index or an array of them, and are the only way the simulator, the
privacy accountant and the designer turn a schedule into numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerStep",
    "GeometricStep",
    "PowerNoise",
    "GeometricNoise",
    "validate_assumptions",
    "sum_alpha2_b2_bound",
    "step_product_bound",
    "DivergentSeriesError",
]


class DivergentSeriesError(ValueError):
    pass


@dataclass(frozen=True)
class PowerStep:
    """alpha(k) = a1 / (k + a2)**beta, nonincreasing and positive."""

    a1: float
    a2: float
    beta: float

    def __post_init__(self):
        if not 0 <= self.a1 < math.inf:
            raise ValueError("a1 must be finite and >= 0")
        if not 0 < self.a2 < math.inf:
            raise ValueError("a2 must be finite and > 0")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not math.isfinite(self.alpha(0)):  # a subnormal a2 overflows it
            raise ValueError("alpha(0) = a1 / a2**beta must be finite")

    def alpha(self, k):
        if np.ndim(k) == 0:
            return self.a1 / (k + self.a2) ** self.beta
        # One float array, worked in place; pow(x, 1) = x, so beta = 1 skips it.
        x = np.add(k, self.a2, dtype=float)
        if self.beta != 1.0:
            x **= self.beta
        return np.divide(self.a1, x, out=x)


@dataclass(frozen=True)
class GeometricStep:
    """alpha(k) = p**k.  Baseline-only: violates the divergent-sum condition."""

    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")

    def alpha(self, k):
        return self.p**k


@dataclass(frozen=True)
class PowerNoise:
    """b(k) = b_floor * (k + a2 - offset)**gamma.

    The schedule starts where the base ``k + a2 - offset`` turns positive:
    before that (k = 0 for offset 1 with a2 <= 1) b(k) = 0, so no noise is
    injected at that step, whatever the sign of gamma.
    """

    b_floor: float
    gamma: float
    a2: float = 0.0
    offset: int = 0

    def __post_init__(self):
        if not 0 <= self.b_floor < math.inf:
            raise ValueError("b_floor must be finite and >= 0")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.offset not in (0, 1):
            raise ValueError("offset must be 0 or 1")
        if not 0 <= self.a2 < math.inf:
            raise ValueError("a2 must be finite and >= 0")
        for k in range(3):  # the schedule starts by k = 2, where the base is >= 1
            base = k + self.a2 - self.offset
            if base > 0:
                break
        try:  # a subnormal a2 overflows b there
            finite = math.isfinite(self.b_floor * base**self.gamma)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("b_floor * (k + a2 - offset)**gamma must be finite where the schedule starts")

    def scale(self, k):
        base = np.add(k, self.a2, dtype=float)
        base -= self.offset
        if base.ndim and base.min(initial=math.inf) > 0:  # started everywhere: no masks
            base **= self.gamma
            base *= self.b_floor
            return base
        started = base > 0
        # 1.0 stands in before the start, so 0**gamma (inf for gamma < 0) is never taken.
        b = np.where(started, self.b_floor * np.where(started, base, 1.0) ** self.gamma, 0.0)
        return b if b.ndim else float(b)


@dataclass(frozen=True)
class GeometricNoise:
    """b(k) = c * q**k, the exponentially decaying baseline."""

    c: float
    q: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("c must be finite and > 0")
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")

    def scale(self, k):
        return self.c * self.q**k


def validate_assumptions(step: PowerStep, noise) -> str | None:
    """Why the schedule pair fails the summability condition (a), or None if it holds.

    Condition (a): sum alpha = inf, alpha -> 0, sum alpha^2 b^2 < inf.  A
    power step meets the first two; geometric noise decays faster than any
    power, so only power noise can break the third.
    """
    if not isinstance(step, PowerStep):
        raise TypeError("validate_assumptions expects a power step schedule")
    if isinstance(noise, GeometricNoise):
        return None
    if not isinstance(noise, PowerNoise):
        raise TypeError(f"unknown noise schedule {type(noise).__name__}")
    if noise.gamma >= step.beta - 0.5:
        return f"gamma={noise.gamma} >= beta - 1/2 = {step.beta - 0.5}: sum alpha^2 b^2 diverges"
    return None


def sum_alpha2_b2_bound(step: PowerStep, noise: PowerNoise) -> float:
    """Closed-form upper bound on ``sum_{k>=0} alpha(k)^2 b(k)^2``.

    Valid for the matched-shift convention (noise offset 0, shared a2) with
    gamma < beta - 1/2 (a power step has a2 > 0); this is the quantity the
    accuracy design condition compares against the target.
    """
    if not isinstance(noise, PowerNoise) or noise.offset != 0 or noise.a2 != step.a2:
        raise ValueError(
            "the bound assumes b(k) = b_floor*(k + a2)^gamma "
            "with the same a2 as the step-size schedule"
        )
    if noise.gamma >= step.beta - 0.5:
        raise DivergentSeriesError("gamma >= beta - 1/2: series diverges")
    if step.a1 == 0:
        return 0.0
    a1, a2, beta, bf, gamma = step.a1, step.a2, step.beta, noise.b_floor, noise.gamma
    integral = a1**2 * bf**2 * a2 ** (2 * gamma - 2 * beta + 1) / (2 * beta - 2 * gamma - 1)
    first = a1**2 * bf**2 * a2 ** (2 * gamma) / a2 ** (2 * beta)
    return integral + first


def step_product_bound(alpha: float, beta: float, l: int, k: int, k0: float) -> float:
    """Closed-form upper bound on ``prod_{i=l}^{k} (1 - alpha/(i+k0)**beta)``.

    Requires every factor to be positive (``alpha < (l+k0)**beta``).
    """
    if k < l:
        return 1.0
    if alpha >= (l + k0) ** beta:
        raise ValueError("bound requires alpha/(l+k0)^beta < 1")
    if beta == 1.0:
        return ((l + k0) / (k + k0)) ** alpha
    return math.exp(alpha / (1 - beta) * ((l + k0) ** (1 - beta) - (k + k0 + 1) ** (1 - beta)))
