"""Log-scaled upper incomplete gamma function for positive real arguments.

``log_scaled_upper_gamma`` returns log(e^z * z^-a * Gamma(a, z)), the form
the beta < 1 privacy bound needs: it stays finite where e^z and Gamma(a, z)
themselves leave the float range.  Implemented directly (power series for
z < a + 1, Lentz continued fraction otherwise) rather than through scipy's
regularized variant, which underflows long before the scaled value does.
"""

from __future__ import annotations

import math

__all__ = ["log_scaled_upper_gamma"]

_MAX_ITER = 10_000
_EPS = 1e-15


def _lower_series(a: float, z: float) -> float:
    """Regularized lower gamma P(a, z) via the power series; z < a + 1."""
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_ITER):
        term *= z / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    log_p = math.log(total) + a * math.log(z) - z - math.lgamma(a)
    return math.exp(log_p)


def _lentz(a: float, z: float) -> float:
    """h = e^z * z^-a * Gamma(a, z) via Lentz's continued fraction; z >= a + 1."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def log_scaled_upper_gamma(a: float, z: float) -> float:
    """log(e^z * z^-a * Gamma(a, z)) for a > 0, z > 0.

    In Lentz's form the scaled value is the continued fraction h itself.
    """
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if z <= 0.0:
        raise ValueError("lower limit must be positive")
    if z >= a + 1.0:
        return math.log(_lentz(a, z))
    q = 1.0 - _lower_series(a, z)
    if q <= 0.0:
        return -math.inf
    return math.log(q) + math.lgamma(a) + z - a * math.log(z)
