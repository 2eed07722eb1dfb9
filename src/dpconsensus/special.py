"""Upper incomplete gamma function for positive real arguments.

Implemented directly (series for small z, Lentz continued fraction for
large z) so the privacy bounds do not depend on scipy's regularized
variant being invertible to the unregularized value without overflow.
"""

from __future__ import annotations

import math

__all__ = ["upper_incomplete_gamma", "log_scaled_upper_gamma"]

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


def _upper_cf(a: float, z: float) -> float:
    """Regularized upper gamma Q(a, z) via Lentz's continued fraction."""
    log_q = math.log(_lentz(a, z)) + a * math.log(z) - z - math.lgamma(a)
    return math.exp(log_q)


def _check_domain(a: float, z: float) -> None:
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if z < 0.0:
        raise ValueError("lower limit must be nonnegative")


def upper_incomplete_gamma(a: float, z: float) -> float:
    """Gamma(a, z) = integral_z^inf t^(a-1) e^(-t) dt for a > 0, z >= 0."""
    _check_domain(a, z)
    if z == 0.0:
        return math.gamma(a)
    if z < a + 1.0:
        q = 1.0 - _lower_series(a, z)
    else:
        q = _upper_cf(a, z)
    # Unregularize through logs to survive large a.
    if q <= 0.0:
        return 0.0
    return math.exp(math.log(q) + math.lgamma(a))


def log_scaled_upper_gamma(a: float, z: float) -> float:
    """log(e^z * z^-a * Gamma(a, z)) for a > 0, z > 0.

    Finite where e^z and Gamma(a, z) themselves leave the float range: in
    Lentz's form the scaled value is the continued fraction h itself.
    """
    _check_domain(a, z)
    if z >= a + 1.0:
        return math.log(_lentz(a, z))
    q = 1.0 - _lower_series(a, z)
    if q <= 0.0:
        return -math.inf
    return math.log(q) + math.lgamma(a) + z - a * math.log(z)
