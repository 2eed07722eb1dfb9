"""The two special functions the package needs, from the standard library.

``log_scaled_upper_gamma`` returns log(e^z * z^-a * Gamma(a, z)), the form
the beta < 1 privacy bound needs: it stays finite where e^z and Gamma(a, z)
themselves leave the float range.  Implemented directly (power series for
0 < a and z < a + 1, Lentz continued fraction otherwise, which also covers
every shape a <= 0 and a large shape's z just below a) rather than through
scipy's regularized variant, which underflows long before the scaled value
does and needs a > 0.  Either method raises rather than return a sum it has
cut short.

``t975``, Student's t two-sided 95% point, sizes the rate fit's interval.
"""

from __future__ import annotations

import math

__all__ = ["log_scaled_upper_gamma", "t975"]

_MAX_ITER = 10_000
_EPS = 1e-15


def _lower_series(a: float, z: float) -> float:
    """Regularized lower gamma P(a, z) via the power series; z < a + 1.

    Its terms fall by z / (a + k), so for z near a they take O(sqrt(a))
    steps to shrink; one that has not converged within ``_MAX_ITER`` terms raises.
    """
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_ITER):
        term *= z / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ValueError(f"power series for Gamma({a:g}, {z:g}) did not converge")
    log_p = math.log(total) + a * math.log(z) - z - math.lgamma(a)
    return math.exp(log_p)


def _lentz(a: float, z: float) -> float:
    """h = e^z * z^-a * Gamma(a, z) via Lentz's continued fraction.

    Legendre's fraction converges for every real a at z > 0, fast once
    z >= a + 1; one that has not converged within ``_MAX_ITER`` terms raises.
    """
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
            return h
    raise ValueError(f"continued fraction for Gamma({a:g}, {z:g}) did not converge")


def log_scaled_upper_gamma(a: float, z: float) -> float:
    """log(e^z * z^-a * Gamma(a, z)) for real a and z > 0.

    In Lentz's form the scaled value is the continued fraction h itself.  It
    also takes a >= 100 with z at most 0.1 sqrt(a) below a: there it converges
    in about sqrt(a) / 2 terms to full precision (checked against mpmath up to
    a = 1e8), where the series cancels and, from a of about 1e6, runs out of terms.
    """
    if z <= 0.0:
        raise ValueError("lower limit must be positive")
    if a <= 0.0 or z >= a + 1.0 or (a >= 100.0 and z >= a - 0.1 * math.sqrt(a)):
        return math.log(_lentz(a, z))
    q = 1.0 - _lower_series(a, z)
    if q <= 0.0:
        return -math.inf
    return math.log(q) + math.lgamma(a) + z - a * math.log(z)


# Cornish-Fisher terms g_i of the t quantile at the normal's 97.5% point z,
# t = sum(g_i / dof**i) + O(dof**-5) (Abramowitz & Stegun 26.7.5).
_Z = 1.9599639845400543
_T975_SERIES = (
    _Z, (_Z**3 + _Z) / 4, (5 * _Z**5 + 16 * _Z**3 + 3 * _Z) / 96,
    (3 * _Z**7 + 19 * _Z**5 + 17 * _Z**3 - 15 * _Z) / 384,
    (79 * _Z**9 + 776 * _Z**7 + 1482 * _Z**5 - 1920 * _Z**3 - 945 * _Z) / 92160,
)


def t975(dof: int) -> float:
    """The t with P(|T| <= t) = 0.95 for Student's T with integer ``dof`` >= 1.

    From dof = 1000 on, the series above.  Below, Newton's method from it on
    x = cos^2(atan(t / sqrt(dof))), not on the angle: P(|T| <= t) is a finite
    sum in x (A & S 26.7.3, odd dof; 26.7.4, even) with condition number ~dof.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be at least 1")
    t = sum(g / dof**i for i, g in enumerate(_T975_SERIES))
    if dof >= 1000:
        return t
    scale = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(math.pi)
    x = dof / (dof + t * t)
    for _ in range(_MAX_ITER):
        total = 1.0  # Horner, from the sum's last term down
        for j in range(dof - 2, 1 + dof % 2, -2):
            total = 1.0 + x * (j - 1) / j * total
        if dof % 2:
            p = 2 / math.pi * (math.atan(math.sqrt((1 - x) / x)) + (dof > 1) * math.sqrt(x * (1 - x)) * total)
        else:
            p = math.sqrt(1 - x) * total
        step = (p - 0.95) * math.sqrt(1 - x) / (scale * x ** (dof / 2 - 1))  # dp/dx < 0
        x += step
        if abs(step) <= 1e-9 * (1 - x):  # so the next error is below rounding
            break
    return math.sqrt(dof * (1 - x) / x)
