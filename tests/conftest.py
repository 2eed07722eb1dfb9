import math

import numpy as np
import pytest

from dpconsensus.graphs import check_structural_balance, fixture_graph, spectrum
from dpconsensus.special import log_scaled_upper_gamma

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the run (pytest captures ordinary stdout even for passing tests).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig1a():
    return fixture_graph("fig1a")


@pytest.fixture(scope="session")
def gauge1a(fig1a):
    return check_structural_balance(fig1a)


@pytest.fixture(scope="session")
def stats1a(fig1a, gauge1a):
    return spectrum(fig1a, gauge1a)


@pytest.fixture(scope="session")
def x0():
    return np.array([10.0, -8.0, 6.0, -4.0, 2.0])


def random_balanced_graph(rng, n):
    """Connected random signed graph that is structurally balanced by gauge."""
    s = rng.choice([-1.0, 1.0], size=n)
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # spanning path keeps it connected
        mag = rng.uniform(0.5, 2.0)
        w[a, b] = w[b, a] = s[a] * s[b] * mag
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j and w[i, j] == 0.0:
            mag = rng.uniform(0.5, 2.0)
            w[i, j] = w[j, i] = s[i] * s[j] * mag
    return w, s


def upper_incomplete_gamma(a, z):
    """Gamma(a, z) for a > 0, z > 0, unscaled from the log-scaled routine."""
    return math.exp(log_scaled_upper_gamma(a, z) + a * math.log(z) - z)
