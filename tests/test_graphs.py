import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpconsensus.graphs import (
    DisconnectedGraphError,
    SignedGraph,
    StructurallyUnbalancedError,
    check_structural_balance,
    fixture_graph,
    spectrum,
)

from conftest import random_balanced_graph
from oracles import gauge_csgraph

# Frozen from an independent dense eigensolve of the fig1a gauge Laplacian.
FIG1A_LAMBDA2 = 0.8299135133739667


def test_fig1a_fixture_stats(fig1a, gauge1a, stats1a):
    assert fig1a.n == 5
    np.testing.assert_allclose(gauge1a, [1, -1, 1, 1, -1])
    np.testing.assert_allclose(fig1a.degrees, [2, 2, 1, 3, 2])
    assert stats1a.c_min == 1.0
    assert stats1a.c_max == 3.0
    assert stats1a.degree_square_sum == 22.0
    assert abs(stats1a.lambda2 - FIG1A_LAMBDA2) < 1e-12


def test_fig1b_fixture_is_unsigned():
    g = fixture_graph("fig1b")
    s = check_structural_balance(g)
    np.testing.assert_allclose(s, np.ones(5))
    assert np.all(g.weights >= 0)


def test_complete_graph_k5_spectrum():
    w = np.ones((5, 5)) - np.eye(5)
    g = SignedGraph(w)
    st = spectrum(g, check_structural_balance(g))
    assert abs(st.lambda2 - 5.0) < 1e-9
    assert st.c_min == st.c_max == 4.0


def test_single_edge_laplacian():
    g = SignedGraph.from_edges(2, [(1, 2, 1.0)])
    np.testing.assert_allclose(g.laplacian(), [[1, -1], [-1, 1]])
    st = spectrum(g, check_structural_balance(g))
    assert abs(st.lambda2 - 2.0) < 1e-12


def test_gauge_laplacian_row_sums_vanish(stats1a):
    assert np.abs(stats1a.gauge_laplacian.sum(axis=0)).max() < 1e-12


def test_gauge_laplacian_psd_with_one_zero_eigenvalue(stats1a):
    eigs = np.linalg.eigvalsh(stats1a.gauge_laplacian)
    assert eigs.min() >= -1e-10
    assert np.sum(np.abs(eigs) <= 1e-10) == 1


def test_gauge_makes_weights_nonnegative(fig1a, gauge1a):
    sas = gauge1a[:, None] * fig1a.weights * gauge1a[None, :]
    assert np.all(sas >= 0)


def test_gauge_matches_brute_force_small_graphs():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        for _ in range(5):
            w, _ = random_balanced_graph(rng, n)
            g = SignedGraph(w)
            s = check_structural_balance(g)
            found = None
            for bits in itertools.product([1.0, -1.0], repeat=n):
                cand = np.array(bits)
                if np.all(cand[:, None] * w * cand[None, :] >= 0):
                    if cand[0] == 1.0:
                        found = cand
                        break
            np.testing.assert_allclose(s, found)


def test_lambda2_invariant_under_gauge():
    rng = np.random.default_rng(11)
    for n in (6, 12, 20):
        w, _ = random_balanced_graph(rng, n)
        g = SignedGraph(w)
        s = check_structural_balance(g)
        st = spectrum(g, s)
        plain = np.sort(np.linalg.eigvalsh(g.laplacian()))
        assert abs(st.lambda2 - plain[1]) < 1e-9


def test_unbalanced_triangle_rejected():
    g = SignedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, -1.0)])
    with pytest.raises(StructurallyUnbalancedError):
        check_structural_balance(g)


@pytest.mark.parametrize(
    "n, edges, bad",
    [
        (3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, -1.0)], "(2,3)"),
        # A BFS that took each agent's lowest-index neighbour as its parent
        # would name (4,7); the queue-order tree names (3,5).
        (7, [(1, 2, -1), (1, 4, 1), (1, 7, -1), (2, 6, 1), (3, 4, -1), (3, 5, -1), (4, 7, 1), (5, 6, 1)], "(3,5)"),
    ],
    ids=["triangle", "queue-order"],
)
def test_unbalanced_message_names_first_edge_off_the_bfs_gauge(n, edges, bad):
    with pytest.raises(StructurallyUnbalancedError) as exc:
        check_structural_balance(SignedGraph.from_edges(n, edges))
    assert str(exc.value) == (
        f"graph is not structurally balanced: edge {bad} is inconsistent with any two-camp split"
    )


def test_construction_errors():
    with pytest.raises(DisconnectedGraphError):
        SignedGraph.from_edges(4, [(1, 2, 1.0), (3, 4, 1.0)])
    with pytest.raises(ValueError):
        SignedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        SignedGraph(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]))  # relative asymmetry 1e-6
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SignedGraph.from_edges(3, [(1, 2, 1.0), (2, 3, bad)])
    with pytest.raises(ValueError):
        SignedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self-loop
    with pytest.raises(ValueError):
        SignedGraph.from_edges(3, [(1, 1, 1.0)])


def test_weights_immutable(fig1a):
    with pytest.raises(ValueError):
        fig1a.weights[0, 1] = 5.0


@pytest.mark.parametrize(
    "name, weights",
    [
        ("fig1a", [[0, -1, 0, 1, 0], [-1, 0, 0, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 0, -1], [0, 1, 0, -1, 0]]),
        ("fig1b", [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 0, 1], [0, 1, 0, 1, 0]]),
    ],
)
def test_fixture_graph_weights_pinned(name, weights):
    w = fixture_graph(name).weights
    assert w.dtype == np.float64
    np.testing.assert_array_equal(w, weights)


@pytest.mark.parametrize("name", ["../fixtures/fig1a", "graphs", "fig2a", ""])
def test_fixture_name_is_a_key_not_a_path(name):
    with pytest.raises(KeyError):
        fixture_graph(name)


def test_invalid_gauge_rejected(fig1a):
    with pytest.raises(ValueError):
        spectrum(fig1a, np.ones(5))


# Property tests: planted two-camp graphs, a ring (so every edge lies on a
# cycle) plus Erdős–Rényi chords, with edge signs s_i * s_j.
@st.composite
def planted_graphs(draw):
    n = draw(st.integers(2, 128))
    p = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    camps = rng.choice([-1.0, 1.0], size=n)
    support = np.triu(rng.random((n, n)) < p, 1)
    support[np.arange(n - 1), np.arange(1, n)] = True
    support[0, n - 1] = True
    w = np.where(support, rng.uniform(0.5, 2.0, size=(n, n)), 0.0) * np.outer(camps, camps)
    return w + w.T, camps


@settings(max_examples=60, deadline=None, database=None)
@given(planted_graphs())
def test_gauge_recovers_planted_camps(graph):
    w, camps = graph
    np.testing.assert_array_equal(check_structural_balance(SignedGraph(w)), camps * camps[0])


@settings(max_examples=60, deadline=None, database=None)
@given(planted_graphs())
def test_lambda2_equals_unsigned_laplacian_lambda2(graph):
    w, _ = graph
    g = SignedGraph(w)
    spec = spectrum(g, check_structural_balance(g))
    unsigned = SignedGraph(np.abs(w)).laplacian()
    assert abs(spec.lambda2 - np.linalg.eigvalsh(unsigned)[1]) < 1e-9


@settings(max_examples=60, deadline=None, database=None)
@given(planted_graphs(), st.integers(0, 2**32 - 1))
def test_flipping_a_cycle_edge_unbalances(graph, pick):
    w, _ = graph
    assume(len(w) >= 3)  # with n = 2 the one edge lies on no cycle
    edges = np.argwhere(np.triu(w) != 0)
    i, j = edges[pick % len(edges)]
    w = w.copy()
    w[i, j] = w[j, i] = -w[i, j]
    with pytest.raises(StructurallyUnbalancedError, match="^graph is not structurally balanced"):
        check_structural_balance(SignedGraph(w))


@st.composite
def signed_graphs(draw):
    """Random signed graphs with n from 2 to 40: balanced, unbalanced or disconnected."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["balanced", "unbalanced", "disconnected"]))
    p = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    camps = rng.choice([-1.0, 1.0], size=n)
    signs = np.outer(camps, camps)
    if kind == "unbalanced":
        signs[rng.random((n, n)) < 0.2] *= -1.0
    support = rng.random((n, n)) < p
    if kind != "disconnected":  # a random spanning path keeps it connected
        order = rng.permutation(n)
        support[order[:-1], order[1:]] = True
        support[order[1:], order[:-1]] = True
    w = np.triu(np.where(support, rng.uniform(0.5, 2.0, size=(n, n)) * signs, 0.0), 1)
    return w + w.T


def _outcome(w, gauge_of):
    try:
        return gauge_of(w)
    except (DisconnectedGraphError, StructurallyUnbalancedError) as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None, database=None)
@given(signed_graphs())
def test_gauge_and_errors_match_csgraph_oracle(w):
    got = _outcome(w, lambda w: check_structural_balance(SignedGraph(w)))
    want = _outcome(w, gauge_csgraph)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
