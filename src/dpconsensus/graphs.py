"""Undirected weighted signed graphs: structural balance, gauges, spectra."""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SignedGraph",
    "GraphSpectrum",
    "StructurallyUnbalancedError",
    "check_structural_balance",
    "spectrum",
    "fixture_graph",
]


class StructurallyUnbalancedError(ValueError):
    """The sign pattern admits no two-camp split; the protocol must not run."""


class DisconnectedGraphError(ValueError):
    pass


@dataclass(frozen=True)
class SignedGraph:
    """Symmetric signed adjacency with zero diagonal over a connected graph.

    Weights are arbitrary nonzero reals; ``a_ij == 0`` means "no edge".
    Instances are immutable and safe to share across worker threads.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if w.shape[0] < 2:
            raise ValueError("need at least 2 agents")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("self-loops are not allowed")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if not _bfs_gauge(w).all():
            raise DisconnectedGraphError("graph induced by nonzero weights is not connected")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.abs(self.weights).sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees) - self.weights

    @classmethod
    def from_edges(cls, n: int, edges) -> "SignedGraph":
        """Build from an iterable of 1-based ``(i, j, w)`` triples."""
        w = np.zeros((n, n))
        for i, j, wt in edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
            w[i - 1, j - 1] = wt
            w[j - 1, i - 1] = wt
        return cls(w)


@dataclass(frozen=True)
class GraphSpectrum:
    """Laplacian data for a balanced signed graph under a fixed gauge."""

    gauge_laplacian: np.ndarray
    lambda2: float
    degrees: np.ndarray
    c_min: float = field(init=False)
    c_max: float = field(init=False)
    degree_square_sum: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_min", float(self.degrees.min()))
        object.__setattr__(self, "c_max", float(self.degrees.max()))
        object.__setattr__(self, "degree_square_sum", float((self.degrees**2).sum()))


def _bfs_gauge(w: np.ndarray) -> np.ndarray:
    """Signs propagated from agent 1 along a BFS tree of ``w``; 0 where unreached.

    Level-synchronous: each level is one vectorised step.  A new agent's
    parent is the first agent of the frontier, in queue order, that touches
    it, and the next frontier is ordered by parent, then by index.  That is
    the tree a FIFO queue builds when it visits neighbours in index order.
    """
    s = np.zeros(len(w))
    s[0] = 1.0
    frontier = np.array([0])
    while frontier.size:
        hit = w[frontier] != 0.0
        new = np.flatnonzero(hit.any(axis=0) & (s == 0.0))
        first = hit[:, new].argmax(axis=0)
        parent = frontier[first]
        s[new] = s[parent] * np.sign(w[parent, new])
        frontier = new[np.argsort(first, kind="stable")]
    return s


def check_structural_balance(g: SignedGraph) -> np.ndarray:
    """Two-color the sign pattern into a gauge vector ``s`` with entries +-1.

    Returns ``s`` such that ``s_i * s_j * sgn(a_ij) == +1`` on every edge,
    normalized so that agent 1 carries +1.  Raises
    :class:`StructurallyUnbalancedError` when no such coloring exists.

    The gauge is the only candidate: ``s`` is fixed along a breadth-first
    spanning tree from agent 1, each agent taking its parent's sign times
    the sign of the tree edge.  One vectorized check of every edge then
    accepts it or names the first edge, in row-major order, that it leaves
    negative.
    """
    w = g.weights
    s = _bfs_gauge(w)
    bad = np.argwhere(s[:, None] * w * s[None, :] < 0)  # row-major: the first has i < j
    if len(bad):
        i, j = bad[0]
        raise StructurallyUnbalancedError(
            f"graph is not structurally balanced: edge ({i + 1},{j + 1}) "
            "is inconsistent with any two-camp split"
        )
    return s


def spectrum(g: SignedGraph, s: np.ndarray) -> GraphSpectrum:
    """Gauge Laplacian, its lambda2 and degree statistics for gauge ``s``."""
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n,) or not np.all(np.abs(s) == 1.0):
        raise ValueError("gauge must be a length-n vector of +-1")
    sw = s[:, None] * g.weights * s[None, :]
    if np.any(sw < 0):
        raise ValueError("not a valid gauge: S A S has negative entries")
    lap_s = s[:, None] * g.laplacian() * s[None, :]
    lambda2 = float(np.linalg.eigvalsh(lap_s)[1])
    return GraphSpectrum(gauge_laplacian=lap_s, lambda2=lambda2, degrees=g.degrees)


def fixture_graph(name: str) -> SignedGraph:
    """The graph block shipped under ``name`` in ``fixtures/graphs.json``.

    ``fig1a`` is the paper's five-agent structurally balanced signed graph,
    camps {1,3,4} and {2,5}, whose negative edges cross the camps.  ``fig1b``
    is a five-agent unsigned (all-positive) graph, whose gauge is the
    identity.  Any other name raises ``KeyError``.
    """
    ref = importlib.resources.files("dpconsensus.fixtures") / "graphs.json"
    block = json.loads(ref.read_text())[name]
    return SignedGraph.from_edges(block["n"], block["edges"])
