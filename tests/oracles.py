"""Reference forms of the balance gauge, the consensus update, the privacy loss, the paper's
beta = 1, gamma < 0 privacy bound, the batch aggregate and the CSV artifacts, used only as
test oracles."""

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from dpconsensus.engine import DIVERGENCE_LIMIT, DivergenceError
from dpconsensus.graphs import DisconnectedGraphError, StructurallyUnbalancedError
from dpconsensus.privacy import _BLOCK

_U64 = 2**64 - 1


def _splitmix(z: int) -> int:
    """splitmix64's finalizer of z + golden, on Python ints modulo 2**64."""
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def laplace_sample(seed: int, run: int, agent: int, step: int, b: float) -> float:
    """One Lap(0, b) draw for the given stream key, one scalar operation at a time.

    The hash is ``mix(mix(mix(seed + run) ^ agent) ^ step)`` on Python ints;
    the inverse CDF runs on float64, with NumPy's log1p as its one primitive
    (NumPy's SIMD log1p and libm's may differ in the last bit).
    """
    h = _splitmix(_splitmix(_splitmix((int(seed) + int(run)) & _U64) ^ int(agent)) ^ int(step))
    u = ((h >> 11) + 0.5) * 2.0**-53 - 0.5  # on (-1/2, 1/2]
    return float(-b * np.sign(u) * np.log1p(-2.0 * min(abs(u), 0.5 - 2.0**-54)))


def gauge_csgraph(w: np.ndarray) -> np.ndarray:
    """The balance gauge of weight matrix ``w`` from ``scipy.sparse.csgraph``.

    Connectivity first, then the BFS spanning tree from agent 1 and its signed
    lift: nodes ``(i, +)`` and ``(i, -)``, an edge from ``(i, σ)`` to
    ``(j, σ·sgn a_ij)`` for each tree edge, and ``s_j = +1`` where ``(j, +)``
    shares agent 1's component.  Raises what ``SignedGraph`` and
    ``check_structural_balance`` raise, with the same messages.
    """
    n = len(w)
    a = sparse.csr_array(w)
    if csgraph.connected_components(a, directed=False, return_labels=False) != 1:
        raise DisconnectedGraphError("graph induced by nonzero weights is not connected")
    tree = csgraph.breadth_first_tree(a, 0, directed=False).tocoo()
    # Node i of the lift is (i, +) and node i + n is (i, -); a negative tree
    # edge crosses between the two copies.
    cross = n * (tree.data < 0)
    rows = np.concatenate([tree.row, tree.row + n])
    cols = np.concatenate([tree.col + cross, tree.col + n - cross])
    lift = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n, 2 * n))
    _, labels = csgraph.connected_components(lift, directed=False)
    s = np.where(labels[:n] == labels[0], 1.0, -1.0)
    bad = np.argwhere(s[:, None] * w * s[None, :] < 0)
    if len(bad):
        i, j = bad[0]
        raise StructurallyUnbalancedError(
            f"graph is not structurally balanced: edge ({i + 1},{j + 1}) "
            "is inconsistent with any two-camp split"
        )
    return s


def disagreement(x: np.ndarray, gauge: np.ndarray) -> float:
    """V = ||(I - J) S x||^2, the squared deviation from the gauge mean."""
    z = np.asarray(x, dtype=float) * np.asarray(gauge, dtype=float)
    dev = z - z.mean()
    return float(dev @ dev)


def apply_update(x: np.ndarray, weights: np.ndarray, alpha_k: float, y: np.ndarray) -> np.ndarray:
    """Per-agent (scalar form) update from received transmissions ``y``."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            a_ij = weights[i, j]
            if a_ij != 0.0:
                acc += abs(a_ij) * (x[i] - np.sign(a_ij) * y[j])
        out[i] = x[i] - alpha_k * acc
    return out


def step(x, graph, sched, noise_sched, k: int, omega: np.ndarray | None = None) -> np.ndarray:
    """One reference step with injected noise ``omega`` (zero when omitted).

    ``noise_sched`` is not read: the caller draws ``omega`` at its scale.
    """
    y = x + (np.zeros(graph.n) if omega is None else omega)
    out = apply_update(x, graph.weights, sched.alpha(k), y)
    if not np.all(np.isfinite(out)) or np.abs(out).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(k + 1)
    return out


def sensitivity_series(t: int, sched, c_min: float, delta: float) -> np.ndarray:
    """S(1), ..., S(t) as one array: S(1) = delta, S(k) = delta * prod_{l<k-1} (1 - c_min * alpha(l))."""
    factors = 1.0 - c_min * sched.alpha(np.arange(max(t - 1, 0)))
    return delta * np.concatenate(([1.0], np.cumprod(factors)))[:t]


def epsilon_finite_blocked(sched, noise, c_min: float, delta: float, horizon: int) -> float:
    """Privacy loss sum_{k=1}^T S(k)/b(k) in whole ``_BLOCK`` arrays, one horizon per pass."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    total = 0.0
    running = 1.0  # prod of contraction factors consumed so far
    k = 1
    while k <= horizon:
        hi = min(horizon, k + _BLOCK - 1)
        cp = np.cumprod(1.0 - c_min * sched.alpha(np.arange(k - 1, hi, dtype=float)))
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


def aggregate_by_copy(v: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean and 10/50/90% quantiles over each record of the rows ``ok`` of ``v``, on a copy."""
    kept = v[ok]
    return (kept.mean(axis=0), *np.quantile(kept, [0.1, 0.5, 0.9], axis=0))


def artifact_csvs(report, res, noisy: bool) -> dict[str, bytes]:
    """``trajectory_000.csv`` and ``aggregate.csv``, each value formatted as ``repr(float(v))``
    from its NumPy scalar, one at a time; y columns only when ``noisy``."""
    n = res.x_rec.shape[1]
    cols = ["k", "V", "gauge_mean"] + [f"x_{i + 1}" for i in range(n)]
    states = [res.x_rec]
    if noisy:
        cols += [f"y_{i + 1}" for i in range(n)]
        states.append(res.y_rec)
    traj = [",".join(cols)]
    for idx, k in enumerate(report.ks):
        row = [str(int(k)), repr(float(res.v[0, idx])), repr(float(res.gmean[idx]))]
        row += [repr(float(v)) for s in states for v in s[idx]]
        traj.append(",".join(row))
    agg = ["k,v_mean,v_q10,v_q50,v_q90"]
    for i, k in enumerate(report.ks):
        agg.append(
            f"{int(k)},{float(report.v_mean[i])!r},{float(report.v_q10[i])!r},"
            f"{float(report.v_q50[i])!r},{float(report.v_q90[i])!r}"
        )
    return {
        "trajectory_000.csv": ("\n".join(traj) + "\n").encode(),
        "aggregate.csv": ("\n".join(agg) + "\n").encode(),
    }


def epsilon_case2_paper(sched, noise, c_min: float, delta: float) -> float:
    """The paper's beta = 1, gamma < 0 closed form for sup_T of the privacy loss.

    Its series has floor(-gamma) + 1 terms; it needs a1*c_min + gamma > 1 and
    the offset-1 power noise b(k) = b_floor * (k + a2 - 1)^gamma.
    """
    a2, gamma, bf = sched.a2, noise.gamma, noise.b_floor
    acm = sched.a1 * c_min
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
    return delta / (bf * a2**gamma) + delta * (1 + a2) ** acm / bf * (head + num2 / den2)
