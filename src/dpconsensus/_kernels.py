"""The simulation kernel: NumPy, vectorized across Monte Carlo runs.

Noise is counter-based (``noise.stream_keys`` / ``noise.laplace_from_keys``),
so a draw depends only on its (seed, run, agent, step) key and is generated
a block of steps at a time.  A block holds about ``_BLOCK_ELEMENTS`` draws,
``max(1, _BLOCK_ELEMENTS // (M * n))`` steps, so its memory stays flat in the
batch shape.  The state recursion itself stays one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import laplace_from_keys, stream_keys

# Reported in ``report.json``; the name predates the single kernel and is
# kept so that same-seed artifacts stay byte-identical.
BACKEND_NAME = "pure"

_BLOCK_ELEMENTS = 2**16


@dataclass
class KernelResult:
    v: np.ndarray  # (M, R) disagreement at record points
    gmean: np.ndarray  # (M, R) gauge mean at record points
    x_final: np.ndarray  # (M, n)
    diverged_at: np.ndarray  # (M,) step index, -1 if finite throughout
    max_tail_delta: np.ndarray  # (M,) max inf-norm step change for k >= tail_start
    x_rec: np.ndarray | None = None  # (R, n), run_ids[0] only
    y_rec: np.ndarray | None = None  # (R, n), run_ids[0] only; NaN where y(k) is undefined


def simulate(
    weights: np.ndarray,
    laplacian: np.ndarray,
    gauge: np.ndarray,
    x0: np.ndarray,
    alpha: np.ndarray,
    bscale: np.ndarray,
    seed: int,
    run_ids: np.ndarray,
    record_idx: np.ndarray,
    collect_states: bool = False,
    collect_y: bool = False,
    tail_start: int | None = None,
    limit: float = 1e12,
) -> KernelResult:
    """Iterate x(k+1) = (I - alpha(k) L) x(k) + alpha(k) A w(k) for all runs.

    ``record_idx`` must be sorted, start at 0 and end at T = len(alpha).
    A run diverges at the first step whose state has a non-finite entry or
    one above ``limit`` in magnitude; its later records are NaN and its
    state is reset to zero.  ``collect_states`` / ``collect_y`` record the
    states of ``run_ids[0]`` alone, so memory stays O(R * n).
    """
    n = weights.shape[0]
    m = len(run_ids)
    t_total = len(alpha)
    keys = stream_keys(
        seed,
        np.asarray(run_ids, dtype=np.uint64)[:, None],
        np.arange(n, dtype=np.uint64)[None, :],
    )
    rec = np.asarray(record_idx).tolist()
    n_rec = len(rec)
    tail_from = t_total if tail_start is None else tail_start

    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    v = np.full((m, n_rec), np.nan)
    gmean = np.full((m, n_rec), np.nan)
    x_rec = np.full((n_rec, n), np.nan) if collect_states else None
    y_rec = np.full((n_rec, n), np.nan) if collect_y else None
    diverged_at = np.full(m, -1, dtype=np.int64)
    max_tail_delta = np.zeros(m)
    alive = np.ones(m, dtype=bool)

    lt = laplacian.T.copy()
    at = weights.T.copy()
    rec_pos = 0

    def record(pos, omega=None, with_y=False):
        # Dead runs hold zeros or values within the limit (the divergence
        # check resets them), so rows are computed whole and dead ones masked.
        z = x * gauge
        mu = z.mean(axis=1)
        dev = z - mu[:, None]
        v[:, pos] = np.where(alive, (dev**2).sum(axis=1), np.nan)
        gmean[:, pos] = np.where(alive, mu, np.nan)
        if not alive[0]:
            return
        if x_rec is not None:
            x_rec[pos] = x[0]
        if y_rec is not None and with_y:
            y_rec[pos] = x[0] if omega is None else x[0] + omega[0]

    block = max(1, _BLOCK_ELEMENTS // (m * n))
    for k0 in range(0, t_total, block):
        k1 = min(k0 + block, t_total)
        b = bscale[k0:k1]
        noisy = (b > 0.0).tolist()
        if any(noisy):
            # (B, M, n) draws and their fold alpha(k) * (w(k) @ A^T), one matmul per block.
            steps = np.arange(k0, k1, dtype=np.uint64)[:, None, None]
            omega = laplace_from_keys(keys, steps, b[:, None, None])
            drive = alpha[k0:k1, None, None] * (omega @ at)
        for j, k in enumerate(range(k0, k1)):
            if rec_pos < n_rec and rec[rec_pos] == k:
                record(rec_pos, omega[j] if noisy[j] else None, with_y=True)
                rec_pos += 1
            # x - alpha(k) * (x @ L^T) + drive, in place: the same roundings.
            x_new = x @ lt
            x_new *= alpha[k]
            np.subtract(x, x_new, out=x_new)
            if noisy[j]:
                x_new += drive[j]
            if k >= tail_from:
                delta = np.abs(x_new - x).max(axis=1)
                np.maximum(max_tail_delta, delta, where=alive, out=max_tail_delta)
            x = x_new
            # One reduction over the whole batch; NaN fails the test and
            # falls through to the per-run check.
            if not np.abs(x).max() <= limit:
                bad = alive & ~(np.abs(x).max(axis=1) <= limit)
                diverged_at[bad] = k + 1
                alive &= ~bad
                x[~alive] = 0.0
    if rec_pos < n_rec and rec[rec_pos] == t_total:
        record(rec_pos)

    return KernelResult(
        v=v,
        gmean=gmean,
        x_final=np.where(alive[:, None], x, np.nan),
        diverged_at=diverged_at,
        max_tail_delta=max_tail_delta,
        x_rec=x_rec,
        y_rec=y_rec,
    )
