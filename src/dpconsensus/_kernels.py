"""The simulation kernel: NumPy, vectorized across Monte Carlo runs.

Noise is counter-based (``noise.stream_keys`` / ``noise.laplace_into``),
so a draw depends only on its (seed, run, agent, step) key and is generated
a block of steps at a time.  A block holds about ``_BLOCK_ELEMENTS`` draws,
``max(1, _BLOCK_ELEMENTS // (M * n))`` steps, so its memory stays flat in the
batch shape.  The state recursion itself stays one step at a time.

Every array the size of a block or of the batch state is allocated once per
call and reused: the draws and the drive of each block, a stash of the
block's recorded states, two states that swap each step, and one scratch
state for the |x| checks.  No step or block allocates a temporary of that
size.  A recorded state is only copied into the stash during the block; the
block's records are reduced together once it ends, column by column in the
summation order of NumPy's row sums (``row_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import laplace_from_keys, laplace_into, stream_keys

_BLOCK_ELEMENTS = 2**16
DIVERGENCE_LIMIT = 1e12
# Sum-of-squares screen for the divergence check, below the limit squared by
# far more than the dot product's rounding error.
_SCREEN = (DIVERGENCE_LIMIT * (1 - 2.0**-20)) ** 2


def row_sum(z: np.ndarray) -> np.ndarray:
    """``z.sum(axis=-1)``, bit for bit: below 8 columns NumPy adds each row left to right onto
    +0.0, one row at a time, so whole columns added in that order give its bits in n passes."""
    if z.shape[-1] >= 8:
        return z.sum(axis=-1)
    acc = z[..., 0] + 0.0  # as NumPy's: a row of -0.0 sums to +0.0
    for i in range(1, z.shape[-1]):
        acc += z[..., i]
    return acc


@dataclass
class KernelResult:
    v: np.ndarray  # (M, R) disagreement at record points
    gmean: np.ndarray  # (R,) gauge mean at record points, run_ids[0] only
    x_final: np.ndarray  # (M, n)
    diverged_at: np.ndarray  # (M,) step index, -1 if finite throughout
    max_tail_delta: np.ndarray  # (M,) max inf-norm step change for k >= tail_start
    x_rec: np.ndarray  # (R, n), run_ids[0] only
    y_rec: np.ndarray  # (R, n), run_ids[0] only; NaN where y(k) is undefined


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
    tail_start: int | None = None,
) -> KernelResult:
    """Iterate x(k+1) = (I - alpha(k) L) x(k) + alpha(k) A w(k) for all runs.

    ``record_idx`` must be sorted, start at 0 and end at T = len(alpha).
    A run diverges at the first step whose state has a non-finite entry or
    one above ``DIVERGENCE_LIMIT`` in magnitude; its later records are NaN and its
    state is reset to zero.  Run ``run_ids[0]``'s states and transmissions
    y(k) = x(k) + w(k) are recorded too (y = x at a noiseless step, NaN at k = T).
    """
    n = weights.shape[0]
    m = len(run_ids)
    t_total = len(alpha)
    keys = stream_keys(
        seed,
        np.asarray(run_ids, dtype=np.uint64)[:, None],
        np.arange(n, dtype=np.uint64)[None, :],
    )
    rec = np.asarray(record_idx)
    rec_list = rec.tolist() + [None]  # the sentinel matches no step
    n_rec = len(rec)
    tail_from = t_total if tail_start is None else tail_start

    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    v = np.full((m, n_rec), np.nan)
    x_rec = np.full((n_rec, n), np.nan)
    diverged_at = np.full(m, -1, dtype=np.int64)
    max_tail_delta = np.zeros(m)
    alive = np.ones(m, dtype=bool)

    lt = laplacian.T.copy()
    at = weights.T.copy()
    rec_pos = 0
    # Made once per call (see the module docstring).
    block = max(1, _BLOCK_ELEMENTS // (m * n))
    draws = np.empty((block, m, n), dtype=np.uint64)
    drives = np.empty((block, m, n), dtype=np.uint64)
    stash = np.empty((block, m, n))
    x_new = np.empty_like(x)
    scratch = np.empty_like(x)

    def flush(pos, count):
        """Records pos, ..., pos + count - 1 from the stash.

        A run is alive at record k unless it diverged at a step <= k.  Dead
        runs hold zeros (the divergence check resets them), so rows are
        reduced whole and dead ones masked.
        """
        s, sl = stash[:count], slice(pos, pos + count)
        ks = rec[sl]
        live = (diverged_at < 0) | (diverged_at > ks[:, None])
        live0 = live[:, 0]
        x_rec[sl][live0] = s[live0, 0]
        z = np.multiply(s, gauge, out=s)
        mu = row_sum(z) / n  # z.mean(axis=-1), bit for bit
        dev = np.subtract(z, mu[..., None], out=z)
        v[:, sl] = np.where(live, row_sum(np.square(dev, out=dev)), np.nan).T

    for k0 in range(0, t_total, block):
        k1 = min(k0 + block, t_total)
        b = bscale[k0:k1]
        noisy = (b > 0.0).tolist()
        if any(noisy):
            # (B, M, n) draws and their fold alpha(k) * (w(k) @ A^T), one matmul per block.
            steps = np.arange(k0, k1, dtype=np.uint64)[:, None, None]
            omega = laplace_into(keys, steps, b[:, None, None], draws[: k1 - k0], drives[: k1 - k0])
            # The draw's scratch is dead now, so the drive takes its place.
            drive = np.matmul(omega, at, out=drives[: k1 - k0].view(np.float64))
            drive *= alpha[k0:k1, None, None]
        pos0 = rec_pos
        for j, k in enumerate(range(k0, k1)):
            if k == rec_list[rec_pos]:
                stash[rec_pos - pos0] = x
                rec_pos += 1
            # x - alpha(k) * (x @ L^T) + drive, in place: the same roundings.
            np.matmul(x, lt, out=x_new)
            x_new *= alpha[k]
            np.subtract(x, x_new, out=x_new)
            if noisy[j]:
                x_new += drive[j]
            if k >= tail_from:
                delta = np.abs(np.subtract(x_new, x, out=scratch), out=scratch).max(axis=1)
                np.maximum(max_tail_delta, delta, where=alive, out=max_tail_delta)
            x, x_new = x_new, x
            # The sum of squares bounds every |x_i| with room for its rounding,
            # so only a state that fails it (NaN and inf included) needs the
            # max |x| reduction, and only one that fails that the per-run check.
            # np.vdot, unlike np.dot, overflows to inf without a RuntimeWarning.
            if not np.vdot(x, x) <= _SCREEN:
                if not np.abs(x, out=scratch).max() <= DIVERGENCE_LIMIT:
                    bad = alive & ~(scratch.max(axis=1) <= DIVERGENCE_LIMIT)
                    diverged_at[bad] = k + 1
                    alive &= ~bad
                    x[~alive] = 0.0
        if rec_pos > pos0:
            flush(pos0, rec_pos - pos0)
    if rec_list[rec_pos] == t_total:
        stash[0] = x
        flush(rec_pos, 1)
    # Run 0's gauge mean, and its y(k) = x(k) + w(k) at k < T: a draw is a pure function
    # of its key, so w(k) is the one the loop drew.  Only b(k) > 0 adds it: -0.0 stays -0.0.
    gmean = row_sum(x_rec * gauge) / n
    ks = rec[rec < t_total]
    xs, bk = x_rec[: len(ks)], bscale[ks, None]
    y_rec = np.full_like(x_rec, np.nan)
    y_rec[: len(ks)] = np.where(bk > 0.0, xs + laplace_from_keys(keys[0], ks[:, None], bk), xs)

    return KernelResult(
        v=v,
        gmean=gmean,
        x_final=np.where(alive[:, None], x, np.nan),
        diverged_at=diverged_at,
        max_tail_delta=max_tail_delta,
        x_rec=x_rec,
        y_rec=y_rec,
    )
