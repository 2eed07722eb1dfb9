"""The simulation kernel: NumPy, vectorized across Monte Carlo runs.

Noise is counter-based (``noise.stream_keys`` / ``noise.laplace_into``),
so a draw depends only on its (seed, run, agent, step) key and is generated
a block of steps at a time.  A block holds about ``_BLOCK_ELEMENTS`` draws,
``max(1, _BLOCK_ELEMENTS // (M * n))`` steps, so its memory stays flat in the
batch shape.  The state recursion itself stays one step at a time.

Every array the size of a block or of the batch state is allocated once per
call and reused: the draws and the drive of each block, a stash of recorded
states, an (M, C) buffer of disagreements, two states that swap each step,
and one scratch state for the |x| checks.  No step or block allocates a
temporary of that size.  A recorded state is only copied into the stash,
which is reduced, column by column in the summation order of NumPy's row
sums (``row_sum``), when a record finds it full or holding as many records
as the disagreement buffer has free columns, and once at the end.

Each reduction writes its records' V(k) as the buffer's next columns, so no
(M, R) matrix of V is held; the buffer is reduced to the mean and the
deciles over the runs whenever it fills and once at the end.  NumPy sums a
C-ordered block's columns row after row, as it does the whole matrix's, but
a lone column pairwise, so a reduction takes two columns at least.

The divergence check costs nothing in a block that provably cannot diverge:
before each block an a-priori bound on max |x| is carried through the
block's steps, and only a block whose bound exceeds half the limit checks
max |x| step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import _U_MAX, laplace_from_keys, laplace_into, stream_keys

_BLOCK_ELEMENTS = 2**16
DIVERGENCE_LIMIT = 1e12
# The largest |draw| / b of ``noise.laplace_into``: -log1p(-2 * _U_MAX) = 53 ln 2.
_DRAW_RATIO = -math.log1p(-2.0 * _U_MAX)


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
    v0: np.ndarray  # (R,) disagreement V(k) at record points, run_ids[0] only
    v_mean: np.ndarray  # (R,) mean V(k) over the runs not dropped; NaN where one of them is dead
    v_deciles: np.ndarray  # (3, R) 10/50/90% quantiles of the same
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
    *,
    drop: np.ndarray | None = None,
) -> KernelResult:
    """Iterate x(k+1) = (I - alpha(k) L) x(k) + alpha(k) A w(k) for all runs.

    ``record_idx`` must be sorted, start at 0 and end at T = len(alpha).
    A run diverges at the first step whose state has a non-finite entry or
    one above ``DIVERGENCE_LIMIT`` in magnitude; its later records are NaN and its
    state is reset to zero.  Run ``run_ids[0]``'s states and transmissions
    y(k) = x(k) + w(k) are recorded too (y = x at a noiseless step, NaN at k = T).
    The aggregate leaves out the runs where the (M,) mask ``drop`` is true;
    over no run it is NaN.
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
    v0 = np.empty(n_rec)
    v_mean = np.full(n_rec, np.nan)
    v_deciles = np.full((3, n_rec), np.nan)
    keep = slice(None) if drop is None else ~np.asarray(drop, dtype=bool)
    x_rec = np.full((n_rec, n), np.nan)
    diverged_at = np.full(m, -1, dtype=np.int64)
    max_tail_delta = np.zeros(m)
    alive = np.ones(m, dtype=bool)

    lt = laplacian.T.copy()
    at = weights.T.copy()
    # For alpha >= 0, ||I - alpha L||_inf = max(1 + alpha m1, alpha m2 - 1) from L's
    # diagonal d and off-diagonal row sums o, and ||alpha A w||_inf <= alpha a_row max|w|.
    diag = np.diag(laplacian)
    off = np.abs(laplacian).sum(axis=1) - np.abs(diag)
    m1, m2 = float((off - diag).max()), float((off + diag).max())
    a_row = float(np.abs(weights).sum(axis=1).max())
    reach = float(np.abs(x).max())  # bounds max |x| of every run, dead ones included
    rec_pos = held = 0  # the next record; the records in the stash
    # Made once per call (see the module docstring).
    block = max(1, _BLOCK_ELEMENTS // (m * n))
    draws = np.empty((block, m, n), dtype=np.uint64)
    drives = np.empty((block, m, n), dtype=np.uint64)
    stash = np.empty((block, m, n))
    cols = max(2, min(n_rec, _BLOCK_ELEMENTS // m))
    vbuf = np.zeros((m if drop is None else int(keep.sum()), cols))
    filled = 0  # vbuf's columns in use
    x_new = np.empty_like(x)
    scratch = np.empty_like(x)

    def flush(final=False):
        """The ``held`` records in the stash, rec_pos - held, ..., rec_pos - 1.

        A run is alive at record k unless it diverged at a step <= k.  Dead
        runs go on from the zeros the divergence check reset them to, so
        rows are reduced whole and dead ones masked.  Their V(k) take vbuf's
        next columns, which are reduced to the mean and the deciles over the
        runs, and emptied, once all are taken and at the end.
        """
        nonlocal held, filled
        s, sl = stash[:held], slice(rec_pos - held, rec_pos)
        ks = rec[sl]
        live = (diverged_at < 0) | (diverged_at > ks[:, None])
        live0 = live[:, 0]
        x_rec[sl][live0] = s[live0, 0]
        z = np.multiply(s, gauge, out=s)
        mu = row_sum(z) / n  # z.mean(axis=-1), bit for bit
        dev = np.subtract(z, mu[..., None], out=z)
        vk = np.where(live, row_sum(np.square(dev, out=dev)), np.nan)
        v0[sl] = vk[:, 0]
        vbuf[:, filled : filled + held] = vk[:, keep].T
        filled, held = filled + held, 0
        if filled == cols or final:
            vb, sl = vbuf[:, : max(filled, 2)], slice(rec_pos - filled, rec_pos)
            if len(vb):
                with np.errstate(invalid="ignore"):  # inf - inf where a state overflowed V
                    v_mean[sl] = vb.mean(axis=0)[:filled]
                    v_deciles[:, sl] = np.quantile(vb, [0.1, 0.5, 0.9], axis=0, overwrite_input=True)[:, :filled]
            filled = 0

    for k0 in range(0, t_total, block):
        k1 = min(k0 + block, t_total)
        a, b = alpha[k0:k1], bscale[k0:k1]
        a_k = memoryview(a)  # its items are Python floats, made one at a time
        noisy = (b > 0.0).tolist()
        if any(noisy):
            # (B, M, n) draws and their fold alpha(k) * (w(k) @ A^T), one matmul per block.
            steps = np.arange(k0, k1, dtype=np.uint64)[:, None, None]
            omega = laplace_into(keys, steps, b[:, None, None], draws[: k1 - k0], drives[: k1 - k0])
            # The draw's scratch is dead now, so the drive takes its place.
            drive = np.matmul(omega, at, out=drives[: k1 - k0].view(np.float64))
            drive *= a[:, None, None]
        # reach <- prod_k max(1, ||I - alpha_k L||_inf) * (reach + a_row * max|w|/b * sum_k alpha_k b_k)
        # bounds max |x| over the block's exact states: every factor is >= 1, so the
        # noise may be added first.  A computed step errs by a relative (n + 3) 2^-53
        # or so of that bound, so the computed states stay within twice it while
        # T * n is far below 1e15, and a bound of half the limit hides no divergence.
        # NaN (inf * 0 included) and a negative alpha make the block screen every step.
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.maximum(np.maximum(1.0 + a * m1, a * m2 - 1.0), 1.0).prod()
            reach = grow * (reach + a_row * _DRAW_RATIO * float(np.dot(a, b)))
        screen = not (reach <= DIVERGENCE_LIMIT / 2 and a.min() >= 0.0)
        # The last block takes k = T too, for its record alone.
        for j, k in enumerate(range(k0, k1 + (k1 == t_total))):
            if k == rec_list[rec_pos]:
                if held in (block, cols - filled):  # so that no flush straddles vbuf's fill
                    flush()
                stash[held] = x
                held, rec_pos = held + 1, rec_pos + 1
            if k == t_total:
                break
            # x - alpha(k) * (x @ L^T) + drive, in place: the same roundings.
            np.matmul(x, lt, out=x_new)
            np.multiply(x_new, a_k[j], out=x_new)
            np.subtract(x, x_new, out=x_new)
            if noisy[j]:
                np.add(x_new, drive[j], out=x_new)
            if k >= tail_from:
                delta = np.abs(np.subtract(x_new, x, out=scratch), out=scratch).max(axis=1)
                np.maximum(max_tail_delta, delta, where=alive, out=max_tail_delta)
            x, x_new = x_new, x
            # NaN and inf fail the check too; only a state that fails it needs the per-run one.
            if screen and not np.abs(x, out=scratch).max() <= DIVERGENCE_LIMIT:
                bad = alive & ~(scratch.max(axis=1) <= DIVERGENCE_LIMIT)
                diverged_at[bad] = k + 1
                alive &= ~bad
                x[~alive] = 0.0
        if screen:
            reach = float(np.abs(x, out=scratch).max())
    flush(final=True)
    # Run 0's gauge mean, and its y(k) = x(k) + w(k) at k < T: a draw is a pure function
    # of its key, so w(k) is the one the loop drew.  Only b(k) > 0 adds it: -0.0 stays -0.0.
    gmean = row_sum(x_rec * gauge) / n
    ks = rec[rec < t_total]
    xs, bk = x_rec[: len(ks)], bscale[ks, None]
    y_rec = np.full_like(x_rec, np.nan)
    y_rec[: len(ks)] = np.where(bk > 0.0, xs + laplace_from_keys(keys[0], ks[:, None], bk), xs)

    return KernelResult(
        v0=v0,
        v_mean=v_mean,
        v_deciles=v_deciles,
        gmean=gmean,
        x_final=np.where(alive[:, None], x, np.nan),
        diverged_at=diverged_at,
        max_tail_delta=max_tail_delta,
        x_rec=x_rec,
        y_rec=y_rec,
    )
