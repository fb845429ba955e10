"""Cosine distance and DTW dissimilarity between frame matrices.

One engine computes every distance: ``dtw_pairs`` runs many pairs of
segments at once through a batched kernel, and ``dtw_dissimilarity`` is
a one-pair call into it.  All arithmetic runs in float64 regardless of
storage dtype, and the inner products are computed with ``np.einsum``
so that summation order is fixed by the implementation, not by the BLAS
build.  This keeps results reproducible across machines and across
worker processes.  Each frame's squared norm is computed once; a frame
whose squared norm is neither 0.0 nor inside [2^-511, 2^511] is a
``DataError``, since a product of two such norms would overflow or
round to zero.  Inside that range two equal nonzero frames cost exactly
0.0 by the arithmetic alone: einsum sums their dot product as it summed
the squared norm s, and sqrt(s * s) == s.  So both special cases come
from the norms, a zero norm marking an all-zero frame.  Each pair runs
with its shorter segment as the rows, which shortens every anti-diagonal
step.  No cost is -0.0 (a -0.0 zero-vector distance is charged as 0.0),
so DTW is bit-symmetric and the orientation never shows.  The DTW
recurrence holds each cell as one complex128, path cost + 1j * path
length, so numpy's complex minimum is its (cost, length) tie-break.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError


# Pairs run through the kernel in shape-sorted chunks of this many; it
# bounds the kernel's one complex (diags + 1, M + 1, P) DP array, at 16 B
# per cell.
DTW_CHUNK = 64


def dtw_dissimilarity(A, X, zero_vector_distance: float = 1.0) -> float:
    """Mean cell cost along the best monotone alignment path.

    The path minimizes accumulated cost, with ties broken toward fewer
    cells; the result is that minimal sum divided by the path length.
    Steps are diagonal, vertical and horizontal, anchored at both ends.
    One pair through ``dtw_pairs``, so a 1 x 1 call returns the cosine
    distance of its two frames exactly.
    """
    return float(dtw_pairs([A, X], [0], [1], zero_vector_distance)[0])


def dtw_pairs(frames, i, j, zero_vector_distance: float = 1.0) -> np.ndarray:
    """``dtw_dissimilarity(frames[i[p]], frames[j[p]])`` for every p.

    ``zero_vector_distance``, in [0, 2], is the cost of a frame pair with
    one zero norm (silence padding, so not an error).  ``frames`` must hold
    non-empty (t, d) matrices of one dim d, and ``i`` and ``j`` must be 1-D
    index arrays of one length into ``frames``; anything else is a
    ``UsageError``.  Each pair runs with its shorter segment first, the
    pairs are sorted by shape and run in chunks of ``DTW_CHUNK``, each
    chunk padded to its longest pair by repeating each segment's last
    frame; the results come back in input order as float64.
    """
    if not 0.0 <= zero_vector_distance <= 2.0:  # NaN fails too
        raise UsageError(f"zero_vector_distance must be in [0, 2], got {zero_vector_distance}")
    frames = [np.asarray(f) for f in frames]
    for f in frames:
        if f.ndim != 2 or len(f) == 0 or f.shape[1] != frames[0].shape[1]:
            raise UsageError("frame matrices must be non-empty and 2-D with one dim, "
                             f"got {f.shape} beside {frames[0].shape}")
    i, j = np.asarray(i), np.asarray(j)
    if i.ndim != 1 or i.shape != j.shape or i.size and not (
            i.dtype.kind in "iu" and j.dtype.kind in "iu"
            and min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) < len(frames)):
        raise UsageError("pair indices must be two 1-D integer arrays of one length "
                         f"with values in [0, {len(frames)})")
    i, j = i.astype(np.intp), j.astype(np.intp)
    if not frames:
        return np.empty(0)
    lengths = np.array([f.shape[0] for f in frames])
    flat = np.concatenate(frames, dtype=np.float64)
    norms = np.einsum("ij,ij->i", flat, flat)
    # |a|^2 |x|^2 must neither overflow nor round to zero, so a squared norm
    # lies in [2^-511, 2^511], or is 0.0 on an all-zero frame; NaN fails too
    bad = ~(norms <= 2.0**511)
    tiny = np.flatnonzero(norms < 2.0**-511)
    bad[tiny] = flat[tiny].any(axis=1)
    if bad.any():
        if not np.isfinite(flat[bad]).all():
            raise DataError("non-finite value in frame matrix")
        raise DataError("frame outside the cosine distance's range: its squared "
                        "norm is neither 0 nor in [2^-511, 2^511]")
    # row t of segment s in flat, or its last row past its end
    starts = np.cumsum(lengths) - lengths
    table = starts[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)

    # a shorter first side shortens every step; DTW is bit-symmetric
    swap = lengths[i] > lengths[j]
    i, j = np.where(swap, j, i), np.where(swap, i, j)
    order = np.lexsort((lengths[j], lengths[i]))
    out = np.empty(len(order))
    for lo in range(0, len(order), DTW_CHUNK):
        k = order[lo:lo + DTW_CHUNK]
        m, n = lengths[i[k]], lengths[j[k]]
        ra, rx = table[i[k], :m.max()], table[j[k], :n.max()]
        out[k] = _dtw_padded(_cost_matrices(ra, rx, flat, norms, zero_vector_distance), m, n)
    return out


def _dtw_padded(cost, m, n) -> np.ndarray:
    """DTW of P padded pairs at once, from their (P, M, N) cost matrices.

    Pair p occupies the first ``m[p]`` rows and ``n[p]`` columns of
    ``cost[p]``.  Padding cannot leak in: DP cell (i, j) reads only cells
    at smaller or equal i and j, and pair p's result is read at
    (m[p]-1, n[p]-1).
    """
    p, rows, cols = cost.shape

    # A DP cell is one complex number, path cost + 1j * path length (an
    # exact integer in float64), whose numpy ordering (real part, then
    # imaginary part) is the tie-break toward fewer cells.  Cell (i, j)
    # starts as its cost + 1j at dp[1 + i + j, 1 + i], and a step adds
    # the best predecessor to a whole anti-diagonal, which depends only
    # on the two before it, in contiguous rows.  dp[0], row 0 and the
    # cells off the grid are +inf, so they never win a minimum over the
    # finite predecessor that every cell on the grid has.
    diags = rows + cols - 1
    dp = np.full((diags + 1, rows + 1, p), complex(np.inf, 1.0))
    # the costs land through a strided (P, M, N) view of dp.real: a step in
    # p moves one entry, in j one anti-diagonal, in i one of each and a row
    s0, s1, s2 = dp.real.strides
    np.lib.stride_tricks.as_strided(
        dp.real[1, 1:], cost.shape, (s2, s0 + s1, s0))[...] = cost
    best = np.empty((rows, p), dtype=complex)
    for k in range(2, diags + 1):
        # on a full tie np.minimum keeps its first argument, so the order
        # diagonal, vertical, horizontal is part of the result's bits
        np.minimum(dp[k - 2, :-1], dp[k - 1, :-1], out=best)
        np.minimum(best, dp[k - 1, 1:], out=best)
        dp[k, 1:] += best
    end = dp[m + n - 1, m, np.arange(p)]
    return end.real / end.imag


def _cost_matrices(ra, rx, flat, norms, zero_vector_distance: float) -> np.ndarray:
    """(P, M, N) cosine cost matrices between the rows ``ra`` (P, M) and
    ``rx`` (P, N) of ``flat``, from their squared ``norms``: 1 - cos in
    [0, 2], ``zero_vector_distance`` where one frame has zero norm, 0.0
    where both do and, by the arithmetic alone, between equal frames."""
    sa = norms[ra]
    sx = norms[rx]
    cost = np.einsum("pik,pjk->pij", flat[ra], flat[rx])
    denom = sa[:, :, None] * sx[:, None, :]
    np.sqrt(denom, out=denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(cost, denom, out=cost)
    np.subtract(1.0, cost, out=cost)
    za, zx = (sa == 0.0)[:, :, None], (sx == 0.0)[:, None, :]
    # + 0.0 charges a -0.0 setting as 0.0: a -0.0 cost would let the tie
    # order of the DP, and so the pair's orientation, pick a zero's sign
    cost[za | zx] = zero_vector_distance + 0.0
    cost[za & zx] = 0.0
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost
