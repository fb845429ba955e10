"""Cosine distance and DTW dissimilarity between frame matrices.

One engine computes every distance: ``dtw_pairs`` runs many pairs of
segments at once through a batched kernel, and ``dtw_dissimilarity`` is
a one-pair call into it.  All arithmetic runs in float64 regardless of
storage dtype, and the inner products are computed with ``np.einsum``
so that summation order is fixed by the implementation, not by the BLAS
build.  This keeps results reproducible across machines and across
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError


@dataclass(frozen=True)
class DtwConfig:
    """Knobs for the DTW dissimilarity.

    zero_vector_distance is the cosine distance charged when exactly one
    of the two frames has zero norm; silence padding in synthetic data
    makes such frames legitimate, so they are not an error.
    """

    zero_vector_distance: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.zero_vector_distance <= 2.0:
            raise UsageError(
                f"zero_vector_distance must be in [0, 2], got {self.zero_vector_distance}"
            )


DEFAULT_DTW = DtwConfig()


# Pairs run through the kernel in shape-sorted chunks of this many; it
# bounds the kernel's temporaries.
DTW_CHUNK = 64


def dtw_dissimilarity(A, X, cfg: DtwConfig = DEFAULT_DTW) -> float:
    """Mean cell cost along the best monotone alignment path.

    The path minimizes accumulated cost, with ties broken toward fewer
    cells; the result is that minimal sum divided by the path length.
    Steps are diagonal, vertical and horizontal, anchored at both ends.
    One pair through ``dtw_pairs``, so a 1 x 1 call returns the cosine
    distance of its two frames exactly.
    """
    A = np.asarray(A)
    X = np.asarray(X)
    if A.ndim != 2 or X.ndim != 2 or A.shape[1] != X.shape[1]:
        raise UsageError(
            f"frame matrices must be 2-D with equal dim, got {A.shape} and {X.shape}"
        )
    if A.shape[0] == 0 or X.shape[0] == 0:
        raise UsageError("frame matrices must be non-empty")
    return float(dtw_pairs([A, X], [0], [1], cfg)[0])


def dtw_pairs(frames, i, j, cfg: DtwConfig = DEFAULT_DTW) -> np.ndarray:
    """``dtw_dissimilarity(frames[i[p]], frames[j[p]])`` for every p.

    ``frames`` holds non-empty (t, d) matrices of one dim d.  The pairs
    are sorted by shape and run in chunks of ``DTW_CHUNK``, each chunk
    zero-padded to its longest pair; the results come back in input
    order as float64.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    lengths = np.array([f.shape[0] for f in frames])
    # all frames end to end in float64, then one zero row that padding indexes
    flat = np.concatenate(list(frames) + [np.zeros_like(frames[0][:1])], dtype=np.float64)
    if not np.isfinite(flat).all():
        raise DataError("non-finite value in frame matrix")
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def padded(idx):
        steps = np.arange(lengths[idx].max())
        rows = starts[idx, None] + steps
        rows[steps >= lengths[idx, None]] = flat.shape[0] - 1
        return flat[rows]

    order = np.lexsort((lengths[j], lengths[i]))
    out = np.empty(len(order))
    for lo in range(0, len(order), DTW_CHUNK):
        k = order[lo:lo + DTW_CHUNK]
        out[k] = _dtw_padded(padded(i[k]), padded(j[k]), lengths[i[k]], lengths[j[k]], cfg)
    return out


def _dtw_padded(a, x, m, n, cfg: DtwConfig) -> np.ndarray:
    """DTW of P zero-padded float64 pairs at once.

    ``a`` is (P, M, d) and ``x`` is (P, N, d); pair p occupies the first
    ``m[p]`` rows of ``a[p]`` and the first ``n[p]`` rows of ``x[p]``.
    Padding cannot leak in: DP cell (i, j) reads only cells at smaller
    or equal i and j, and pair p's result is read at (m[p]-1, n[p]-1).
    """
    p, rows, cols = a.shape[0], a.shape[1], x.shape[1]
    cost = _cost_matrices(a, x, m, n, cfg)

    # The DP runs along anti-diagonals k = i + j, each of which depends
    # only on the two before it.  A diagonal is a (rows + 1, P) array
    # whose row 1 + i holds cell (i, k - i), so every step works on
    # contiguous rows.  Row 0 and the cells off the grid are +inf, so
    # they never win a minimum over the finite predecessor that every
    # cell on the grid has.  Each pair's row m - 1 is kept per diagonal,
    # and its result read on diagonal m + n - 2.
    diags = rows + cols - 1
    skew = np.full((diags, rows, p), np.inf)
    i, j = np.indices((rows, cols))
    skew[i + j, i] = cost.transpose(1, 2, 0)
    far_s = np.full((rows + 1, p), np.inf)  # diagonal k - 2
    far_l = np.zeros((rows + 1, p), dtype=np.int64)
    near_s, near_l = far_s.copy(), far_l.copy()  # diagonal k - 1
    near_s[1], near_l[1] = skew[0, 0], 1
    at_end = m, np.arange(p)
    end_s = np.empty((diags, p))
    end_l = np.empty((diags, p), dtype=np.int64)
    end_s[0], end_l[0] = near_s[at_end], near_l[at_end]
    for k in range(1, diags):
        s, l = far_s[:-1], far_l[:-1]  # diagonal step
        for s2, l2 in ((near_s[:-1], near_l[:-1]),  # vertical
                       (near_s[1:], near_l[1:])):  # horizontal
            take = (s2 < s) | ((s2 == s) & (l2 < l))
            s = np.where(take, s2, s)
            l = np.where(take, l2, l)
        # s and l are fresh arrays now, so diagonal k can overwrite k - 2
        np.add(s, skew[k], out=far_s[1:])
        np.add(l, 1, out=far_l[1:])
        far_s, far_l, near_s, near_l = near_s, near_l, far_s, far_l
        end_s[k], end_l[k] = near_s[at_end], near_l[at_end]
    last = m + n - 2, np.arange(p)
    return end_s[last] / end_l[last]


def _cost_matrices(a, x, m, n, cfg: DtwConfig) -> np.ndarray:
    """Cosine cost matrix of each pair of ``_dtw_padded``: 1 - cos in
    [0, 2], exactly 0.0 for bitwise-equal frames (also all-zero ones),
    else ``cfg.zero_vector_distance`` where a frame has zero norm.  The
    padding cells hold arbitrary finite costs."""
    sa = np.einsum("pij,pij->pi", a, a)
    sx = np.einsum("pij,pij->pi", x, x)
    cost = np.einsum("pik,pjk->pij", a, x)
    denom = sa[:, :, None] * sx[:, None, :]
    np.sqrt(denom, out=denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(cost, denom, out=cost)
    np.subtract(1.0, cost, out=cost)
    cost[(sa == 0.0)[:, :, None] | (sx == 0.0)[:, None, :]] = cfg.zero_vector_distance
    # equal frames have equal norms, so only equal-norm frame pairs need
    # the elementwise comparison; the padding is left out of it
    on_a = np.arange(a.shape[1]) < m[:, None]
    on_x = np.arange(x.shape[1]) < n[:, None]
    pp, ii, jj = np.nonzero(
        (sa[:, :, None] == sx[:, None, :]) & on_a[:, :, None] & on_x[:, None, :]
    )
    same = (a[pp, ii] == x[pp, jj]).all(axis=1)
    cost[pp[same], ii[same], jj[same]] = 0.0
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost
