"""Cosine distance and DTW dissimilarity between frame matrices.

All arithmetic runs in float64 regardless of storage dtype, and the
inner products are computed with ``np.einsum`` so that summation order
is fixed by the implementation, not by the BLAS build.  This keeps
results reproducible across machines and across worker processes.
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


def cosine_distance(a, b, cfg: DtwConfig = DEFAULT_DTW) -> float:
    """1 - cos(a, b), in [0, 2].

    Bitwise-identical inputs return exactly 0.0 (even all-zero ones);
    otherwise a zero-norm input yields ``cfg.zero_vector_distance``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError(f"vectors must share one dimension, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("non-finite value in cosine_distance input")
    if np.array_equal(a, b):
        return 0.0
    sa = float(np.einsum("i,i->", a, a))
    sb = float(np.einsum("i,i->", b, b))
    if sa == 0.0 or sb == 0.0:
        return cfg.zero_vector_distance
    d = 1.0 - float(np.einsum("i,i->", a, b)) / np.sqrt(sa * sb)
    return min(max(d, 0.0), 2.0)


def cosine_cost_matrix(A, X, cfg: DtwConfig = DEFAULT_DTW) -> np.ndarray:
    """Pairwise cosine distances between the rows of A and of X."""
    A = np.asarray(A)
    X = np.asarray(X)
    if A.ndim != 2 or X.ndim != 2 or A.shape[1] != X.shape[1]:
        raise UsageError(
            f"frame matrices must be 2-D with equal dim, got {A.shape} and {X.shape}"
        )
    if A.shape[0] == 0 or X.shape[0] == 0:
        raise UsageError("frame matrices must be non-empty")
    a = A.astype(np.float64, copy=False)
    x = X.astype(np.float64, copy=False)
    if not (np.isfinite(a).all() and np.isfinite(x).all()):
        raise DataError("non-finite value in frame matrix")
    sa = np.einsum("ij,ij->i", a, a)
    sx = np.einsum("ij,ij->i", x, x)
    dots = np.einsum("ik,jk->ij", a, x)
    denom = np.sqrt(sa[:, None] * sx[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = 1.0 - dots / denom
    zero = (sa == 0.0)[:, None] | (sx == 0.0)[None, :]
    cost[zero] = cfg.zero_vector_distance
    # exact-equal frames have distance 0 by definition, also when all-zero
    eq = (A[:, None, :] == X[None, :, :]).all(axis=2)
    cost[eq] = 0.0
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost


def dtw_dissimilarity(A, X, cfg: DtwConfig = DEFAULT_DTW) -> float:
    """Mean cell cost along the best monotone alignment path.

    The path minimizes accumulated cost, with ties broken toward fewer
    cells; the result is that minimal sum divided by the path length.
    Steps are diagonal, vertical and horizontal, anchored at both ends.
    """
    cost = cosine_cost_matrix(A, X, cfg)
    m, n = cost.shape
    sums = np.empty((m, n))
    lens = np.empty((m, n), dtype=np.int64)
    sums[0, 0] = cost[0, 0]
    lens[0, 0] = 1
    for j in range(1, n):
        sums[0, j] = sums[0, j - 1] + cost[0, j]
        lens[0, j] = j + 1
    for i in range(1, m):
        sums[i, 0] = sums[i - 1, 0] + cost[i, 0]
        lens[i, 0] = i + 1
        row = cost[i]
        for j in range(1, n):
            s, l = sums[i - 1, j - 1], lens[i - 1, j - 1]
            s2, l2 = sums[i - 1, j], lens[i - 1, j]
            if s2 < s or (s2 == s and l2 < l):
                s, l = s2, l2
            s3, l3 = sums[i, j - 1], lens[i, j - 1]
            if s3 < s or (s3 == s and l3 < l):
                s, l = s3, l3
            sums[i, j] = s + row[j]
            lens[i, j] = l + 1
    return float(sums[m - 1, n - 1]) / int(lens[m - 1, n - 1])


def dtw_dissimilarity_batch(A, X, m, n, cfg: DtwConfig = DEFAULT_DTW) -> np.ndarray:
    """``dtw_dissimilarity`` of P frame-matrix pairs at once, bit for bit.

    ``A`` is (P, M, d) and ``X`` is (P, N, d); pair p occupies the first
    ``m[p]`` rows of ``A[p]`` and the first ``n[p]`` rows of ``X[p]``,
    and the rows past them are zero padding.  The cost matrices and the
    dynamic program run the scalar arithmetic elementwise along the pair
    axis, with the same zero-norm, equality and clip rules and the same
    tie-breaks, so each result is the scalar one.  Padding cannot leak in:
    DP cell (i, j) reads only cells at smaller or equal i and j, and pair
    p's result is read at (m[p]-1, n[p]-1).
    """
    a = np.asarray(A, dtype=np.float64)
    x = np.asarray(X, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if a.ndim != 3 or x.ndim != 3 or a.shape[0] != x.shape[0] or a.shape[2] != x.shape[2]:
        raise UsageError(
            f"frame batches must be (P, M, d) and (P, N, d), got {a.shape} and {x.shape}"
        )
    p, rows, cols = a.shape[0], a.shape[1], x.shape[1]
    if m.shape != (p,) or n.shape != (p,) or not (
        ((m >= 1) & (m <= rows) & (n >= 1) & (n <= cols)).all()
    ):
        raise UsageError("pair lengths must lie in [1, M] and [1, N]")
    cost = _batch_cost_matrices(a, x, m, n, cfg)

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


def _batch_cost_matrices(a, x, m, n, cfg: DtwConfig) -> np.ndarray:
    """``cosine_cost_matrix`` of each pair of ``dtw_dissimilarity_batch``,
    on its float64 frames; the padding cells hold arbitrary finite costs."""
    if not (np.isfinite(a).all() and np.isfinite(x).all()):
        raise DataError("non-finite value in frame matrix")
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
