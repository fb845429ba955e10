import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abxlab.distance import DTW_CHUNK, DtwConfig, dtw_dissimilarity, dtw_pairs
from abxlab.errors import DataError, UsageError

from oracles import cosine_cost_matrix, cosine_ref, dtw_ref, dtw_scalar


def rand_mat(rng, t, d):
    return (rng.standard_normal((t, d)) * 2).astype(np.float32)


# ---------------------------------------------------------------------------
# cosine distance: a 1 x 1 DTW returns its one cost cell exactly


def cosine_distance(a, b, cfg=DtwConfig()):
    return dtw_dissimilarity([a], [b], cfg)


def test_cosine_trivial_values():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == 0.0  # same direction
    assert cosine_distance([3.0, 4.0], [3.0, 4.0]) == 0.0


def test_cosine_zero_vector_rules():
    assert cosine_distance([0.0, 0.0], [1.0, 0.0]) == 1.0  # default charge
    cfg = DtwConfig(zero_vector_distance=0.25)
    assert cosine_distance([0.0, 0.0], [1.0, 0.0], cfg) == 0.25
    # identical frames win over the zero-norm rule, even all-zero ones
    assert cosine_distance([0.0, 0.0], [0.0, 0.0], cfg) == 0.0


def test_cosine_validation():
    with pytest.raises(UsageError):
        cosine_distance([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        cosine_distance([np.nan], [1.0])
    with pytest.raises(UsageError):
        DtwConfig(zero_vector_distance=2.5)
    with pytest.raises(UsageError):
        DtwConfig(zero_vector_distance=-0.1)


def test_cost_matrix_validation():
    for A, X in (
        ([[1.0]], [[1.0, 2.0]]),  # unequal dims
        ([1.0, 2.0], [[1.0, 2.0]]),  # not 2-D
        (np.zeros((2, 2, 3)), np.zeros((2, 3))),
        (np.zeros((0, 3)), np.zeros((2, 3))),  # empty
        (np.zeros((2, 3)), np.zeros((0, 3))),
    ):
        with pytest.raises(UsageError):
            dtw_dissimilarity(A, X)
    for bad in (np.nan, np.inf, -np.inf):
        A = np.zeros((3, 2))
        A[2, 1] = bad
        with pytest.raises(DataError):
            dtw_dissimilarity(A, np.ones((2, 2)))
        with pytest.raises(DataError):
            dtw_dissimilarity(np.ones((2, 2)), A)


def test_cost_matrix_matches_scalar_distance():
    rng = np.random.default_rng(7)
    A = rand_mat(rng, 4, 3)
    X = rand_mat(rng, 5, 3)
    A[2] = X[1]  # plant an exact repeat
    A[3] = 0.0
    X[4] = 0.0
    cfg = DtwConfig(zero_vector_distance=0.5)
    cost = cosine_cost_matrix(A, X, 0.5)
    for i in range(4):
        for j in range(5):
            got = cosine_distance(A[i], X[j], cfg)
            assert got == cost[i, j]
            assert got == pytest.approx(cosine_ref(A[i], X[j], 0.5), abs=1e-12)
    assert cosine_distance(A[2], X[1], cfg) == 0.0
    assert cosine_distance(A[3], X[4], cfg) == 0.0  # both zero: bitwise equal
    assert cosine_distance(A[3], X[0], cfg) == 0.5  # one zero


# ---------------------------------------------------------------------------
# DTW


def test_dtw_two_frames_against_one():
    # [e1, e2] vs [e1]: the path covers both rows of the left sequence,
    # costs 0 and 1, length 2
    A = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    X = np.array([[1.0, 0.0]], dtype=np.float32)
    assert dtw_dissimilarity(A, X) == 0.5


def test_dtw_identity_is_exact_zero():
    rng = np.random.default_rng(3)
    for t in (1, 2, 5, 9):
        A = rand_mat(rng, t, 4)
        assert dtw_dissimilarity(A, A) == 0.0


def test_dtw_constant_sequences():
    v = np.array([0.3, -1.2, 0.7], dtype=np.float32)
    A = np.tile(v, (3, 1))
    X = np.tile(v, (5, 1))
    assert dtw_dissimilarity(A, X) == 0.0


def test_dtw_prefers_fewer_cells_on_tied_sums():
    # all-orthogonal unit frames: every cell costs 1, so the minimal sum
    # equals the minimal path length and the mean must be exactly 1
    A = np.eye(4, 6, dtype=np.float32)[:3]
    X = np.eye(4, 6, k=3, dtype=np.float32)[:2]
    assert dtw_dissimilarity(A, X) == 1.0


def test_dtw_matches_path_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        ta, tx = rng.integers(1, 6, size=2)
        d = int(rng.integers(1, 5))
        A = rand_mat(rng, ta, d)
        X = rand_mat(rng, tx, d)
        got = dtw_dissimilarity(A, X)
        want = dtw_ref(A, X)
        assert got == pytest.approx(want, abs=1e-12)


def test_dtw_oracle_agreement_with_planted_ties_and_zeros():
    rng = np.random.default_rng(12)
    for k in range(25):
        ta, tx = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        A = rand_mat(rng, ta, 3)
        X = rand_mat(rng, tx, 3)
        A[rng.integers(ta)] = X[rng.integers(tx)]
        if k % 2:
            A[rng.integers(ta)] = 0.0
            X[rng.integers(tx)] = 0.0
        cfg = DtwConfig(zero_vector_distance=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
        assert dtw_dissimilarity(A, X, cfg) == pytest.approx(
            dtw_ref(A, X, cfg.zero_vector_distance), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    ta=st.integers(min_value=1, max_value=7),
    tx=st.integers(min_value=1, max_value=7),
    d=st.integers(min_value=1, max_value=5),
)
def test_dtw_symmetry_bitwise(seed, ta, tx, d):
    rng = np.random.default_rng(seed)
    A = rand_mat(rng, ta, d)
    X = rand_mat(rng, tx, d)
    assert dtw_dissimilarity(A, X) == dtw_dissimilarity(X, A)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    ta=st.integers(min_value=1, max_value=6),
    tx=st.integers(min_value=1, max_value=6),
    scale=st.sampled_from([0.25, 0.5, 2.0, 4.0, 1024.0]),
)
def test_dtw_power_of_two_scaling_bitwise(seed, ta, tx, scale):
    # scaling either side by a power of two only shifts float exponents,
    # so every cosine in the grid (and hence the DTW mean) is unchanged
    rng = np.random.default_rng(seed)
    A = rand_mat(rng, ta, 4)
    X = rand_mat(rng, tx, 4)
    base = dtw_dissimilarity(A, X)
    assert dtw_dissimilarity(A * np.float32(scale), X) == base
    assert dtw_dissimilarity(A, X * np.float32(scale)) == base


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    ta=st.integers(min_value=1, max_value=6),
    tx=st.integers(min_value=1, max_value=6),
)
def test_dtw_range_property(seed, ta, tx):
    rng = np.random.default_rng(seed)
    v = dtw_dissimilarity(rand_mat(rng, ta, 3), rand_mat(rng, tx, 3))
    assert 0.0 <= v <= 2.0


def test_dtw_general_scale_invariance_within_tolerance():
    # non-dyadic scalars reround the float32 storage, so only closeness
    # is guaranteed at the distance level
    rng = np.random.default_rng(21)
    A = rand_mat(rng, 5, 4)
    X = rand_mat(rng, 6, 4)
    base = dtw_dissimilarity(A, X)
    scaled = dtw_dissimilarity((A * 2.5).astype(np.float32), X)
    assert scaled == pytest.approx(base, abs=1e-6)


# ---------------------------------------------------------------------------
# batched DTW


def planted_pairs(rng, d, dtype, count=150):
    """(A, X) pairs of 1-16 frames with zero, equal and tie-heavy frames."""
    pairs = []
    for k in range(count):
        m, n = (int(v) for v in rng.integers(1, 17, size=2))
        A = (rng.standard_normal((m, d)) * 2).astype(dtype)
        X = (rng.standard_normal((n, d)) * 2).astype(dtype)
        kind = k % 6
        if kind == 1:  # zero-norm frames, one of them on both sides
            A[rng.integers(m)] = 0.0
            X[rng.integers(n)] = 0.0
        elif kind == 2:  # exactly equal frames
            for _ in range(min(m, n)):
                A[rng.integers(m)] = X[rng.integers(n)]
        elif kind == 3:  # constant rows: the cost grid ties everywhere
            v = A[0]
            A[:] = v
            X[:] = v * dtype(2.0)
            X[rng.integers(n)] = -v
        elif kind == 4:  # orthogonal one-hot rows: every cell costs 1
            A = np.eye(m, d, dtype=dtype)
            X = np.eye(n, d, k=min(m, d), dtype=dtype) if d > m else np.zeros((n, d), dtype)
        elif kind == 5:  # short {0, 1} rows, some segments all zero: at
            # dim 1 with zero_vector_distance -0.0 every cost is a signed
            # zero, so only the tie order of the DP decides the result's sign
            A, X = (rng.integers(0, 2, size=(t % 5 + 1, d)).astype(dtype) for t in (m, n))
            if k // 6 % 3 == 1:
                A[:] = 0.0
            elif k // 6 % 3 == 2:
                X[:] = 0.0
        pairs.append((A, X))
    return pairs


@pytest.mark.parametrize("zero_vector_distance", [0.0, -0.0, 0.25, 1.0, 2.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 13, 100])
def test_dtw_batch_is_bitwise_scalar(d, dtype, zero_vector_distance):
    # more pairs than one chunk, in random shape order: the engine's shape
    # sort, its chunk boundaries and the write-back to input order all run
    rng = np.random.default_rng(d * 1000 + int(zero_vector_distance * 4))
    cfg = DtwConfig(zero_vector_distance=zero_vector_distance)
    pairs = planted_pairs(rng, d, dtype)
    assert len(pairs) > 2 * DTW_CHUNK
    frames = [f for pair in pairs for f in pair]
    left = np.arange(0, len(frames), 2)
    for i, j in ((left, left + 1), (left + 1, left)):  # and the transpose
        got = dtw_pairs(frames, i, j, cfg)
        want = np.array([dtw_scalar(frames[a], frames[b], zero_vector_distance)
                         for a, b in zip(i, j)])
        assert got.dtype == np.float64
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_dtw_batch_validation():
    # one finiteness check covers every frame, also one read only by a
    # pair in a later chunk
    rng = np.random.default_rng(5)
    frames = [rand_mat(rng, int(t), 4) for t in rng.integers(1, 9, size=2 * DTW_CHUNK + 2)]
    left = np.arange(0, len(frames), 2)
    assert np.isfinite(dtw_pairs(frames, left, left + 1)).all()
    for bad in (np.nan, np.inf):
        broken = list(frames)
        broken[-1] = frames[-1].copy()
        broken[-1][0, 3] = bad
        with pytest.raises(DataError):
            dtw_pairs(broken, left, left + 1)
