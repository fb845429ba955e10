import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abxlab.distance import DTW_CHUNK, dtw_dissimilarity, dtw_pairs
from abxlab.errors import DataError, UsageError

from oracles import cosine_cost_matrix, cosine_ref, dtw_ref, dtw_scalar


def rand_mat(rng, t, d):
    return (rng.standard_normal((t, d)) * 2).astype(np.float32)


# ---------------------------------------------------------------------------
# cosine distance: a 1 x 1 DTW returns its one cost cell exactly


def cosine_distance(a, b, zero_vector_distance=1.0):
    return dtw_dissimilarity([a], [b], zero_vector_distance)


def test_cosine_trivial_values():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0
    assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == 0.0  # same direction
    assert cosine_distance([3.0, 4.0], [3.0, 4.0]) == 0.0


def test_cosine_zero_vector_rules():
    assert cosine_distance([0.0, 0.0], [1.0, 0.0]) == 1.0  # default charge
    assert cosine_distance([0.0, 0.0], [1.0, 0.0], 0.25) == 0.25
    # identical frames win over the zero-norm rule, even all-zero ones
    assert cosine_distance([0.0, 0.0], [0.0, 0.0], 0.25) == 0.0


def test_cosine_validation():
    with pytest.raises(UsageError):
        cosine_distance([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        cosine_distance([np.nan], [1.0])
    with pytest.raises(UsageError, match=r"zero_vector_distance must be in \[0, 2\], got 2.5"):
        dtw_pairs([np.ones((1, 2))] * 2, [0], [1], zero_vector_distance=2.5)
    with pytest.raises(UsageError, match=r"zero_vector_distance must be in \[0, 2\], got -0.1"):
        dtw_dissimilarity([[1.0]], [[1.0]], -0.1)
    with pytest.raises(UsageError, match="got nan"):
        dtw_pairs([], [], [], float("nan"))


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
    cost = cosine_cost_matrix(A, X, 0.5)
    for i in range(4):
        for j in range(5):
            got = cosine_distance(A[i], X[j], 0.5)
            assert got == cost[i, j]
            assert got == pytest.approx(cosine_ref(A[i], X[j], 0.5), abs=1e-12)
    assert cosine_distance(A[2], X[1], 0.5) == 0.0
    assert cosine_distance(A[3], X[4], 0.5) == 0.0  # both zero: bitwise equal
    assert cosine_distance(A[3], X[0], 0.5) == 0.5  # one zero


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
        zero_vector_distance = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        assert dtw_dissimilarity(A, X, zero_vector_distance) == pytest.approx(
            dtw_ref(A, X, zero_vector_distance), abs=1e-12
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
            # dim 1 with zero_vector_distance 0.0 or -0.0 every cost is zero,
            # so every path ties and a -0.0 cost would let the DP's tie
            # order pick the sign of the result
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
    pairs = planted_pairs(rng, d, dtype)
    assert len(pairs) > 2 * DTW_CHUNK
    frames = [f for pair in pairs for f in pair]
    left = np.arange(0, len(frames), 2)
    for i, j in ((left, left + 1), (left + 1, left)):  # and the transpose
        got = dtw_pairs(frames, i, j, zero_vector_distance)
        want = np.array([dtw_scalar(frames[a], frames[b], zero_vector_distance + 0.0)
                         for a, b in zip(i, j)])
        assert got.dtype == np.float64
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def edge_frames(rng, d, dtype, count=12):
    """Frames at the ends of what ``dtype`` reaches of the norm range,
    then their twins with every zero component's sign flipped.

    float64 squared norms sit in [2^-511, 2^-509] or [2^509, 2^511], and
    one frame per end holds a single component x with x * x as close to
    the end as it gets; float32 frames are scaled to its subnormals or to
    near its largest value.  Some components are zero, of either sign,
    and one frame is all zeros.
    """
    base = [np.zeros(d)]
    for k in range(count):
        v = rng.standard_normal(d)
        v[rng.random(d) < 0.3] = 0.0
        v[rng.integers(d)] = rng.standard_normal() or 1.0
        v *= rng.choice([-1.0, 1.0], size=d)  # zeros of either sign
        low = k % 2 == 0
        if dtype == np.float64:
            log_s = np.log2(np.einsum("i,i->", v, v))
            e = np.ceil((-511 - log_s) / 2) if low else np.floor((511 - log_s) / 2)
            base.append(np.ldexp(v, int(e)))  # exact: no component leaves the normals
        else:
            scale = 2.0**-140 if low else np.finfo(np.float32).max / np.abs(v).max()
            base.append((v * scale).astype(np.float32))
    if dtype == np.float64:
        for end, toward in ((2.0**-511, np.inf), (2.0**511, 0.0)):
            x = np.sqrt(end)
            while not 2.0**-511 <= x * x <= 2.0**511:
                x = np.nextafter(x, toward)
            base.append(np.eye(1, d)[0] * x)
    twins = [np.where(f == 0, -f, f) for f in base]
    return np.array(base + twins, dtype=dtype)


@pytest.mark.parametrize("zero_vector_distance", [0.0, -0.0, 0.25, 1.0, 2.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 13, 100])
def test_equal_frames_at_the_range_edges_are_bitwise_scalar(d, dtype, zero_vector_distance):
    # equal frames cost 0.0 by the arithmetic alone: a frame's squared norm
    # and its dot product with an equal frame must get the same einsum bits,
    # also where the norms are thinnest and where zeros differ in sign
    rng = np.random.default_rng(d * 10 + (dtype == np.float64))
    pool = edge_frames(rng, d, dtype)
    norms = np.einsum("ij,ij->i", pool.astype(np.float64), pool.astype(np.float64))
    assert ((2.0**-511 <= norms) & (norms <= 2.0**511) | (norms == 0.0)).all()
    frames = [pool[rng.integers(len(pool), size=int(t))] for t in rng.integers(1, 9, size=80)]
    left = np.arange(0, len(frames), 2)
    for i, j in ((left, left + 1), (left + 1, left)):
        got = dtw_pairs(frames, i, j, zero_vector_distance)
        want = np.array([dtw_scalar(frames[a], frames[b], zero_vector_distance + 0.0)
                         for a, b in zip(i, j)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # each frame against itself and against its twin costs +0.0
    n = len(pool)
    got = dtw_pairs(list(pool[:, None]), np.r_[:n, :n], np.r_[:n, n // 2:n, :n // 2], zero_vector_distance)
    assert got.view(np.int64).tolist() == [0] * 2 * n


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
    for pool in (frames, []):
        got = dtw_pairs(pool, [], [])
        assert got.dtype == np.float64 and got.shape == (0,)
    a, b = frames[:2]
    for bad in ([a, np.zeros((0, 4))], [a, b[:, :3]], [a, b[0]], [b[0], a], [a, b[None]]):
        with pytest.raises(UsageError):  # empty, mixed-dim, 1-D and 3-D frames
            dtw_pairs(bad, [0], [1])
    for i, j in (([-1], [0]), ([0], [2]), ([0, 1], [1]), ([[0]], [[1]]), ([0.0], [1.0])):
        with pytest.raises(UsageError):  # negative, out of range, mismatched, 2-D, float
            dtw_pairs([a, b], i, j)


@pytest.mark.parametrize("zero_vector_distance", [-0.0, 0.0, 0.25, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 13])
def test_dtw_batch_ignores_pair_order_and_orientation(d, zero_vector_distance):
    # the engine regroups the pairs by shape and runs each with its shorter
    # side first, so neither the caller's order nor its orientation may
    # reach a result bit; -0.0 is charged as 0.0, bit for bit
    rng = np.random.default_rng(d)
    frames = [f for pair in planted_pairs(rng, d, np.float64) for f in pair]
    left = np.arange(0, len(frames), 2)
    i = np.concatenate((left, rng.integers(len(frames), size=100)))
    j = np.concatenate((left + 1, rng.integers(len(frames), size=100)))
    base = dtw_pairs(frames, i, j, zero_vector_distance).view(np.int64)
    perm = rng.permutation(len(i))
    assert dtw_pairs(frames, i[perm], j[perm], zero_vector_distance).view(np.int64).tolist() == base[perm].tolist()
    assert dtw_pairs(frames, j, i, zero_vector_distance).view(np.int64).tolist() == base.tolist()
    if np.signbit(zero_vector_distance):
        plus = dtw_pairs(frames, i, j, 0.0)
        assert plus.view(np.int64).tolist() == base.tolist()


def test_dtw_minus_zero_setting_gives_plus_zero_both_ways():
    # a -0.0 cost would break bit symmetry: here the vertical and the
    # horizontal step tie on an all-zero path, one of whose sums is -0.0,
    # and the tie order picks a different one in each orientation.  The
    # engine charges the setting as 0.0, so both orientations give +0.0
    A = np.array([[0.0], [1.0], [-1.0]])
    X = np.array([[1.0], [-1.0], [-1.0], [0.0]])
    assert np.signbit([dtw_scalar(A, X, -0.0), dtw_scalar(X, A, -0.0)]).tolist() == [True, False]
    got = dtw_pairs([A, X], [0, 1], [1, 0], -0.0)
    assert got.view(np.int64).tolist() == [0, 0]


def test_signed_zero_frames_are_equal():
    # -0.0 == 0.0 component by component, so the equal-frame rule wins
    # over the zero-norm charge and the cost is +0.0, not 0.5
    got = dtw_dissimilarity([[-0.0, 0.0]], [[0.0, 0.0]], 0.5)
    assert got == 0.0 and not np.signbit(got)


def test_equal_frames_in_overlapping_segments_cost_zero():
    # two items of one utterance that share frames: the engine copies each
    # segment, so only the equal-frame rule ties the copies together
    rng = np.random.default_rng(8)
    utt = rand_mat(rng, 8, 4)
    utt[3] = 0.0
    frames = [utt[3:4], utt[3:4], utt[1:5], utt[3:7]]
    got = dtw_pairs(frames, [0, 2], [1, 3], 2.0)
    assert got[0] == 0.0
    assert got[1] == dtw_scalar(utt[1:5], utt[3:7], 2.0)


@pytest.mark.parametrize("A, X", [
    ([[1e200, 0.0]], [[1e200, 1.0]]),  # |a|^2 overflows to inf
    ([[1e-160, 0.0]], [[1e-160, 1e-160]]),  # |a|^2 |x|^2 rounds to 0.0
    ([[2.0**-600, 0.0]], [[2.0**-600, 2.0**-600]]),  # |a|^2 is 0.0, a is not
])
def test_float64_frames_outside_the_cosine_range(A, X):
    for a, x in ((A, X), (X, A)):
        with pytest.raises(DataError):
            dtw_dissimilarity(np.array(a), np.array(x))


def test_float32_extremes_stay_in_range():
    # float32 squared norms lie in [2^-298, 2^256 d], well inside the range
    tiny = 2.0**-149  # the smallest float32 subnormal
    huge = np.finfo(np.float32).max
    A = np.array([[tiny, 0.0]], dtype=np.float32)
    X = np.array([[tiny, tiny]], dtype=np.float32)
    assert dtw_dissimilarity(A, X) == pytest.approx(1 - 2**-0.5, abs=1e-15)
    A = np.full((2, 13), huge, dtype=np.float32)
    assert dtw_dissimilarity(A, -A[:1]) == 2.0
