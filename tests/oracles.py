"""Brute-force reference implementations used to cross-check the library.

Deliberately share as little code as possible with the package: the DTW
oracle enumerates every monotone alignment path over its own pure-Python
cost matrix, and the ABX oracle scores triples by direct enumeration.
``dtw_scalar`` is the numpy cost matrix and row-by-row dynamic program
that the batched engine must match bit for bit; the brute-force ABX
tests take their distances from it because a one-pair call is cheaper
here than through the engine.  ``lstm_backward_steps`` and
``rnn_backward_steps`` are BPTT with every weight gradient accumulated
step by step inside the time loop, and ``sigmoid_masked`` is the logistic
function split by sign; the APC backward and sigmoid must match them.
``lstm_forward_alloc``, ``lstm_backward_alloc`` and ``rnn_backward_alloc``
are the APC time loops written with a fresh array per operation (and
``sigmoid_where`` the sigmoid they call); the buffered, in-place loops in
``abxlab.apc`` must match them bit for bit.  They share ``_weight_grads``,
the loop-free part, with the package.
"""

import math

import numpy as np

from abxlab.apc import _weight_grads


def cosine_ref(a, b, zero_vector_distance=1.0):
    """Scalar cosine distance on two frame vectors, pure Python."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if a == b:
        return 0.0
    sa = sum(x * x for x in a)
    sb = sum(y * y for y in b)
    if sa == 0.0 or sb == 0.0:
        return float(zero_vector_distance)
    d = 1.0 - sum(x * y for x, y in zip(a, b)) / math.sqrt(sa * sb)
    return min(2.0, max(0.0, d))


def dtw_ref(A, X, zero_vector_distance=1.0):
    """Min over all monotone paths of (path sum, path length), then mean.

    Exhaustive enumeration; fine up to roughly 8x8 grids.
    """
    ta, tx = len(A), len(X)
    cost = [
        [cosine_ref(A[i], X[j], zero_vector_distance) for j in range(tx)]
        for i in range(ta)
    ]
    best = [None]

    def walk(i, j, s, n):
        s += cost[i][j]
        n += 1
        if i == ta - 1 and j == tx - 1:
            cand = (s, n)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i + 1 < ta and j + 1 < tx:
            walk(i + 1, j + 1, s, n)
        if i + 1 < ta:
            walk(i + 1, j, s, n)
        if j + 1 < tx:
            walk(i, j + 1, s, n)

    walk(0, 0, 0.0, 0)
    s, n = best[0]
    return s / n


def cosine_cost_matrix(A, X, zero_vector_distance=1.0):
    """Pairwise cosine distances between the rows of A and of X."""
    A = np.asarray(A)
    X = np.asarray(X)
    a = A.astype(np.float64, copy=False)
    x = X.astype(np.float64, copy=False)
    sa = np.einsum("ij,ij->i", a, a)
    sx = np.einsum("ij,ij->i", x, x)
    dots = np.einsum("ik,jk->ij", a, x)
    denom = np.sqrt(sa[:, None] * sx[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = 1.0 - dots / denom
    zero = (sa == 0.0)[:, None] | (sx == 0.0)[None, :]
    cost[zero] = zero_vector_distance
    # exact-equal frames have distance 0 by definition, also when all-zero
    eq = (A[:, None, :] == X[None, :, :]).all(axis=2)
    cost[eq] = 0.0
    np.clip(cost, 0.0, 2.0, out=cost)
    return cost


def dtw_scalar(A, X, zero_vector_distance=1.0):
    """DTW mean cost by the row-by-row dynamic program, ties toward fewer cells."""
    cost = cosine_cost_matrix(A, X, zero_vector_distance)
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


def eta_ref(a_ids, b_ids, x_ids, dist, exclude_same_index):
    """Direct triple enumeration of the asymmetric discrimination error."""
    num = 0.0
    total = 0
    for ai, a in enumerate(a_ids):
        for b in b_ids:
            for xi, x in enumerate(x_ids):
                if exclude_same_index and xi == ai:
                    continue
                dax = dist(a, x)
                dbx = dist(b, x)
                if dax > dbx:
                    num += 1.0
                elif dax == dbx:
                    num += 0.5
                total += 1
    return num / total


def abx_ref(segments, dist, mode, category_of=None, condition=None):
    """Naive ABX over item segments.

    ``dist`` takes two segment objects.  ``category_of`` maps a segment to
    its category label or None to drop it (defaults to the phone).
    Returns (per_cell, context_rates, pairwise, overall) where per_cell maps
    (x, y, context, speaker_ab, speaker_x) -> epsilon.
    """
    if category_of is None:
        category_of = lambda seg: seg.phone
    if condition is None:
        condition = mode

    by_ctx = {}
    for seg in segments:
        cat = category_of(seg)
        if cat is None:
            continue
        ctx = (seg.prev, seg.next)
        by_ctx.setdefault(ctx, {}).setdefault(seg.speaker, {}).setdefault(
            cat, []
        ).append(seg)
    for ctx in by_ctx:
        for spk in by_ctx[ctx]:
            for cat in by_ctx[ctx][spk]:
                by_ctx[ctx][spk][cat] = sorted(by_ctx[ctx][spk][cat])

    per_cell = {}
    for ctx in sorted(by_ctx):
        speakers = sorted(by_ctx[ctx])
        for s_ab in speakers:
            cats_ab = by_ctx[ctx][s_ab]
            names = sorted(cats_ab)
            for i, x in enumerate(names):
                for y in names[i + 1:]:
                    if mode == "within":
                        sx, sy = cats_ab[x], cats_ab[y]
                        if len(sx) < 2 or len(sy) < 2:
                            continue
                        exy = eta_ref(sx, sy, sx, dist, True)
                        eyx = eta_ref(sy, sx, sy, dist, True)
                        per_cell[(x, y, ctx, s_ab, s_ab)] = 0.5 * (exy + eyx)
                    else:
                        for s_x in speakers:
                            if s_x == s_ab:
                                continue
                            other = by_ctx[ctx][s_x]
                            if x not in other or y not in other:
                                continue
                            exy = eta_ref(cats_ab[x], cats_ab[y], other[x], dist, False)
                            eyx = eta_ref(cats_ab[y], cats_ab[x], other[y], dist, False)
                            per_cell[(x, y, ctx, s_ab, s_x)] = 0.5 * (exy + eyx)

    ctx_groups = {}
    for (x, y, ctx, _, _), eps in sorted(per_cell.items()):
        ctx_groups.setdefault((x, y, ctx), []).append(eps)
    context_rates = {k: sum(v) / len(v) for k, v in sorted(ctx_groups.items())}

    pair_groups = {}
    for (x, y, ctx), rate in context_rates.items():
        pair_groups.setdefault((x, y), []).append((ctx, rate))
    pairwise = {
        k: sum(r for _, r in sorted(v)) / len(v)
        for k, v in sorted(pair_groups.items())
    }
    if not pairwise:
        return per_cell, {}, {}, None
    overall = sum(pairwise[k] for k in sorted(pairwise)) / len(pairwise)
    return per_cell, context_rates, pairwise, overall


def sigmoid_masked(z):
    """Logistic function evaluated separately on z >= 0 and z < 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_backward_steps(layer, cache, dh_out):
    """LSTM BPTT with per-step gradient accumulation; same interface as apc's."""
    x, i, f, g, o, c, h = (cache[k] for k in ("x", "i", "f", "g", "o", "c", "h"))
    B, T, H = h.shape
    tanh_c = np.tanh(c)
    dWx = np.zeros_like(layer["Wx"])
    dWh = np.zeros_like(layer["Wh"])
    db = np.zeros_like(layer["b"])
    dx = np.empty_like(x)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_out[:, t] + dh_next
        do = dh * tanh_c[:, t]
        dc = dh * o[:, t] * (1.0 - tanh_c[:, t] ** 2) + dc_next
        di = dc * g[:, t]
        dg = dc * i[:, t]
        c_prev = c[:, t - 1] if t > 0 else np.zeros((B, H))
        df = dc * c_prev
        dz = np.concatenate([
            di * i[:, t] * (1.0 - i[:, t]),
            df * f[:, t] * (1.0 - f[:, t]),
            dg * (1.0 - g[:, t] ** 2),
            do * o[:, t] * (1.0 - o[:, t]),
        ], axis=1)
        dWx += x[:, t].T @ dz
        db += dz.sum(axis=0)
        if t > 0:
            dWh += h[:, t - 1].T @ dz
            dh_next = dz @ layer["Wh"].T
        dx[:, t] = dz @ layer["Wx"].T
        dc_next = dc * f[:, t]
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}


def rnn_backward_steps(layer, cache, dh_out):
    """Simple-RNN BPTT with per-step gradient accumulation."""
    x, h = cache["x"], cache["h"]
    B, T, H = h.shape
    dWx = np.zeros_like(layer["Wx"])
    dWh = np.zeros_like(layer["Wh"])
    db = np.zeros_like(layer["b"])
    dx = np.empty_like(x)
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dz = (dh_out[:, t] + dh_next) * (1.0 - h[:, t] ** 2)
        dWx += x[:, t].T @ dz
        db += dz.sum(axis=0)
        if t > 0:
            dWh += h[:, t - 1].T @ dz
            dh_next = dz @ layer["Wh"].T
        else:
            dh_next = np.zeros((B, H))
        dx[:, t] = dz @ layer["Wx"].T
    return dx, {"Wx": dWx, "Wh": dWh, "b": db}


def sigmoid_where(z):
    """Logistic function without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def lstm_forward_alloc(layer, x):
    """x: (B, T, in) -> h: (B, T, H) plus the cache for BPTT."""
    B, T, _ = x.shape
    H = layer["Wh"].shape[0]
    zx = x @ layer["Wx"] + layer["b"]
    i = np.empty((B, T, H)); f = np.empty((B, T, H))
    g = np.empty((B, T, H)); o = np.empty((B, T, H))
    c = np.empty((B, T, H)); h = np.empty((B, T, H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        z = zx[:, t] + h_prev @ layer["Wh"]
        s = sigmoid_where(z)
        i[:, t] = s[:, :H]
        f[:, t] = s[:, H:2 * H]
        g[:, t] = np.tanh(z[:, 2 * H:3 * H])
        o[:, t] = s[:, 3 * H:]
        c[:, t] = f[:, t] * c_prev + i[:, t] * g[:, t]
        h[:, t] = o[:, t] * np.tanh(c[:, t])
        h_prev = h[:, t]
        c_prev = c[:, t]
    return h, {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h}


def lstm_backward_alloc(layer, cache, dh_out):
    """BPTT; the time loop carries only dh and dc back one step."""
    x, i, f, g, o, c, h = (cache[k] for k in ("x", "i", "f", "g", "o", "c", "h"))
    B, T, H = h.shape
    Wh_T = layer["Wh"].T
    tanh_c = np.tanh(c)
    dz = np.empty((B, T, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_out[:, t] + dh_next
        dc = dh * o[:, t] * (1.0 - tanh_c[:, t] ** 2) + dc_next
        c_prev = c[:, t - 1] if t > 0 else np.zeros((B, H))
        dz[:, t, :H] = dc * g[:, t] * i[:, t] * (1.0 - i[:, t])
        dz[:, t, H:2 * H] = dc * c_prev * f[:, t] * (1.0 - f[:, t])
        dz[:, t, 2 * H:3 * H] = dc * i[:, t] * (1.0 - g[:, t] ** 2)
        dz[:, t, 3 * H:] = dh * tanh_c[:, t] * o[:, t] * (1.0 - o[:, t])
        if t > 0:
            dh_next = dz[:, t] @ Wh_T
            dc_next = dc * f[:, t]
    return _weight_grads(layer, x, h, dz)


def rnn_backward_alloc(layer, cache, dh_out):
    x, h = cache["x"], cache["h"]
    B, T, H = h.shape
    Wh_T = layer["Wh"].T
    dz = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dz[:, t] = (dh_out[:, t] + dh_next) * (1.0 - h[:, t] ** 2)
        if t > 0:
            dh_next = dz[:, t] @ Wh_T
    return _weight_grads(layer, x, h, dz)
