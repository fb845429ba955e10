"""Toy-scale autoregressive predictive coding, from scratch in numpy.

The model is a stack of recurrent layers (LSTM or simple tanh RNN) with
residual connections wherever producer and consumer dimensions match,
followed by a linear projection back to the input space.  Training
minimizes the L1 distance between the projected output at time t and
the input at time t+n, summed over the predictable range; gradients
come from full backpropagation through time, no truncation.

Everything is deliberately explicit: initialization, forward, backward
and the optimizer live here so the gradient check can exercise the real
training path parameter by parameter.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import FeatureArchive, read_bytes_file
from .errors import (
    DataError,
    FormatError,
    InconclusiveGradCheck,
    TrainingError,
    UsageError,
)
from .manifest import JsonConfig, read_json

CKPT_MAGIC = b"APC1"

CELL_KINDS = ("lstm", "simple-rnn")
OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class ApcConfig(JsonConfig):
    n: int = 1
    L: int = 2
    hidden_dim: int = 16
    input_dim: int | None = None
    cell_kind: str = "lstm"
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"prediction step n must be >= 1, got {self.n}")
        if self.L < 1:
            raise UsageError(f"need at least 1 layer, got {self.L}")
        if self.hidden_dim < 1:
            raise UsageError("hidden_dim must be >= 1")
        if self.input_dim is not None and self.input_dim < 1:
            raise UsageError("input_dim must be >= 1")
        if self.cell_kind not in CELL_KINDS:
            raise UsageError(f"cell_kind must be one of {CELL_KINDS}")
        if self.optimizer not in OPTIMIZERS:
            raise UsageError(f"optimizer must be one of {OPTIMIZERS}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def _param_shapes(config: ApcConfig) -> dict:
    """{name: shape} of every parameter, in checkpoint order."""
    if config.input_dim is None:
        raise UsageError("model config must carry a concrete input_dim")
    H = config.hidden_dim
    G = (4 if config.cell_kind == "lstm" else 1) * H
    shapes = {}
    for i in range(1, config.L + 1):
        in_dim = config.input_dim if i == 1 else H
        shapes.update({f"layer{i}.Wx": (in_dim, G), f"layer{i}.Wh": (H, G),
                       f"layer{i}.b": (G,)})
    shapes["W"] = (H, config.input_dim)
    return shapes


def _views(vec, shapes: dict) -> dict:
    """{name: view} of vec's leading entries, the shapes laid out in order."""
    views, pos = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vec[pos:pos + size].reshape(shape)
        pos += size
    return views


class ApcModel:
    """All parameters in one float64 vector ``theta``, in checkpoint order.

    ``layers[i]`` holds the Wx, Wh and b of layer i + 1, and W projects h_L
    to x; each is a view into theta.  ``blocks`` holds the slice of theta
    that each layer's Wx, Wh and b, and then W, fill.  A given ``theta``
    is used as is.
    """

    def __init__(self, config: ApcConfig, theta: np.ndarray | None = None):
        self.config = config
        shapes = _param_shapes(config)
        size = sum(map(math.prod, shapes.values()))
        self.theta = np.zeros(size) if theta is None else theta
        self._params = _views(self.theta, shapes)
        self.layers = [{k: self._params[f"layer{i}.{k}"] for k in ("Wx", "Wh", "b")}
                       for i in range(1, config.L + 1)]
        self.W = self._params["W"]
        ends = np.cumsum([sum(p.size for p in layer.values()) for layer in self.layers]
                         + [self.W.size]).tolist()
        self.blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]

    def param_items(self):
        """(name, array) pairs in the fixed checkpoint order."""
        return iter(self._params.items())


def init_model(cfg: ApcConfig) -> ApcModel:
    """Weights ~ N(0, 1/fan_in), drawn in checkpoint order; biases 0."""
    model = ApcModel(cfg)
    rng = np.random.default_rng(cfg.seed)
    for name, p in model.param_items():
        if not name.endswith(".b"):
            p[...] = rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
    return model


def _sigmoid(z, out, e, nonneg):
    """Logistic function of z into out without overflow: exp only sees -|z|.

    e (float) and nonneg (bool) are scratch arrays of z's shape.  Since
    e = exp(-|z|) lies in [0, 1] or is NaN, max(e, z >= 0) is
    where(z >= 0, 1, e), and out = where(z >= 0, 1, e) / (1 + e).
    """
    np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=nonneg)
    np.maximum(e, nonneg, out=out)
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)


# ---------------------------------------------------------------------------
# forward / backward


def _input_products(layer, x, spans, zx=None):
    """zx = x @ Wx + b for each group of rows over its own steps: (N, T, G).

    ``zx`` is the buffer to write (default: a fresh one).  Entries past a
    sequence's end are left as they were; no step reads them.
    """
    if zx is None:
        zx = np.empty(x.shape[:2] + layer["b"].shape)
    for r0, r1, T in spans:
        zx_k = zx[r0:r1, :T]
        np.matmul(x[r0:r1, :T], layer["Wx"], out=zx_k)
        np.add(zx_k, layer["b"], out=zx_k)
    return zx


def _segments(spans):
    """Split the steps of a pack where sequences end.

    ``spans`` lists the groups (r0, r1, T) of equal-length rows, longest
    first, so the rows still running at any step are a prefix.  Yields
    (n, groups, t0, t1): over steps t0..t1-1 rows :n run, as the groups
    (r0, r1) whose recurrent products are taken apart.
    """
    t0 = 0
    for t1 in sorted({T for _, _, T in spans}):
        groups = [(r0, r1) for r0, r1, T in spans if T >= t1]
        yield groups[-1][1], groups, t0, t1
        t0 = t1


def _step_rows(shape):
    """An (N, T, W) array whose T steps all share one (N, W) buffer.

    A forward-only pass keeps no history of gates or cell states: with a
    zero time stride the step loop writes each step over the last.
    """
    buf = np.empty((shape[0], shape[2]))
    return np.lib.stride_tricks.as_strided(buf, shape, (buf.strides[0], 0, buf.strides[1]))


def _lstm_forward(layer, x, spans=None, keep=True, zx=None):
    """x: (N, T, in) -> h: (N, T, H) plus the cache for BPTT.

    Each step writes into preallocated buffers with ``out=``, keeping the
    element arithmetic of ``z = zx + h_prev @ Wh``, ``c = f*c_prev + i*g``
    and ``h = o*tanh(c)``.  The input products zx go into ``zx`` (see
    ``_input_products``).  With ``keep``, the cache's (N, T, 4H) gate
    array is zx itself: a step reads its row of zx into z before the
    sigmoid of z goes into that row and tanh of the g pre-activations
    over its g part.

    ``spans`` (default: all rows, one group) packs sequences as for
    ``_segments``; every elementwise call covers all running rows, and
    the recurrent product is one matmul per group, so each group gets
    the bits it gets alone.  Without ``keep`` there is no cache and the
    gates and cell state of a step overwrite the last step's.
    """
    N, T, _ = x.shape
    Wh = layer["Wh"]
    H = Wh.shape[0]
    spans = spans or [(0, N, T)]
    zx = _input_products(layer, x, spans, zx)
    gates = zx if keep else _step_rows((N, T, 4 * H))
    c = (np.empty if keep else _step_rows)((N, T, H))
    h = np.zeros((N, T, H))
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    z = np.empty((N, 4 * H)); e = np.empty((N, 4 * H))
    nonneg = np.empty((N, 4 * H), dtype=bool)
    ig = np.empty((N, H))
    h_prev = np.zeros((N, H))
    c_prev = np.zeros((N, H))
    for n, groups, t0, t1 in _segments(spans):
        z_n, e_n, nonneg_n, ig_n = z[:n], e[:n], nonneg[:n], ig[:n]
        z_g = z_n[:, 2 * H:3 * H]
        h_prev, c_prev = h_prev[:n], c_prev[:n]
        steps = zip(*(a[:n, t0:t1].swapaxes(0, 1) for a in (zx, gates, i, f, g, o, c, h)))
        for zx_t, s, i_t, f_t, g_t, o_t, c_t, h_t in steps:
            for r0, r1 in groups:
                np.matmul(h_prev[r0:r1], Wh, out=z_n[r0:r1])
            np.add(zx_t, z_n, out=z_n)
            _sigmoid(z_n, s, e_n, nonneg_n)
            np.tanh(z_g, out=g_t)
            np.multiply(f_t, c_prev, out=c_t)
            np.multiply(i_t, g_t, out=ig_n)
            np.add(c_t, ig_n, out=c_t)
            np.tanh(c_t, out=h_t)
            np.multiply(o_t, h_t, out=h_t)
            h_prev, c_prev = h_t, c_t
    return h, ({"x": x, "gates": gates, "c": c, "h": h} if keep else None)


def _weight_grads(layer, x, h, dz, out):
    """dx of a layer from its pre-activation gradients dz (B, T, G).

    The Wx, Wh and b gradients are written into ``out``, the layer's
    views into a gradient buffer.  Nothing here is recurrent, so each is
    one matrix product or sum over all steps; h[:, t - 1] feeds step t,
    and step 0 saw h = 0.
    """
    B, T, G = dz.shape
    dz2 = dz.reshape(B * T, G)
    dWh = out["Wh"]
    dWh[...] = 0.0
    # one product per sequence: the shifted (B, T - 1) views of a batch
    # would be copied to flatten them
    for h_b, dz_b in zip(h[:, :-1], dz[:, 1:]):
        dWh += h_b.T @ dz_b
    np.matmul(x.reshape(B * T, -1).T, dz2, out=out["Wx"])
    np.sum(dz2, axis=0, out=out["b"])
    return (dz2 @ layer["Wx"].T).reshape(x.shape)


# Steps per block of BPTT factors; a layer's backward keeps the factors of
# one block, not of all T steps.  Measured on one LSTM layer, 32 is about
# as fast as the best of 8 to 128 at both B=32, T=1000 and B=1, T=200, and
# the factors of all steps at once were slower at both.
BPTT_BLOCK = 32


def _time_blocks(T):
    """(t0, t1) blocks of at most BPTT_BLOCK steps, the last steps first."""
    for t1 in range(T, 0, -BPTT_BLOCK):
        yield max(t1 - BPTT_BLOCK, 0), t1


def _lstm_backward(layer, cache, dh_out, out):
    """BPTT into the layer's gradient views ``out``, returning dx; the
    time loop carries only dh and dc back one step.

    Every factor that does not depend on dh or dc is computed for a block
    of steps before the loop runs over them, into one (B, block, 11, H)
    array that the blocks reuse, walking backward.  The i, f and g gates
    all start from dc and keep the association ((dc * u) * v) * w of
    their formulas, so they run as in-place multiplies on one stacked
    view: u = (g, c_prev, i), v = (i, f, 1-g^2), w = (1-i, 1-f) (g has no
    third factor).  u and v share the slot of i.

    The pre-activation gradients dz are written over the cache's gate
    array, step t over gate row t: the block's factors, o and f among
    them, are copied out before its steps run.  The cache is spent.
    """
    x, gates, c, h = (cache[k] for k in ("x", "gates", "c", "h"))
    B, T, H = h.shape
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    Wh_T = layer["Wh"].T
    # slots: g, c_prev, i, f, 1-g^2, 1-i, 1-f, tanh(c), 1-tanh(c)^2, 1-o, o
    fac_buf = np.empty((B, min(T, BPTT_BLOCK), 11, H))
    dz = gates
    dz4 = dz.reshape(B, T, 4, H)
    dh = np.empty((B, H))
    dc3 = np.empty((B, 1, H))
    dc = dc3[:, 0]
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t0, t1 in _time_blocks(T):
        fac = fac_buf[:, :t1 - t0]
        s = max(t0, 1)  # step 0 saw c = 0
        fac[:, :, 0] = g[:, t0:t1]
        fac[:, :s - t0, 1] = 0.0
        fac[:, s - t0:, 1] = c[:, s - 1:t1 - 1]
        fac[:, :, 2] = i[:, t0:t1]
        fac[:, :, 3] = f[:, t0:t1]
        np.subtract(1.0, g[:, t0:t1] ** 2, out=fac[:, :, 4])
        np.subtract(1.0, fac[:, :, 2:4], out=fac[:, :, 5:7])
        np.tanh(c[:, t0:t1], out=fac[:, :, 7])
        np.subtract(1.0, fac[:, :, 7] ** 2, out=fac[:, :, 8])
        fac[:, :, 10] = o[:, t0:t1]
        np.subtract(1.0, fac[:, :, 10], out=fac[:, :, 9])
        steps = zip(range(t1 - 1, t0 - 1, -1), *(a.swapaxes(0, 1)[::-1] for a in (
            dh_out[:, t0:t1], fac[:, :, 10], fac[:, :, 3], fac[:, :, 0:3], fac[:, :, 2:5],
            fac[:, :, 5:7], fac[:, :, 7], fac[:, :, 8], fac[:, :, 9], dz[:, t0:t1],
            dz4[:, t0:t1, :3], dz4[:, t0:t1, :2], dz4[:, t0:t1, 3])))
        for (t, dh_out_t, o_t, f_t, u_t, v_t, w_t, tanh_c_t, dtanh_c_t,
             one_minus_o_t, dz_t, dz_ifg, dz_if, dz_o) in steps:
            np.add(dh_out_t, dh_next, out=dh)
            np.multiply(dh, o_t, out=dc)
            np.multiply(dc, dtanh_c_t, out=dc)
            np.add(dc, dc_next, out=dc)
            np.multiply(dc3, u_t, out=dz_ifg)
            np.multiply(dz_ifg, v_t, out=dz_ifg)
            np.multiply(dz_if, w_t, out=dz_if)
            np.multiply(dh, tanh_c_t, out=dz_o)
            np.multiply(dz_o, o_t, out=dz_o)
            np.multiply(dz_o, one_minus_o_t, out=dz_o)
            if t > 0:
                np.matmul(dz_t, Wh_T, out=dh_next)
                np.multiply(dc, f_t, out=dc_next)
    return _weight_grads(layer, x, h, dz, out)


def _rnn_forward(layer, x, spans=None, keep=True, zx=None):
    """h_t = tanh(zx_t + h_prev @ Wh); packs, ``keep`` and ``zx`` as for
    the LSTM, but the cache holds no zx."""
    N, T, _ = x.shape
    Wh = layer["Wh"]
    spans = spans or [(0, N, T)]
    zx = _input_products(layer, x, spans, zx)
    h = np.zeros((N, T, Wh.shape[0]))
    z = np.empty((N, Wh.shape[0]))
    h_prev = np.zeros((N, Wh.shape[0]))
    for n, groups, t0, t1 in _segments(spans):
        z_n = z[:n]
        h_prev = h_prev[:n]
        for zx_t, h_t in zip(*(a[:n, t0:t1].swapaxes(0, 1) for a in (zx, h))):
            for r0, r1 in groups:
                np.matmul(h_prev[r0:r1], Wh, out=z_n[r0:r1])
            np.add(zx_t, z_n, out=z_n)
            np.tanh(z_n, out=h_t)
            h_prev = h_t
    return h, ({"x": x, "h": h} if keep else None)


def _rnn_backward(layer, cache, dh_out, out):
    """BPTT into the layer's gradient views ``out``, returning dx; 1 - h^2
    is taken for one block of steps at a time, as the LSTM's factors."""
    x, h = cache["x"], cache["h"]
    B, T, H = h.shape
    Wh_T = layer["Wh"].T
    dtanh_buf = np.empty((B, min(T, BPTT_BLOCK), H))
    dz = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t0, t1 in _time_blocks(T):
        dtanh = np.subtract(1.0, h[:, t0:t1] ** 2, out=dtanh_buf[:, :t1 - t0])
        for t in range(t1 - 1, t0 - 1, -1):
            dz[:, t] = (dh_out[:, t] + dh_next) * dtanh[:, t - t0]
            if t > 0:
                dh_next = dz[:, t] @ Wh_T
    return _weight_grads(layer, x, h, dz, out)


def _stack(model: ApcModel, x: np.ndarray, spans, keep: bool):
    """Every layer over the pack x (N, T, d) -> (h_L, [(cache, residual)]).

    Without ``keep``, every layer writes its input products into one
    (N, T, G) buffer and adds its residual into its own fresh output, so
    a pack holds one zx, x and two layers' outputs at a time.
    """
    step = _lstm_forward if model.config.cell_kind == "lstm" else _rnn_forward
    zx = None if keep else np.empty(x.shape[:2] + model.layers[0]["b"].shape)
    inp = x
    caches = []
    for layer in model.layers:
        out, cache = step(layer, inp, spans, keep, zx)
        residual = inp.shape[-1] == out.shape[-1]
        if residual:  # a cache keeps the layer's own h
            out = np.add(out, inp, out=None if keep else out)
        caches.append((cache, residual))
        inp = out
    return inp, caches


def _forward_batch(model: ApcModel, x: np.ndarray):
    """x: (B, T, d) -> (xhat, h_L, caches); a float32 x is taken as float64
    first, and the first layer's cache holds that copy."""
    x = x.astype(np.float64, copy=False)
    h_top, caches = _stack(model, x, [(0, x.shape[0], x.shape[1])], keep=True)
    return h_top @ model.W, h_top, caches


def _packs(groups, capacity: int):
    """Group indices, longest group first, cut into packs of <= capacity sequences."""
    packs = []
    for k in sorted(range(len(groups)), key=lambda k: -groups[k].shape[1]):
        B = groups[k].shape[0]
        if not packs or size + B > capacity:
            packs.append([])
            size = 0
        packs[-1].append(k)
        size += B
    return packs


def _forward_only(model: ApcModel, groups):
    """Yield (k, h_L) for each (B, T, d) group k, with no BPTT caches.

    The groups run in packs of at most ``batch_size`` sequences, zero
    padded to the pack's longest; each group's h_L (B, T, H) is a view
    into its pack and bit-identical to ``_forward_batch`` on the group
    alone.  Groups may be float32: the pack is a float64 copy, and all
    of its layers share one input-product buffer (see ``_stack``).  One
    pack's arrays are live at a time.
    """
    for pack in _packs(groups, model.config.batch_size):
        first = groups[pack[0]]
        x = np.zeros((sum(groups[k].shape[0] for k in pack),) + first.shape[1:])
        spans = []
        r0 = 0
        for k in pack:
            B, T, _ = groups[k].shape
            x[r0:r0 + B, :T] = groups[k]
            spans.append((r0, r0 + B, T))
            r0 += B
        h_top, _ = _stack(model, x, spans, keep=False)
        for k, (r0, r1, T) in zip(pack, spans):
            yield k, h_top[r0:r1, :T]
        del x, h_top  # before the next pack's are made


def forward(model: ApcModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Single-sequence forward: x (T, d) -> (xhat (T, d), h_L (T, H))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise UsageError(
            f"expected (T, {model.config.input_dim}) input, got {x.shape}"
        )
    [(_, h_top)] = _forward_only(model, [x[None]])
    return h_top[0] @ model.W, h_top[0]


def apc_loss(xhat, x, n: int) -> float:
    """Sum over t and dims of |xhat_t - x_(t+n)|: ``_seq_losses`` of a batch of one."""
    xhat = np.asarray(xhat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[0]
    if T <= n:
        raise DataError(f"sequence length {T} must exceed prediction step n={n}")
    return float(_seq_losses(xhat[None], x[None], n)[0][0])


def _seq_losses(xhat, x, n: int):
    """Per-sequence L1 loss of a (B, T, d) batch, and the residuals it sums."""
    diff = xhat[:, :x.shape[1] - n] - x[:, n:]
    return np.abs(diff).sum(axis=(1, 2)), diff


def _grad_buffer(model: ApcModel) -> np.ndarray:
    """A gradient buffer the size of the model's largest parameter block."""
    return np.empty(max(block.stop - block.start for block in model.blocks))


def _batch_loss_grads(model: ApcModel, x: np.ndarray, scale: float, buf, sink):
    """Mean-per-sequence loss and gradients, scaled by ``scale`` per item.

    x is (B, T, d), float32 or float64 (see ``_forward_batch``); the L1
    subgradient at zero is taken as 0 (np.sign).
    Each parameter block's gradient is written into the leading entries
    of ``buf`` (see ``_grad_buffer``), and ``sink(block, grad)`` gets that
    view at once, with ``block`` its slice of ``model.theta``: W first,
    then layer L down to layer 1.  The backward reads no block's weights
    after its sink call, so the sink may step them.  The prediction, its
    error and their gradient are dropped once the top layer's dh exists,
    and each layer's cache, which its backward spends, as soon as that
    backward returns.  Returns the per-sequence losses.
    """
    xhat, h_top, caches = _forward_batch(model, x)
    seq_losses, diff = _seq_losses(xhat, x, model.config.n)
    dxhat = np.zeros_like(xhat)
    dxhat[:, :diff.shape[1]] = np.sign(diff) * scale
    step_back = _lstm_backward if model.config.cell_kind == "lstm" else _rnn_backward
    *layer_blocks, w_block = model.blocks
    grad = buf[:model.W.size]
    grad.reshape(model.W.shape)[...] = np.einsum("bti,btj->ij", h_top, dxhat)
    dh = dxhat @ model.W.T
    del xhat, h_top, diff, dxhat  # nothing reads them again
    sink(w_block, grad)
    for layer, block in zip(reversed(model.layers), reversed(layer_blocks)):
        cache, residual = caches.pop()
        grad = buf[:block.stop - block.start]
        dx = step_back(layer, cache, dh, _views(grad, {k: p.shape for k, p in layer.items()}))
        del cache
        dh = np.add(dx, dh, out=dx) if residual else dx
        sink(block, grad)
    return seq_losses


# ---------------------------------------------------------------------------
# training


class _Adam:
    """Adam over ``theta`` in place, one parameter block per ``step``.

    The moments ``m`` and ``v`` come from ``np.zeros``, which leaves a
    large array's pages unwritten until the first step writes them.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, theta, lr):
        self.theta = theta
        self.lr = lr
        self.t = 0
        self.m = np.zeros(theta.shape)
        self.v = np.zeros(theta.shape)

    def next_batch(self):
        """Count one more batch; returns the sink that steps its blocks."""
        self.t += 1
        return self.step

    def step(self, block, grad):
        """theta[block] in place, with each element's operations in the
        order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        theta -= lr*mhat / (sqrt(vhat) + eps)."""
        theta, m, v = self.theta[block], self.m[block], self.v[block]
        a = (1 - self.b1) * grad
        m *= self.b1
        m += a
        np.multiply(grad, 1 - self.b2, out=a)
        a *= grad
        v *= self.b2
        v += a
        np.divide(m, 1 - self.b1 ** self.t, out=a)
        a *= self.lr
        d = v / (1 - self.b2 ** self.t)
        np.sqrt(d, out=d)
        d += self.eps
        a /= d
        theta -= a


class _Sgd:
    def __init__(self, theta, lr):
        self.theta = theta
        self.lr = lr

    def next_batch(self):
        return self.step

    def step(self, block, grad):
        self.theta[block] -= self.lr * grad


def _make_batches(archive: FeatureArchive, n: int, batch_size: int):
    """Equal-length buckets in sorted order, split to batch_size.

    A bucket stays float32, as the archive holds it: a (1, T, d) view of
    the archive's matrix for one utterance, a stack where lengths tie.
    Training takes one bucket at a time as float64 (``_forward_batch``).
    """
    seqs = []
    for utt in archive.utterance_ids():
        T = archive.n_frames(utt)
        if T <= n:
            raise DataError(
                f"utterance {utt} has {T} frames, needs more than n={n} to train"
            )
        seqs.append((T, utt))
    seqs.sort()
    batches = []
    i = 0
    while i < len(seqs):
        j = i
        while j < len(seqs) and seqs[j][0] == seqs[i][0] and j - i < batch_size:
            j += 1
        frames = [archive.frames(u) for _, u in seqs[i:j]]
        batches.append(frames[0][None] if len(frames) == 1 else np.stack(frames))
        i = j
    return batches


def train(cfg: ApcConfig, archive: FeatureArchive):
    """Mini-batch training; returns (model, losses).

    losses[0] is the pre-training loss; losses[e] for e >= 1 is the mean
    per-sequence loss observed while running epoch e.  Deterministic for
    a fixed config: parameter init is the only RNG use and batch order
    is a pure function of the archive.
    """
    if cfg.input_dim is None:
        cfg = replace(cfg, input_dim=archive.dim)
    elif cfg.input_dim != archive.dim:
        raise UsageError(
            f"config input_dim {cfg.input_dim} != archive dim {archive.dim}"
        )
    batches = _make_batches(archive, cfg.n, cfg.batch_size)
    n_seqs = sum(b.shape[0] for b in batches)
    model = init_model(cfg)
    opt = (_Adam if cfg.optimizer == "adam" else _Sgd)(model.theta, cfg.learning_rate)
    initial = {k: float(_seq_losses(h_top @ model.W, batches[k], cfg.n)[0].sum())
               for k, h_top in _forward_only(model, batches)}
    losses = [sum(initial[k] for k in range(len(batches))) / n_seqs]
    buf = _grad_buffer(model)
    # a diverging step overflows before its loss shows it: the first
    # non-finite running total stops training, and numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            total = 0.0
            for batch in batches:
                seq_losses = _batch_loss_grads(model, batch, 1.0 / batch.shape[0], buf,
                                               opt.next_batch())
                total += float(seq_losses.sum())
                if not np.isfinite(total):
                    raise TrainingError(f"loss diverged at epoch {epoch}")
            losses.append(total / n_seqs)
    if not np.isfinite(model.theta).all():  # the last step, which no loss has seen
        raise TrainingError(f"parameters diverged at epoch {cfg.epochs}")
    return model, losses


def extract_features(model: ApcModel, archive: FeatureArchive) -> FeatureArchive:
    """Top-layer hidden states as a new archive, same T and frame period."""
    if archive.dim != model.config.input_dim:
        raise DataError(
            f"archive dim {archive.dim} != model input_dim {model.config.input_dim}"
        )
    utts = archive.utterance_ids()
    out = {}
    for k, h_top in _forward_only(model, [archive.frames(u)[None] for u in utts]):
        out[utts[k]] = h_top[0].astype(np.float32)
    return FeatureArchive(out, archive.frame_period)


# ---------------------------------------------------------------------------
# gradient check


def _check_small(cfg: ApcConfig, t: int) -> None:
    if cfg.L > 2 or cfg.hidden_dim > 8 or t > 20 or cfg.n >= t:
        raise UsageError("gradient_check wants a small instance: L <= 2, hidden_dim <= 8, "
                         f"T <= 20, n < T; got L {cfg.L}, hidden_dim {cfg.hidden_dim}, "
                         f"T {t}, n {cfg.n}")


def gradient_check(model: ApcModel, x, epsilon: float = 1e-5) -> float:
    """Max relative error between BPTT and central-difference gradients of
    the loss at the model's own horizon ``n``.

    Each coordinate of ``model.theta`` is perturbed in place and restored,
    so the model is left bit-identical.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise UsageError(f"epsilon must be finite and > 0, got {epsilon!r}")
    x = np.asarray(x, dtype=np.float64)
    _check_small(model.config, x.shape[0])
    n = model.config.n
    analytic = np.empty_like(model.theta)

    def fill(block, grad):
        analytic[block] = grad

    _batch_loss_grads(model, x[None], 1.0, _grad_buffer(model), fill)
    theta = model.theta
    numeric = np.empty_like(analytic)
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + epsilon
        lp = apc_loss(forward(model, x)[0], x, n)
        theta[k] = orig - epsilon
        lm = apc_loss(forward(model, x)[0], x, n)
        theta[k] = orig
        numeric[k] = (lp - lm) / (2.0 * epsilon)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


KINK_MARGIN = 1e-4
GRADCHECK_CONFIG = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2)  # `apc gradcheck`'s default
GRADCHECK_T = 8  # frames of the random instance
GRADCHECK_MAX_RESAMPLES = 10


def run_gradient_check(cfg: ApcConfig, epsilon: float = 1e-5):
    """Build a small random instance of ``cfg`` (``input_dim`` 2 if it has
    none), drawn from ``cfg.seed``, away from L1 kinks and check it.

    Inputs are resampled while any |xhat_t - x_(t+n)| component is
    within KINK_MARGIN of zero, where the loss is not differentiable;
    more than ``GRADCHECK_MAX_RESAMPLES`` draws raises InconclusiveGradCheck.
    Returns (max_relative_error, resamples_used).

    Parameters whose true gradient sits near the 1e-8 denominator floor
    are dominated by float cancellation noise of order u*loss/epsilon in
    the central difference, so the reported maximum is a property of the
    instance as much as of the code; ``GRADCHECK_CONFIG`` keeps a wide
    margin below 1e-4.
    """
    cfg = replace(cfg, input_dim=cfg.input_dim or 2)
    _check_small(cfg, GRADCHECK_T)
    model = init_model(cfg)
    rng = np.random.default_rng(cfg.seed)
    for attempt in range(GRADCHECK_MAX_RESAMPLES + 1):
        x = rng.standard_normal((GRADCHECK_T, cfg.input_dim))
        xhat, _ = forward(model, x)
        gap = np.abs(_seq_losses(xhat[None], x[None], cfg.n)[1]).min()
        if gap >= KINK_MARGIN:
            return gradient_check(model, x, epsilon), attempt
    raise InconclusiveGradCheck(
        f"could not find a kink-free evaluation point in {GRADCHECK_MAX_RESAMPLES} resamples"
    )


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_bytes(model: ApcModel) -> bytes:
    cfg_json = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", len(cfg_json))
    blob += cfg_json
    blob += model.theta.astype("<f8").tobytes()
    return bytes(blob)


def load_checkpoint(path) -> ApcModel:
    raw = read_bytes_file(path, "checkpoint file")  # the flag's spelling keys its digest
    path = Path(path)
    if len(raw) < 8 or raw[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: not an APC1 checkpoint")
    (cfg_len,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + cfg_len:
        raise FormatError(f"{path}: truncated config block")
    payload = raw[8 + cfg_len:]
    try:
        cfg = ApcConfig.from_dict(read_json(raw[8:8 + cfg_len].decode(),
                                            f"{path}: bad config block", FormatError))
        # every layer holds parameters: this bounds the layer count by the file
        if cfg.L > len(payload) // 8:
            raise FormatError(f"{path}: {cfg.L} layers do not fit {len(payload)} "
                              "payload bytes")
        n_params = sum(map(math.prod, _param_shapes(cfg).values()))
    except (UsageError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: bad config block: {e}") from None
    if len(payload) != 8 * n_params:
        raise FormatError(
            f"{path}: parameter payload has {len(payload)} bytes, "
            f"config implies {8 * n_params}"
        )
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(theta).all():
        raise DataError(f"{path}: non-finite parameter value")
    return ApcModel(cfg, theta)
