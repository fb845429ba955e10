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

CKPT_MAGIC = b"APC1"

CELL_KINDS = ("lstm", "simple-rnn")
OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class ApcConfig:
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

    def to_dict(self) -> dict:
        return {
            "n": self.n, "L": self.L, "hidden_dim": self.hidden_dim,
            "input_dim": self.input_dim, "cell_kind": self.cell_kind,
            "learning_rate": self.learning_rate, "epochs": self.epochs,
            "batch_size": self.batch_size, "seed": self.seed,
            "optimizer": self.optimizer,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ApcConfig":
        unknown = set(doc) - set(cls().to_dict())
        if unknown:
            raise UsageError(f"unknown apc config keys: {sorted(unknown)}")
        return cls(**doc)


def paper_preset(input_dim: int) -> ApcConfig:
    """The full-scale configuration: 5 layers of 100, n=5, 100 epochs."""
    return ApcConfig(n=5, L=5, hidden_dim=100, input_dim=input_dim,
                     cell_kind="lstm", learning_rate=1e-4, epochs=100,
                     batch_size=32, optimizer="adam")


class ApcModel:
    """All parameters in one float64 vector ``theta``, in checkpoint order.

    ``layers[i]`` holds the Wx, Wh and b of layer i + 1, and W projects h_L
    to x; each is a view into theta.  A given ``theta`` is used as is,
    which is how a gradient vector gets the same layout.
    """

    def __init__(self, config: ApcConfig, theta: np.ndarray | None = None):
        if config.input_dim is None:
            raise UsageError("model config must carry a concrete input_dim")
        self.config = config
        H = config.hidden_dim
        G = (4 if config.cell_kind == "lstm" else 1) * H
        shapes = {}
        for i in range(1, config.L + 1):
            in_dim = config.input_dim if i == 1 else H
            shapes.update({f"layer{i}.Wx": (in_dim, G), f"layer{i}.Wh": (H, G),
                           f"layer{i}.b": (G,)})
        shapes["W"] = (H, config.input_dim)
        sizes = {name: math.prod(shape) for name, shape in shapes.items()}
        self.theta = np.zeros(sum(sizes.values())) if theta is None else theta
        self._params = {}
        pos = 0
        for name, shape in shapes.items():
            self._params[name] = self.theta[pos:pos + sizes[name]].reshape(shape)
            pos += sizes[name]
        self.layers = [{k: self._params[f"layer{i}.{k}"] for k in ("Wx", "Wh", "b")}
                       for i in range(1, config.L + 1)]
        self.W = self._params["W"]

    def param_items(self):
        """(name, array) pairs in the fixed checkpoint order."""
        return iter(self._params.items())

    def n_params(self) -> int:
        return self.theta.size


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


def _input_products(layer, x, spans):
    """zx = x @ Wx + b for each group of rows over its own steps: (N, T, G).

    Entries past a sequence's end are left unset; no step reads them.
    """
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


def _lstm_forward(layer, x, spans=None, keep=True):
    """x: (N, T, in) -> h: (N, T, H) plus the cache for BPTT.

    Each step writes into preallocated buffers with ``out=``, keeping the
    element arithmetic of ``z = zx + h_prev @ Wh``, ``c = f*c_prev + i*g``
    and ``h = o*tanh(c)``.  The sigmoid goes straight into the step's row
    of one (N, T, 4H) gate array, and tanh of the g pre-activations over
    its g part; the cache's i, f, g and o are views into that array.

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
    zx = _input_products(layer, x, spans)
    history = np.empty if keep else _step_rows
    gates = history((N, T, 4 * H))
    c = history((N, T, H))
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
    if not keep:
        return h, None
    return h, {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h}


def _weight_grads(layer, x, h, dz):
    """Gradients of a layer from its pre-activation gradients dz (B, T, G).

    Nothing here is recurrent, so each is one matrix product or sum over
    all steps; h[:, t - 1] feeds step t, and step 0 saw h = 0.
    """
    B, T, G = dz.shape
    dz2 = dz.reshape(B * T, G)
    dWh = np.zeros_like(layer["Wh"])
    # one product per sequence: the shifted (B, T - 1) views of a batch
    # would be copied to flatten them
    for h_b, dz_b in zip(h[:, :-1], dz[:, 1:]):
        dWh += h_b.T @ dz_b
    grads = {
        "Wx": x.reshape(B * T, -1).T @ dz2,
        "Wh": dWh,
        "b": dz2.sum(axis=0),
    }
    dx = (dz2 @ layer["Wx"].T).reshape(x.shape)
    return dx, grads


def _lstm_backward(layer, cache, dh_out):
    """BPTT; the time loop carries only dh and dc back one step.

    Every factor that does not depend on dh or dc is computed for all
    steps before the loop, into one (B, T, 10, H) array.  The i, f and g
    gates all start from dc and keep the association ((dc * u) * v) * w
    of their formulas, so they run as in-place multiplies on one stacked
    view: u = (g, c_prev, i), v = (i, f, 1-g^2), w = (1-i, 1-f) (g has no
    third factor).  u and v share the slot of i.
    """
    x, i, f, g, o, c, h = (cache[k] for k in ("x", "i", "f", "g", "o", "c", "h"))
    B, T, H = h.shape
    Wh_T = layer["Wh"].T
    # slots: g, c_prev, i, f, 1-g^2, 1-i, 1-f, tanh(c), 1-tanh(c)^2, 1-o
    fac = np.empty((B, T, 10, H))
    fac[:, :, 0] = g
    fac[:, 0, 1] = 0.0
    fac[:, 1:, 1] = c[:, :-1]
    fac[:, :, 2] = i
    fac[:, :, 3] = f
    np.subtract(1.0, g ** 2, out=fac[:, :, 4])
    np.subtract(1.0, fac[:, :, 2:4], out=fac[:, :, 5:7])
    np.tanh(c, out=fac[:, :, 7])
    np.subtract(1.0, fac[:, :, 7] ** 2, out=fac[:, :, 8])
    np.subtract(1.0, o, out=fac[:, :, 9])
    dz = np.empty((B, T, 4 * H))
    dz4 = dz.reshape(B, T, 4, H)
    dh = np.empty((B, H))
    dc3 = np.empty((B, 1, H))
    dc = dc3[:, 0]
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    steps = zip(range(T - 1, -1, -1), *(a.swapaxes(0, 1)[::-1] for a in (
        dh_out, o, f, fac[:, :, 0:3], fac[:, :, 2:5], fac[:, :, 5:7],
        fac[:, :, 7], fac[:, :, 8], fac[:, :, 9], dz, dz4[:, :, :3],
        dz4[:, :, :2], dz4[:, :, 3])))
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
    return _weight_grads(layer, x, h, dz)


def _rnn_forward(layer, x, spans=None, keep=True):
    """h_t = tanh(zx_t + h_prev @ Wh); packs and ``keep`` as for the LSTM."""
    N, T, _ = x.shape
    Wh = layer["Wh"]
    spans = spans or [(0, N, T)]
    zx = _input_products(layer, x, spans)
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


def _rnn_backward(layer, cache, dh_out):
    x, h = cache["x"], cache["h"]
    B, T, H = h.shape
    Wh_T = layer["Wh"].T
    dtanh = 1.0 - h ** 2
    dz = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dz[:, t] = (dh_out[:, t] + dh_next) * dtanh[:, t]
        if t > 0:
            dh_next = dz[:, t] @ Wh_T
    return _weight_grads(layer, x, h, dz)


def _stack(model: ApcModel, x: np.ndarray, spans, keep: bool):
    """Every layer over the pack x (N, T, d) -> (h_L, [(cache, residual)])."""
    step = _lstm_forward if model.config.cell_kind == "lstm" else _rnn_forward
    inp = x
    caches = []
    for layer in model.layers:
        out, cache = step(layer, inp, spans, keep)
        residual = inp.shape[-1] == out.shape[-1]
        if residual:
            out = out + inp
        caches.append((cache, residual))
        inp = out
    return inp, caches


def _forward_batch(model: ApcModel, x: np.ndarray):
    """x: (B, T, d) -> (xhat, h_L, caches)."""
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
    alone.
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
    """Sum over t of |xhat_t - x_(t+n)|, elementwise over dims."""
    xhat = np.asarray(xhat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[0]
    if T <= n:
        raise DataError(f"sequence length {T} must exceed prediction step n={n}")
    return float(np.abs(xhat[:T - n] - x[n:]).sum())


def _seq_losses(xhat, x, n: int):
    """Per-sequence L1 loss of a (B, T, d) batch, and the residuals it sums."""
    diff = xhat[:, :x.shape[1] - n] - x[:, n:]
    return np.abs(diff).sum(axis=(1, 2)), diff


def _batch_loss_grads(model: ApcModel, x: np.ndarray, scale: float):
    """Mean-per-sequence loss and gradients, scaled by ``scale`` per item.

    x is (B, T, d); the L1 subgradient at zero is taken as 0 (np.sign).
    The gradient is one vector laid out like ``model.theta``.
    """
    xhat, h_top, caches = _forward_batch(model, x)
    seq_losses, diff = _seq_losses(xhat, x, model.config.n)
    dxhat = np.zeros_like(xhat)
    dxhat[:, :diff.shape[1]] = np.sign(diff) * scale
    step_back = _lstm_backward if model.config.cell_kind == "lstm" else _rnn_backward
    grads = ApcModel(model.config, np.empty_like(model.theta))
    grads.W[...] = np.einsum("bti,btj->ij", h_top, dxhat)
    dh = dxhat @ model.W.T
    for layer, layer_grads, (cache, residual) in zip(
        reversed(model.layers), reversed(grads.layers), reversed(caches)
    ):
        dx, step_grads = step_back(layer, cache, dh)
        if residual:
            dx = dx + dh
        for k, g in step_grads.items():
            layer_grads[k][...] = g
        dh = dx
    return seq_losses, grads.theta


# ---------------------------------------------------------------------------
# training


class _Adam:
    def __init__(self, n_params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)

    def step(self, theta, grad):
        """In place, with each element's operations in the order of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        theta -= lr*mhat / (sqrt(vhat) + eps)."""
        self.t += 1
        a = (1 - self.b1) * grad
        self.m *= self.b1
        self.m += a
        np.multiply(grad, 1 - self.b2, out=a)
        a *= grad
        self.v *= self.b2
        self.v += a
        np.divide(self.m, 1 - self.b1 ** self.t, out=a)
        a *= self.lr
        d = self.v / (1 - self.b2 ** self.t)
        np.sqrt(d, out=d)
        d += self.eps
        a /= d
        theta -= a


class _Sgd:
    def __init__(self, n_params, lr):
        self.lr = lr

    def step(self, theta, grad):
        theta -= self.lr * grad


def _make_batches(archive: FeatureArchive, n: int, batch_size: int):
    """Equal-length buckets in sorted order, split to batch_size."""
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
        utts = [u for _, u in seqs[i:j]]
        batches.append(np.stack([
            archive.frames(u).astype(np.float64) for u in utts
        ]))
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
    opt = (_Adam if cfg.optimizer == "adam" else _Sgd)(
        model.n_params(), cfg.learning_rate
    )
    initial = {k: float(_seq_losses(h_top @ model.W, batches[k], cfg.n)[0].sum())
               for k, h_top in _forward_only(model, batches)}
    losses = [sum(initial[k] for k in range(len(batches))) / n_seqs]
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for batch in batches:
            seq_losses, grad = _batch_loss_grads(model, batch, 1.0 / batch.shape[0])
            total += float(seq_losses.sum())
            opt.step(model.theta, grad)
        mean_loss = total / n_seqs
        if not np.isfinite(mean_loss):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        losses.append(mean_loss)
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


def gradient_check(model: ApcModel, x, n: int, epsilon: float = 1e-5) -> float:
    """Max relative error between BPTT and central-difference gradients.

    Each coordinate of ``model.theta`` is perturbed in place and restored,
    so the model is left bit-identical.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise UsageError(f"epsilon must be finite and > 0, got {epsilon!r}")
    x = np.asarray(x, dtype=np.float64)
    cfg = model.config
    if cfg.L > 2 or cfg.hidden_dim > 8 or x.shape[0] > 20:
        raise UsageError(
            "gradient_check wants a small instance: L <= 2, hidden_dim <= 8, T <= 20"
        )
    _, analytic = _batch_loss_grads(model, x[None], 1.0)
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


def run_gradient_check(cfg: ApcConfig | None = None, seed: int = 0,
                       T: int = 8, epsilon: float = 1e-5,
                       max_resamples: int = 10):
    """Build a small random instance away from L1 kinks and check it.

    Inputs are resampled while any |xhat_t - x_(t+n)| component is
    within KINK_MARGIN of zero, where the loss is not differentiable;
    more than ``max_resamples`` draws raises InconclusiveGradCheck.
    Returns (max_relative_error, resamples_used).

    Parameters whose true gradient sits near the 1e-8 denominator floor
    are dominated by float cancellation noise of order u*loss/epsilon in
    the central difference, so the reported maximum is a property of the
    instance as much as of the code; the default instance shape keeps a
    wide margin below 1e-4.
    """
    if cfg is None:
        cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2, seed=seed)
    elif cfg.input_dim is None:
        cfg = replace(cfg, input_dim=2)
    rng = np.random.default_rng(seed)
    model = init_model(replace(cfg, seed=seed))
    for attempt in range(max_resamples + 1):
        x = rng.standard_normal((T, cfg.input_dim))
        xhat, _ = forward(model, x)
        gap = np.abs(xhat[:T - cfg.n] - x[cfg.n:]).min()
        if gap >= KINK_MARGIN:
            return gradient_check(model, x, cfg.n, epsilon), attempt
    raise InconclusiveGradCheck(
        f"could not find a kink-free evaluation point in {max_resamples} resamples"
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
    path = Path(path)
    raw = read_bytes_file(path, "checkpoint file")
    if len(raw) < 8 or raw[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: not an APC1 checkpoint")
    (cfg_len,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + cfg_len:
        raise FormatError(f"{path}: truncated config block")
    try:
        cfg = ApcConfig.from_dict(json.loads(raw[8:8 + cfg_len].decode()))
    except (ValueError, TypeError) as e:
        raise FormatError(f"{path}: bad config block: {e}") from None
    model = ApcModel(cfg)
    payload = raw[8 + cfg_len:]
    if len(payload) != 8 * model.n_params():
        raise FormatError(
            f"{path}: parameter payload has {len(payload)} bytes, "
            f"config implies {8 * model.n_params()}"
        )
    model.theta[...] = np.frombuffer(payload, dtype="<f8")
    return model
