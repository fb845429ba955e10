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
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be > 0")
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
    """Parameter container; layers hold Wx, Wh, b; W projects h_L to x."""

    def __init__(self, config: ApcConfig, layers: list, W: np.ndarray):
        if config.input_dim is None:
            raise UsageError("model config must carry a concrete input_dim")
        self.config = config
        self.layers = layers
        self.W = W

    def param_items(self):
        """(name, array) pairs in the fixed checkpoint order."""
        for i, layer in enumerate(self.layers, start=1):
            yield f"layer{i}.Wx", layer["Wx"]
            yield f"layer{i}.Wh", layer["Wh"]
            yield f"layer{i}.b", layer["b"]
        yield "W", self.W

    def n_params(self) -> int:
        return sum(a.size for _, a in self.param_items())


def init_model(cfg: ApcConfig) -> ApcModel:
    if cfg.input_dim is None:
        raise UsageError("input_dim must be set before initializing a model")
    rng = np.random.default_rng(cfg.seed)
    gate_mult = 4 if cfg.cell_kind == "lstm" else 1
    layers = []
    in_dim = cfg.input_dim
    for _ in range(cfg.L):
        g = gate_mult * cfg.hidden_dim
        layers.append({
            "Wx": rng.standard_normal((in_dim, g)) / np.sqrt(in_dim),
            "Wh": rng.standard_normal((cfg.hidden_dim, g)) / np.sqrt(cfg.hidden_dim),
            "b": np.zeros(g),
        })
        in_dim = cfg.hidden_dim
    W = rng.standard_normal((cfg.hidden_dim, cfg.input_dim)) / np.sqrt(cfg.hidden_dim)
    return ApcModel(cfg, layers, W)


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


def _lstm_forward(layer, x):
    """x: (B, T, in) -> h: (B, T, H) plus the cache for BPTT.

    Each step writes into preallocated buffers with ``out=``, keeping the
    element arithmetic of ``z = zx + h_prev @ Wh``, ``c = f*c_prev + i*g``
    and ``h = o*tanh(c)``.  The sigmoid goes straight into the step's row
    of one (B, T, 4H) gate array, and tanh of the g pre-activations over
    its g part; the cache's i, f, g and o are views into that array.
    """
    B, T, _ = x.shape
    Wh = layer["Wh"]
    H = Wh.shape[0]
    zx = x @ layer["Wx"] + layer["b"]
    gates = np.empty((B, T, 4 * H))
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    c = np.empty((B, T, H)); h = np.empty((B, T, H))
    z = np.empty((B, 4 * H)); e = np.empty((B, 4 * H))
    z_g = z[:, 2 * H:3 * H]
    nonneg = np.empty((B, 4 * H), dtype=bool)
    ig = np.empty((B, H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    steps = zip(*(a.swapaxes(0, 1) for a in (zx, gates, i, f, g, o, c, h)))
    for zx_t, s, i_t, f_t, g_t, o_t, c_t, h_t in steps:
        np.matmul(h_prev, Wh, out=z)
        np.add(zx_t, z, out=z)
        _sigmoid(z, s, e, nonneg)
        np.tanh(z_g, out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        np.multiply(i_t, g_t, out=ig)
        np.add(c_t, ig, out=c_t)
        np.tanh(c_t, out=h_t)
        np.multiply(o_t, h_t, out=h_t)
        h_prev, c_prev = h_t, c_t
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


def _rnn_forward(layer, x):
    B, T, _ = x.shape
    H = layer["Wh"].shape[0]
    zx = x @ layer["Wx"] + layer["b"]
    h = np.empty((B, T, H))
    h_prev = np.zeros((B, H))
    for t in range(T):
        h[:, t] = np.tanh(zx[:, t] + h_prev @ layer["Wh"])
        h_prev = h[:, t]
    return h, {"x": x, "h": h}


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


def _forward_batch(model: ApcModel, x: np.ndarray):
    """x: (B, T, d) -> (xhat, h_L, caches)."""
    step = _lstm_forward if model.config.cell_kind == "lstm" else _rnn_forward
    inp = x
    caches = []
    for layer in model.layers:
        out, cache = step(layer, inp)
        residual = inp.shape[-1] == out.shape[-1]
        if residual:
            out = out + inp
        caches.append((cache, residual))
        inp = out
    xhat = inp @ model.W
    return xhat, inp, caches


def forward(model: ApcModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Single-sequence forward: x (T, d) -> (xhat (T, d), h_L (T, H))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise UsageError(
            f"expected (T, {model.config.input_dim}) input, got {x.shape}"
        )
    xhat, h_top, _ = _forward_batch(model, x[None])
    return xhat[0], h_top[0]


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
    """
    xhat, h_top, caches = _forward_batch(model, x)
    seq_losses, diff = _seq_losses(xhat, x, model.config.n)
    dxhat = np.zeros_like(xhat)
    dxhat[:, :diff.shape[1]] = np.sign(diff) * scale
    step_back = _lstm_backward if model.config.cell_kind == "lstm" else _rnn_backward
    grads = {"W": np.einsum("bti,btj->ij", h_top, dxhat), "layers": []}
    dh = dxhat @ model.W.T
    for layer, (cache, residual) in zip(reversed(model.layers), reversed(caches)):
        dx, layer_grads = step_back(layer, cache, dh)
        if residual:
            dx = dx + dh
        grads["layers"].append(layer_grads)
        dh = dx
    grads["layers"].reverse()
    return seq_losses, grads


# ---------------------------------------------------------------------------
# training


def _grad_items(grads):
    for i, layer in enumerate(grads["layers"], start=1):
        yield f"layer{i}.Wx", layer["Wx"]
        yield f"layer{i}.Wh", layer["Wh"]
        yield f"layer{i}.b", layer["b"]
    yield "W", grads["W"]


class _Adam:
    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in model.param_items()}
        self.v = {name: np.zeros_like(p) for name, p in model.param_items()}

    def step(self, model, grads):
        self.t += 1
        for (name, p), (_, g) in zip(model.param_items(), _grad_items(grads)):
            m = self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class _Sgd:
    def __init__(self, model, lr):
        self.lr = lr

    def step(self, model, grads):
        for (_, p), (_, g) in zip(model.param_items(), _grad_items(grads)):
            p -= self.lr * g


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
    opt = _Adam(model, cfg.learning_rate) if cfg.optimizer == "adam" else _Sgd(
        model, cfg.learning_rate
    )
    initial = sum(
        float(_seq_losses(_forward_batch(model, b)[0], b, cfg.n)[0].sum())
        for b in batches
    ) / n_seqs
    losses = [initial]
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for batch in batches:
            seq_losses, grads = _batch_loss_grads(model, batch, 1.0 / batch.shape[0])
            total += float(seq_losses.sum())
            opt.step(model, grads)
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
    out = {}
    for utt in archive.utterance_ids():
        _, h_top = forward(model, archive.frames(utt))
        out[utt] = h_top.astype(np.float32)
    return FeatureArchive(out, archive.frame_period)


# ---------------------------------------------------------------------------
# gradient check


def _pack(model):
    return np.concatenate([p.ravel() for _, p in model.param_items()])


def _unpack_into(model, flat):
    pos = 0
    for _, p in model.param_items():
        p[...] = flat[pos:pos + p.size].reshape(p.shape)
        pos += p.size


def gradient_check(model: ApcModel, x, n: int, epsilon: float = 1e-5) -> float:
    """Max relative error between BPTT and central-difference gradients."""
    x = np.asarray(x, dtype=np.float64)
    cfg = model.config
    if cfg.L > 2 or cfg.hidden_dim > 8 or x.shape[0] > 20:
        raise UsageError(
            "gradient_check wants a small instance: L <= 2, hidden_dim <= 8, T <= 20"
        )
    _, grads = _batch_loss_grads(model, x[None], 1.0)
    analytic = np.concatenate([g.ravel() for _, g in _grad_items(grads)])
    theta = _pack(model)
    numeric = np.empty_like(analytic)
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + epsilon
        _unpack_into(model, theta)
        lp = apc_loss(_forward_batch(model, x[None])[0][0], x, n)
        theta[k] = orig - epsilon
        _unpack_into(model, theta)
        lm = apc_loss(_forward_batch(model, x[None])[0][0], x, n)
        theta[k] = orig
        numeric[k] = (lp - lm) / (2.0 * epsilon)
    _unpack_into(model, theta)
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
    for _, p in model.param_items():
        blob += np.ascontiguousarray(p, dtype="<f8").tobytes()
    return bytes(blob)


def save_checkpoint(model: ApcModel, path) -> None:
    Path(path).write_bytes(checkpoint_bytes(model))


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
    model = init_model(cfg)
    flat = np.frombuffer(raw[8 + cfg_len:], dtype="<f8")
    if flat.size != model.n_params():
        raise FormatError(
            f"{path}: parameter payload has {flat.size} values, "
            f"config implies {model.n_params()}"
        )
    _unpack_into(model, flat.astype(np.float64))
    return model
