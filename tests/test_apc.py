import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from abxlab import apc
from abxlab.apc import (
    GRADCHECK_CONFIG,
    OPTIMIZERS,
    ApcConfig,
    ApcModel,
    apc_loss,
    checkpoint_bytes,
    extract_features,
    forward,
    gradient_check,
    init_model,
    load_checkpoint,
    run_gradient_check,
    train,
    _batch_loss_grads,
    _make_batches,
)
from abxlab.corpus import FeatureArchive, write_outputs
from abxlab.errors import DataError, FormatError, InconclusiveGradCheck, TrainingError, UsageError
from oracles import (
    AdamByName,
    SgdByName,
    extract_per_utterance,
    initial_loss_per_batch,
    lstm_backward_alloc,
    lstm_backward_steps,
    lstm_forward_alloc,
    rnn_backward_alloc,
    rnn_backward_steps,
    rnn_forward_alloc,
    sigmoid_masked,
)


def toy_archive(seed=0, n_utts=4, t=12, dim=3, period=10000):
    rng = np.random.default_rng(seed)
    utts = {}
    for i in range(n_utts):
        base = rng.standard_normal(dim)
        drift = rng.standard_normal((t, dim)) * 0.1
        utts[f"u{i:02d}"] = (base + np.cumsum(drift, axis=0)).astype(np.float32)
    return FeatureArchive(utts, period)


def grad_vector(model):
    """A gradient vector laid out like model.theta, NaN until written."""
    return np.full_like(model.theta, np.nan)


def full_grads(model, x, scale):
    """(losses, gradient vector) of one backward, through a sink that fills
    a NaN vector laid out like model.theta and sees each block once."""
    grad = grad_vector(model)
    seen = []

    def fill(block, g):
        seen.append(block)
        grad[block] = g

    losses = _batch_loss_grads(model, x, scale, apc._grad_buffer(model), fill)
    assert seen == model.blocks[::-1]
    return losses, grad


def grad_layers(model):
    """Per-layer Wx, Wh and b views into a fresh gradient vector."""
    return ApcModel(model.config, grad_vector(model)).layers


def zeroed(model):
    for _, p in model.param_items():
        p[...] = 0.0
    return model


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(UsageError):
        ApcConfig(n=0)
    with pytest.raises(UsageError):
        ApcConfig(L=0)
    with pytest.raises(UsageError):
        ApcConfig(cell_kind="gru")
    with pytest.raises(UsageError):
        ApcConfig(optimizer="rmsprop")
    for lr in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError):
            ApcConfig(learning_rate=lr)
    with pytest.raises(UsageError):
        ApcConfig(seed=-1)
    with pytest.raises(UsageError):
        ApcConfig.from_dict({"layers": 3})


def test_config_round_trip():
    cfg = ApcConfig(n=2, L=1, hidden_dim=4, input_dim=3, cell_kind="simple-rnn")
    assert ApcConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# forward semantics


def test_loss_example():
    x = np.array([[1.0], [2.0], [3.0]])
    assert apc_loss(x, x, 1) == 2.0  # |1-2| + |2-3|
    assert apc_loss(x, x, 2) == 2.0  # |1-3|
    with pytest.raises(DataError):
        apc_loss(x, x, 3)


def test_identity_model_predicts_input():
    # zero recurrent weights + residual + identity projection: xhat == x
    cfg = ApcConfig(n=1, L=1, hidden_dim=2, input_dim=2, cell_kind="simple-rnn")
    model = zeroed(init_model(cfg))
    model.W[...] = np.eye(2)
    x = np.array([[1.0, -1.0], [2.0, 0.5], [3.0, 0.0]])
    xhat, h_top = forward(model, x)
    assert np.array_equal(xhat, x)
    assert np.array_equal(h_top, x)  # tanh(0) + x
    assert apc_loss(xhat, x, 1) == np.abs(x[:-1] - x[1:]).sum()


def test_hand_unrolled_simple_rnn():
    cfg = ApcConfig(n=1, L=1, hidden_dim=1, input_dim=1, cell_kind="simple-rnn")
    model = zeroed(init_model(cfg))
    w, u, c, v = 0.5, 0.25, 0.1, 2.0
    model.layers[0]["Wx"][...] = w
    model.layers[0]["Wh"][...] = u
    model.layers[0]["b"][...] = c
    model.W[...] = v
    x = np.array([[1.0], [2.0]])
    xhat, h_top = forward(model, x)
    s0 = math.tanh(1.0 * w + 0.0 * u + c)
    s1 = math.tanh(2.0 * w + s0 * u + c)  # recurrence sees pre-residual state
    assert h_top[0, 0] == pytest.approx(s0 + 1.0, abs=1e-15)
    assert h_top[1, 0] == pytest.approx(s1 + 2.0, abs=1e-15)
    assert xhat[0, 0] == pytest.approx(v * (s0 + 1.0), abs=1e-15)
    assert apc_loss(xhat, x, 1) == pytest.approx(abs(v * (s0 + 1.0) - 2.0), abs=1e-15)


def test_residual_rule_depends_on_dims():
    # input 2 -> hidden 3: no residual on layer 1, so zero weights kill h
    cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2, cell_kind="simple-rnn")
    model = zeroed(init_model(cfg))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    xhat, h_top = forward(model, x)
    assert np.array_equal(h_top, np.zeros((2, 3)))
    assert np.array_equal(xhat, np.zeros((2, 2)))

    # input 3 == hidden 3: layer 1 residual carries the input through
    cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=3, cell_kind="simple-rnn")
    model = zeroed(init_model(cfg))
    x = np.array([[1.0, 2.0, 3.0]])
    _, h_top = forward(model, x)
    assert np.array_equal(h_top, x)


def test_forward_validates_shape():
    cfg = ApcConfig(input_dim=3, hidden_dim=4)
    model = init_model(cfg)
    with pytest.raises(UsageError):
        forward(model, np.zeros((5, 2)))
    with pytest.raises(UsageError):
        forward(model, np.zeros(5))


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_causality(cell):
    cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=3, cell_kind=cell, seed=5)
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 3))
    _, h = forward(model, x)
    for t in (3, 7):
        y = x.copy()
        y[t:] += rng.standard_normal((10 - t, 3)) * 5
        _, hy = forward(model, y)
        assert np.array_equal(h[:t], hy[:t])
        assert not np.array_equal(h[t:], hy[t:])


# ---------------------------------------------------------------------------
# gradient check


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_run_gradient_check_passes(cell):
    for seed in (0, 1, 2):
        cfg = ApcConfig(
            n=1, L=2, hidden_dim=3, input_dim=2, cell_kind=cell, seed=seed
        )
        err, resamples = run_gradient_check(cfg)
        assert err < 1e-4, (cell, seed, err)
        assert 0 <= resamples <= 10


def test_run_gradient_check_draws_from_the_config_seed():
    seed7 = replace(GRADCHECK_CONFIG, seed=7)
    assert run_gradient_check(seed7) == run_gradient_check(seed7)
    assert run_gradient_check(seed7) != run_gradient_check(GRADCHECK_CONFIG)


def test_gradient_check_rejects_large_instances():
    model = init_model(ApcConfig(hidden_dim=9, input_dim=2, L=1))
    with pytest.raises(UsageError):
        gradient_check(model, np.zeros((4, 2)))
    model = init_model(ApcConfig(hidden_dim=3, input_dim=2, L=1))
    with pytest.raises(UsageError):
        gradient_check(model, np.zeros((21, 2)))
    # the horizon must leave a target frame
    model = init_model(ApcConfig(n=4, hidden_dim=3, input_dim=2, L=1))
    with pytest.raises(UsageError, match="n < T; got L 1, hidden_dim 3, T 4, n 4"):
        gradient_check(model, np.zeros((4, 2)))


@pytest.mark.parametrize("n", [8, 100])
def test_run_gradient_check_refuses_a_horizon_past_its_instance(n, monkeypatch):
    # refused before the first draw: T is GRADCHECK_T = 8 frames
    monkeypatch.setattr(apc, "init_model", lambda cfg: pytest.fail("drew an instance"))
    with pytest.raises(UsageError, match=f"n < T; got L 2, hidden_dim 3, T 8, n {n}$"):
        run_gradient_check(replace(GRADCHECK_CONFIG, n=n))
    monkeypatch.undo()
    err, _ = run_gradient_check(replace(GRADCHECK_CONFIG, n=7))
    assert err < 1e-4


def test_run_gradient_check_gives_up_after_its_resamples(monkeypatch):
    # no draw can clear a margin of 1e9: the first draw and every resample fail
    drawn = []

    def counting_forward(model, x):
        drawn.append(x)
        return forward(model, x)

    monkeypatch.setattr(apc, "KINK_MARGIN", 1e9)
    monkeypatch.setattr(apc, "forward", counting_forward)
    with pytest.raises(InconclusiveGradCheck, match="in 10 resamples"):
        run_gradient_check(GRADCHECK_CONFIG)
    assert len(drawn) == apc.GRADCHECK_MAX_RESAMPLES + 1 == 11


def test_gradient_check_leaves_theta_bit_identical():
    cfg = ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2, seed=4)
    model = init_model(cfg)
    before = model.theta.copy()
    x = np.random.default_rng(4).standard_normal((8, 2))
    gradient_check(model, x)
    assert np.array_equal(model.theta.view(np.int64), before.view(np.int64))


def test_gradient_check_detects_disagreement(monkeypatch):
    # an analytic pass that writes half of each recurrent weight gradient
    # must trip the bound
    cfg = ApcConfig(n=1, L=1, hidden_dim=3, input_dim=2, cell_kind="simple-rnn", seed=0)
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 2))
    assert gradient_check(model, x) < 1e-4
    rnn_backward = apc._rnn_backward

    def halved(layer, cache, dh_out, out):
        dx = rnn_backward(layer, cache, dh_out, out)
        for grad in out.values():
            grad *= 0.5
        return dx

    monkeypatch.setattr(apc, "_rnn_backward", halved)
    assert gradient_check(model, x) > 1e-2


# ---------------------------------------------------------------------------
# BPTT and sigmoid against the step-by-step oracles

STEP_ORACLES = {"lstm": lstm_backward_steps, "simple-rnn": rnn_backward_steps}

# BPTT takes its factors one block of steps at a time; with a block of 4,
# T = 1, block - 1, block, block + 1 and 2 * block + 1 cover one partial
# block, one full block and a partial block behind full ones
SMALL_BLOCK = 4
BLOCK_CASES = [(B, T) for B in (1, 3) for T in (1, 3, 4, 5, 9)]


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(apc, "BPTT_BLOCK", SMALL_BLOCK)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
@pytest.mark.parametrize("B,T", sorted({(1, 1), (1, 2), (2, 1), (2, 2), (3, 9),
                                        *BLOCK_CASES}))
def test_bptt_matches_step_oracle(cell, B, T, small_block):
    rng = np.random.default_rng(10 * B + T)
    model = init_model(ApcConfig(n=1, L=2, hidden_dim=4, input_dim=3, cell_kind=cell))
    for layer in model.layers:
        layer["b"][...] = rng.standard_normal(layer["b"].shape)
    _, _, caches = apc._forward_batch(model, rng.standard_normal((B, T, 3)))
    backward = apc._lstm_backward if cell == "lstm" else apc._rnn_backward
    for layer, grads, grads_ref, (cache, _) in zip(
        model.layers, grad_layers(model), grad_layers(model), caches
    ):
        dh_out = rng.standard_normal(cache["h"].shape)
        # the backward spends its cache: the oracle reads a copy
        cache_ref = {k: a.copy() for k, a in cache.items()}
        dx = backward(layer, cache, dh_out, grads)
        dx_ref = STEP_ORACLES[cell](layer, cache_ref, dh_out, grads_ref)
        assert_close(dx, dx_ref)
        for k in ("Wx", "Wh", "b"):
            assert_close(grads[k], grads_ref[k])


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_batch_gradients_match_step_oracle_through_residuals(cell, monkeypatch):
    rng = np.random.default_rng(5)
    model = init_model(ApcConfig(n=2, L=2, hidden_dim=4, input_dim=4, cell_kind=cell))
    x = rng.standard_normal((2, 7, 4))
    assert [res for _, res in apc._forward_batch(model, x)[2]] == [True, True]
    losses, grads = full_grads(model, x, 0.5)
    monkeypatch.setattr(apc, "_lstm_backward", lstm_backward_steps)
    monkeypatch.setattr(apc, "_rnn_backward", rnn_backward_steps)
    losses_ref, grads_ref = full_grads(model, x, 0.5)
    assert np.array_equal(losses, losses_ref)
    assert grads.shape == model.theta.shape
    assert_close(grads, grads_ref)


def sigmoid(z):
    return apc._sigmoid(z, np.empty_like(z), np.empty_like(z), np.empty(z.shape, bool))


def test_sigmoid_matches_masked_oracle():
    rng = np.random.default_rng(0)
    edge = np.array([0.0, 1e-300, 1e-8, 0.5, 1.0, 30.0, 36.8, 700.0, np.inf])
    z = np.concatenate([edge, -edge, 20.0 * rng.standard_normal(400)]).reshape(-1, 2)
    with np.errstate(all="raise"):
        got, want = sigmoid(z), sigmoid_masked(z)
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # past |z| ~ 708, exp(-|z|) underflows in both versions; nothing may
    # overflow or go invalid, and the value saturates exactly
    far = np.array([[800.0, -800.0], [1e308, -1e308]])
    with np.errstate(all="raise", under="ignore"):
        got, want = sigmoid(far), sigmoid_masked(far)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got.tolist() == [[1.0, 0.0], [1.0, 0.0]]


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


ALLOC_ORACLES = {
    "lstm": (apc._lstm_forward, apc._lstm_backward, lstm_forward_alloc, lstm_backward_alloc),
    "simple-rnn": (apc._rnn_forward, apc._rnn_backward, rnn_forward_alloc, rnn_backward_alloc),
}


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
@pytest.mark.parametrize("B,T", sorted({(1, 1), (1, 2), (2, 1), (3, 9), *BLOCK_CASES}))
@pytest.mark.parametrize("saturate", [False, True])
def test_step_loops_bit_equal_allocating_oracle(cell, B, T, saturate, small_block):
    rng = np.random.default_rng(100 * B + T)
    model = init_model(ApcConfig(n=1, L=2, hidden_dim=4, input_dim=3, cell_kind=cell))
    for layer in model.layers:
        layer["b"][...] = rng.standard_normal(layer["b"].shape)
    x = rng.standard_normal((B, T, 3))
    if saturate:
        # one huge coordinate per frame drives most first-layer gates to
        # exactly 0 or 1 and tanh to +-1, through exp underflow
        x[..., 0] = rng.choice([700.0, -700.0, 1e308, -1e308], size=(B, T))
    forward, backward, forward_ref, backward_ref = ALLOC_ORACLES[cell]
    inp = x
    for layer, grads, grads_ref in zip(model.layers, grad_layers(model), grad_layers(model)):
        h, cache = forward(layer, inp)
        h_ref, cache_ref = forward_ref(layer, inp)
        assert_bits(h, h_ref)
        assert cache.keys() == cache_ref.keys()
        for k in cache:
            assert_bits(cache[k], cache_ref[k])
        dh_out = rng.standard_normal(h.shape)
        dx = backward(layer, cache, dh_out, grads)
        dx_ref = backward_ref(layer, cache_ref, dh_out, grads_ref)
        assert_bits(dx, dx_ref)
        assert grads.keys() == grads_ref.keys()
        for k in grads:
            assert_bits(grads[k], grads_ref[k])
        inp = h


def test_initial_loss_is_forward_only(monkeypatch):
    rng = np.random.default_rng(2)
    archive = FeatureArchive(
        {u: rng.standard_normal((t, 3)).astype(np.float32)
         for u, t in (("a", 9), ("b", 12), ("c", 9))},
        10000,
    )
    cfg = ApcConfig(n=2, L=2, hidden_dim=5, epochs=1, batch_size=4, seed=3)
    model = init_model(replace(cfg, input_dim=archive.dim))
    batches = _make_batches(archive, cfg.n, cfg.batch_size)
    bptt_initial = sum(
        float(full_grads(model, b, 0.0)[0].sum())
        for b in batches
    ) / len(archive.utterance_ids())
    calls = []
    step_back = apc._lstm_backward
    monkeypatch.setattr(
        apc, "_lstm_backward", lambda *a: calls.append(1) or step_back(*a)
    )
    losses = train(cfg, archive)[1]
    assert losses[0] == bptt_initial
    assert len(calls) == cfg.epochs * len(batches) * cfg.L


# ---------------------------------------------------------------------------
# packed forward-only pass against the one-sequence-at-a-time oracles

# batch_size and the (B, T) of each group
PACK_CASES = {
    "ragged": (8, [(1, 9), (1, 4), (1, 12), (1, 2), (1, 7)]),
    "T=1": (8, [(1, 1), (1, 3), (1, 1)]),
    "tied": (8, [(3, 6), (2, 6), (1, 8), (2, 3)]),
    "one sequence": (8, [(1, 5)]),
    "several packs": (3, [(1, 2), (2, 9), (3, 5), (1, 11), (1, 3), (2, 7), (1, 5)]),
}


def pack_model(cell, case, seed=0):
    rng = np.random.default_rng(seed)
    cfg = ApcConfig(n=1, L=3, hidden_dim=4, input_dim=3, cell_kind=cell,
                    batch_size=PACK_CASES[case][0], seed=seed)
    model = init_model(cfg)
    for layer in model.layers:  # nonzero biases, or -0.0 could hide in zx
        layer["b"][...] = rng.standard_normal(layer["b"].shape)
    return model


def case_archive(case, seed=0):
    rng = np.random.default_rng(seed)
    utts = {}
    for B, T in PACK_CASES[case][1]:
        for _ in range(B):
            utts[f"u{len(utts):02d}"] = rng.standard_normal((T, 3)).astype(np.float32)
    return FeatureArchive(utts, 10000)


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
@pytest.mark.parametrize("case", PACK_CASES)
def test_forward_only_groups_bit_equal_forward_batch(cell, case):
    model = pack_model(cell, case)
    rng = np.random.default_rng(1)
    groups = [rng.standard_normal((B, T, 3)) for B, T in PACK_CASES[case][1]]
    got = dict(apc._forward_only(model, groups))
    assert sorted(got) == list(range(len(groups)))
    packs = apc._packs(groups, model.config.batch_size)
    assert all(sum(groups[k].shape[0] for k in p) <= model.config.batch_size
               for p in packs)
    assert (len(packs) > 1) == (case == "several packs")
    for k, x in enumerate(groups):
        assert_bits(got[k], apc._forward_batch(model, x)[1])


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
@pytest.mark.parametrize("case", PACK_CASES)
def test_extract_bit_equal_per_utterance_oracle(cell, case):
    model = pack_model(cell, case)
    archive = case_archive(case)
    got = extract_features(model, archive)
    want = extract_per_utterance(model, archive)
    assert got.utterance_ids() == sorted(want)
    for utt, frames in want.items():
        assert np.array_equal(got.frames(utt).view(np.int32), frames.view(np.int32))
        _, h = forward(model, archive.frames(utt))
        assert_bits(h.astype(np.float32), frames)


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
@pytest.mark.parametrize("case", [c for c in PACK_CASES if c != "T=1"])
def test_initial_loss_bit_equal_per_batch_oracle(cell, case):
    archive = case_archive(case)
    cfg = replace(pack_model(cell, case).config, epochs=1, input_dim=None)
    batches = _make_batches(archive, cfg.n, cfg.batch_size)
    assert (max(b.shape[0] for b in batches) > 1) == (case in ("tied", "several packs"))
    want = initial_loss_per_batch(init_model(replace(cfg, input_dim=3)), batches, cfg.n)
    assert train(cfg, archive)[1][0].hex() == want.hex()


# ---------------------------------------------------------------------------
# training


def test_training_reduces_loss_and_is_deterministic():
    archive = toy_archive()
    cfg = ApcConfig(n=1, L=2, hidden_dim=8, epochs=20, batch_size=2, seed=1)
    model_a, losses_a = train(cfg, archive)
    model_b, losses_b = train(cfg, archive)
    assert losses_a == losses_b
    assert checkpoint_bytes(model_a) == checkpoint_bytes(model_b)
    assert len(losses_a) == cfg.epochs + 1
    assert losses_a[0] > 0
    assert losses_a[-1] < 0.5 * losses_a[0]
    assert model_a.config.input_dim == archive.dim


@pytest.mark.parametrize("cell,optimizer,oracle,L,hidden_dim,batch_size", [
    pytest.param("lstm", "adam", AdamByName, 2, 3, 2, id="lstm-adam-AdamByName"),
    pytest.param("simple-rnn", "sgd", SgdByName, 2, 3, 2, id="simple-rnn-sgd-SgdByName"),
    # hidden_dim 3 = the input dim: every layer is residual
    pytest.param("lstm", "adam", AdamByName, 3, 3, 1, id="lstm-adam-L3-residual-batch1"),
    pytest.param("simple-rnn", "sgd", SgdByName, 3, 3, 2, id="simple-rnn-sgd-L3-residual"),
    pytest.param("lstm", "sgd", SgdByName, 2, 4, 1, id="lstm-sgd-batch1"),
    pytest.param("simple-rnn", "adam", AdamByName, 3, 4, 2, id="simple-rnn-adam-L3"),
])
def test_training_bit_equal_per_name_optimizer_oracle(cell, optimizer, oracle, L, hidden_dim,
                                                      batch_size):
    archive = toy_archive(seed=4)
    cfg = ApcConfig(n=1, L=L, hidden_dim=hidden_dim, cell_kind=cell, optimizer=optimizer,
                    learning_rate=0.01, epochs=3, batch_size=batch_size, seed=6)
    model, _ = train(cfg, archive)
    ref = init_model(model.config)
    opt = oracle(ref, cfg.learning_rate)
    batches = _make_batches(archive, cfg.n, cfg.batch_size)
    assert len(batches) == 4 // batch_size
    for _ in range(cfg.epochs):
        for batch in batches:
            grad = full_grads(ref, batch, 1.0 / batch.shape[0])[1]
            opt.step(ref, grad)
    assert not np.array_equal(ref.theta, init_model(model.config).theta)
    assert_bits(model.theta, ref.theta)


def test_adam_updates_moments_in_place():
    model = init_model(ApcConfig(n=1, L=2, hidden_dim=3, input_dim=2, seed=1))
    ref = init_model(model.config)
    opt, opt_ref = apc._Adam(model.theta, 0.01), AdamByName(ref, 0.01)
    m, v = opt.m, opt.v
    rng = np.random.default_rng(0)
    for _ in range(3):
        grad = rng.standard_normal(model.theta.size)
        step = opt.next_batch()
        for block in model.blocks[::-1]:
            step(block, grad[block].copy())
        opt_ref.step(ref, grad)
    assert opt.m is m and opt.v is v and opt.t == 3
    assert_bits(model.theta, ref.theta)


def test_train_steps_each_block_once_through_one_buffer(monkeypatch):
    calls = []  # per batch: [(block, grad view)] in sink order
    inner = apc._batch_loss_grads

    def keep(model, x, scale, buf, sink):
        calls.append([])

        def seen(block, grad):
            assert grad.shape == (block.stop - block.start,)
            calls[-1].append((block, grad))
            sink(block, grad)

        return inner(model, x, scale, buf, seen)

    monkeypatch.setattr(apc, "_batch_loss_grads", keep)
    cfg = ApcConfig(n=1, L=3, hidden_dim=4, epochs=2, batch_size=2, seed=1)
    model, _ = train(cfg, toy_archive(seed=5, n_utts=3))
    assert len(calls) == cfg.epochs * 2
    # W, then layer 3, 2 and 1, each once per batch
    assert len(model.blocks) == cfg.L + 1
    grads = [grad for batch in calls for _, grad in batch]
    biggest = max(grads, key=len)
    assert len(biggest) == max(b.stop - b.start for b in model.blocks) < model.theta.size
    for batch in calls:
        assert [block for block, _ in batch] == model.blocks[::-1]
    assert all(np.shares_memory(g, biggest) for g in grads)
    assert not any(np.shares_memory(g, model.theta) for g in grads)


def traced_peak(fn):
    fn()  # warm-up
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_gradients_allocate_no_parameter_sized_array():
    model = init_model(ApcConfig(n=1, L=4, hidden_dim=32, input_dim=8, seed=0))
    x = np.random.default_rng(0).standard_normal((1, 3, 8))
    buf = apc._grad_buffer(model)
    peak = traced_peak(lambda: _batch_loss_grads(model, x, 1.0, buf, lambda block, grad: None))
    # one copy of the gradient would take theta.nbytes
    assert peak < model.theta.nbytes // 2


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_layer_backwards_hold_no_prediction_sized_array(cell, monkeypatch):
    # a wide input under a narrow model: the (B, T, d) prediction, its error
    # and their gradient each outweigh every layer's cache together
    B, T, d, H = 2, 64, 256, 4
    model = init_model(ApcConfig(n=1, L=3, hidden_dim=H, input_dim=d, cell_kind=cell,
                                 seed=0))
    x = np.random.default_rng(0).standard_normal((B, T, d))
    buf = apc._grad_buffer(model)
    name = "_lstm_backward" if cell == "lstm" else "_rnn_backward"
    inner = getattr(apc, name)
    live = []

    def spy(layer, cache, dh_out, out):
        live.append(tracemalloc.get_traced_memory()[0])
        return inner(layer, cache, dh_out, out)

    monkeypatch.setattr(apc, name, spy)
    tracemalloc.start()
    try:
        _batch_loss_grads(model, x, 1.0, buf, lambda block, grad: None)
    finally:
        tracemalloc.stop()
    assert len(live) == model.config.L
    # what is live as each backward starts: the caches and dh, under 25H
    # floats a frame; any one of the three output-side arrays adds d
    assert max(live) < x.nbytes / 2, [m / x.nbytes for m in live]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_training_batch_allocates_no_parameter_sized_array(optimizer):
    # the largest block (a hidden layer) is an eighth of theta
    cfg = ApcConfig(n=1, L=8, hidden_dim=32, input_dim=8, optimizer=optimizer, seed=0)
    model = init_model(cfg)
    opt = (apc._Adam if optimizer == "adam" else apc._Sgd)(model.theta, 0.01)
    x = np.random.default_rng(0).standard_normal((1, 3, 8))
    buf = apc._grad_buffer(model)
    peak = traced_peak(lambda: _batch_loss_grads(model, x, 1.0, buf, opt.next_batch()))
    # the old Adam step over the whole vector made two theta-sized temporaries
    assert peak < model.theta.nbytes // 2


def test_lstm_backward_memory_does_not_grow_with_factors():
    H, d = 32, 4
    model = init_model(ApcConfig(n=1, L=1, hidden_dim=H, input_dim=d, seed=0))
    [layer] = model.layers
    rng = np.random.default_rng(0)
    peaks = {}
    for T in (64, 512):
        x = rng.standard_normal((1, T, d))
        # the backward spends its cache: one for the warm-up, one measured
        caches = [apc._lstm_forward(layer, x)[1] for _ in range(2)]
        dh_out = rng.standard_normal((1, T, H))
        grads = grad_layers(model)[0]
        peaks[T] = traced_peak(lambda: apc._lstm_backward(layer, caches.pop(), dh_out, grads))
    per_step = (peaks[512] - peaks[64]) / (512 - 64)
    # only dx (d) grows with T; factors kept for all steps added 10H, and
    # a dz of its own, not written over the gates, 4H
    assert per_step < 4 * H * 8 / 2, per_step


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_forward_only_layers_share_one_input_product_buffer(cell, monkeypatch):
    # input_dim = hidden_dim: both layers are residual
    N, T, H = 4, 300, 32
    model = init_model(ApcConfig(n=1, L=2, hidden_dim=H, input_dim=H, cell_kind=cell,
                                 batch_size=N))
    rng = np.random.default_rng(0)
    groups = [rng.standard_normal((B, t, H)) for B, t in ((3, T), (1, 9), (2, 5))]
    buffers = []
    inner = apc._input_products

    def spy(layer, x, spans, zx=None):
        buffers.append(inner(layer, x, spans, zx))
        return buffers[-1]

    monkeypatch.setattr(apc, "_input_products", spy)
    packs = apc._packs(groups, N)
    assert len(dict(apc._forward_only(model, groups))) == len(groups)
    assert len(buffers) == len(packs) * model.config.L == 4
    for first, second in zip(buffers[::2], buffers[1::2]):
        assert np.shares_memory(first, second)
    assert not np.shares_memory(buffers[0], buffers[2])
    monkeypatch.undo()
    # the pack x, the buffer and two layers' outputs, each the size of x;
    # a residual sum in a fresh array, beside the buffer, would add a third
    x = groups[0]
    G = model.layers[0]["b"].size
    peak = traced_peak(lambda: list(apc._forward_only(model, [x])))
    assert peak < (1 + G // H + 2 + 0.25) * x.nbytes, peak / x.nbytes


def test_training_memory_does_not_grow_with_utterances():
    rng = np.random.default_rng(0)
    d = 64

    def archive(lengths):
        return FeatureArchive({f"u{T:03d}": rng.standard_normal((T, d)).astype(np.float32)
                               for T in lengths}, 10000)

    base, added = range(40, 50), range(10, 40)
    cfg = ApcConfig(n=1, L=1, hidden_dim=4, epochs=1, batch_size=8, seed=0)
    peaks = [traced_peak(lambda: train(cfg, a))
             for a in (archive(base), archive([*base, *added]))]
    added_bytes = sum(added) * d * 4
    # a float64 copy of every utterance would add twice their float32 size
    assert peaks[1] - peaks[0] < added_bytes / 4, (peaks, added_bytes)


def vm_rss():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_adam_moments_start_untouched():
    theta = np.empty(8 << 20)  # 64 MB, never written
    before = vm_rss()
    opt = apc._Adam(theta, 0.01)
    # zeros written into m and v would make 128 MB resident
    assert vm_rss() - before < 16 << 20
    assert opt.m.shape == opt.v.shape == theta.shape


def test_training_with_sgd_and_rnn():
    archive = toy_archive(seed=3)
    cfg = ApcConfig(
        n=2, L=1, hidden_dim=6, epochs=15, batch_size=4,
        cell_kind="simple-rnn", optimizer="sgd", learning_rate=0.005, seed=2,
    )
    _, losses = train(cfg, archive)
    assert losses[-1] < losses[0]


def test_training_input_dim_mismatch():
    archive = toy_archive(dim=3)
    with pytest.raises(UsageError):
        train(ApcConfig(input_dim=5, epochs=1), archive)


def test_training_rejects_too_short_sequences():
    archive = FeatureArchive({"u00": np.ones((3, 2), np.float32)}, 10000)
    with pytest.raises(DataError) as e:
        train(ApcConfig(n=3, epochs=1), archive)
    assert "u00" in str(e.value)


def test_training_detects_divergence():
    archive = FeatureArchive(
        {"u00": np.full((6, 2), 1e30, dtype=np.float32)}, 10000
    )
    cfg = ApcConfig(
        n=1, L=1, hidden_dim=2, cell_kind="simple-rnn",
        optimizer="sgd", learning_rate=1e290, epochs=5, seed=0,
    )
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        train(cfg, archive)


def test_training_stops_at_the_first_diverged_batch(monkeypatch):
    # four lengths, so four batches an epoch; Adam's first step at this
    # rate overflows the weights, and the next batch's loss is NaN
    archive = FeatureArchive({f"u{t}": np.ones((t, 2), np.float32) + np.arange(t)[:, None]
                              for t in (4, 5, 6, 7)}, 10000)
    finite = []

    def recording(*args):
        losses = batch_loss_grads(*args)
        finite.append(bool(np.isfinite(losses.sum())))
        return losses

    batch_loss_grads = apc._batch_loss_grads
    monkeypatch.setattr(apc, "_batch_loss_grads", recording)
    cfg = ApcConfig(n=1, L=1, hidden_dim=4, learning_rate=1e308, epochs=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay quiet
        with pytest.raises(TrainingError, match="loss diverged at epoch 1"):
            train(cfg, archive)
    assert finite == [True, False]  # no batch runs after the first non-finite loss


def test_training_refuses_parameters_the_last_step_diverged():
    # one batch, one epoch: the step that overflows comes after every loss
    archive = FeatureArchive({"u0": np.ones((6, 2), np.float32) + np.arange(6)[:, None]},
                             10000)
    cfg = ApcConfig(n=1, L=1, hidden_dim=4, learning_rate=1e308, epochs=1, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="parameters diverged at epoch 1"):
            train(cfg, archive)


def test_make_batches_buckets_by_length():
    utts = {
        "a": np.ones((6, 2), np.float32),
        "b": np.ones((6, 2), np.float32),
        "c": np.ones((8, 2), np.float32),
        "d": np.ones((6, 2), np.float32),
    }
    archive = FeatureArchive(utts, 10000)
    batches = _make_batches(archive, 1, batch_size=2)
    shapes = sorted(b.shape for b in batches)
    assert shapes == [(1, 6, 2), (1, 8, 2), (2, 6, 2)]


# ---------------------------------------------------------------------------
# extraction


def test_extract_features_shape_and_period():
    archive = toy_archive(dim=3, period=6250)
    cfg = ApcConfig(n=1, L=2, hidden_dim=5, epochs=1, seed=0)
    model, _ = train(cfg, archive)
    out = extract_features(model, archive)
    assert out.dim == 5
    assert out.frame_period == 6250
    assert out.utterance_ids() == archive.utterance_ids()
    for utt in out.utterance_ids():
        assert out.n_frames(utt) == archive.n_frames(utt)
        assert out.frames(utt).dtype == np.float32


def test_extract_features_dim_mismatch():
    archive = toy_archive(dim=3)
    model = init_model(ApcConfig(input_dim=4, hidden_dim=5))
    with pytest.raises(DataError):
        extract_features(model, archive)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    archive = toy_archive()
    model, _ = train(ApcConfig(epochs=2, hidden_dim=4, seed=7), archive)
    path = tmp_path / "apc.ckpt"
    write_outputs(tmp_path, {"apc.ckpt": checkpoint_bytes(model)})
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (na, pa), (nb, pb) in zip(model.param_items(), loaded.param_items()):
        assert na == nb
        assert np.array_equal(pa, pb)
    write_outputs(tmp_path, {"again.ckpt": checkpoint_bytes(loaded)})
    assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()


@pytest.mark.parametrize("cell", ["lstm", "simple-rnn"])
def test_parameters_are_views_into_theta(cell):
    model = init_model(ApcConfig(n=1, L=3, hidden_dim=4, input_dim=3, cell_kind=cell))
    items = list(model.param_items())
    assert [name for name, _ in items] == [
        f"layer{i}.{k}" for i in (1, 2, 3) for k in ("Wx", "Wh", "b")
    ] + ["W"]
    arrays = [layer[k] for layer in model.layers for k in ("Wx", "Wh", "b")] + [model.W]
    assert all(a is p for a, (_, p) in zip(arrays, items))
    for a in arrays:
        assert a.base is not None and np.shares_memory(a, model.theta)
    assert sum(a.size for a in arrays) == model.theta.size
    flat = np.concatenate([a.ravel() for a in arrays])
    assert np.array_equal(flat.view(np.int64), model.theta.view(np.int64))
    model.theta[...] = 0.5
    assert all((a == 0.5).all() for a in arrays)


def test_checkpoint_payload_is_theta(tmp_path):
    model, _ = train(ApcConfig(epochs=2, hidden_dim=4, seed=3), toy_archive())
    raw = checkpoint_bytes(model)
    cfg_len = int.from_bytes(raw[4:8], "little")
    assert raw[8 + cfg_len:] == model.theta.astype("<f8").tobytes()
    assert raw[8 + cfg_len:] == b"".join(
        p.astype("<f8").tobytes() for _, p in model.param_items()
    )
    write_outputs(tmp_path, {"m.ckpt": checkpoint_bytes(model)})
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert_bits(loaded.theta, model.theta)
    assert np.shares_memory(loaded.W, loaded.theta)


def test_checkpoint_malformations(tmp_path):
    model = init_model(ApcConfig(input_dim=2, hidden_dim=3, L=1))
    raw = checkpoint_bytes(model)
    p = tmp_path / "x.ckpt"

    p.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(p)

    p.write_bytes(raw[:6])  # truncated config length
    with pytest.raises(FormatError):
        load_checkpoint(p)

    p.write_bytes(raw[:-8])  # missing one parameter
    with pytest.raises(FormatError):
        load_checkpoint(p)

    for bad in (raw[:-3], raw + bytes(5)):  # not a whole number of float64s
        p.write_bytes(bad)
        with pytest.raises(FormatError, match="parameter payload"):
            load_checkpoint(p)

    cfg_len = int.from_bytes(raw[4:8], "little")
    p.write_bytes(raw[:8] + b"x" * cfg_len + raw[8 + cfg_len:])
    with pytest.raises(FormatError):
        load_checkpoint(p)

    p.write_bytes(raw[:8] + b"\xff" * cfg_len + raw[8 + cfg_len:])  # not UTF-8
    with pytest.raises(FormatError, match="bad config block"):
        load_checkpoint(p)

    for bad in (np.nan, np.inf, -np.inf):
        theta = model.theta.copy()
        theta[-1] = bad
        p.write_bytes(raw[:8 + cfg_len] + theta.astype("<f8").tobytes())
        with pytest.raises(DataError) as info:
            load_checkpoint(p)
        assert str(info.value) == f"{p}: non-finite parameter value"


def test_extracted_features_are_stable_across_reload(tmp_path):
    archive = toy_archive()
    model, _ = train(ApcConfig(epochs=3, hidden_dim=4, seed=11), archive)
    write_outputs(tmp_path, {"m.ckpt": checkpoint_bytes(model)})
    again = load_checkpoint(tmp_path / "m.ckpt")
    a = extract_features(model, archive)
    b = extract_features(again, archive)
    for utt in a.utterance_ids():
        assert np.array_equal(a.frames(utt), b.frames(utt))
