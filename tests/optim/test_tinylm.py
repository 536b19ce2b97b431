"""Tests for the numpy transformer LM, including gradient checks."""

import numpy as np
import pytest

from repro.optim import LmConfig, TinyTransformerLM, causal_mask, gelu, layer_norm
from repro.optim.tinylm import gelu_grad, softmax


def small_config(**kw):
    defaults = dict(
        vocab_size=11, d_model=12, n_heads=2, n_layers=2, seq_len=7, dtype=np.float64
    )
    defaults.update(kw)
    return LmConfig(**defaults)


def _grad_check(config, n_probes=3, seed=0):
    model = TinyTransformerLM(config, seed=1)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, config.vocab_size, (2, config.seq_len))
    targets = rng.integers(0, config.vocab_size, (2, config.seq_len))
    _, grads = model.loss_and_grads(tokens, targets)
    for name, p in model.params.items():
        for _ in range(n_probes):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            eps = 1e-6
            orig = p[idx]
            p[idx] = orig + eps
            lp = model.loss(tokens, targets)
            p[idx] = orig - eps
            lm = model.loss(tokens, targets)
            p[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            assert grads[name][idx] == pytest.approx(numeric, abs=1e-5), (name, idx)


def test_gradients_serial_block():
    _grad_check(small_config(parallel_block=False))


def test_gradients_parallel_block():
    _grad_check(small_config(parallel_block=True))


def test_gradients_sliding_window():
    _grad_check(small_config(attention_window=3))


def test_causal_mask_structure():
    mask = causal_mask(5, window=None)
    assert mask[4, 0] and mask[2, 2]
    assert not mask[0, 1]  # no peeking forward
    windowed = causal_mask(5, window=2)
    assert windowed[4, 3] and windowed[4, 4]
    assert not windowed[4, 0]  # outside the window


def test_forward_shapes_and_determinism():
    config = small_config()
    model = TinyTransformerLM(config, seed=3)
    tokens = np.zeros((4, config.seq_len), dtype=np.int64)
    logits, _ = model.forward(tokens)
    assert logits.shape == (4, config.seq_len, config.vocab_size)
    logits2, _ = model.forward(tokens)
    assert np.array_equal(logits, logits2)


def test_forward_validation():
    config = small_config()
    model = TinyTransformerLM(config)
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, config.seq_len + 1), dtype=np.int64))
    with pytest.raises(ValueError):
        model.forward(np.zeros(config.seq_len, dtype=np.int64))


def test_initial_loss_near_uniform():
    config = small_config()
    model = TinyTransformerLM(config, seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, config.vocab_size, (8, config.seq_len))
    targets = rng.integers(0, config.vocab_size, (8, config.seq_len))
    assert model.loss(tokens, targets) == pytest.approx(np.log(config.vocab_size), abs=0.7)


def test_window_restricts_information_flow():
    # With window=1 each position only sees itself: changing an early
    # token must not change a late position's logits (beyond its own slot).
    config = small_config(attention_window=1, n_layers=1)
    model = TinyTransformerLM(config, seed=0)
    base = np.zeros((1, config.seq_len), dtype=np.int64)
    changed = base.copy()
    changed[0, 0] = 5
    logits_a, _ = model.forward(base)
    logits_b, _ = model.forward(changed)
    assert not np.allclose(logits_a[0, 0], logits_b[0, 0])
    assert np.allclose(logits_a[0, -1], logits_b[0, -1])


def test_causality_holds():
    # Future tokens never affect past logits.
    config = small_config()
    model = TinyTransformerLM(config, seed=0)
    base = np.zeros((1, config.seq_len), dtype=np.int64)
    changed = base.copy()
    changed[0, -1] = 7
    logits_a, _ = model.forward(base)
    logits_b, _ = model.forward(changed)
    assert np.allclose(logits_a[0, :-1], logits_b[0, :-1])


def test_config_validation():
    with pytest.raises(ValueError):
        LmConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        LmConfig(attention_window=0)


def test_n_params_counts_everything():
    config = small_config()
    model = TinyTransformerLM(config)
    assert model.n_params == sum(v.size for v in model.params.values())
    # Parallel block drops one LayerNorm per layer.
    ptb = TinyTransformerLM(small_config(parallel_block=True))
    assert ptb.n_params < model.n_params


def test_primitives():
    x = np.linspace(-3, 3, 13)
    assert gelu(x).shape == x.shape
    numeric = (gelu(x + 1e-6) - gelu(x - 1e-6)) / 2e-6
    assert np.allclose(gelu_grad(x), numeric, atol=1e-5)
    probs = softmax(np.array([[1.0, 2.0, 3.0]]))
    assert probs.sum() == pytest.approx(1.0)
    y, cache = layer_norm(np.random.default_rng(0).standard_normal((2, 8)), np.ones(8), np.zeros(8))
    assert y.mean(-1) == pytest.approx(np.zeros(2), abs=1e-6)
