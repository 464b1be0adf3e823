"""The differentiation machinery: the finite-difference oracle's rules and
the properties the model's reverse sweep must have whatever the layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import layers
from gner import model as M
from gner.corpus import Sentence, Token, batch_from_sentences, build_char_vocab, conll_schema
from gner.datagen import make_embedding_store
from helpers import conv_params, widened
from oracles import check_gradient


def test_relu_definition():
    # The rectifier lives inside the fused char conv: a 1x1 identity kernel
    # with zero bias turns the conv into relu of its single input.
    p = conv_params(1, 1, 1, np.random.default_rng(0))
    p.kernels[:] = 1.0
    p.bias[:] = 0.0

    def relu(v):
        return float(layers.conv1d_globalmaxpool(p, np.full((1, 1, 1), v), [1])[0][0, 0])

    assert relu(-2.0) == 0.0
    assert relu(2.0) == 2.0


def _toy(variant="cnn3"):
    sents = [
        Sentence([Token(t) for t in ("Ulm", "mag", "Ulm", ".")], ["B-LOC", "O", "B-LOC", "O"]),
        Sentence([Token(t) for t in ("Anna", "mag", "es")], ["B-PER", "O", "O"]),
    ]
    vocab = build_char_vocab(sents)
    config = M.ModelConfig(label_schema=conll_schema(), char_variant=variant, word_dim=6, char_emb_dim=3,
                           char_cnn_filters=2, char_lstm_cells=3, token_lstm_cells=3, dropout=0.5)
    model = widened(M.build_model(config, vocab, seed=1))
    store = make_embedding_store(sents, dim=6, seed=1)
    batch = batch_from_sentences(sents, vocab, config.required_char_mode)
    L = config.num_labels

    def sweep(d_em):
        # A backward uses its cache up, so each sweep runs the same forward
        # again: the same rng seed gives the same bytes (see
        # test_forward_determinism).
        _, cache = M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(2))
        return M.backward(model, cache, (d_em, np.zeros((L, L)), np.zeros(L), np.zeros(L)))

    return model, store, batch, sweep


def test_forward_determinism():
    # The gradient checks rely on this: a train-mode forward with the same
    # rng seed draws the same dropout masks and gives the same bytes.
    model, store, batch, _ = _toy("bilstm2")

    def run():
        return M.forward_emissions(model, batch, store, mode="train", rng=np.random.default_rng(123))[0]

    assert run().tobytes() == run().tobytes()


def test_gradient_accumulates_on_reuse():
    # "Ulm" sits at two positions that share one deduplicated character
    # row: that row's gradient is the sum over both positions.
    model, _, batch, sweep = _toy()
    first, second = np.zeros((2, 4, 9)), np.zeros((2, 4, 9))
    first[0, 0, 1] = 1.0
    second[0, 2, 1] = 1.0
    one, other, both = sweep(first), sweep(second), sweep(first + second)
    for name in ("char_table.rows", "char_conv0.kernels", "char_conv2.bias"):
        assert np.any(one[name]) and np.any(other[name])
        np.testing.assert_allclose(both[name], one[name] + other[name], rtol=1e-12, atol=1e-15)


def test_bias_broadcast_add():
    # The dense bias is added at every real position, so its gradient sums
    # the emission gradient over them, in row-major order; the entries past
    # a length are zeros that no parameter feeds.
    _, _, batch, sweep = _toy()
    d_em = np.random.default_rng(3).uniform(-1, 1, (2, 4, 9))
    np.testing.assert_array_equal(sweep(d_em)["dense.b"], d_em[batch.mask].sum(axis=0))


@given(
    a=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-4, max_value=4, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_backward_linearity(a, b):
    # The reverse sweep is linear in the emission gradient:
    # sweep(a*f + b*g) == a*sweep(f) + b*sweep(g) for every parameter.
    model, _, _, sweep = _toy()
    rng = np.random.default_rng(4)
    f, g = rng.uniform(-1, 1, (2, 4, 9)), rng.uniform(-1, 1, (2, 4, 9))
    combined, gf, gg = sweep(a * f + b * g), sweep(f), sweep(g)
    for name, _ in model.parameters():
        np.testing.assert_allclose(combined[name], a * gf[name] + b * gg[name], rtol=1e-9, atol=1e-12)


def test_check_gradient_exact_for_linear_loss():
    w = np.array([0.5, -1.0, 2.0])
    x = np.array([1.0, 2.0, 3.0])
    err = check_gradient(lambda: float((w * x).sum()), [w], [x], eps=1e-5, samples=3)
    assert err <= 1e-10


def _abs_loss(x):
    """sum |x| and its gradient: the kind of kink the gradient checker must skip."""
    return (lambda: float(np.abs(x).sum())), [np.sign(x)]


def test_abs_kink_sample_is_skipped():
    x = np.array([0.0, 0.5])
    loss, grads = _abs_loss(x)
    err, stats = check_gradient(loss, [x], grads, eps=1e-5, samples=2, return_stats=True)
    assert stats == {"checked": 1, "skipped": 1}
    assert err <= 1e-10

    smooth = np.array([-0.3])
    loss, grads = _abs_loss(smooth)
    err, stats = check_gradient(loss, [smooth], grads, samples=1, return_stats=True)
    assert stats == {"checked": 1, "skipped": 0}
    assert err <= 1e-10

    at_kink = np.zeros(3)
    loss, grads = _abs_loss(at_kink)
    with pytest.raises(ValueError, match="kink"):
        check_gradient(loss, [at_kink], grads, samples=3)
