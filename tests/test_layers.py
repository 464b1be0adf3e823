import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import crf, layers
from gner import model as M
from gner.corpus import PAD_INDEX, build_char_vocab, germeval_schema
from gner.datagen import make_corpus
from helpers import bilstm_backward_padded, bilstm_padded, char_table, conv_params, crf_params, lstm_params, placed
from oracles import check_gradient, reference_conv1d_backward, reference_conv1d_globalmaxpool


def _lstm(input_dim, cells, seed=0):
    return lstm_params(input_dim, cells, np.random.default_rng(seed))


def _zero_lstm(input_dim, cells):
    p = _lstm(input_dim, cells)
    p.w_input[:] = 0.0
    p.w_recurrent[:] = 0.0
    p.bias[:] = 0.0
    return p


# ---------------------------------------------------------------------------
# Step-by-step reference: the composition the fused bilstm_sequence replaced,
# one cell update per timestep in plain numpy over every row, with the rows
# past their length blended back to their previous state.  It uses only
# analytic operations, so it also runs on complex arrays: its complex-step
# derivatives are gradients exact to rounding, an oracle for the
# hand-written BPTT.


def ref_cell_step(params, x_t, h_prev, c_prev):
    z = x_t @ params.w_input + h_prev @ params.w_recurrent + params.bias
    n = params.cells
    zi, zf, zg, zo = (z[..., k * n : (k + 1) * n] for k in range(4))
    i, f, o = (1.0 / (1.0 + np.exp(-v)) for v in (zi, zf, zo))
    g = np.tanh(zg)
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t


def ref_direction(params, x, lengths, order, rec_mask):
    batch, steps, _ = x.shape
    h = np.zeros((batch, params.cells), dtype=x.dtype)
    c = np.zeros((batch, params.cells), dtype=x.dtype)
    out = np.zeros((batch, steps, params.cells), dtype=np.result_type(x, params.w_input))
    for t in order:
        keep = (t < np.asarray(lengths))[:, None].astype(np.float64)
        h_in = h if rec_mask is None else h * rec_mask
        h_new, c_new = ref_cell_step(params, x[:, t], h_in, c)
        h = h_new * keep + h * (1.0 - keep)
        c = c_new * keep + c * (1.0 - keep)
        out[:, t] = h * keep
    return out


def ref_bilstm(fwd, bwd, x, lengths, dropout=0.0, mode="eval", rng=None):
    batch, steps, width = x.shape
    rec = [None, None]
    if mode == "train" and dropout > 0.0:
        # One input mask per row, then one recurrent mask per direction.
        x = x * layers.dropout_mask((batch, width), dropout, rng, np.float64)[:, None, :]
        rec = [layers.dropout_mask((batch, p.cells), dropout, rng, np.float64) for p in (fwd, bwd)]
    return np.concatenate([ref_direction(fwd, x, lengths, range(steps), rec[0]),
                           ref_direction(bwd, x, lengths, range(steps - 1, -1, -1), rec[1])], axis=-1)


def complex_step_grads(loss, arrays, h=1e-30):
    """d loss / d array for each array, one complex-step evaluation per
    entry: ``Im(loss(a + ih)) / h`` is exact to rounding for analytic
    ``loss``, which reads the arrays as they are when called."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros(a.shape)
        for i in range(a.size):
            probe = [b.astype(complex) for b in arrays]
            probe[k].flat[i] += 1j * h
            g.flat[i] = loss(*probe).imag / h
        grads.append(g)
    return grads


def bilstm_loss_and_grads(fwd, bwd, x, lengths, weights, **kwargs):
    """``sum(bilstm_sequence(...) * weights)`` under a train-mode forward,
    with the input's gradient and each direction's parameter gradients."""
    out, cache = bilstm_padded(fwd, bwd, x, lengths, mode="train", **kwargs)
    dx, (gf, gb) = bilstm_backward_padded(cache, weights)
    return float((out * weights).sum()), dx, gf, gb


def test_lstm_step_all_zero_gives_zero_state():
    p = _zero_lstm(3, 2)
    out, _ = bilstm_padded(p, p, np.zeros((1, 1, 3)), [1])
    np.testing.assert_array_equal(out, np.zeros((1, 1, 4)))


def test_lstm_step_output_shape():
    p = _lstm(32, 50)
    out, _ = bilstm_padded(p, p, np.ones((1, 1, 32)), [1])
    assert out.shape == (1, 1, 100)


def test_lstm_step_matches_scalar_oracle():
    # Independent scalar-arithmetic reference for a 2-cell LSTM run over two
    # steps from the zero state, so the second step exercises the recurrent
    # weights and the carried cell.
    rng = np.random.default_rng(11)
    fwd, bwd = _lstm(3, 2, seed=5), _lstm(3, 2, seed=6)
    x = rng.uniform(-1, 1, (2, 3))

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def scalar_step(p, x_t, h0, c0):
        wi, wr, b = p.w_input, p.w_recurrent, p.bias
        hs, cs = [], []
        for j in range(2):
            z = [0.0] * 4
            for k in range(4):
                col = k * 2 + j
                acc = b[col]
                for a in range(3):
                    acc += x_t[a] * wi[a, col]
                for a in range(2):
                    acc += h0[a] * wr[a, col]
                z[k] = acc
            i_g, f_g, g_g, o_g = sig(z[0]), sig(z[1]), math.tanh(z[2]), sig(z[3])
            c_new = f_g * c0[j] + i_g * g_g
            cs.append(c_new)
            hs.append(o_g * math.tanh(c_new))
        return hs, cs

    expect = np.zeros((2, 4))
    for p, order, half in ((fwd, (0, 1), slice(0, 2)), (bwd, (1, 0), slice(2, 4))):
        h, c = [0.0, 0.0], [0.0, 0.0]
        for t in order:
            h, c = scalar_step(p, x[t], h, c)
            expect[t, half] = h

    out, _ = bilstm_padded(fwd, bwd, x[None], [2])
    np.testing.assert_allclose(out[0], expect, atol=1e-12)


def test_lstm_step_dimension_mismatch():
    p = _lstm(3, 2)
    with pytest.raises(layers.LayerError, match="input dim"):
        bilstm_padded(p, p, np.zeros((1, 1, 4)), [1])


def _as_dtype(params, dtype):
    """A copy of LSTM or conv params with every array cast to ``dtype``."""
    fields = {k: v.astype(dtype) if isinstance(v, np.ndarray) else v for k, v in vars(params).items()}
    return type(params)(**fields)


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float64, np.float32), (np.float32, np.float64)])
def test_fused_ops_reject_an_input_dtype_other_than_their_weights(x_dtype, w_dtype):
    # A float64 input would upcast every float32 matmul (and the other way
    # round narrow it) without notice; both ops refuse instead, and so do
    # the backward passes given a gradient of the other dtype.
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, (2, 4, 3)).astype(x_dtype)
    p = _as_dtype(_lstm(3, 2), w_dtype)
    conv = _as_dtype(conv_params(3, 3, 2, rng), w_dtype)
    with pytest.raises(layers.LayerError, match="bilstm_sequence: .* input, .* weights"):
        bilstm_padded(p, p, x, [4, 2])
    with pytest.raises(layers.LayerError, match="conv1d_globalmaxpool: .* input, .* kernels"):
        layers.conv1d_globalmaxpool(conv, x, [4, 2])
    _, cache = bilstm_padded(p, p, x.astype(w_dtype), [4, 2], mode="train")
    with pytest.raises(layers.LayerError, match="bilstm_backward: .* gradient, .* weights"):
        bilstm_backward_padded(cache, np.zeros((2, 4, 4), dtype=x_dtype))
    _, cache = layers.conv1d_globalmaxpool(conv, x.astype(w_dtype), [4, 2], mode="train")
    with pytest.raises(layers.LayerError, match="conv1d_backward: .* gradient, .* kernels"):
        layers.conv1d_backward(cache, np.zeros((2, 2), dtype=x_dtype))
    table = char_table(5, 3, rng).astype(w_dtype)
    with pytest.raises(layers.LayerError, match="embed_backward: .* gradient, .* table"):
        layers.embed_backward(table, [[1, 2]], np.zeros((1, 2, 3), dtype=x_dtype))


def test_fused_ops_run_in_float32_and_stay_close_to_float64():
    rng = np.random.default_rng(32)
    x = rng.uniform(-1, 1, (3, 5, 4))
    p, conv = _lstm(4, 3, 7), conv_params(3, 4, 2, rng)
    p.bias[:] = rng.uniform(-0.5, 0.5, p.bias.shape)
    conv.bias[:] = rng.uniform(-0.5, 0.5, conv.bias.shape)
    lengths = [5, 2, 4]
    for run in (lambda q, c, v: bilstm_padded(q, q, v, lengths)[0],
                lambda q, c, v: layers.conv1d_globalmaxpool(c, v, lengths)[0]):
        want = run(p, conv, x)
        got = run(_as_dtype(p, np.float32), _as_dtype(conv, np.float32), x.astype(np.float32))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_logistic_tanh_form():
    x = np.linspace(-40.0, 40.0, 80001)
    np.testing.assert_allclose(layers.logistic(x), 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=4.5e-16)
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(layers.logistic(np.array([-1e4, 1e4])), [0.0, 1.0])
        tails = layers.logistic(np.array([-1e4, 1e4], dtype=np.float32))
    np.testing.assert_array_equal(tails, [0.0, 1.0])
    assert layers.logistic(np.linspace(-3, 3, 7, dtype=np.float32)).dtype == np.float32


def _assert_uniform_within(p, limit):
    # Within the limit, and not drawn from a much narrower range.
    assert np.abs(p).max() <= limit and np.abs(p).max() > 0.5 * limit


def test_forget_gate_bias_initialized_to_one():
    # build_model's initializer, rule by rule, over every variant's float64
    # draws, which a built model holds rounded to float32.
    sents = make_corpus(3, seed=0)
    for variant in M.CHAR_VARIANTS:
        config = M.ModelConfig(germeval_schema(), char_variant=variant, word_dim=8, char_emb_dim=4,
                               char_cnn_filters=3, char_lstm_cells=5, token_lstm_cells=6)
        vocab = build_char_vocab(sents) if variant != "none" else None
        model = M._assemble(config, vocab, M._initial(np.random.default_rng(3)))
        built = dict(M.build_model(config, vocab, seed=3).parameters())
        drawn = set()
        for name, p in model.parameters():
            kind = name.rsplit(".", 1)[-1]
            assert p.dtype == np.float64 and built[name].dtype == np.float32
            assert built[name].tobytes() == p.astype(np.float32).tobytes(), name
            if name == "char_table.rows":
                np.testing.assert_array_equal(p[PAD_INDEX], 0.0)
                _assert_uniform_within(np.delete(p, PAD_INDEX, axis=0), math.sqrt(3.0 / p.shape[1]))
                drawn.add(name)
            elif kind in ("w_input", "kernels") or name == "dense.w":
                # Glorot-uniform; a conv kernel's fan-in is kernel_size * in_dim.
                _assert_uniform_within(p, math.sqrt(6.0 / (math.prod(p.shape[:-1]) + p.shape[-1])))
                drawn.add(name)
            elif kind == "w_recurrent":
                n = p.shape[0]
                for k in range(4):
                    gate = p[:, k * n : (k + 1) * n]
                    np.testing.assert_allclose(gate.T @ gate, np.eye(n), rtol=0, atol=1e-12)
                drawn.add(name)
            elif "lstm" in name and kind == "bias":
                n = p.shape[0] // 4
                np.testing.assert_array_equal(p[n : 2 * n], 1.0)
                np.testing.assert_array_equal(np.delete(p, np.s_[n : 2 * n]), 0.0)
            else:  # conv and dense biases, the CRF
                np.testing.assert_array_equal(p, 0.0)
        same, other = (M.build_model(config, vocab, seed=s).parameters() for s in (3, 4))
        for (name, p), (_, q), (_, r) in zip(built.items(), same, other):
            np.testing.assert_array_equal(p, q)
            assert np.array_equal(p, r) == (name not in drawn), name


def _seq(rng, n, dim):
    return rng.uniform(-1, 1, (1, n, dim))


def test_bilstm_output_width_is_twice_cells():
    rng = np.random.default_rng(0)
    out, _ = bilstm_padded(_lstm(8, 50, 1), _lstm(8, 50, 2), _seq(rng, 4, 8), [4])
    assert out.shape == (1, 4, 100)


def test_bilstm_length_one_concatenates_both_directions_on_same_element():
    rng = np.random.default_rng(1)
    fwd, bwd = _lstm(4, 3, 1), _lstm(4, 3, 2)
    x = _seq(rng, 1, 4)
    out, _ = bilstm_padded(fwd, bwd, x, [1])
    x0, zero = x[:, 0], np.zeros((1, 3))
    hf, _ = ref_cell_step(fwd, x0, zero, zero)
    hb, _ = ref_cell_step(bwd, x0, zero, zero)
    np.testing.assert_allclose(out[:, 0], np.concatenate([hf, hb], axis=1))


def test_bilstm_empty_sequence_rejected():
    with pytest.raises(layers.LayerError, match="lengths"):
        bilstm_padded(_lstm(4, 3), _lstm(4, 3), np.zeros((1, 0, 4)), [1])


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(3)
    fwd, bwd = _lstm(5, 4, 1), _lstm(5, 4, 2)
    xs = _seq(rng, 6, 5)
    out = bilstm_padded(fwd, bwd, xs, [6])[0][0]
    swapped = bilstm_padded(bwd, fwd, xs[:, ::-1], [6])[0][0]
    for t in range(6):
        fwd_half, bwd_half = out[t, :4], out[t, 4:]
        np.testing.assert_allclose(swapped[5 - t], np.concatenate([bwd_half, fwd_half]), atol=1e-12)


def test_bilstm_masked_positions_are_zero_and_skip_state():
    # Positions past the row's length are zero, and the rest is the same as
    # running the row's real prefix alone.
    rng = np.random.default_rng(4)
    fwd, bwd = _lstm(3, 2, 1), _lstm(3, 2, 2)
    xs = _seq(rng, 4, 3)
    out = bilstm_padded(fwd, bwd, xs, [2])[0][0]
    np.testing.assert_array_equal(out[2], np.zeros(4))
    np.testing.assert_array_equal(out[3], np.zeros(4))
    ref = bilstm_padded(fwd, bwd, xs[:, :2], [2])[0][0]
    for t in range(2):
        np.testing.assert_allclose(out[t], ref[t], atol=1e-12)


def test_masked_positions_contribute_zero_gradient():
    # Whatever the input past the row's length holds, it takes no gradient
    # and leaves the parameter gradients unchanged.
    rng = np.random.default_rng(5)
    fwd, bwd = _lstm(3, 2, 1), _lstm(3, 2, 2)
    xs = _seq(rng, 3, 3)

    def grads_with(x2):
        seq = xs.copy()
        seq[0, 2] = x2
        _, dx, gf, gb = bilstm_loss_and_grads(fwd, bwd, seq, [2], np.ones((1, 3, 4)))
        np.testing.assert_array_equal(dx[0, 2], 0.0)
        return gf + gb

    a = grads_with(rng.uniform(-1, 1, 3))
    b = grads_with(rng.uniform(-1, 1, 3))
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga, gb)


def test_bilstm_gradient_check_with_mask():
    # The row ends one step before the padded width.
    rng = np.random.default_rng(6)
    fwd, bwd = _lstm(3, 2, 7), _lstm(3, 2, 8)
    xs = _seq(rng, 4, 3)
    weights = rng.uniform(-1, 1, (1, 4, 4))
    _, _, gf, gb = bilstm_loss_and_grads(fwd, bwd, xs, [3], weights)

    def loss():
        return float((bilstm_padded(fwd, bwd, xs, [3])[0] * weights).sum())

    params = [fwd.w_input, fwd.w_recurrent, fwd.bias, bwd.w_input, bwd.w_recurrent, bwd.bias]
    assert check_gradient(loss, params, [*gf, *gb], eps=1e-5, samples=60) <= 1e-4


def _check_against_step_reference(lengths, mode, rate, seed):
    rng = np.random.default_rng(seed)
    batch, steps = len(lengths), max(lengths)
    fwd, bwd = _lstm(5, 3, 1), _lstm(5, 3, 2)
    x = rng.uniform(-1, 1, (batch, steps, 5))
    weights = rng.uniform(-1, 1, (batch, steps, 6))
    arrays = [x, fwd.w_input, fwd.w_recurrent, fwd.bias, bwd.w_input, bwd.w_recurrent, bwd.bias]

    def ref(x, *weights_and_biases):
        f, b = (layers.LstmParams(*weights_and_biases[k : k + 3]) for k in (0, 3))
        return ref_bilstm(f, b, x, lengths, dropout=rate, mode=mode, rng=np.random.default_rng(8))

    fused, _ = bilstm_padded(fwd, bwd, x, lengths, dropout=rate, mode=mode, rng=np.random.default_rng(8))
    np.testing.assert_allclose(fused, ref(*arrays), rtol=1e-12, atol=1e-12)
    # Gradients come from the train path; with rate 0 it computes what eval does.
    _, dx, gf, gb = bilstm_loss_and_grads(fwd, bwd, x, lengths, weights, dropout=rate,
                                          rng=np.random.default_rng(8))
    want = complex_step_grads(lambda *a: (ref(*a) * weights).sum(), arrays)
    for got, w in zip([dx, *gf, *gb], want):
        np.testing.assert_allclose(got, w, rtol=1e-12, atol=1e-12)
    # Positions past each row's length emit zeros and take no gradient.
    past = np.arange(steps) >= np.asarray(lengths)[:, None]
    np.testing.assert_array_equal(fused[past], 0.0)
    np.testing.assert_array_equal(dx[past], 0.0)


@pytest.mark.parametrize("mode,rate", [("eval", 0.0), ("train", 0.0), ("train", 0.5)])
def test_fused_bilstm_matches_step_reference(mode, rate):
    # Post-padded rows of unsorted lengths, with ties, a row of length 1 and
    # one spanning every step.
    _check_against_step_reference([3, 1, 6, 1, 5, 3], mode, rate, seed=21)


@pytest.mark.parametrize("layout", ["prefix"])
@pytest.mark.parametrize("mode,rate", [("eval", 0.0), ("train", 0.0), ("train", 0.5)])
def test_sorted_schedule_matches_step_reference(mode, rate, layout):
    # Post-padded rows (each a prefix of its row) with unsorted lengths.
    lengths = np.array([3, 2, 6, 1, 5, 3])
    # Every step then runs on a leading slice of the length-sorted rows.
    _, order, running = layers.length_schedule(lengths, 6, 6)
    for t, n in enumerate(running):
        assert (lengths[order[:n]] > t).all() and (lengths[order[n:]] <= t).all()
    _check_against_step_reference(lengths, mode, rate, seed=23)


def test_length_schedule_orders_rows_and_counts_running_rows():
    lengths, order, running = layers.length_schedule([3, 1, 6, 1, 5, 3], 6, 6)
    np.testing.assert_array_equal(lengths, [3, 1, 6, 1, 5, 3])
    np.testing.assert_array_equal(order, [2, 4, 0, 5, 1, 3])  # ties keep batch order
    assert running == [6, 4, 4, 2, 2, 1]


def test_every_sequence_op_rejects_lengths_outside_one_to_steps():
    # A length of 0, or one past the padded width, names no real sequence;
    # a missing or extra row does not describe the batch.
    rng = np.random.default_rng(24)
    x = rng.uniform(-1, 1, (2, 4, 3))
    p = _lstm(3, 2)
    conv = conv_params(3, 3, 2, rng)
    cp = crf_params(3)
    for bad in ([0, 4], [4, 5], [4], [4, 4, 4]):
        with pytest.raises(layers.LayerError, match="lengths"):
            bilstm_padded(p, p, x, bad)
        with pytest.raises(layers.LayerError, match="lengths"):
            layers.conv1d_globalmaxpool(conv, x, bad)
        with pytest.raises(crf.CrfError, match="lengths"):
            crf.crf_negative_log_likelihood(cp, x, np.zeros((2, 4)), bad)
        with pytest.raises(crf.CrfError, match="lengths"):
            crf.viterbi_decode(cp, x, bad)


def test_fused_bilstm_input_gradient_check():
    rng = np.random.default_rng(22)
    fwd, bwd = _lstm(3, 2, 3), _lstm(3, 2, 4)
    lengths = [5, 1, 3]
    x = rng.uniform(-1, 1, (3, 5, 3))
    weights = rng.uniform(-1, 1, (3, 5, 4))
    _, dx, _, _ = bilstm_loss_and_grads(fwd, bwd, x, lengths, weights)

    def loss():
        return float((bilstm_padded(fwd, bwd, x, lengths)[0] * weights).sum())

    assert check_gradient(loss, [x], [dx], eps=1e-5, samples=45) <= 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("table_rows, lengths", [
    (1, [4, 1, 3, 1, 4, 2]), (3, [4, 1, 3, 1, 4, 2]), (4, [4, 1, 3, 1, 4, 2]), (9, [4, 1, 3, 1, 4, 2]),
    (40, [4, 1, 3, 1, 4, 2]), (2, [1, 1]), (5, [3])])
def test_keyed_input_matches_the_gathered_padded_input(dtype, table_rows, lengths):
    # A (rows, in) table plus a (batch, steps) index, with rows repeated
    # across and within sequences, gives what the padded gather of it gives.
    rng = np.random.default_rng(table_rows)
    fwd, bwd = (_as_dtype(_lstm(24, 7, seed), dtype) for seed in (1, 2))
    batch, steps = len(lengths), max(lengths)
    real = np.arange(steps) < np.asarray(lengths)[:, None]
    table = rng.uniform(-1, 1, (table_rows, 24)).astype(dtype)
    index = rng.integers(0, table_rows, (batch, steps))
    padded = np.where(real[..., None], table[index], 0.0).astype(dtype)
    index[~real] = table_rows + 5  # read only at real positions
    weights = rng.uniform(-1, 1, (batch, steps, 14)).astype(dtype)

    def same(got, want):
        # Both inputs project the same real positions' rows.
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def keyed(x, **kwargs):
        out, place, _ = layers.bilstm_sequence(fwd, bwd, x, index, lengths, **kwargs)
        return placed(out, place, batch, steps)

    same(keyed(table), bilstm_padded(fwd, bwd, padded, lengths)[0])
    # A table of gate inputs, each row projected by both directions, gives
    # the same output up to the projection's rounding.
    gates = np.concatenate([table @ fwd.w_input, table @ bwd.w_input], axis=1)
    got = keyed(gates, projected=True)
    want = bilstm_padded(fwd, bwd, padded, lengths)[0]
    assert got.dtype == dtype and np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    out, place, cache = layers.bilstm_sequence(fwd, bwd, table, index, lengths, dropout=0.3,
                                               mode="train", rng=np.random.default_rng(9))
    d_table, keyed_grads = layers.bilstm_backward(cache, weights[place])
    want_out, cache = bilstm_padded(fwd, bwd, padded, lengths, dropout=0.3, mode="train",
                                    rng=np.random.default_rng(9))
    d_padded, want = bilstm_backward_padded(cache, weights)
    same(placed(out, place, batch, steps), want_out)
    for got_grads, want_grads in zip(keyed_grads, want):
        for got, w in zip(got_grads, want_grads):
            same(got, w)
    # A table row's gradient sums its positions' gradients, in row-major order.
    want_rows = np.zeros_like(table)
    np.add.at(want_rows, index[real], d_padded[real])
    same(d_table, want_rows)


@pytest.mark.parametrize("keyed", [False, True])
def test_bilstm_backward_returns_the_input_columns_from_input_from_on(keyed):
    # The narrower product may sum in another order than the full one (a
    # small product takes another BLAS kernel), so the columns agree to
    # rounding; the parameter gradients do not depend on input_from.
    rng = np.random.default_rng(17)
    fwd, bwd = _lstm(6, 3, seed=1), _lstm(6, 3, seed=2)
    lengths = [4, 2, 3]
    # A backward uses its cache up, so each one runs the forward again.
    if keyed:
        x, index = rng.uniform(-1, 1, (5, 6)), rng.integers(0, 5, (3, 4))
        out, place, _ = layers.bilstm_sequence(fwd, bwd, x, index, lengths, mode="train")
        out = placed(out, place, 3, 4)

        def backward(grad, input_from=0):
            _, place, cache = layers.bilstm_sequence(fwd, bwd, x, index, lengths, mode="train")
            return layers.bilstm_backward(cache, grad[place], input_from)
    else:
        x = rng.uniform(-1, 1, (3, 4, 6))
        out, _ = bilstm_padded(fwd, bwd, x, lengths, mode="train")

        def backward(grad, input_from=0):
            return bilstm_backward_padded(bilstm_padded(fwd, bwd, x, lengths, mode="train")[1], grad, input_from)
    weights = rng.uniform(-1, 1, out.shape)
    full, want = backward(weights)
    assert full.shape == x.shape

    def same_params(got):
        return all(np.array_equal(g, w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))

    for start in (0, 2, 5):
        dx, got = backward(weights, input_from=start)
        assert dx.shape == x.shape[:-1] + (6 - start,)
        np.testing.assert_allclose(dx, full[..., start:], rtol=1e-12, atol=1e-15)
        assert same_params(got)
    dx, got = backward(weights, input_from=None)
    assert dx is None and same_params(got)


def test_keyed_input_rejects_an_index_outside_the_table():
    p = _lstm(3, 2)
    with pytest.raises(layers.LayerError, match="index outside the table's 2 rows"):
        layers.bilstm_sequence(p, p, np.zeros((2, 3)), [[0, 2], [1, 9]], [2, 1])
    with pytest.raises(layers.LayerError, match=r"a \(rows, in\) table and a \(batch, steps\) index"):
        layers.bilstm_sequence(p, p, np.zeros((2, 2, 3)), [[0, 1], [1, 0]], [2, 1])
    for width, mode in ((16, "train"), (3, "eval")):
        with pytest.raises(layers.LayerError, match="a projected input is an eval-mode"):
            layers.bilstm_sequence(p, p, np.zeros((2, width)), [[0, 1], [1, 0]], [2, 1], mode=mode,
                                   projected=True)


def test_bilstm_backward_uses_its_cache_up():
    # BPTT writes each position's gate gradient over its gates, so a second
    # backward on the same cache would read gradients as gates: it raises.
    fwd, bwd = _lstm(4, 3, seed=1), _lstm(4, 3, seed=2)
    x = np.random.default_rng(30).uniform(-1, 1, (5, 4))
    index, lengths = [[0, 1, 2], [3, 4, 0]], [3, 2]
    out, _, cache = layers.bilstm_sequence(fwd, bwd, x, index, lengths, mode="train")
    first = layers.bilstm_backward(cache, np.ones_like(out))
    with pytest.raises(layers.LayerError, match="used up by an earlier backward"):
        layers.bilstm_backward(cache, np.ones_like(out))
    # A new forward gives a new cache, and the same gradients.
    _, _, cache = layers.bilstm_sequence(fwd, bwd, x, index, lengths, mode="train")
    again = layers.bilstm_backward(cache, np.ones_like(out))
    np.testing.assert_array_equal(again[0], first[0])
    for got, want in zip(again[1], first[1]):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_input_dropout_masks_each_row_and_its_gradient():
    # One mask per batch row over the input columns, drawn before the
    # recurrent masks: the gathered rows are the table's rows times their
    # row's mask, and each table row's gradient sums its positions' masked
    # gradients in row-major order.
    rng = np.random.default_rng(32)
    fwd, bwd = _lstm(6, 3, seed=1), _lstm(6, 3, seed=2)
    lengths = [4, 1, 3]
    batch, steps = 3, 4
    table, index = rng.uniform(-1, 1, (5, 6)), rng.integers(0, 5, (batch, steps))
    weights = rng.uniform(-1, 1, (batch, steps, 6))
    out, place, cache = layers.bilstm_sequence(fwd, bwd, table, index, lengths, dropout=0.4, mode="train",
                                               rng=np.random.default_rng(9))
    rows = cache[6]
    d_table, _ = layers.bilstm_backward(cache, weights[place])
    mask = layers.dropout_mask((batch, 6), 0.4, np.random.default_rng(9), np.float64)
    assert (mask == 0).any()
    np.testing.assert_array_equal(rows, table[index[place]] * mask[place[0]])
    # The step reference, run on each position's table row, gives the same
    # output and, by complex step, the same table gradient.
    def ref(t):
        return ref_bilstm(fwd, bwd, t[index], lengths, dropout=0.4, mode="train", rng=np.random.default_rng(9))

    np.testing.assert_allclose(placed(out, place, batch, steps), ref(table), rtol=1e-12, atol=1e-12)
    (want,) = complex_step_grads(lambda t: (ref(t) * weights).sum(), [table])
    np.testing.assert_allclose(d_table, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(layers.LayerError, match="dropout in train mode needs an rng"):
        layers.bilstm_sequence(fwd, bwd, table, index, lengths, mode="train", dropout=0.4)


def _valid(p, x):
    """Window counts that keep every window inside its row (a valid conv)."""
    rows, steps, _ = x.shape
    return np.full(rows, steps - p.kernel_size + 1)


def _conv(p, x, lengths):
    return layers.conv1d_globalmaxpool(p, x, lengths)[0]


def _conv_grads(p, x, lengths, weights):
    """Gradients of ``sum(conv1d_globalmaxpool(p, x, lengths) * weights)``
    w.r.t. the input, the kernels and the bias."""
    _, cache = layers.conv1d_globalmaxpool(p, x, lengths, mode="train")
    return layers.conv1d_backward(cache, weights)


def test_conv_sum_kernel():
    p = conv_params(3, 1, 1, np.random.default_rng(0))
    p.kernels[:] = 1.0
    p.bias[:] = 0.0
    x = np.array([[[1.0], [2.0], [3.0]]])
    np.testing.assert_array_equal(_conv(p, x, _valid(p, x)), np.array([[6.0]]))


def test_conv_per_filter_columnwise_max():
    # Two positions with activations [[1,5],[3,2]] pool to [3,5].
    p = conv_params(1, 2, 2, np.random.default_rng(0))
    p.kernels[:] = 0.0
    p.kernels[0, 0, 0] = 1.0
    p.kernels[0, 1, 1] = 1.0
    p.bias[:] = 0.0
    x = np.array([[[1.0, 5.0], [3.0, 2.0]]])
    np.testing.assert_array_equal(_conv(p, x, _valid(p, x)), np.array([[3.0, 5.0]]))


def test_conv_relu_floor():
    p = conv_params(2, 1, 1, np.random.default_rng(0))
    p.kernels[:] = 1.0
    p.bias[:] = -100.0
    x = np.ones((1, 3, 1))
    np.testing.assert_array_equal(_conv(p, x, _valid(p, x)), np.array([[0.0]]))
    # Positive pre-activations pass unchanged.
    p.bias[:] = 100.0
    np.testing.assert_array_equal(_conv(p, x, _valid(p, x)), np.array([[102.0]]))


def test_conv_sequence_shorter_than_kernel_reads_zeros():
    # Two steps under a width-3 kernel: window 0 is 1*1 + 2*10 + 0*100,
    # window 1 is 2*1 + 0*10 + 0*100.
    p = conv_params(3, 1, 1, np.random.default_rng(0))
    p.kernels[:, 0, 0] = [1.0, 10.0, 100.0]
    p.bias[:] = 0.0
    x = np.array([[[1.0], [2.0]]])
    np.testing.assert_array_equal(_conv(p, x, [2]), [[21.0]])
    p.kernels[:, 0, 0] = [1.0, -10.0, 100.0]
    np.testing.assert_array_equal(_conv(p, x, [2]), [[2.0]])
    np.testing.assert_array_equal(_conv(p, x, [1]), [[0.0]])
    with pytest.raises(layers.LayerError, match="lengths"):
        layers.conv1d_globalmaxpool(p, x, [3])


def test_conv_gradient_reaches_only_argmax_positions():
    p = conv_params(1, 2, 2, np.random.default_rng(2))
    x = np.array([[[0.9, 0.1], [0.2, 0.8], [0.3, 0.2]]])
    dx, _, _ = _conv_grads(p, x, _valid(p, x), np.ones((1, 2)))
    nonzero = [i for i in range(3) if np.any(dx[0, i] != 0)]
    # With kernel size 1, pre-activations are per-position; the max for each
    # filter lives at exactly one position, so at most 2 positions get grad.
    assert 1 <= len(nonzero) <= 2
    assert 2 not in nonzero or len(nonzero) == 2


def test_conv_gradient_check():
    rng = np.random.default_rng(9)
    p = conv_params(3, 2, 4, rng)
    x = rng.uniform(-1, 1, (1, 5, 2))
    w = rng.uniform(-1, 1, (1, 4))
    _, d_kernels, d_bias = _conv_grads(p, x, _valid(p, x), w)

    def loss():
        return float((_conv(p, x, _valid(p, x)) * w).sum())

    assert check_gradient(loss, [p.kernels, p.bias], [d_kernels, d_bias], eps=1e-5, samples=28) <= 1e-4


def _conv_reference(kernels, bias, x):
    """Per-window loop: relu(window @ W + b), then the max over windows."""
    k, width, filters = kernels.shape
    w_flat = kernels.reshape(k * width, filters)
    out = np.zeros((x.shape[0], filters))
    for r in range(x.shape[0]):
        acts = [np.maximum(x[r, s : s + k].reshape(-1) @ w_flat + bias, 0.0) for s in range(x.shape[1] - k + 1)]
        out[r] = np.max(acts, axis=0)
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_matches_window_reference(k):
    rng = np.random.default_rng(30 + k)
    p = conv_params(k, 3, 6, rng)
    p.bias[:] = rng.uniform(-0.5, 0.5, 6)
    x = rng.uniform(-1, 1, (4, 7, 3))
    out = _conv(p, x, _valid(p, x))
    np.testing.assert_allclose(out, _conv_reference(p.kernels, p.bias, x), rtol=1e-12, atol=1e-14)


def test_conv_lengths_pool_only_windows_starting_inside_the_row():
    # Row r pools windows 0..lengths[r]-1: the same as the unmasked conv
    # over the row cut to lengths[r] + k - 1 steps, whatever follows.
    rng = np.random.default_rng(32)
    p = conv_params(3, 2, 4, rng)
    p.bias[:] = rng.uniform(-0.5, 0.5, 4)
    x = rng.uniform(-1, 1, (3, 8, 2))
    lengths = np.array([1, 4, 6])
    x[0, 3:] = x[1, 6:] = 50.0  # far outside the real rows' range
    out = _conv(p, x, lengths)
    for r, n in enumerate(lengths):
        want = _conv_reference(p.kernels, p.bias, x[r : r + 1, : n + 2])
        np.testing.assert_allclose(out[r : r + 1], want, rtol=1e-12, atol=1e-14)
    dx, _, _ = _conv_grads(p, x, lengths, np.ones((3, 4)))
    np.testing.assert_array_equal(dx[0, 3:], 0.0)
    np.testing.assert_array_equal(dx[1, 6:], 0.0)
    for bad in ([0, 1, 1], [1, 1, 9], [1, 1]):
        with pytest.raises(layers.LayerError, match="lengths"):
            layers.conv1d_globalmaxpool(p, x, np.array(bad))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_overhang_matches_zero_padded_row(k):
    # With lengths up to steps, windows run past the last step; they must
    # read zeros there, as if each row were followed by k - 1 zero steps.
    # Four steps under k = 5 also covers a row shorter than the kernel.
    rng = np.random.default_rng(40 + k)
    p = conv_params(k, 3, 5, rng)
    p.bias[:] = rng.uniform(-0.5, 0.5, 5)
    x = rng.uniform(-1, 1, (4, 4, 3))
    lengths = np.array([4, 1, 3, 4])
    padded = np.concatenate([x, np.zeros((4, k - 1, 3))], axis=1)
    w = rng.uniform(-1, 1, (4, 5))

    def run(inp):
        dx, d_kernels, d_bias = _conv_grads(p, inp, lengths, w)
        return _conv(p, inp, lengths), dx[:, :4], d_kernels, d_bias

    got, want = run(x), run(padded)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14)
    for r, n in enumerate(lengths):
        ref = _conv_reference(p.kernels, p.bias, padded[r : r + 1, : n + k - 1])
        np.testing.assert_allclose(got[0][r : r + 1], ref, rtol=1e-12, atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_live_window_conv_equals_the_full_window_reference(seed, k, integral):
    # Random lengths, the first row of length 1, and rows and batches
    # shorter than the kernel.  Integer values make the sums exact and the
    # winning windows tie often, so the first-argmax rule is compared too.
    rng = np.random.default_rng(seed)
    rows, steps, width, filters = (int(rng.integers(1, n)) for n in (7, 9, 4, 6))
    lengths = rng.integers(1, steps + 1, rows)
    lengths[0] = 1

    def draw(*shape):
        return rng.integers(-2, 3, shape).astype(float) if integral else rng.uniform(-1, 1, shape)

    p = layers.Conv1dParams(draw(k, width, filters), draw(filters))
    x, grad = draw(rows, steps, width), draw(rows, filters)
    out, cache = layers.conv1d_globalmaxpool(p, x, lengths, mode="train")
    np.testing.assert_array_equal(layers.conv1d_globalmaxpool(p, x, lengths)[0], out)
    np.testing.assert_allclose(out, reference_conv1d_globalmaxpool(p, x, lengths)[0], rtol=1e-12, atol=1e-12)
    for got, want in zip(layers.conv1d_backward(cache, grad), reference_conv1d_backward(p, x, lengths, grad)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_gradient_check_input_kernels_and_bias():
    rng = np.random.default_rng(31)
    p = conv_params(3, 2, 4, rng)
    p.bias[:] = rng.uniform(-0.5, 0.5, 4)
    x = rng.uniform(-1, 1, (3, 6, 2))
    w = rng.uniform(-1, 1, (3, 4))
    grads = _conv_grads(p, x, _valid(p, x), w)

    def loss():
        return float((_conv(p, x, _valid(p, x)) * w).sum())

    for params, g, samples in (([x], grads[:1], 36), ([p.kernels], grads[1:2], 24), ([p.bias], grads[2:], 4)):
        err, stats = check_gradient(loss, params, g, eps=1e-5, samples=samples, return_stats=True)
        assert stats["checked"] == samples
        assert err <= 1e-4


def test_conv_tied_windows_gradient_goes_to_first_argmax():
    p = conv_params(1, 1, 1, np.random.default_rng(0))
    p.kernels[:] = 1.0
    p.bias[:] = 0.0
    x = np.array([[[2.0], [5.0], [1.0], [5.0]]])
    dx, d_kernels, _ = _conv_grads(p, x, _valid(p, x), np.ones((1, 1)))
    np.testing.assert_array_equal(dx, np.array([[[0.0], [1.0], [0.0], [0.0]]]))
    np.testing.assert_array_equal(d_kernels, np.array([[[5.0]]]))


def test_conv_all_negative_filter_gets_zero_gradient():
    # Filter 1's bias keeps every window negative: it outputs 0 and passes
    # no gradient, while filter 0 still reaches its argmax window.
    p = conv_params(2, 2, 2, np.random.default_rng(4))
    p.bias[:] = [0.0, -100.0]
    x = np.random.default_rng(5).uniform(0.1, 1, (2, 5, 2))
    only_first = conv_params(2, 2, 1, np.random.default_rng(0))
    only_first.kernels[:] = p.kernels[..., :1]
    only_first.bias[:] = 0.0

    np.testing.assert_array_equal(_conv(p, x, _valid(p, x))[:, 1], 0.0)
    dx, d_kernels, d_bias = _conv_grads(p, x, _valid(p, x), np.ones((2, 2)))
    np.testing.assert_array_equal(d_kernels[..., 1], 0.0)
    assert d_bias[1] == 0.0
    ref_dx, _, _ = _conv_grads(only_first, x, _valid(p, x), np.ones((2, 1)))
    np.testing.assert_array_equal(dx, ref_dx)


def test_dropout_identity_cases():
    # Rate 0 keeps every entry at scale 1, in the dtype asked for.
    mask = layers.dropout_mask((2, 3), 0.0, np.random.default_rng(0), np.float32)
    assert mask.dtype == np.float32
    np.testing.assert_array_equal(mask, np.ones((2, 3)))


def test_dropout_rate_one_rejected():
    with pytest.raises(layers.LayerError, match="rate"):
        layers.dropout_mask((3,), 1.0, np.random.default_rng(0), np.float64)


def test_dropout_preserves_expectation():
    mask = layers.dropout_mask((100_000,), 0.5, np.random.default_rng(42), np.float64)
    assert abs((2.0 * mask).mean() - 2.0) / 2.0 < 0.02


def test_recurrent_dropout_mask_constant_across_timesteps():
    rng = np.random.default_rng(123)
    cells = 16
    fwd, bwd = _lstm(4, cells, 1), _lstm(4, cells, 2)
    # Saturate the recurrent path so dropped h entries are visible: compare
    # masks sampled for the same seed directly.
    m0 = layers.dropout_mask((cells,), 0.5, np.random.default_rng(9), np.float64)
    m1 = layers.dropout_mask((cells,), 0.5, np.random.default_rng(9), np.float64)
    np.testing.assert_array_equal(m0, m1)
    # And within one bilstm call the mask object is sampled once per direction:
    xs = _seq(rng, 5, 4)
    out_a, _ = bilstm_padded(fwd, bwd, xs, [5], dropout=0.5, mode="train", rng=np.random.default_rng(7))
    out_b, _ = bilstm_padded(fwd, bwd, xs, [5], dropout=0.5, mode="train", rng=np.random.default_rng(7))
    np.testing.assert_array_equal(out_a, out_b)


def test_embed_lookup_rows_and_bounds():
    table = char_table(5, 3, np.random.default_rng(0))
    out = layers.embed_lookup(table, [0])
    np.testing.assert_array_equal(out[0], table[0])
    with pytest.raises(IndexError, match="5"):
        layers.embed_lookup(table, [5])


def test_embed_repeated_index_doubles_gradient():
    table = char_table(4, 2, np.random.default_rng(1))
    single = layers.embed_backward(table, [2], np.ones((1, 2)))
    double = layers.embed_backward(table, [2, 2], np.ones((2, 2)))
    np.testing.assert_array_equal(double[2], 2.0 * single[2])


def test_lstm_full_step_gradient_check():
    # Two steps, so the recurrent weights see a non-zero state.  One
    # parameter set runs both directions, so its gradient is their sum.
    rng = np.random.default_rng(10)
    p = _lstm(4, 3, seed=3)
    x = rng.uniform(-1, 1, (1, 2, 4))
    w = rng.uniform(-1, 1, (1, 2, 6))
    _, _, gf, gb = bilstm_loss_and_grads(p, p, x, [2], w)

    def loss():
        return float((bilstm_padded(p, p, x, [2])[0] * w).sum())

    grads = [a + b for a, b in zip(gf, gb)]
    assert check_gradient(loss, [p.w_input, p.w_recurrent, p.bias], grads, eps=1e-5, samples=60) <= 1e-4


def test_embedding_gradient_check():
    rng = np.random.default_rng(12)
    table = char_table(6, 3, rng)
    w = rng.uniform(-1, 1, (4, 3))
    idx = [1, 3, 3, 5]

    def loss():
        return float((layers.embed_lookup(table, idx) * w).sum())

    grads = [layers.embed_backward(table, idx, w)]
    assert check_gradient(loss, [table], grads, eps=1e-5, samples=18) <= 1e-4
