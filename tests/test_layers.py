import math

import numpy as np
import pytest

from gner import autodiff as ad
from gner import layers


def _lstm(input_dim, cells, seed=0):
    return layers.init_lstm_params(input_dim, cells, np.random.default_rng(seed))


def _zero_lstm(input_dim, cells):
    p = _lstm(input_dim, cells)
    p.w_input.value[:] = 0.0
    p.w_recurrent.value[:] = 0.0
    p.bias.value[:] = 0.0
    return p


# ---------------------------------------------------------------------------
# Step-by-step reference: the composition the fused bilstm_sequence replaced,
# one cell update per timestep from elementary autodiff ops, with masked rows
# blended back to their previous state.


def ref_cell_step(params, x_t, h_prev, c_prev):
    z = ad.add(ad.add(ad.matmul(x_t, params.w_input), ad.matmul(h_prev, params.w_recurrent)), params.bias)
    n = params.cells
    zi, zf, zg, zo = (ad.slice_(z, (Ellipsis, slice(k * n, (k + 1) * n))) for k in range(4))
    i, f, g, o = ad.sigmoid(zi), ad.sigmoid(zf), ad.tanh(zg), ad.sigmoid(zo)
    c_t = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c_t)), c_t


def ref_direction(params, xs, mask, order, rec_mask):
    shape = (xs[0].value.shape[0], params.cells)
    h = ad.constant(np.zeros(shape))
    c = ad.constant(np.zeros(shape))
    outputs = [None] * len(xs)
    for t in order:
        m = mask[:, t].astype(np.float64)
        keep = ad.constant(np.repeat(m[:, None], params.cells, axis=1))
        drop = ad.constant(np.repeat(1.0 - m[:, None], params.cells, axis=1))
        h_in = h if rec_mask is None else ad.mul(h, ad.constant(rec_mask))
        h_new, c_new = ref_cell_step(params, xs[t], h_in, c)
        h = ad.add(ad.mul(h_new, keep), ad.mul(h, drop))
        c = ad.add(ad.mul(c_new, keep), ad.mul(c, drop))
        outputs[t] = ad.mul(h, keep)
    return outputs


def ref_bilstm(fwd, bwd, x, mask, recurrent_dropout=0.0, mode="eval", rng=None):
    batch, steps, _ = x.value.shape
    mask = np.asarray(mask, dtype=bool)
    xs = [ad.slice_(x, (slice(None), t)) for t in range(steps)]
    rec = [None, None]
    if mode == "train" and recurrent_dropout > 0.0:
        rec = [layers.dropout_mask((batch, p.cells), recurrent_dropout, rng) for p in (fwd, bwd)]
    out_f = ref_direction(fwd, xs, mask, range(steps), rec[0])
    out_b = ref_direction(bwd, xs, mask, range(steps - 1, -1, -1), rec[1])
    return ad.stack([ad.concat_last([f, b]) for f, b in zip(out_f, out_b)], axis=1)


def _ones(batch, steps):
    return np.ones((batch, steps), dtype=bool)


def test_lstm_step_all_zero_gives_zero_state():
    p = _zero_lstm(3, 2)
    out = layers.bilstm_sequence(p, p, ad.constant(np.zeros((1, 1, 3))), _ones(1, 1))
    np.testing.assert_array_equal(out.value, np.zeros((1, 1, 4)))


def test_lstm_step_output_shape():
    p = _lstm(32, 50)
    out = layers.bilstm_sequence(p, p, ad.constant(np.ones((1, 1, 32))), _ones(1, 1))
    assert out.value.shape == (1, 1, 100)


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
        wi, wr, b = p.w_input.value, p.w_recurrent.value, p.bias.value
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

    out = layers.bilstm_sequence(fwd, bwd, ad.constant(x[None]), _ones(1, 2))
    np.testing.assert_allclose(out.value[0], expect, atol=1e-12)


def test_lstm_step_dimension_mismatch():
    p = _lstm(3, 2)
    with pytest.raises(layers.LayerError, match="input dim"):
        layers.bilstm_sequence(p, p, ad.constant(np.zeros((1, 1, 4))), _ones(1, 1))


def test_forget_gate_bias_initialized_to_one():
    p = _lstm(4, 3)
    np.testing.assert_array_equal(p.bias.value[3:6], np.ones(3))
    np.testing.assert_array_equal(p.bias.value[:3], np.zeros(3))
    np.testing.assert_array_equal(p.bias.value[6:], np.zeros(6))


def _seq(rng, n, dim):
    return ad.constant(rng.uniform(-1, 1, (1, n, dim)))


def test_bilstm_output_width_is_twice_cells():
    rng = np.random.default_rng(0)
    out = layers.bilstm_sequence(_lstm(8, 50, 1), _lstm(8, 50, 2), _seq(rng, 4, 8), _ones(1, 4))
    assert out.value.shape == (1, 4, 100)


def test_bilstm_length_one_concatenates_both_directions_on_same_element():
    rng = np.random.default_rng(1)
    fwd, bwd = _lstm(4, 3, 1), _lstm(4, 3, 2)
    x = _seq(rng, 1, 4)
    out = layers.bilstm_sequence(fwd, bwd, x, _ones(1, 1))
    x0, zero = ad.constant(x.value[:, 0]), ad.constant(np.zeros((1, 3)))
    hf, _ = ref_cell_step(fwd, x0, zero, zero)
    hb, _ = ref_cell_step(bwd, x0, zero, zero)
    np.testing.assert_allclose(out.value[:, 0], np.concatenate([hf.value, hb.value], axis=1))


def test_bilstm_empty_sequence_rejected():
    with pytest.raises(layers.LayerError, match="empty"):
        layers.bilstm_sequence(_lstm(4, 3), _lstm(4, 3), ad.constant(np.zeros((1, 0, 4))), _ones(1, 0))


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(3)
    fwd, bwd = _lstm(5, 4, 1), _lstm(5, 4, 2)
    xs = _seq(rng, 6, 5)
    out = layers.bilstm_sequence(fwd, bwd, xs, _ones(1, 6)).value[0]
    swapped = layers.bilstm_sequence(bwd, fwd, ad.constant(xs.value[:, ::-1]), _ones(1, 6)).value[0]
    for t in range(6):
        fwd_half, bwd_half = out[t, :4], out[t, 4:]
        np.testing.assert_allclose(swapped[5 - t], np.concatenate([bwd_half, fwd_half]), atol=1e-12)


def test_bilstm_masked_positions_are_zero_and_skip_state():
    rng = np.random.default_rng(4)
    fwd, bwd = _lstm(3, 2, 1), _lstm(3, 2, 2)
    xs = _seq(rng, 4, 3)
    mask = np.array([[True, True, False, False]])
    out = layers.bilstm_sequence(fwd, bwd, xs, mask).value[0]
    np.testing.assert_array_equal(out[2], np.zeros(4))
    np.testing.assert_array_equal(out[3], np.zeros(4))
    # Same result as running the unmasked prefix alone.
    ref = layers.bilstm_sequence(fwd, bwd, ad.constant(xs.value[:, :2]), _ones(1, 2)).value[0]
    for t in range(2):
        np.testing.assert_allclose(out[t], ref[t], atol=1e-12)


def test_masked_positions_contribute_zero_gradient():
    rng = np.random.default_rng(5)
    fwd, bwd = _lstm(3, 2, 1), _lstm(3, 2, 2)
    xs = _seq(rng, 3, 3).value
    mask = np.array([[True, False, True]])

    def grads_with(x1):
        seq = xs.copy()
        seq[0, 1] = x1
        out = layers.bilstm_sequence(fwd, bwd, ad.constant(seq), mask)
        g = ad.backward(ad.sum_all(out))
        return {name: g[node].copy() for name, node in
                [("wi", fwd.w_input), ("wr", fwd.w_recurrent), ("b", fwd.bias)]}

    a = grads_with(rng.uniform(-1, 1, 3))
    b = grads_with(rng.uniform(-1, 1, 3))
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_bilstm_gradient_check_with_mask():
    rng = np.random.default_rng(6)
    fwd, bwd = _lstm(3, 2, 7), _lstm(3, 2, 8)
    xs = _seq(rng, 4, 3)
    mask = np.array([[True, True, True, False]])
    weights = ad.constant(rng.uniform(-1, 1, (1, 4, 4)))

    def loss():
        return ad.sum_all(ad.mul(layers.bilstm_sequence(fwd, bwd, xs, mask), weights))

    params = [fwd.w_input, fwd.w_recurrent, fwd.bias, bwd.w_input, bwd.w_recurrent, bwd.bias]
    assert ad.check_gradient(loss, params, eps=1e-5, samples=60) <= 1e-4


def _ragged_mask(rng, batch, steps):
    # Random per-row masks that are not prefixes, plus one all-off row.
    mask = rng.random((batch, steps)) < 0.6
    mask[0] = [True, False, True, True, False, True][:steps]
    mask[1] = False
    return mask


def _check_against_step_reference(mask, mode, rate, seed):
    rng = np.random.default_rng(seed)
    batch, steps = mask.shape
    fwd, bwd = _lstm(5, 3, 1), _lstm(5, 3, 2)
    x = ad.leaf(rng.uniform(-1, 1, (batch, steps, 5)), requires_grad=True)
    weights = ad.constant(rng.uniform(-1, 1, (batch, steps, 6)))
    params = [x, fwd.w_input, fwd.w_recurrent, fwd.bias, bwd.w_input, bwd.w_recurrent, bwd.bias]

    def run(fn):
        out = fn(fwd, bwd, x, mask, recurrent_dropout=rate, mode=mode, rng=np.random.default_rng(8))
        grads = ad.backward(ad.sum_all(ad.mul(out, weights)))
        return out.value, [grads[p] for p in params]

    fused, fused_grads = run(layers.bilstm_sequence)
    ref, ref_grads = run(ref_bilstm)
    np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # Masked positions, and all-off rows entirely, emit zeros and take no
    # gradient.
    np.testing.assert_array_equal(fused[~mask], 0.0)
    np.testing.assert_array_equal(fused_grads[0][~mask], 0.0)


@pytest.mark.parametrize("mode,rate", [("eval", 0.0), ("train", 0.0), ("train", 0.5)])
def test_fused_bilstm_matches_step_reference(mode, rate):
    mask = _ragged_mask(np.random.default_rng(21), 4, 6)
    assert not mask[1].any()
    _check_against_step_reference(mask, mode, rate, seed=21)


@pytest.mark.parametrize("layout", ["prefix", "suffix"])
@pytest.mark.parametrize("mode,rate", [("eval", 0.0), ("train", 0.0), ("train", 0.5)])
def test_sorted_schedule_matches_step_reference(mode, rate, layout):
    # Post-padded rows (prefix masks) and pre-padded rows (suffix masks)
    # with unsorted lengths and one all-off row.
    lengths = np.array([3, 0, 6, 1, 5, 3])
    mask = np.arange(6)[None, :] < lengths[:, None]
    if layout == "suffix":
        mask = mask[:, ::-1]
    # Every step then runs on a leading slice of the length-sorted rows.
    _, _, steps = layers._schedule(mask)
    assert all(isinstance(state, slice) for _, state, _ in steps)
    _check_against_step_reference(mask, mode, rate, seed=23)


def test_fused_bilstm_input_gradient_check():
    rng = np.random.default_rng(22)
    fwd, bwd = _lstm(3, 2, 3), _lstm(3, 2, 4)
    mask = _ragged_mask(rng, 3, 5)
    x = ad.leaf(rng.uniform(-1, 1, (3, 5, 3)), requires_grad=True)
    weights = ad.constant(rng.uniform(-1, 1, (3, 5, 4)))

    def loss():
        return ad.sum_all(ad.mul(layers.bilstm_sequence(fwd, bwd, x, mask), weights))

    assert ad.check_gradient(loss, [x], eps=1e-5, samples=45) <= 1e-4


def _valid(p, x):
    """Window counts that keep every window inside its row (a valid conv)."""
    rows, steps, _ = x.value.shape
    return np.full(rows, steps - p.kernel_size + 1)


def test_conv_sum_kernel():
    p = layers.init_conv1d_params(3, 1, 1, np.random.default_rng(0))
    p.kernels.value[:] = 1.0
    p.bias.value[:] = 0.0
    x = ad.constant(np.array([[[1.0], [2.0], [3.0]]]))
    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    np.testing.assert_array_equal(out.value, np.array([[6.0]]))


def test_conv_per_filter_columnwise_max():
    # Two positions with activations [[1,5],[3,2]] pool to [3,5].
    p = layers.init_conv1d_params(1, 2, 2, np.random.default_rng(0))
    p.kernels.value[:] = 0.0
    p.kernels.value[0, 0, 0] = 1.0
    p.kernels.value[0, 1, 1] = 1.0
    p.bias.value[:] = 0.0
    x = ad.constant(np.array([[[1.0, 5.0], [3.0, 2.0]]]))
    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    np.testing.assert_array_equal(out.value, np.array([[3.0, 5.0]]))


def test_conv_relu_floor():
    p = layers.init_conv1d_params(2, 1, 1, np.random.default_rng(0))
    p.kernels.value[:] = 1.0
    p.bias.value[:] = -100.0
    x = ad.constant(np.ones((1, 3, 1)))
    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    np.testing.assert_array_equal(out.value, np.array([[0.0]]))
    # Positive pre-activations pass unchanged.
    p.bias.value[:] = 100.0
    np.testing.assert_array_equal(layers.conv1d_globalmaxpool(p, x, _valid(p, x)).value, np.array([[102.0]]))


def test_conv_sequence_shorter_than_kernel_reads_zeros():
    # Two steps under a width-3 kernel: window 0 is 1*1 + 2*10 + 0*100,
    # window 1 is 2*1 + 0*10 + 0*100.
    p = layers.init_conv1d_params(3, 1, 1, np.random.default_rng(0))
    p.kernels.value[:, 0, 0] = [1.0, 10.0, 100.0]
    p.bias.value[:] = 0.0
    x = ad.constant(np.array([[[1.0], [2.0]]]))
    np.testing.assert_array_equal(layers.conv1d_globalmaxpool(p, x, [2]).value, [[21.0]])
    p.kernels.value[:, 0, 0] = [1.0, -10.0, 100.0]
    np.testing.assert_array_equal(layers.conv1d_globalmaxpool(p, x, [2]).value, [[2.0]])
    np.testing.assert_array_equal(layers.conv1d_globalmaxpool(p, x, [1]).value, [[0.0]])
    with pytest.raises(layers.LayerError, match="lengths"):
        layers.conv1d_globalmaxpool(p, x, [3])


def test_conv_gradient_reaches_only_argmax_positions():
    p = layers.init_conv1d_params(1, 2, 2, np.random.default_rng(2))
    x = ad.leaf(np.array([[[0.9, 0.1], [0.2, 0.8], [0.3, 0.2]]]), requires_grad=True)
    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    grads = ad.backward(ad.sum_all(out))
    nonzero = [i for i in range(3) if np.any(grads[x][0, i] != 0)]
    # With kernel size 1, pre-activations are per-position; the max for each
    # filter lives at exactly one position, so at most 2 positions get grad.
    assert 1 <= len(nonzero) <= 2
    assert 2 not in nonzero or len(nonzero) == 2


def test_conv_gradient_check():
    rng = np.random.default_rng(9)
    p = layers.init_conv1d_params(3, 2, 4, rng)
    x = ad.constant(rng.uniform(-1, 1, (1, 5, 2)))
    w = ad.constant(rng.uniform(-1, 1, (1, 4)))

    def loss():
        return ad.sum_all(ad.mul(layers.conv1d_globalmaxpool(p, x, _valid(p, x)), w))

    assert ad.check_gradient(loss, [p.kernels, p.bias], eps=1e-5, samples=28) <= 1e-4


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
    p = layers.init_conv1d_params(k, 3, 6, rng)
    p.bias.value[:] = rng.uniform(-0.5, 0.5, 6)
    x = ad.constant(rng.uniform(-1, 1, (4, 7, 3)))
    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    np.testing.assert_allclose(out.value, _conv_reference(p.kernels.value, p.bias.value, x.value), rtol=1e-12, atol=1e-14)


def test_conv_lengths_pool_only_windows_starting_inside_the_row():
    # Row r pools windows 0..lengths[r]-1: the same as the unmasked conv
    # over the row cut to lengths[r] + k - 1 steps, whatever follows.
    rng = np.random.default_rng(32)
    p = layers.init_conv1d_params(3, 2, 4, rng)
    p.bias.value[:] = rng.uniform(-0.5, 0.5, 4)
    x = rng.uniform(-1, 1, (3, 8, 2))
    lengths = np.array([1, 4, 6])
    x[0, 3:] = x[1, 6:] = 50.0  # far outside the real rows' range
    out = layers.conv1d_globalmaxpool(p, ad.constant(x), lengths)
    for r, n in enumerate(lengths):
        want = _conv_reference(p.kernels.value, p.bias.value, x[r : r + 1, : n + 2])
        np.testing.assert_allclose(out.value[r : r + 1], want, rtol=1e-12, atol=1e-14)
    xl = ad.leaf(x, requires_grad=True)
    grads = ad.backward(ad.sum_all(layers.conv1d_globalmaxpool(p, xl, lengths)))
    np.testing.assert_array_equal(grads[xl][0, 3:], 0.0)
    np.testing.assert_array_equal(grads[xl][1, 6:], 0.0)
    for bad in ([0, 1, 1], [1, 1, 9], [1, 1]):
        with pytest.raises(layers.LayerError, match="lengths"):
            layers.conv1d_globalmaxpool(p, ad.constant(x), np.array(bad))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_overhang_matches_zero_padded_row(k):
    # With lengths up to steps, windows run past the last step; they must
    # read zeros there, as if each row were followed by k - 1 zero steps.
    # Four steps under k = 5 also covers a row shorter than the kernel.
    rng = np.random.default_rng(40 + k)
    p = layers.init_conv1d_params(k, 3, 5, rng)
    p.bias.value[:] = rng.uniform(-0.5, 0.5, 5)
    x = rng.uniform(-1, 1, (4, 4, 3))
    lengths = np.array([4, 1, 3, 4])
    padded = np.concatenate([x, np.zeros((4, k - 1, 3))], axis=1)
    w = ad.constant(rng.uniform(-1, 1, (4, 5)))

    def run(inp):
        xl = ad.leaf(inp, requires_grad=True)
        out = layers.conv1d_globalmaxpool(p, xl, lengths)
        grads = ad.backward(ad.sum_all(ad.mul(out, w)))
        return out.value, grads[xl][:, :4], grads[p.kernels], grads[p.bias]

    got, want = run(x), run(padded)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14)
    for r, n in enumerate(lengths):
        ref = _conv_reference(p.kernels.value, p.bias.value, padded[r : r + 1, : n + k - 1])
        np.testing.assert_allclose(got[0][r : r + 1], ref, rtol=1e-12, atol=1e-14)


def test_conv_gradient_check_input_kernels_and_bias():
    rng = np.random.default_rng(31)
    p = layers.init_conv1d_params(3, 2, 4, rng)
    p.bias.value[:] = rng.uniform(-0.5, 0.5, 4)
    x = ad.leaf(rng.uniform(-1, 1, (3, 6, 2)), requires_grad=True)
    w = ad.constant(rng.uniform(-1, 1, (3, 4)))

    def loss():
        return ad.sum_all(ad.mul(layers.conv1d_globalmaxpool(p, x, _valid(p, x)), w))

    for params, samples in (([x], 36), ([p.kernels], 24), ([p.bias], 4)):
        err, stats = ad.check_gradient(loss, params, eps=1e-5, samples=samples, return_stats=True)
        assert stats["checked"] == samples
        assert err <= 1e-4


def test_conv_tied_windows_gradient_goes_to_first_argmax():
    p = layers.init_conv1d_params(1, 1, 1, np.random.default_rng(0))
    p.kernels.value[:] = 1.0
    p.bias.value[:] = 0.0
    x = ad.leaf(np.array([[[2.0], [5.0], [1.0], [5.0]]]), requires_grad=True)
    grads = ad.backward(ad.sum_all(layers.conv1d_globalmaxpool(p, x, _valid(p, x))))
    np.testing.assert_array_equal(grads[x], np.array([[[0.0], [1.0], [0.0], [0.0]]]))
    np.testing.assert_array_equal(grads[p.kernels], np.array([[[5.0]]]))


def test_conv_all_negative_filter_gets_zero_gradient():
    # Filter 1's bias keeps every window negative: it outputs 0 and passes
    # no gradient, while filter 0 still reaches its argmax window.
    p = layers.init_conv1d_params(2, 2, 2, np.random.default_rng(4))
    p.bias.value[:] = [0.0, -100.0]
    x = ad.leaf(np.random.default_rng(5).uniform(0.1, 1, (2, 5, 2)), requires_grad=True)
    only_first = layers.init_conv1d_params(2, 2, 1, np.random.default_rng(0))
    only_first.kernels.value[:] = p.kernels.value[..., :1]
    only_first.bias.value[:] = 0.0

    out = layers.conv1d_globalmaxpool(p, x, _valid(p, x))
    np.testing.assert_array_equal(out.value[:, 1], 0.0)
    grads = ad.backward(ad.sum_all(out))
    np.testing.assert_array_equal(grads[p.kernels][..., 1], 0.0)
    assert grads[p.bias][1] == 0.0
    ref = ad.backward(ad.sum_all(layers.conv1d_globalmaxpool(only_first, x, _valid(p, x))))
    np.testing.assert_array_equal(grads[x], ref[x])


def test_dropout_identity_cases():
    # Rate 0 keeps every entry at scale 1.
    mask = layers.dropout_mask((2, 3), 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(mask, np.ones((2, 3)))


def test_dropout_rate_one_rejected():
    with pytest.raises(layers.LayerError, match="rate"):
        layers.dropout_mask((3,), 1.0, np.random.default_rng(0))


def test_dropout_preserves_expectation():
    mask = layers.dropout_mask((100_000,), 0.5, np.random.default_rng(42))
    assert abs((2.0 * mask).mean() - 2.0) / 2.0 < 0.02


def test_recurrent_dropout_mask_constant_across_timesteps():
    rng = np.random.default_rng(123)
    cells = 16
    fwd, bwd = _lstm(4, cells, 1), _lstm(4, cells, 2)
    # Saturate the recurrent path so dropped h entries are visible: compare
    # masks sampled for the same seed directly.
    m0 = layers.dropout_mask((cells,), 0.5, np.random.default_rng(9))
    m1 = layers.dropout_mask((cells,), 0.5, np.random.default_rng(9))
    np.testing.assert_array_equal(m0, m1)
    # And within one bilstm call the mask object is sampled once per direction:
    xs = _seq(rng, 5, 4)
    out_a = layers.bilstm_sequence(fwd, bwd, xs, _ones(1, 5), recurrent_dropout=0.5, mode="train",
                                   rng=np.random.default_rng(7))
    out_b = layers.bilstm_sequence(fwd, bwd, xs, _ones(1, 5), recurrent_dropout=0.5, mode="train",
                                   rng=np.random.default_rng(7))
    np.testing.assert_array_equal(out_a.value, out_b.value)


def test_embed_lookup_rows_and_bounds():
    table = layers.init_embedding_table(5, 3, np.random.default_rng(0))
    out = layers.embed_lookup(table, [0])
    np.testing.assert_array_equal(out.value[0], table.rows.value[0])
    with pytest.raises(IndexError, match="5"):
        layers.embed_lookup(table, [5])


def test_embed_repeated_index_doubles_gradient():
    table = layers.init_embedding_table(4, 2, np.random.default_rng(1))
    single = ad.backward(ad.sum_all(layers.embed_lookup(table, [2])))[table.rows]
    double = ad.backward(ad.sum_all(layers.embed_lookup(table, [2, 2])))[table.rows]
    np.testing.assert_array_equal(double[2], 2.0 * single[2])


def test_lstm_full_step_gradient_check():
    # Two steps, so the recurrent weights see a non-zero state.
    rng = np.random.default_rng(10)
    p = _lstm(4, 3, seed=3)
    x = ad.constant(rng.uniform(-1, 1, (1, 2, 4)))
    w = ad.constant(rng.uniform(-1, 1, (1, 2, 6)))

    def loss():
        return ad.sum_all(ad.mul(layers.bilstm_sequence(p, p, x, _ones(1, 2)), w))

    assert ad.check_gradient(loss, [p.w_input, p.w_recurrent, p.bias], eps=1e-5, samples=60) <= 1e-4


def test_embedding_gradient_check():
    rng = np.random.default_rng(12)
    table = layers.init_embedding_table(6, 3, rng)
    w = ad.constant(rng.uniform(-1, 1, (4, 3)))

    def loss():
        return ad.sum_all(ad.mul(layers.embed_lookup(table, [1, 3, 3, 5]), w))

    assert ad.check_gradient(loss, [table.rows], eps=1e-5, samples=18) <= 1e-4
