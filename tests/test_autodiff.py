import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gner import autodiff as ad
from gner import layers


def test_tanh_at_origin():
    assert float(ad.tanh(ad.leaf(0.0)).value) == 0.0


def test_relu_definition():
    # The rectifier lives inside the fused char conv: a 1x1 identity kernel
    # with zero bias turns the conv into relu of its single input.
    p = layers.init_conv1d_params(1, 1, 1, np.random.default_rng(0))
    p.kernels.value[:] = 1.0
    p.bias.value[:] = 0.0

    def relu(v):
        return float(layers.conv1d_globalmaxpool(p, ad.constant(np.full((1, 1, 1), v)), [1]).value[0, 0])

    assert relu(-2.0) == 0.0
    assert relu(2.0) == 2.0


def test_matmul_identity():
    m = np.arange(12.0).reshape(3, 4)
    out = ad.matmul(ad.leaf(np.eye(3)), ad.leaf(m))
    np.testing.assert_array_equal(out.value, m)


def test_backward_square():
    x = ad.leaf(3.0, requires_grad=True)
    root = ad.mul(x, x)
    grads = ad.backward(root)
    assert float(grads[x]) == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    x = ad.leaf(0.0, requires_grad=True)
    grads = ad.backward(ad.sigmoid(x))
    assert float(grads[x]) == pytest.approx(0.25)


def test_backward_tanh_chain_rule():
    x = ad.leaf(0.0, requires_grad=True)
    two = ad.constant(2.0)
    grads = ad.backward(ad.tanh(ad.mul(two, x)))
    assert float(grads[x]) == pytest.approx(2.0)


def test_gradient_accumulates_on_reuse():
    x = ad.leaf(np.array([1.5, -0.5]), requires_grad=True)
    w = ad.constant(np.array([2.0, 3.0]))
    once = ad.backward(ad.sum_all(ad.mul(w, x)))[x]
    twice = ad.backward(ad.sum_all(ad.add(ad.mul(w, x), ad.mul(w, x))))[x]
    np.testing.assert_allclose(twice, 2.0 * once)


def test_backward_rejects_non_scalar_root():
    x = ad.leaf(np.ones(3), requires_grad=True)
    with pytest.raises(ad.AutodiffError, match="scalar"):
        ad.backward(ad.tanh(x))


def test_shape_mismatch_names_op_and_shapes():
    a = ad.leaf(np.ones((2, 3)))
    b = ad.leaf(np.ones((4, 5)))
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(a, b)
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 5)" in msg


def test_bias_broadcast_add():
    x = ad.leaf(np.ones((4, 3)), requires_grad=True)
    b = ad.leaf(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = ad.add(x, b)
    np.testing.assert_array_equal(out.value, x.value + b.value)
    grads = ad.backward(ad.sum_all(out))
    np.testing.assert_array_equal(grads[b], np.full(3, 4.0))


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(123)
        x = ad.leaf(rng.normal(size=(5, 5)))
        w = ad.leaf(rng.normal(size=(5, 5)))
        return ad.sum_all(ad.tanh(ad.matmul(x, w))).value.copy()

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


@given(
    a=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-4, max_value=4, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_backward_linearity(a, b):
    # grad of (a*f + b*g) == a*grad(f) + b*grad(g) elementwise.
    x_val = np.array([0.3, -0.7, 1.1])

    def grad_of(ca, cb):
        x = ad.leaf(x_val, requires_grad=True)
        f = ad.sum_all(ad.tanh(x))
        g = ad.sum_all(ad.mul(x, x))
        combo = ad.add(ad.mul(ad.constant(ca), f), ad.mul(ad.constant(cb), g))
        return ad.backward(combo)[x]

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, expected, atol=1e-12)


def _check_op(build, params):
    err = ad.check_gradient(build, params, eps=1e-5, samples=min(50, sum(p.value.size for p in params)))
    assert err <= 1e-4, f"gradient check failed: {err}"


def test_every_operator_passes_gradient_check():
    rng = np.random.default_rng(42)

    a = ad.leaf(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    b = ad.leaf(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)
    _check_op(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])

    v = ad.leaf(rng.uniform(-1, 1, size=4), requires_grad=True)
    _check_op(lambda: ad.sum_all(ad.matmul(v, b)), [v, b])
    u = ad.leaf(rng.uniform(-1, 1, size=4), requires_grad=True)
    _check_op(lambda: ad.sum_all(ad.matmul(a, u)), [a, u])

    c = ad.leaf(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    _check_op(lambda: ad.sum_all(ad.add(a, c)), [a, c])
    _check_op(lambda: ad.sum_all(ad.mul(a, c)), [a, c])

    bias = ad.leaf(rng.uniform(-1, 1, size=4), requires_grad=True)
    _check_op(lambda: ad.sum_all(ad.add(a, bias)), [a, bias])

    _check_op(lambda: ad.sum_all(ad.concat_last([a, c])), [a, c])
    _check_op(lambda: ad.sum_all(ad.sigmoid(a)), [a])
    _check_op(lambda: ad.sum_all(ad.tanh(a)), [a])
    _check_op(lambda: ad.sum_all(ad.slice_(a, (slice(1, 3), slice(0, 2)))), [a])
    _check_op(lambda: ad.sum_all(ad.stack([a, c], axis=0)), [a, c])
    _check_op(lambda: ad.sum_all(ad.gather_rows(a, [0, 2, 2, 1])), [a])
    _check_op(lambda: ad.sum_all(ad.reshape(a, (4, 3))), [a])


def test_check_gradient_exact_for_linear_loss():
    w = ad.leaf(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    x = ad.constant(np.array([1.0, 2.0, 3.0]))
    err = ad.check_gradient(lambda: ad.sum_all(ad.mul(w, x)), [w], eps=1e-5, samples=3)
    assert err <= 1e-10


def _abs(a):
    """|a| as one fused node: the kind of kink the gradient checker must skip."""
    sign = np.sign(a.value)
    return ad.joint_result("abs", np.abs(a.value), (a,), lambda g: (g * sign,))


def test_abs_kink_sample_is_skipped():
    x = ad.leaf(np.array([0.0, 0.5]), requires_grad=True)
    err, stats = ad.check_gradient(
        lambda: ad.sum_all(_abs(x)), [x], eps=1e-5, samples=2, return_stats=True
    )
    assert stats == {"checked": 1, "skipped": 1}
    assert err <= 1e-10

    smooth = ad.leaf(np.array([-0.3]), requires_grad=True)
    err, stats = ad.check_gradient(lambda: ad.sum_all(_abs(smooth)), [smooth], samples=1, return_stats=True)
    assert stats == {"checked": 1, "skipped": 0}
    assert err <= 1e-10

    at_kink = ad.leaf(np.zeros(3), requires_grad=True)
    with pytest.raises(ad.AutodiffError, match="kink"):
        ad.check_gradient(lambda: ad.sum_all(_abs(at_kink)), [at_kink], samples=3)


def test_gather_rows_bounds():
    a = ad.leaf(np.ones((3, 2)))
    with pytest.raises(IndexError, match="3"):
        ad.gather_rows(a, [0, 3])

