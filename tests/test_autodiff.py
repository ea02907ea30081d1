import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numeric_grad, rel_err
from storybridge import autodiff as ad
from storybridge.autodiff import ShapeError, Tensor

RNG = np.random.default_rng(7)


def check_grads(build_loss, *arrays, tol=1e-4):
    """Compare tape gradients of build_loss(*tensors) against finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    ad.backward(loss)
    for t, a in zip(tensors, arrays):
        numeric = numeric_grad(lambda: build_loss(*[Tensor(x.data) for x in tensors]).item(), a)
        assert t.grad is not None
        assert rel_err(t.grad, numeric) <= tol, f"gradient mismatch for shape {a.shape}"


def proj_loss(out):
    # fixed projection makes the scalar loss sensitive to every output entry
    r = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape) + 0.5
    return ad.reduce_sum(ad.mul(out, Tensor(r)))


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_matmul_identity(k):
    a = np.random.default_rng(k).normal(size=(3, k))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.data, a)


def test_layernorm_direct_formula():
    x = np.array([1.0, 2.0, 3.0]).reshape(1, 3)
    eps = 1e-5
    out = ad.layernorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=eps)
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    expected = (x - mu) / np.sqrt(var + eps)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    assert abs(out.data.mean()) < 1e-12
    assert abs(out.data.var() - 1.0) < 1e-4


def test_product_rule():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(3.0, requires_grad=True)
    ad.backward(ad.mul(x, y))
    np.testing.assert_allclose(x.grad, 3.0)
    np.testing.assert_allclose(y.grad, 2.0)


def test_grad_accumulates_across_uses():
    x = Tensor([1.0, -2.0], requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


@pytest.mark.parametrize(
    "name,build,shapes",
    [
        ("add", lambda a, b: proj_loss(ad.add(a, b)), [(3, 4), (3, 4)]),
        ("add_broadcast", lambda a, b: proj_loss(ad.add(a, b)), [(5, 3, 4), (4,)]),
        ("sub", lambda a, b: proj_loss(ad.sub(a, b)), [(2, 5), (2, 5)]),
        ("mul", lambda a, b: proj_loss(ad.mul(a, b)), [(4, 3), (4, 3)]),
        ("mul_broadcast", lambda a, b: proj_loss(ad.mul(a, b)), [(2, 3, 4), (3, 1)]),
        ("scale", lambda a: proj_loss(ad.scale(a, -1.7)), [(3, 3)]),
        ("matmul", lambda a, b: proj_loss(ad.matmul(a, b)), [(3, 4), (4, 5)]),
        ("matmul_batched", lambda a, b: proj_loss(ad.matmul(a, b)), [(2, 3, 4), (2, 4, 2)]),
        ("transpose", lambda a: proj_loss(ad.transpose(a, (1, 0, 2))), [(2, 3, 4)]),
        ("reshape", lambda a: proj_loss(ad.reshape(a, (6, 2))), [(3, 4)]),
        ("concat", lambda a, b: proj_loss(ad.concat([a, b], axis=1)), [(2, 3), (2, 2)]),
        ("reduce_sum", lambda a: proj_loss(ad.reduce_sum(a, axis=1)), [(3, 4)]),
        ("reduce_sum_keep", lambda a: proj_loss(ad.reduce_sum(a, axis=0, keepdims=True)), [(3, 4)]),
        ("reduce_mean", lambda a: proj_loss(ad.reduce_mean(a, axis=1)), [(4, 3)]),
        ("tanh", lambda a: proj_loss(ad.tanh(a)), [(3, 4)]),
        ("sigmoid", lambda a: proj_loss(ad.sigmoid(a)), [(3, 4)]),
        ("softmax", lambda a: proj_loss(ad.softmax(a, axis=-1)), [(3, 5)]),
    ],
)
def test_primitive_gradients_match_finite_differences(name, build, shapes):
    arrays = [RNG.normal(size=s) for s in shapes]
    check_grads(build, *arrays)


def test_relu_gradient_away_from_kink():
    x = RNG.normal(size=(4, 4))
    x[np.abs(x) < 0.2] += 0.5
    check_grads(lambda a: proj_loss(ad.relu(a)), x)


def test_layernorm_gradient():
    x = RNG.normal(size=(3, 6))
    g = RNG.normal(size=(6,)) + 1.0
    b = RNG.normal(size=(6,))
    check_grads(lambda a, gg, bb: proj_loss(ad.layernorm(a, gg, bb)), x, g, b)


def test_embed_gradient_scatter_adds():
    table = RNG.normal(size=(5, 3))
    ids = np.array([0, 2, 2, 4])
    check_grads(lambda t: proj_loss(ad.embed(t, ids)), table)
    ids_2d = np.array([[1, 3, 1], [4, 4, 0]])
    check_grads(lambda t: proj_loss(ad.embed(t, ids_2d)), table)


def test_cross_entropy_gradient():
    logits = RNG.normal(size=(6, 5))
    targets = np.array([0, 1, 4, 2, 2, 3])
    check_grads(lambda l: ad.softmax_cross_entropy(l, targets), logits)


def test_cross_entropy_matches_manual_value():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    targets = [1, 2]
    loss = ad.softmax_cross_entropy(Tensor(logits), targets)
    manual = 0.0
    for row, t in zip(logits, targets):
        manual -= row[t] - np.log(np.exp(row).sum())
    np.testing.assert_allclose(loss.item(), manual / 2, rtol=1e-12)


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(x, x))


def test_backward_rejects_untracked_loss():
    with pytest.raises(ValueError, match="tape"):
        ad.backward(Tensor(3.0))


def test_tape_cleared_after_backward():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    assert loss._vjp is None and loss._parents == ()
    with pytest.raises(ValueError, match="tape"):
        ad.backward(loss)


def test_backward_returns_gradient_map():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    grads = ad.backward(ad.reduce_sum(ad.mul(x, y)))
    assert set(grads) == {x, y}
    np.testing.assert_allclose(grads[x], y.data)


def zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize(
    "op,args,fragment",
    [
        (ad.matmul, (zeros(2, 3), zeros(4, 2)), "matmul"),
        (ad.add, (zeros(2, 3), zeros(4)), "add"),
        (ad.embed, (Tensor(np.zeros((2, 3))), [5]), "embed"),
        (
            ad.layernorm,
            (Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), Tensor(np.zeros(3))),
            "layernorm",
        ),
        (ad.matmul, (zeros(3), zeros(3, 2)), "matmul: operands must be at least 2-d"),
        (ad.matmul, (zeros(2, 3, 4), zeros(3, 4, 5)), "matmul"),
        (ad.sub, (zeros(2, 3), zeros(3, 2)), "sub"),
        (ad.mul, (zeros(2, 3), zeros(2, 2)), "mul"),
        (ad.linear, (zeros(2, 3), zeros(4, 2), zeros(2)), "linear"),
        (ad.linear, (zeros(2, 3), zeros(3, 4), zeros(5)), "linear"),
        (ad.linear, (zeros(3), zeros(3, 4), zeros(4)), "linear: operands must be at least 2-d"),
        (ad.feed_forward, (zeros(2, 3), zeros(4, 5), zeros(5), zeros(5, 3), zeros(3)), "feed_forward"),
        (ad.feed_forward, (zeros(2, 3), zeros(3, 5), zeros(5), zeros(5, 3), zeros(4)), "feed_forward"),
        (ad.add_layernorm, (zeros(2, 3), zeros(2, 4), zeros(3), zeros(3)), "add_layernorm"),
        (ad.add_layernorm, (zeros(2, 3), zeros(2, 3), zeros(2), zeros(3)), "add_layernorm"),
        (ad.attention, (zeros(2, 4), zeros(3, 4), zeros(3, 4), 3), "attention"),
        (ad.attention, (zeros(2, 4), zeros(3, 4), zeros(2, 4), 2), "attention"),
        (ad.attention, (zeros(2, 4), zeros(3, 4), zeros(3, 4), 2, np.zeros((2, 2))), "attention"),
        (ad.additive_attention, (zeros(3, 4), zeros(2, 5), zeros(4, 1), zeros(3, 6)), "additive_attention"),
        (ad.additive_attention, (zeros(3, 4), zeros(2, 4), zeros(4, 1), zeros(2, 6)), "additive_attention"),
    ],
)
def test_shape_errors_name_the_op(op, args, fragment):
    with pytest.raises(ShapeError, match=fragment):
        op(*args)


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_softmax_rows_normalize(values):
    out = ad.softmax(Tensor(values))
    assert abs(out.data.sum() - 1.0) < 1e-12
    assert (out.data > 0).all()
