import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numeric_grad, reference_backward, rel_err
from storybridge import autodiff as ad
from storybridge.autodiff import ShapeError, Tensor
from storybridge.params import ParameterStore

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


# ------------------------------------------------------------ in-place accumulation
# Each graph has an op whose VJP hands one array to two parents (add's gradient,
# add_layernorm's shared dx, concat's slices of a gradient that add also hands on),
# and each parent then takes more pieces, dense and by rows.

LEAF_SHAPES = {"a": (3, 4), "b": (3, 4), "e": (3, 8), "gain": (4,), "bias": (4,)}
WEIGHTS = np.random.default_rng(11).normal(size=(3, 8))


def weighted_sum(t, scale: float = 1.0):
    return ad.reduce_sum(ad.mul(t, Tensor(WEIGHTS[:, : t.shape[-1]] * scale)))


def add_graph(t):
    p = ad.tanh(t["a"])
    s = ad.add(p, t["b"])
    return [weighted_sum(ad.mul(s, s)), weighted_sum(p, 2.0), weighted_sum(t["b"], 3.0),
            weighted_sum(ad.embed(t["b"], [2, 0, 2]), 0.5)]


def add_layernorm_graph(t):
    x = ad.tanh(t["a"])
    y = ad.add_layernorm(x, t["b"], t["gain"], t["bias"])
    return [weighted_sum(ad.mul(y, y)), weighted_sum(x, 2.0), weighted_sum(t["b"], 3.0), weighted_sum(t["gain"])]


def concat_graph(t):
    z = ad.concat([t["a"], ad.tanh(t["b"])], axis=-1)
    w = ad.add(z, ad.tanh(t["e"]))
    return [weighted_sum(ad.mul(w, w)), weighted_sum(t["a"], 2.0), weighted_sum(t["b"], 3.0)]


def make_leaves(packed: bool) -> dict:
    """Leaves of fixed values: plain tensors, or the parameters of a packed store whose flat gradient holds junk."""
    values = {name: np.random.default_rng(i).normal(size=shape) for i, (name, shape) in enumerate(LEAF_SHAPES.items())}
    if not packed:
        return {name: Tensor(v, requires_grad=True) for name, v in values.items()}
    store = ParameterStore(0)
    for name, shape in LEAF_SHAPES.items():
        store.param(name, shape)
    store.pack()
    store.flat[:] = np.concatenate([v.reshape(-1) for v in values.values()])
    store.flat_grad.fill(7.0)  # backward must overwrite, never read, what a view held before
    return dict(store.items())


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "packed"])
@pytest.mark.parametrize("reverse", [False, True], ids=["shared-first", "shared-last"])
@pytest.mark.parametrize("graph", [add_graph, add_layernorm_graph, concat_graph], ids=["add", "add_layernorm", "concat"])
def test_in_place_accumulation_never_writes_into_a_shared_piece(graph, reverse, packed):
    def loss_of(leaves):
        terms = graph(leaves)
        if reverse:
            terms.reverse()
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        return loss

    reference_leaves = make_leaves(False)
    by_tensor = reference_backward(loss_of(reference_leaves))
    want = {name: by_tensor[t] for name, t in reference_leaves.items() if t in by_tensor}
    leaves = make_leaves(packed)
    inputs = {name: t.data.copy() for name, t in leaves.items()}
    weights = WEIGHTS.copy()
    by_tensor = ad.backward(loss_of(leaves))
    got = {name: by_tensor[t] for name, t in leaves.items() if t in by_tensor}
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g.shape == want[name].shape and (g.view(np.uint64) == want[name].view(np.uint64)).all(), name
        assert leaves[name].grad is g
        if packed:
            assert g is leaves[name].grad_view
    assert all((t.data.view(np.uint64) == inputs[name].view(np.uint64)).all() for name, t in leaves.items())
    assert (WEIGHTS == weights).all()


def test_a_packed_parameter_keeps_the_sign_of_a_zero_gradient():
    store = ParameterStore(0)
    w = store.param("w", (2,))
    store.pack()
    ad.backward(ad.reduce_sum(ad.mul(w, Tensor([-0.0, 1.0]))))
    assert (w.grad.view(np.uint64) == np.array([-0.0, 1.0]).view(np.uint64)).all()  # copied in, not added to +0.0
