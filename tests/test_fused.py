"""The fused layer primitives against their composites in tests/helpers.py.

A fused op must give the composite's forward floats and gradients exactly,
and training through fused ops must write the same parameter bytes as
training through the composites. The one exception is the distiller through
the fused GRU cell, which differs in float order only.
"""

import json

import numpy as np
import pytest

from helpers import (
    GRU_GATES,
    checkpoint_payload,
    composite_ops,
    count_tape_nodes,
    numeric_grad,
    rel_err,
    use_composite_ops,
)
from storybridge import autodiff as ad
from storybridge import distill as distill_module
from storybridge import lm as lm_module
from storybridge.autodiff import Tensor
from storybridge.corpus import build_training_pairs, load_corpus
from storybridge.distill import DistillerConfig, load_feature_file, train_distiller
from storybridge.generate import GeneratorConfig, train_generator
from storybridge.layers import NEG_INF, causal_mask
from storybridge.lm import BOS, EOS, SEP, GRULanguageModel, LMConfig, train_lm
from storybridge.optim import TrainConfig

FUSED = sorted(composite_ops())


def random_case(name: str, rng):
    """Random inputs for one fused op: (arrays, keyword arguments, shared), shapes drawn from rng.

    shared maps an argument index to an earlier one that gets the very same tensor.
    """
    n, d = (int(s) for s in rng.integers(1, 6, size=2))
    if name == "linear":
        o = int(rng.integers(1, 6))
        bias = None if rng.random() < 0.2 else rng.normal(size=o)
        return [rng.normal(size=(n, d)), rng.normal(size=(d, o)), bias], {}, {}
    if name == "feed_forward":
        f = int(rng.integers(1, 8))
        arrays = [rng.normal(size=s) for s in ((n, d), (d, f), (f,), (f, d), (d,))]
        return arrays, {}, {}
    if name == "add_layernorm":
        d += 1  # a one-wide norm has no gradient to check
        arrays = [rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=d) + 1.0, rng.normal(size=d)]
        return arrays, {}, ({1: 0} if rng.random() < 0.3 else {})
    if name == "attention":
        heads, dh = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        tk = int(rng.integers(1, 6))
        kind = ["none", "causal", "random", "shared"][int(rng.integers(0, 4))]
        tq = tk if kind in ("causal", "shared") else n
        arrays = [rng.normal(size=(t, heads * dh)) for t in (tq, tk, tk)]
        mask = None
        if kind == "causal":
            mask = causal_mask(tq)
        elif kind == "random":
            mask = np.where(rng.random((tq, tk)) < 0.3, NEG_INF, rng.normal(size=(tq, tk)))
        return arrays, {"num_heads": heads, "mask": mask}, ({1: 0, 2: 0} if kind == "shared" else {})
    if name == "gru_cell":
        din = int(rng.integers(1, 6))
        gates = [(din, d), (d, d), (d,)] * 2 + [(din, d), (d,), (d, d), (d,)]
        return [rng.normal(size=s) for s in [(n, din), (n, d), *gates]], {}, {}
    b, m, a = (int(s) for s in rng.integers(1, 6, size=3))
    arrays = [rng.normal(size=(m, a)), rng.normal(size=(b, a)), rng.normal(size=(a, 1)), rng.normal(size=(m, d))]
    return arrays, {}, {}


def positional(name: str, op):
    """op taking every array argument by position; the GRU cell takes its gates by keyword."""
    if name != "gru_cell":
        return op
    return lambda x, h, *gates: op(x, h, **dict(zip(GRU_GATES, gates)))


def run_op(op, arrays, kwargs, shared, weights):
    """Forward and every argument's gradient of sum(op(...) * weights)."""
    tensors = []
    for i, a in enumerate(arrays):
        tensors.append(tensors[shared[i]] if i in shared else (None if a is None else Tensor(a.copy(), requires_grad=True)))
    out = op(*tensors, **kwargs)
    ad.backward(ad.reduce_sum(ad.mul(out, Tensor(weights))))
    return out.data, [None if t is None else t.grad for t in tensors]


@pytest.mark.parametrize("name", FUSED)
@pytest.mark.parametrize("seed", range(12))
def test_fused_op_equals_its_composite_exactly(name, seed):
    rng = np.random.default_rng(1000 * FUSED.index(name) + seed)
    arrays, kwargs, shared = random_case(name, rng)
    composite = positional(name, composite_ops()[name])
    probe = composite(*[None if a is None else Tensor(a) for a in arrays], **kwargs)
    weights = rng.normal(size=probe.shape)
    fused_out, fused_grads = run_op(positional(name, getattr(ad, name)), arrays, kwargs, shared, weights)
    want_out, want_grads = run_op(composite, arrays, kwargs, shared, weights)
    assert np.array_equal(fused_out.view(np.uint64), want_out.view(np.uint64))
    for got, want in zip(fused_grads, want_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", FUSED)
def test_fused_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(77 + FUSED.index(name))
    arrays, kwargs, _shared = random_case(name, rng)
    if name == "linear":
        arrays[2] = rng.normal(size=arrays[1].shape[1])
    op = positional(name, getattr(ad, name))
    weights = rng.normal(size=op(*[Tensor(a) for a in arrays], **kwargs).shape)

    def loss():
        return float((op(*[Tensor(a) for a in arrays], **kwargs).data * weights).sum())

    _out, grads = run_op(op, arrays, kwargs, {}, weights)
    for i, a in enumerate(arrays):
        assert rel_err(grads[i], numeric_grad(loss, a)) <= 1e-4, f"{name} argument {i}"


TRAIN = TrainConfig(epochs=2, learning_rate=3e-3, warmup_steps=3)


def trained_stores(world, kinds) -> dict:
    """Parameter stores of the named tiny models: a 3-layer distiller, a 2+3-layer 4-head generator and a GRU LM."""
    vision = load_corpus(world["corpus"])
    stories = vision + load_corpus(world["text_corpus"])
    models = {}
    if "distiller" in kinds:
        pairs = build_training_pairs(vision, mode="distiller", features=load_feature_file(world["features"]))[:3]
        config = DistillerConfig(hidden_size=16, heads=2, layers=3, ff_multiple=2, num_slots=5, seed=3)
        models["distiller"], _ = train_distiller(pairs, config, TRAIN)
    if "generator" in kinds:
        config = GeneratorConfig(hidden_size=16, heads=4, encoder_layers=2, decoder_layers=3, ff_multiple=2, seed=3)
        models["generator"], _ = train_generator(build_training_pairs(stories, mode="generator")[:3], config, TRAIN)
    if "lm" in kinds:
        models["lm"], _ = train_lm(build_training_pairs(stories, mode="lm")[:6], LMConfig(hidden_size=16, seed=3), TRAIN)
    return {name: model.store for name, model in models.items()}


def parameter_bytes(store) -> bytes:
    return json.dumps(checkpoint_payload(store)["params"], sort_keys=True).encode()


def test_training_through_fused_ops_writes_the_composites_bytes(fixture_world, monkeypatch):
    """The LM and generator train to the same bytes with every op composite; the distiller with all but the GRU cell."""
    fused = trained_stores(fixture_world, ("distiller", "generator", "lm"))
    use_composite_ops(monkeypatch, [name for name in FUSED if name != "gru_cell"])
    assert ad.attention is composite_ops()["attention"]
    distiller = trained_stores(fixture_world, ("distiller",))["distiller"]
    assert parameter_bytes(fused["distiller"]) == parameter_bytes(distiller)
    use_composite_ops(monkeypatch, ["gru_cell"])
    composite = trained_stores(fixture_world, ("generator", "lm"))
    for name in composite:
        assert parameter_bytes(fused[name]) == parameter_bytes(composite[name]), name


# The distiller's attention query adds its gradient into the GRU state between the
# composite cell's terms; the fused cell adds its own terms together. Only the float
# order of those sums differs, and over 6 Adam steps of lr 3e-3 that moves no weight
# by more than this.
DISTILLER_FLOAT_ORDER_TOLERANCE = 1e-9


def test_distiller_through_the_fused_cell_stays_within_float_order_of_the_composite(fixture_world, monkeypatch):
    fused = trained_stores(fixture_world, ("distiller",))["distiller"]
    use_composite_ops(monkeypatch, ["gru_cell"])
    composite = dict(trained_stores(fixture_world, ("distiller",))["distiller"].items())
    assert [name for name, _ in fused.items()] == list(composite)
    for name, tensor in fused.items():
        assert np.max(np.abs(tensor.data - composite[name].data)) <= DISTILLER_FLOAT_ORDER_TOLERANCE, name


def test_lm_gradients_through_the_fused_cell_equal_the_composites_bit_for_bit(monkeypatch):
    """Each use of x and h gets its own gradient piece, summed in the composite's order, over many steps."""
    model = GRULanguageModel.build([BOS, EOS, SEP, "a", "b", "c"], hidden_size=8, seed=4)
    model.store.freeze(False)  # a built model starts frozen; this test takes gradients without fit
    ids = model._ids([BOS, "a", "b", SEP, "c", "a", SEP, "b", "b", "c", EOS])

    def gradients():
        ad.backward(ad.softmax_cross_entropy(ad.concat(list(model._forward(np.array([ids[:-1]])))), ids[1:]))
        return {name: t.grad.view(np.uint64).copy() for name, t in model.store.items()}

    fused = gradients()
    use_composite_ops(monkeypatch, ["gru_cell"])
    composite = gradients()
    assert fused.keys() == composite.keys()
    for name in fused:
        assert np.array_equal(fused[name], composite[name]), name


def mean_tape_nodes(monkeypatch, module, train_fn, *args) -> float:
    """Tape nodes per training example of one epoch of train_fn(*args), counted around the loss."""
    counts = []
    fit = module.fit

    def counting_fit(store, examples, loss_fn, train, **kwargs):
        def counted(example):
            with count_tape_nodes() as tape:
                result = loss_fn(example)
            counts.append(tape.nodes)
            return result

        return fit(store, examples, counted, train, **kwargs)

    monkeypatch.setattr(module, "fit", counting_fit)
    train_fn(*args, TrainConfig(epochs=1, learning_rate=3e-3, warmup_steps=50))
    return sum(counts) / len(counts)


def test_desk_training_examples_stay_under_their_tape_node_bounds(fixture_world, monkeypatch):
    """Composite GRU steps made 597 nodes per distiller example and 479.4 per LM example; fused, they are halved.

    Teacher-forcing every image of a story in one decoder step per term position took the distiller
    from 183.25 nodes per example to 64.
    """
    vision = load_corpus(fixture_world["corpus"])
    text = load_corpus(fixture_world["text_corpus"])
    pairs = build_training_pairs(vision, mode="distiller", features=load_feature_file(fixture_world["features"]))
    config = DistillerConfig(hidden_size=32, heads=2, layers=2, ff_multiple=2, num_slots=5, seed=0)
    assert mean_tape_nodes(monkeypatch, distill_module, train_distiller, pairs, config) <= 66
    sequences = build_training_pairs(vision + text, mode="lm")
    assert mean_tape_nodes(monkeypatch, lm_module, train_lm, sequences, LMConfig(hidden_size=32, seed=0)) <= 110
