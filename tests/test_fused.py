"""The fused layer primitives against their composites in tests/helpers.py.

A fused op must give the composite's forward floats and gradients exactly,
and training through fused ops must write the same parameter bytes as
training through the composites.
"""

import json

import numpy as np
import pytest

from helpers import checkpoint_payload, composite_ops, numeric_grad, rel_err, use_composite_ops
from storybridge import autodiff as ad
from storybridge.autodiff import Tensor
from storybridge.corpus import build_training_pairs, load_corpus
from storybridge.distill import DistillerConfig, load_feature_file, train_distiller
from storybridge.generate import GeneratorConfig, train_generator
from storybridge.layers import NEG_INF, causal_mask
from storybridge.lm import LMConfig, train_lm
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
    b, m, a = (int(s) for s in rng.integers(1, 6, size=3))
    arrays = [rng.normal(size=(m, a)), rng.normal(size=(b, a)), rng.normal(size=(a, 1)), rng.normal(size=(m, d))]
    return arrays, {}, {}


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
    composite = composite_ops()[name]
    probe = composite(*[None if a is None else Tensor(a) for a in arrays], **kwargs)
    weights = rng.normal(size=probe.shape)
    fused_out, fused_grads = run_op(getattr(ad, name), arrays, kwargs, shared, weights)
    want_out, want_grads = run_op(composite, arrays, kwargs, shared, weights)
    assert np.array_equal(fused_out, want_out)
    for got, want in zip(fused_grads, want_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", FUSED)
def test_fused_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(77 + FUSED.index(name))
    arrays, kwargs, _shared = random_case(name, rng)
    if name == "linear":
        arrays[2] = rng.normal(size=arrays[1].shape[1])
    op = getattr(ad, name)
    weights = rng.normal(size=op(*[Tensor(a) for a in arrays], **kwargs).shape)

    def loss():
        return float((op(*[Tensor(a) for a in arrays], **kwargs).data * weights).sum())

    _out, grads = run_op(op, arrays, kwargs, {}, weights)
    for i, a in enumerate(arrays):
        assert rel_err(grads[i], numeric_grad(loss, a)) <= 1e-4, f"{name} argument {i}"


def trained_parameter_bytes(world) -> dict[str, bytes]:
    """Parameter bytes of a tiny 3-layer distiller, 2+3-layer 4-head generator and GRU LM."""
    vision = load_corpus(world["corpus"])
    text = load_corpus(world["text_corpus"])
    features = load_feature_file(world["features"])
    train = TrainConfig(epochs=2, learning_rate=3e-3, warmup_steps=3)
    pairs = build_training_pairs(vision, mode="distiller", features=features)[:3]
    distiller, _ = train_distiller(
        pairs,
        DistillerConfig(hidden_size=16, heads=2, layers=3, ff_multiple=2, num_slots=5, seed=3),
        train,
    )
    generator, _ = train_generator(
        build_training_pairs(vision + text, mode="generator")[:3],
        GeneratorConfig(hidden_size=16, heads=4, encoder_layers=2, decoder_layers=3, ff_multiple=2, seed=3),
        train,
    )
    lm, _ = train_lm(build_training_pairs(vision + text, mode="lm")[:6], LMConfig(hidden_size=16, seed=3), train)
    return {
        name: json.dumps(checkpoint_payload(model.store)["params"], sort_keys=True).encode()
        for name, model in (("distiller", distiller), ("generator", generator), ("lm", lm))
    }


def test_training_through_fused_ops_writes_the_composites_bytes(fixture_world, monkeypatch):
    fused = trained_parameter_bytes(fixture_world)
    use_composite_ops(monkeypatch)
    assert ad.attention is composite_ops()["attention"]
    composite = trained_parameter_bytes(fixture_world)
    for name in fused:
        assert fused[name] == composite[name], name
