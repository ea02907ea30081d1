"""The in-place numpy forwards against their out-of-place oracles, bit for bit.

Each forward computes its temporaries in place of fresh arrays, with the same
operations on the same operands in the same order. So every result must equal
the oracle's under a uint64 view, and no forward may write into its inputs.
"""

import numpy as np
import pytest

from helpers import (
    all_candidates_truncated,
    oracle_additive_attention,
    oracle_attention_values,
    oracle_batched_log_probs,
    oracle_feed_forward_values,
    oracle_layernorm_values,
    oracle_log_softmax_values,
    sequence_log_probs,
)
from storybridge import autodiff as ad
from storybridge import lm as lm_module
from storybridge.autodiff import Tensor
from storybridge.enrich import TermPath, build_candidates
from storybridge.kg import KGTuple, RelationIndex
from storybridge.lm import BOS, EOS, SEP, UNK, GRULanguageModel

NEG_MASK = -1e30


def bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.dtype == np.float64 else a


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(bits(g), bits(w))


def _masked(rng, shape):
    """Random additive mask: 0 or -1e30, with at least one 0 in every row."""
    mask = np.where(rng.random(shape) < 0.4, NEG_MASK, 0.0)
    mask[..., int(rng.integers(shape[-1]))] = 0.0
    return mask


def _case(name, rng):
    """Inputs of one forward on random shapes, and the forward and its oracle."""
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    if name == "layernorm_values":
        lead = (int(rng.integers(1, 4)),) if rng.random() < 0.5 else ()
        x = rng.normal(size=(*lead, n, d)) * rng.uniform(0.01, 100)
        return ad.layernorm_values, oracle_layernorm_values, (x, rng.normal(size=d), rng.normal(size=d))
    if name == "feed_forward_values":
        f, e = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        args = (rng.normal(size=(n, d)), rng.normal(size=(d, f)), rng.normal(size=f), rng.normal(size=(f, e)),
                rng.normal(size=e))
        return ad.feed_forward_values, oracle_feed_forward_values, args
    if name in ("attention_values", "masked_attention_values"):
        h, tk, dh = int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 7))
        lead = (int(rng.integers(1, 4)),) if name == "attention_values" and rng.random() < 0.5 else ()
        q = rng.normal(size=(*lead, h, n, dh)) * 3
        k, v = rng.normal(size=(*lead, h, tk, dh)) * 3, rng.normal(size=(*lead, h, tk, dh))
        mask = (_masked(rng, (n, tk)),) if name == "masked_attention_values" else ()
        return ad.attention_values, oracle_attention_values, (q, k, v, *mask)
    if name == "log_softmax_values":
        z = rng.normal(size=(n, int(rng.integers(1, 40)))) * rng.uniform(0.1, 50)
        z += _masked(rng, z.shape)
        return (lambda z: (ad.log_softmax_values(z),)), (lambda z: (oracle_log_softmax_values(z),)), (z,)
    if name == "additive_attention":
        b, m, a, e = int(rng.integers(1, 6)), int(rng.integers(1, 12)), int(rng.integers(1, 9)), int(rng.integers(1, 7))
        args = (rng.normal(size=(m, a)), rng.normal(size=(b, a)), rng.normal(size=(a, 1)) * 4, rng.normal(size=(m, e)))
        return (
            lambda *xs: (ad.additive_attention(*(Tensor(x, requires_grad=True) for x in xs)).data,),
            lambda *xs: (oracle_additive_attention(*xs),),
            args,
        )
    raise ValueError(name)


FORWARDS = [
    "layernorm_values", "feed_forward_values", "attention_values", "masked_attention_values",
    "log_softmax_values", "additive_attention",
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", FORWARDS)
def test_in_place_forward_equals_its_out_of_place_oracle_bit_for_bit(name, seed):
    rng = np.random.default_rng([seed, FORWARDS.index(name)])
    forward, oracle, args = _case(name, rng)
    before = [a.copy() for a in args]
    want = oracle(*[a.copy() for a in args])
    assert_bit_equal(forward(*args), want)
    assert_bit_equal(args, before)  # the inputs are read, never written


@pytest.mark.parametrize("seed", range(8))
def test_log_softmax_at_equals_the_gathered_table_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, v = int(rng.integers(1, 30)), int(rng.integers(1, 300))
    z = rng.normal(size=(n, v)) * rng.uniform(0.1, 50) + _masked(rng, (n, v))
    cols = rng.integers(v, size=n)
    rows = np.arange(n)
    want = oracle_log_softmax_values(z)[rows, cols]
    assert_bit_equal([ad.log_softmax_values(z)[rows, cols]], [want])
    assert_bit_equal([ad.log_softmax_at(z.copy(), cols)], [want])


def _random_index(rng, terms, tuples):
    index = RelationIndex()
    for _ in range(tuples):
        index.add(KGTuple(terms[rng.integers(len(terms))], f"r{rng.integers(4)}", terms[rng.integers(len(terms))], "g"))
    return index


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cap", [1, 2, 50, None])
def test_build_candidates_equals_build_all_then_truncate(seed, cap):
    rng = np.random.default_rng(seed)
    terms = [f"w{i}" for i in range(8)]
    index = _random_index(rng, terms, int(rng.integers(5, 80)))
    groups = [list(rng.choice(terms, size=int(rng.integers(1, 4)), replace=False)) for _ in range(5)]
    base = TermPath.from_groups(groups, story_id=f"s{seed}")
    want = all_candidates_truncated(base, index, cap)
    enumerated = []
    enumerate_bridges = index.enumerate_bridges
    index.enumerate_bridges = lambda a, b, two_hop: enumerated.append((a, b)) or enumerate_bridges(a, b, two_hop)
    assert build_candidates(base, index, cap) == want
    # every slot pair is still enumerated, however early the cap is reached
    assert enumerated == [(set(groups[k]), set(groups[k + 1])) for k in range(4)]


def test_build_candidates_rejects_a_cap_below_one():
    base = TermPath.from_groups([["a"], ["b"], ["c"], ["d"], ["e"]])
    with pytest.raises(ValueError, match="cap must be >= 1"):
        build_candidates(base, RelationIndex(), cap=0)


def _model_and_sequences(seed):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(30)] + [BOS, EOS, SEP, UNK]
    model = GRULanguageModel.build(vocab, hidden_size=int(rng.integers(4, 25)), seed=seed)
    distinct = {}
    for _ in range(20):
        length = int(rng.integers(2, 40))
        seq = [BOS] + [f"t{rng.integers(35)}" for _ in range(length - 2)] + [EOS]
        distinct.setdefault(tuple(model._ids(seq)), seq)
    return model, list(distinct.values())


@pytest.mark.parametrize("seed", range(3))
def test_one_row_log_probs_equal_the_sequence_log_prob_rows_exactly(seed, monkeypatch):
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", 1)  # one row per block
    model, seqs = _model_and_sequences(seed)
    want = []
    for seq in seqs:
        ids = model._ids(seq)
        want.append(sequence_log_probs(model, seq)[np.arange(len(ids) - 1), ids[1:]].sum())
    assert_bit_equal([lm_module.log_probs(model, seqs)], [np.array(want)])


@pytest.mark.parametrize("seed", range(3))
def test_batched_log_probs_equal_the_full_table_gather_exactly(seed):
    # one padded block: row blocking in the matmuls can move the last bit against
    # the one-row pass (within 1e-12, test_lm.py), but never against this oracle
    model, seqs = _model_and_sequences(seed)
    assert_bit_equal([lm_module.log_probs(model, seqs)], [oracle_batched_log_probs(model, seqs)])
