import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storybridge.metrics import bleu_n, distinct_n

# three-sentence toy corpus with hand-computable counts
TOY_CANDS = [
    ["the", "cat", "sat", "on", "the", "mat"],
    ["the", "dog", "ran"],
    ["a", "bird"],
]
TOY_REFS = [
    ["the", "cat", "sat", "on", "the", "mat"],
    ["the", "dog", "ran", "away"],
    ["the", "bird", "flew"],
]


def toy_expected(n):
    # hand counts: p1 = 10/11, p2 = 7/8, p3 = 5/5, p4 = 3/3
    precisions = [10 / 11, 7 / 8, 5 / 5, 3 / 3]
    bp = math.exp(1 - 13 / 11)  # candidate total 11, reference total 13
    log_sum = sum(math.log(p) for p in precisions[:n]) / n
    return bp * math.exp(log_sum)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bleu_matches_hand_computation(n):
    assert bleu_n(TOY_CANDS, TOY_REFS, n) == pytest.approx(toy_expected(n), abs=1e-9)


def test_identical_corpus_scores_one():
    refs = [["a", "b", "c", "d"], ["e", "f", "g"]]
    for n in range(1, 5):
        assert bleu_n(refs, refs, n) == pytest.approx(1.0)


def test_zero_overlap_scores_zero():
    assert bleu_n([["x", "y"]], [["a", "b"]], 1) == 0.0
    assert bleu_n([["x", "y"]], [["a", "b"]], 4) == 0.0


def test_bleu_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        bleu_n([], [], 1)
    with pytest.raises(ValueError, match="candidates vs"):
        bleu_n([["a"]], [], 1)
    with pytest.raises(ValueError, match="order"):
        bleu_n([["a"]], [["a"]], 5)


def clipped_precision(cands, refs, k):
    """Clipped k-gram precision counted directly, independent of metrics.py."""
    matched = total = 0
    for cand, ref in zip(cands, refs):
        ref_grams = [tuple(ref[i : i + k]) for i in range(len(ref) - k + 1)]
        cand_grams = [tuple(cand[i : i + k]) for i in range(len(cand) - k + 1)]
        for gram in set(cand_grams):
            matched += min(cand_grams.count(gram), ref_grams.count(gram))
        total += len(cand_grams)
    return matched / total if total else 0.0


@given(st.integers(min_value=0, max_value=10**6))
@example(289716)  # BLEU-2 exceeds BLEU-1 on this draw: BLEU-n need not fall with n
@settings(max_examples=40, deadline=None)
def test_bleu_is_geometric_mean_of_clipped_precisions_without_brevity_penalty(seed):
    rng = np.random.default_rng(seed)
    vocab = ["a", "b", "c", "d"]
    refs, cands = [], []
    for _ in range(3):
        ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
        refs.append(ref)
        # candidate at least as long as its reference, so brevity penalty is 1
        cand = [vocab[i] for i in rng.integers(0, 4, size=len(ref) + rng.integers(0, 3))]
        cands.append(cand)
    check_bleu_laws(cands, refs)


def check_bleu_laws(cands, refs):
    for n in range(1, 5):
        score = bleu_n(cands, refs, n)
        precisions = [clipped_precision(cands, refs, k) for k in range(1, n + 1)]
        want = math.prod(precisions) ** (1.0 / n)  # BP is 1: candidates are never shorter
        assert score == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert 0.0 <= score <= max(precisions) + 1e-12


def test_bleu_can_rise_with_order():
    # the one-token pair adds an unmatched unigram but no bigram, so p2 > p1
    cands, refs = [["x"], ["a", "b"]], [["y"], ["a", "b"]]
    check_bleu_laws(cands, refs)
    assert bleu_n(cands, refs, 1) == pytest.approx(2 / 3)
    assert bleu_n(cands, refs, 2) == pytest.approx(math.sqrt(2 / 3))


def test_distinct_counts_directly():
    stories = [["a", "a", "b"], ["a", "b", "b"]]
    # unigrams: 6 total, 2 unique; bigrams: 4 total, 3 unique
    assert distinct_n(stories, 1) == pytest.approx(2 / 6)
    assert distinct_n(stories, 2) == pytest.approx(3 / 4)


def test_distinct_all_unique_tokens():
    assert distinct_n([["a", "b"], ["c", "d"]], 1) == 1.0


def test_distinct_identical_stories_is_low():
    stories = [["a", "b", "a", "b"]] * 5
    assert distinct_n(stories, 1) == pytest.approx(2 / 20)


def test_distinct_empty_list_warns_and_returns_zero():
    with pytest.warns(UserWarning, match="empty"):
        assert distinct_n([], 1) == 0.0


def test_distinct_rejects_bad_order():
    with pytest.raises(ValueError):
        distinct_n([["a"]], 0)
