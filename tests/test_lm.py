import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import log_prob, next_token_distribution, reference_perplexity, sequence_log_probs
from storybridge import lm as lm_module
from storybridge.lm import (
    BOS,
    EOS,
    SEP,
    UNK,
    GRULanguageModel,
    LMConfig,
    NGramLM,
    linearize_groups,
    load_lm,
    perplexities,
    perplexity,
    train_lm,
)
from storybridge.optim import TrainConfig


def test_linearize_groups_markers():
    seq = linearize_groups([["a", "b"], ["c"]])
    assert seq == [BOS, "a", "b", SEP, "c", EOS]


def test_bigram_unsmoothed_hand_count():
    model = NGramLM.train([["a", "b", "a", "b"]], order=2, smoothing_k=0.0, vocab={"a", "b"})
    assert model.prob("b", ["a"]) == pytest.approx(1.0)


def test_bigram_add_one_hand_count():
    model = NGramLM.train([["a", "b", "a", "b"]], order=2, smoothing_k=1.0, vocab={"a", "b"})
    # count(a b)=2, count(a .)=2, V=2: (2+1)/(2+2)
    assert model.prob("b", ["a"]) == pytest.approx(0.75)


def test_uniform_unigram_log_prob():
    # scored positions cover each type once, so the unigram is uniform over V=4
    corpus = [["a", "b", "c", "d", "a"]]
    model = NGramLM.train(corpus, order=1, smoothing_k=0.0, vocab={"a", "b", "c", "d"})
    # three scored tokens under a uniform unigram over V=4
    assert log_prob(model, ["a", "b", "c", "d"]) == pytest.approx(3 * math.log(0.25))
    assert perplexity(model, ["a", "b", "c", "d"]) == pytest.approx(4.0)


def test_markers_only_sequence_scores_single_token():
    model = NGramLM.train([[BOS, "x", EOS], [BOS, EOS]], order=2, smoothing_k=0.0)
    lp = log_prob(model, [BOS, EOS])
    assert lp == pytest.approx(math.log(model.prob(EOS, [BOS])))


def test_log_prob_matches_per_token_accumulation():
    corpus = [[BOS, "a", "b", SEP, "c", EOS], [BOS, "b", "b", SEP, "a", EOS]]
    model = NGramLM.train(corpus, order=2, smoothing_k=0.5)
    seq = [BOS, "a", "b", SEP, "a", EOS]
    manual = sum(math.log(model.prob(seq[i], seq[:i])) for i in range(1, len(seq)))
    assert log_prob(model, seq) == pytest.approx(manual, rel=1e-12)


def test_memorized_sequence_perplexity_is_one():
    model = NGramLM.train([["a", "b", "c"]] * 3, order=2, smoothing_k=0.0, vocab={"a", "b", "c"})
    assert perplexity(model, ["a", "b", "c"]) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_perplexity_consistent_with_log_prob(seed):
    rng = np.random.default_rng(seed)
    corpus = [[BOS] + [f"t{rng.integers(5)}" for _ in range(rng.integers(1, 6))] + [EOS] for _ in range(4)]
    model = NGramLM.train(corpus, order=2, smoothing_k=1.0)
    seq = corpus[0]
    assert perplexity(model, seq) == pytest.approx(math.exp(-log_prob(model, seq) / (len(seq) - 1)))
    assert perplexity(model, seq) >= 1.0


def test_ngram_normalization_sums_to_one():
    corpus = [[BOS, "a", "b", EOS], [BOS, "b", "a", EOS]]
    model = NGramLM.train(corpus, order=2, smoothing_k=1.0)
    for ctx in ([BOS], ["a"], ["b"], ["unseen_context"]):
        total = sum(next_token_distribution(model, ctx).values())
        assert abs(total - 1.0) < 1e-9


def test_gru_normalization_sums_to_one():
    corpus = [[BOS, "a", "b", EOS], [BOS, "b", EOS]]
    model, _ = train_lm(corpus, LMConfig(kind="gru", hidden_size=8, seed=1), TrainConfig(epochs=2))
    total = sum(next_token_distribution(model, [BOS, "a"]).values())
    assert abs(total - 1.0) < 1e-9


def test_appending_tokens_never_increases_log_prob():
    corpus = [[BOS, "a", "b", "c", EOS]]
    model = NGramLM.train(corpus, order=2, smoothing_k=1.0)
    seq = [BOS, "a", "b", "c", EOS]
    prev = 0.0
    for end in range(2, len(seq) + 1):
        lp = log_prob(model, seq[:end])
        assert lp <= prev + 1e-12
        prev = lp


def test_unknown_tokens_map_to_unk_never_dropped():
    model = NGramLM.train([[BOS, "a", EOS]], order=2, smoothing_k=1.0)
    assert UNK in model.vocab
    lp = log_prob(model, [BOS, "never_seen", EOS])
    assert math.isfinite(lp) and lp < 0


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        train_lm([], LMConfig(kind="ngram"))
    with pytest.raises(ValueError, match="empty corpus"):
        NGramLM.train([])


def test_gru_holdout_that_leaves_nothing_to_train_on_is_rejected(monkeypatch):
    from storybridge.ioutil import InputError

    # the check comes before the model is built
    monkeypatch.setattr(GRULanguageModel, "build", lambda *a, **k: pytest.fail("a model was built"))
    with pytest.raises(InputError, match=r"holding out 10% of 1 term sequences \(at least one\) would hold out all"):
        train_lm([[BOS, "a", EOS]], LMConfig(kind="gru", hidden_size=4))
    model, history = train_lm([[BOS, "a", EOS]], LMConfig(kind="ngram"))  # an n-gram LM holds nothing out
    assert isinstance(model, NGramLM) and history == []


def test_gru_overfits_single_sequence_to_low_perplexity():
    seq = [BOS, "dog", "park", SEP, "ball", "dog", EOS]
    cfg = LMConfig(kind="gru", hidden_size=24, seed=3)
    model, history = train_lm([seq] * 4, cfg, TrainConfig(epochs=150, learning_rate=3e-3, warmup_steps=20))
    assert history[-1] < history[0]
    assert perplexity(model, seq) <= 1.05


def test_gru_ranking_agrees_with_ngram_oracle_after_convergence():
    liked = [BOS, "a", "b", SEP, "c", EOS]
    disliked = [BOS, "c", "a", SEP, "b", EOS]
    corpus = [liked] * 6
    gru, _ = train_lm(
        corpus,
        LMConfig(kind="gru", hidden_size=16, seed=0),
        TrainConfig(epochs=120, learning_rate=3e-3, warmup_steps=20),
    )
    ngram = NGramLM.train(corpus, order=2, smoothing_k=0.1)
    assert perplexity(gru, liked) < perplexity(gru, disliked)
    assert perplexity(ngram, liked) < perplexity(ngram, disliked)


def test_trained_gru_checkpoint_records_schedule(tmp_path):
    corpus = [[BOS, "a", "b", EOS], [BOS, "b", EOS]]
    model, _ = train_lm(corpus, LMConfig(kind="gru", hidden_size=8, seed=1), TrainConfig(epochs=2))
    path = str(tmp_path / "lm.json")
    model.save(path)
    import json

    payload = json.loads(open(path).read())
    assert payload["schedule"]["decay"] == "inverse_sqrt"
    assert payload["schedule"]["step_count"] == 2


def test_lm_checkpoints_roundtrip(tmp_path):
    corpus = [[BOS, "a", "b", EOS], [BOS, "b", "a", EOS]]
    ngram = NGramLM.train(corpus, order=2, smoothing_k=0.5)
    npath = str(tmp_path / "ngram.json")
    ngram.save(npath)
    loaded = load_lm(npath)
    assert isinstance(loaded, NGramLM)
    assert log_prob(loaded, corpus[0]) == pytest.approx(log_prob(ngram, corpus[0]))

    gru, _ = train_lm(corpus, LMConfig(kind="gru", hidden_size=8, seed=2), TrainConfig(epochs=3))
    gpath = str(tmp_path / "gru.json")
    gru.save(gpath)
    loaded_gru = load_lm(gpath)
    assert isinstance(loaded_gru, GRULanguageModel)
    assert log_prob(loaded_gru, corpus[0]) == pytest.approx(log_prob(gru, corpus[0]), rel=1e-12)


def test_ngram_checkpoint_shares_the_parameter_store_layout(tmp_path):
    import json

    from storybridge.params import FORMAT_VERSION

    corpus = [[BOS, "a", "b", SEP, "c", EOS], [BOS, "b", "a", EOS], [BOS, "c", "c", "a", EOS]]
    ngram = NGramLM.train(corpus, order=3, smoothing_k=0.25)
    path = str(tmp_path / "ngram.json")
    ngram.save(path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["format_version"] == FORMAT_VERSION and payload["params"] == {}
    assert payload["extra"]["kind"] == "ngram"
    loaded = load_lm(path)
    assert (loaded.order, loaded.smoothing_k, loaded.vocab) == (ngram.order, ngram.smoothing_k, ngram.vocab)
    assert (loaded.counts, loaded.context_counts) == (ngram.counts, ngram.context_counts)
    probe = corpus + [[BOS, "never_seen", "a", EOS]]
    assert loaded.log_probs(probe).tobytes() == ngram.log_probs(probe).tobytes()


def _random_gru(seed, vocab_size=30, hidden=16):
    vocab = [f"t{i}" for i in range(vocab_size)] + [BOS, EOS, SEP, UNK]
    return GRULanguageModel.build(vocab, hidden_size=hidden, seed=seed)


def _random_sequences(rng, count, vocab_size=30, max_len=60):
    # token ids past the vocabulary are out-of-vocabulary words that map to <unk>
    seqs = []
    for _ in range(count):
        length = int(rng.integers(2, max_len + 1))
        inner = [f"t{rng.integers(vocab_size + 5)}" for _ in range(length - 2)]
        seqs.append([BOS] + inner + [EOS])
    return seqs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("block_rows", [1, 4, 512])
def test_batched_perplexities_match_per_sequence_reference(seed, block_rows, monkeypatch):
    rng = np.random.default_rng(seed)
    model = _random_gru(seed, hidden=int(rng.integers(4, 25)))
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", block_rows * len(model.vocab) * 8)
    seqs = _random_sequences(rng, 23) + [[BOS, EOS], [BOS, "t3", EOS]]
    got = perplexities(model, seqs)
    want = np.array([reference_perplexity(model, seq) for seq in seqs])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for seq, ppl in zip(seqs[:3], got[:3]):
        assert perplexity(model, seq) == pytest.approx(ppl, rel=1e-12)
        assert log_prob(model, seq) == pytest.approx(-math.log(ppl) * (len(seq) - 1), rel=1e-12)


def test_sequences_with_equal_ids_share_one_float(monkeypatch):
    model = _random_gru(7)
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", 2 * len(model.vocab) * 8)  # 2-row blocks
    rng = np.random.default_rng(7)
    twin_a = [BOS, "t1", "never_seen", SEP, "t2", EOS]
    twin_b = [BOS, "t1", "also_unknown", SEP, "t2", EOS]
    seqs = _random_sequences(rng, 5) + [twin_a] + _random_sequences(rng, 4) + [twin_b]
    got = perplexities(model, seqs)
    assert got[5].tobytes() == got[10].tobytes()
    assert got[5] == pytest.approx(reference_perplexity(model, twin_a), rel=1e-12)


def test_blocks_hold_sequences_of_like_lengths(monkeypatch):
    model = _random_gru(3)
    monkeypatch.setattr(lm_module, "SCORE_BLOCK_BYTES", 2 * len(model.vocab) * 8)  # 2-row blocks
    widths, states = [], model._states
    monkeypatch.setattr(model, "_states", lambda ids: widths.append(ids.shape[1]) or states(ids))
    long_a, long_b = [BOS] + ["t1"] * 9 + [EOS], [BOS] + ["t2"] * 9 + [EOS]
    seqs = [long_a, [BOS, "t3", EOS], long_b, [BOS, "t4", EOS]]
    got = perplexities(model, seqs)
    assert widths == [2, 10]  # the two short sequences share a block, padded to their own length
    np.testing.assert_allclose(got, [reference_perplexity(model, seq) for seq in seqs], rtol=1e-12, atol=0)


def test_perplexities_reject_short_sequences_and_accept_none():
    model = _random_gru(0)
    assert perplexities(model, []).shape == (0,)
    with pytest.raises(ValueError, match="begin and an end"):
        perplexities(model, [[BOS, EOS], [BOS]])


def test_ngram_perplexities_equal_per_sequence_calls():
    corpus = [[BOS, "a", "b", SEP, "c", EOS], [BOS, "b", "b", SEP, "a", EOS]]
    model = NGramLM.train(corpus, order=2, smoothing_k=0.5)
    seqs = corpus + [[BOS, "q", EOS]]
    assert perplexities(model, seqs).tolist() == [perplexity(model, seq) for seq in seqs]


def test_gru_next_token_distribution_is_last_forward_row():
    model = _random_gru(3)
    context = [BOS, "t4", "unseen", SEP]
    want = sequence_log_probs(model, context + [EOS])[-1]
    got = next_token_distribution(model, context)
    np.testing.assert_allclose([got[t] for t in model.vocab], np.exp(want), rtol=1e-12, atol=1e-300)
