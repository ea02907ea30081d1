import json
import math
import zlib
from dataclasses import fields

import numpy as np
import pytest

from helpers import (
    batched,
    beam_penalty_score,
    checkpoint_payload,
    decode_one,
    ldpe,
    one_search_top_k,
    per_search_decode,
    recompute_step,
    reference_story_beam,
)
from storybridge import autodiff as ad
from storybridge import generate
from storybridge.beam import Search, beam_decode, blocks, top_k
from storybridge.enrich import TermPath
from storybridge.generate import (
    BOS_STORY,
    EOS_STORY,
    SENTENCE_BOUNDARY,
    BeamPenaltyConfig,
    GeneratorConfig,
    GeneratorModel,
    Story,
    UnknownWordsError,
    build_generator_vocab,
    decode_stories,
    decode_story,
    story_tokens,
    train_generator,
)
from storybridge.corpus import (
    AnnotatedSentence,
    FrameSpan,
    GeneratorExample,
    StoryRecord,
    build_training_pairs,
)
from storybridge.layers import DecoderCache, sinusoidal_encoding
from storybridge.optim import TrainConfig

SMALL_GEN = GeneratorConfig(
    hidden_size=24, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=2, seed=9
)


# ---------------------------------------------------------------- LDPE laws


def test_ldpe_terminal_position_pattern():
    vec = ldpe(7, 7, 8)
    np.testing.assert_allclose(vec[0::2], 0.0)
    np.testing.assert_allclose(vec[1::2], 1.0)


def test_ldpe_depends_only_on_remaining_length():
    rng = np.random.default_rng(0)
    for _ in range(200):
        l1 = int(rng.integers(1, 60))
        p1 = int(rng.integers(0, l1 + 1))
        shift = int(rng.integers(0, 20))
        l2, p2 = l1 + shift, p1 + shift
        a = ldpe(p1, l1, 16)
        b = ldpe(p2, l2, 16)
        assert (a == b).all()


def test_ldpe_matches_direct_formula():
    pos, length, d = 0, 10, 4
    vec = ldpe(pos, length, d)
    for i in range(d // 2):
        angle = (length - pos) / (10000 ** (2 * i / d))
        assert vec[2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
        assert vec[2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)


def test_ldpe_rejects_bad_arguments():
    with pytest.raises(ValueError, match="exceeds"):
        ldpe(11, 10, 4)
    with pytest.raises(ValueError, match="even"):
        ldpe(0, 10, 5)


def test_ldpe_is_sinusoidal_encoding_of_remaining_length():
    rows = sinusoidal_encoding([3, 0], 6)
    np.testing.assert_array_equal(rows[0], ldpe(0, 3, 6))
    np.testing.assert_array_equal(rows[1], ldpe(3, 3, 6))


# ------------------------------------------------------- penalty arithmetic


def test_penalty_score_hand_values():
    assert beam_penalty_score(-1.0, True, False, 20.0, 5.0, 10) == pytest.approx(-21.0)
    assert beam_penalty_score(-1.0, False, True, 20.0, 5.0, 10) == pytest.approx(-1.5)
    assert beam_penalty_score(-1.0, True, True, 20.0, 5.0, 10) == pytest.approx(-21.5)


def test_inter_sentence_penalty_strictly_decays_with_length():
    scores = [beam_penalty_score(-1.0, False, True, 20.0, 5.0, l) for l in range(1, 30)]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        BeamPenaltyConfig(alpha=-1)
    with pytest.raises(ValueError):
        BeamPenaltyConfig(beam_size=0)


# --------------------------------------------------------- stub-model beams

V = 22  # 20 word tokens, then boundary and one excluded id
SB = 20
EXC = 21


def run_stub_beam(step, groups=2, alpha=20.0, gamma=5.0, beam=3, max_sentence_tokens=5):
    return decode_one(
        batched(step),
        vocab_size=V,
        sb_id=SB,
        group_count=groups,
        penalties=BeamPenaltyConfig(alpha=alpha, gamma=gamma, beam_size=beam),
        max_sentence_tokens=max_sentence_tokens,
        excluded_ids=(EXC,),
    )


def temptation_step(repeat_tok, delta):
    """The repeat is always the argmax; one alternative trails it by delta nats."""

    def step(prefix):
        logp = np.full(V, -30.0)
        logp[SB] = -12.0
        sentence = []
        for t in prefix:
            sentence = [] if t == SB else sentence + [t]
        if not sentence:
            logp[repeat_tok] = -0.1
        else:
            logp[repeat_tok] = -0.5
            logp[(repeat_tok + 1) % 20] = -0.5 - delta
        return logp

    return step


def test_repeat_never_chosen_when_alternative_within_twenty_nats():
    # exhaustive over the 20-token vocabulary and a grid of margins under 20
    for repeat_tok in range(20):
        for delta in (0.0, 1.0, 5.0, 19.0, 19.9):
            tokens, _, _ = run_stub_beam(temptation_step(repeat_tok, delta))
            sentence = []
            for t in tokens:
                if t == SB:
                    sentence = []
                else:
                    assert t not in sentence, (repeat_tok, delta)
                    sentence.append(t)


def test_repeat_wins_when_advantage_exceeds_alpha():
    # alternative more than 20 nats behind: the formula is a penalty, not a mask
    def step(prefix):
        logp = np.full(V, -40.0)
        sentence = []
        for t in prefix:
            sentence = [] if t == SB else sentence + [t]
        logp[SB] = -1.0 if len(sentence) >= 2 else -50.0
        logp[3] = -0.1 if not sentence else -0.5
        if sentence:
            logp[4] = -0.5 - 25.0
        return logp

    tokens, _, _ = run_stub_beam(step, groups=1, max_sentence_tokens=3)
    first_sentence = tokens[: tokens.index(SB)]
    assert first_sentence.count(3) > 1


def reference_plain_beam(step, groups, beam, max_sentence_tokens, vocab_size=V, sb_id=SB, excluded=(EXC,)):
    """Penalty-free beam with the same structural rules, written independently."""
    live = [(0.0, ())]
    done = []
    while live:
        scored = []
        for hyp_idx, (score, tokens) in enumerate(live):
            logp = step(tokens)
            sent_len = 0
            for t in tokens:
                sent_len = 0 if t == sb_id else sent_len + 1
            allowed = [sb_id] if sent_len >= max_sentence_tokens else [
                t for t in range(vocab_size) if t == sb_id or t not in excluded
            ]
            for tok in allowed:
                scored.append((score + float(logp[tok]), tok, hyp_idx))
        scored.sort(key=lambda c: (-c[0], c[1], c[2]))
        new_live = []
        for s, tok, hyp_idx in scored[:beam]:
            tokens = live[hyp_idx][1] + (tok,)
            if tok == sb_id and sum(1 for t in tokens if t == sb_id) == groups:
                done.append((s, tokens))
            else:
                new_live.append((s, tokens))
        live = new_live
        if len(done) >= beam:
            break
    best = max(enumerate(done), key=lambda kv: (kv[1][0], -kv[0]))[1]
    return list(best[1]), best[0]


def hashed_step(prefix):
    seed = zlib.crc32(bytes(t % 256 for t in prefix) + b"salt")
    raw = np.random.default_rng(seed).normal(size=V)
    raw -= np.log(np.exp(raw).sum())
    return raw


def test_zero_penalties_reduce_to_plain_beam_search():
    for groups in (1, 2, 3):
        got_tokens, got_score, _ = run_stub_beam(hashed_step, groups=groups, alpha=0.0, gamma=0.0)
        want_tokens, want_score = reference_plain_beam(hashed_step, groups, 3, 5)
        assert got_tokens == want_tokens
        assert got_score == pytest.approx(want_score)


def test_beam_scores_are_nonincreasing_in_length():
    trace = []

    def recording_step(prefix):
        logp = hashed_step(prefix)
        trace.append(len(prefix))
        return logp

    tokens, score, _ = run_stub_beam(recording_step, groups=2)
    assert score <= 0.0


def test_forced_boundary_flags_truncation():
    def never_ending(prefix):
        logp = np.full(V, -30.0)
        logp[0] = -0.1  # loves one token, never the boundary
        sentence = []
        for t in prefix:
            sentence = [] if t == SB else sentence + [t]
        if 0 in sentence:
            logp[1] = -0.2
            logp[2] = -0.3
            logp[3] = -0.35
            logp[4] = -0.4
            logp[5] = -0.45
        return logp

    tokens, _, truncated = run_stub_beam(never_ending, groups=1, max_sentence_tokens=4)
    assert truncated
    assert tokens.count(SB) == 1
    assert len(tokens) == 5  # four words then the forced boundary


# ----------------------------------------------------- trained-model checks


def overfit_story():
    s0 = AnnotatedSentence(
        tokens=["the", "dog", "is", "ready", "to", "go"],
        pos=["DET", "NOUN", "AUX", "ADJ", "PART", "VERB"],
        frames=[FrameSpan(5, 6, "Motion")],
    )
    s1 = AnnotatedSentence(
        tokens=["he", "plays", "on", "the", "ground"],
        pos=["PRON", "VERB", "ADP", "DET", "NOUN"],
        frames=[FrameSpan(1, 2, "Performers_and_roles")],
    )
    return StoryRecord("overfit", [s0, s1])


@pytest.fixture(scope="module")
def memorized():
    pairs = build_training_pairs([overfit_story()], mode="generator")
    model, history = train_generator(
        pairs,
        SMALL_GEN,
        TrainConfig(epochs=400, learning_rate=5e-3, warmup_steps=20),
    )
    return model, history, pairs


def test_overfit_reproduces_gold_story(memorized):
    model, history, pairs = memorized
    assert history[-1] < 0.05
    path = TermPath.from_groups(pairs[0].term_groups, story_id="overfit")
    story = decode_story(path, model, BeamPenaltyConfig())
    assert story.sentences == pairs[0].sentences
    assert not story.truncated
    assert story.story_id == "overfit"


def test_zero_penalty_decode_on_trained_model_matches_reference(memorized):
    model, _, pairs = memorized
    groups = pairs[0].term_groups
    budget = len(groups) * (model.sentence_budget + 1) + 1
    step = recompute_step(model, groups, budget)
    excluded = (
        model.token_to_id[BOS_STORY],
        model.token_to_id[EOS_STORY],
        model.token_to_id["<unk>"],
    )
    got_ids, got_score, _ = decode_one(
        model.step_log_probs_fn([groups], [budget]),
        vocab_size=len(model.vocab),
        sb_id=model.token_to_id[SENTENCE_BOUNDARY],
        group_count=len(groups),
        penalties=BeamPenaltyConfig(alpha=0.0, gamma=0.0, beam_size=3),
        max_sentence_tokens=model.config.max_sentence_tokens,
        excluded_ids=excluded,
    )
    want_ids, want_score = reference_plain_beam(
        step,
        len(groups),
        3,
        model.config.max_sentence_tokens,
        vocab_size=len(model.vocab),
        sb_id=model.token_to_id[SENTENCE_BOUNDARY],
        excluded=excluded,
    )
    assert got_ids == want_ids
    assert got_score == pytest.approx(want_score)


def test_sentence_count_matches_group_count():
    vocab = [BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, "<unk>", "<s>", "</s>", "<sep>"] + [
        f"w{i}" for i in range(8)
    ]
    model = GeneratorModel.build(vocab, SMALL_GEN, sentence_budget=4)
    five = TermPath.from_groups([[f"w{i}"] for i in range(5)])
    six = TermPath.from_groups([[f"w{i}"] for i in range(6)])
    assert len(decode_story(five, model).sentences) == 5
    assert len(decode_story(six, model).sentences) == 6


def test_finetune_continues_without_loss_blowup(memorized, tmp_path):
    model, history, pairs = memorized
    path = str(tmp_path / "generator.json")
    model.save(path)
    _, more = train_generator(
        pairs,
        model=GeneratorModel.load(path),  # a copy: the module's later tests read the memorized model as trained
        train=TrainConfig(epochs=3, learning_rate=1e-4, warmup_steps=20),
    )
    assert more[0] < 10 * history[-1]
    assert checkpoint_payload(model.store) == checkpoint_payload(GeneratorModel.load(path).store)


def test_finetuning_starts_fresh_adam_moments_and_schedule(memorized, tmp_path):
    model, _, pairs = memorized
    pre, tuned_path = str(tmp_path / "pre.json"), str(tmp_path / "tuned.json")
    model.save(pre)
    base = GeneratorModel.load(pre)
    tuned, _ = train_generator(pairs, model=base, train=TrainConfig(epochs=3, learning_rate=2.5e-4, warmup_steps=7))
    tuned.save(tuned_path)
    schedule = GeneratorModel.load(tuned_path).store.schedule
    assert schedule == {"base_lr": 2.5e-4, "warmup_steps": 7, "decay": "inverse_sqrt", "step_count": 3 * len(pairs)}


def test_identical_seed_identical_checkpoints():
    pairs = build_training_pairs([overfit_story()], mode="generator")
    cfg = GeneratorConfig(hidden_size=16, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=2, seed=4)
    tr = TrainConfig(epochs=4, learning_rate=1e-3)
    m1, _ = train_generator(pairs, cfg, tr)
    m2, _ = train_generator(pairs, cfg, tr)
    assert checkpoint_payload(m1.store) == checkpoint_payload(m2.store)


def test_group_sentence_mismatch_error_names_record():
    pairs = build_training_pairs([overfit_story()], mode="generator")
    pairs[0].term_groups.append(["Extra_Noun"])
    with pytest.raises(ValueError, match="overfit"):
        train_generator(pairs, SMALL_GEN, TrainConfig(epochs=1))


def test_story_token_vocab_errors_are_loud():
    pairs = build_training_pairs([overfit_story()], mode="generator")
    model = GeneratorModel.build(["<bos>", "<eos>", "<sb>", "<unk>", "<s>", "</s>", "<sep>", "only"], SMALL_GEN)
    with pytest.raises(ValueError, match="not in generator vocabulary"):
        model.training_loss(pairs[0].term_groups, pairs[0].sentences)
    # fine-tuning checks every story before the first Adam step, not at the story's turn
    known = GeneratorExample("known", [["only"]], [["only"]])
    before = checkpoint_payload(model.store)
    with pytest.raises(UnknownWordsError, match="overfit") as exc:
        train_generator([known] + pairs, model=model, train=TrainConfig(epochs=1))
    assert exc.value.words == sorted({tok for sent in pairs[0].sentences for tok in sent})
    assert checkpoint_payload(model.store) == before


def test_model_checkpoint_roundtrip(tmp_path, memorized):
    model, _, pairs = memorized
    path = str(tmp_path / "generator.json")
    model.save(path)
    loaded = GeneratorModel.load(path)
    assert loaded.vocab == model.vocab
    assert loaded.sentence_budget == model.sentence_budget
    story_a = decode_story(TermPath.from_groups(pairs[0].term_groups), model)
    story_b = decode_story(TermPath.from_groups(pairs[0].term_groups), loaded)
    assert story_a.tokens == story_b.tokens
    assert story_a.score == pytest.approx(story_b.score, rel=1e-12)


def test_checkpoint_config_round_trip(tmp_path):
    config = GeneratorConfig(
        hidden_size=8, heads=4, encoder_layers=2, decoder_layers=3, ff_multiple=3, max_sentence_tokens=7, seed=13
    )
    assert all(getattr(config, f.name) != f.default for f in fields(GeneratorConfig))
    model = GeneratorModel.build([BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, "<unk>", "dog"], config, sentence_budget=4)
    path = str(tmp_path / "generator.json")
    model.save(path)
    loaded = GeneratorModel.load(path)
    assert loaded.config == config
    assert loaded.sentence_budget == 4
    assert loaded.vocab == model.vocab


def test_story_sentence_spans():
    story = Story("s", [["a", "b"], ["c"]], ["a", "b", SENTENCE_BOUNDARY, "c", SENTENCE_BOUNDARY], -1.0)
    assert story.sentence_spans == [(0, 2), (3, 4)]


def test_story_tokens_layout():
    assert story_tokens([["a"], ["b", "c"]]) == [
        "a",
        SENTENCE_BOUNDARY,
        "b",
        "c",
        SENTENCE_BOUNDARY,
        EOS_STORY,
    ]


# ------------------------------------- batched core against per-hypothesis references


def assert_same_decode(got, want):
    got_ids, got_score, got_trunc = got
    want_ids, want_score, want_trunc = want
    assert got_ids == want_ids
    assert got_trunc == want_trunc
    assert abs(got_score - want_score) <= 1e-9


def stub_case(step, groups, penalties, max_sentence_tokens):
    kwargs = dict(
        vocab_size=V,
        sb_id=SB,
        group_count=groups,
        penalties=penalties,
        max_sentence_tokens=max_sentence_tokens,
        excluded_ids=(EXC,),
    )
    return decode_one(batched(step), **kwargs), reference_story_beam(step, **kwargs)


def tied_step(prefix):
    """Log-probs rounded to whole nats: many exact ties across tokens and hypotheses."""
    return np.round(hashed_step(prefix) * 2.0) - 3.0


@pytest.mark.parametrize("step", [hashed_step, tied_step], ids=["hashed", "tied"])
def test_batched_beam_equals_per_hypothesis_reference(step):
    for groups in (1, 2, 3):
        for beam in (1, 2, 3, 5):
            for alpha, gamma in ((20.0, 5.0), (1.0, 3.0), (0.0, 0.0)):
                for cap in (2, 5):
                    penalties = BeamPenaltyConfig(alpha=alpha, gamma=gamma, beam_size=beam)
                    got, want = stub_case(step, groups, penalties, cap)
                    assert got[0] == want[0] and got[2] == want[2], (groups, beam, alpha, cap)
                    assert got[1] == want[1]


@pytest.mark.parametrize("step", [hashed_step, tied_step], ids=["hashed", "tied"])
def test_lockstep_searches_equal_separate_decodes(step):
    # one call per setting; its searches differ in group count and step, so they finish at different beam steps
    group_counts = [1, 2, 3]
    settings = [
        dict(penalties=BeamPenaltyConfig(alpha=alpha, gamma=gamma, beam_size=beam), max_sentence_tokens=cap,
             run_until_empty=until_empty)
        for beam in (1, 3, 5)
        for alpha, gamma in ((20.0, 5.0), (0.0, 0.0))
        for cap in (2, 5)
        for until_empty in (False, True)
    ]

    def search_step(g):
        return lambda prefix: step((200 + g,) + prefix)

    for kw in settings:
        calls, rows, steps = [], [], []
        owners = None  # each row's search, followed from the roots through parents

        def lockstep_step(frontier):
            nonlocal owners
            parents, tokens = frontier
            owners = parents if owners is None else owners[parents]  # the roots are rows 0..G-1
            calls.append(owners.tolist())
            return np.stack([search_step(g)(tuple(p)) for g, p in zip(owners.tolist(), tokens.tolist())])

        got = beam_decode(lockstep_step, Search(**kw), group_counts, vocab_size=V, sb_id=SB, excluded_ids=(EXC,))
        for g, groups in enumerate(group_counts):
            sizes = []

            def counted(frontier, g=g, sizes=sizes):
                sizes.append(len(frontier[1]))
                return batched(search_step(g))(frontier)

            want = per_search_decode(counted, vocab_size=V, sb_id=SB, excluded_ids=(EXC,), group_count=groups, **kw)
            assert got[g] == want, (groups, kw)
            steps.append(len(sizes))
            rows.append(sum(sizes))
        assert len(set(steps)) > 1, kw
        assert len(calls) == max(steps)  # the longest search, not the sum over searches
        for g in range(len(group_counts)):  # each search took part in exactly its own steps, with its own rows
            assert sum(1 for call in calls if g in call) == steps[g]
            assert sum(call.count(g) for call in calls) == rows[g]


def random_settings(rng, count: int, alphas, gammas) -> list[tuple[int, dict]]:
    """count draws of (group count, one search's settings)."""
    return [
        (int(rng.integers(1, 4)),
         dict(max_sentence_tokens=int(rng.integers(1, 6)),
              penalties=BeamPenaltyConfig(alpha=float(rng.choice(alphas)), gamma=float(rng.choice(gammas)),
                                          beam_size=int(rng.integers(1, 6))),
              run_until_empty=bool(rng.integers(2))))
        for _ in range(count)
    ]


def test_lockstep_parents_trace_each_row_to_the_row_it_extends():
    rng = np.random.default_rng(11)
    for _ in range(20):
        drawn = random_settings(rng, int(rng.integers(1, 6)), [0.0, 20.0], [0.0, 5.0])
        group_counts = [groups for groups, _ in drawn]
        for _, kw in drawn:  # each drawn setting runs once, over every drawn group count
            frontiers = []
            traced = routed(tied_step)

            def step(frontier):
                frontiers.append(frontier)
                return traced(frontier)

            beam_decode(step, Search(**kw), group_counts, vocab_size=V, sb_id=SB, excluded_ids=(EXC,))
            parents, tokens = frontiers[0]
            assert parents.tolist() == list(range(len(drawn))) and tokens.shape == (len(drawn), 0)
            for (_, previous), (parents, tokens) in zip(frontiers, frontiers[1:]):
                assert len(parents) == len(tokens) and tokens.shape[1] == previous.shape[1] + 1
                np.testing.assert_array_equal(tokens[:, :-1], previous[parents])


def masked_step(prefix):
    """hashed_step with a prefix-dependent share of the words at -inf, candidates no search may pick."""
    logp = hashed_step(prefix)
    hidden = np.random.default_rng(zlib.crc32(bytes(t % 256 for t in prefix) + b"mask")).random(SB) < 0.35
    logp[:SB][hidden] = -np.inf
    return logp


def routed(step):
    """One frontier step over many searches: each row runs step((200 + g,) + prefix) for its search g.

    A row's search is followed from the roots (rows 0..G-1 of the first call) through parents.
    """
    owners = None

    def frontier_step(frontier):
        nonlocal owners
        parents, tokens = frontier
        owners = parents if owners is None else owners[parents]
        return np.stack([step((200 + g,) + tuple(p)) for g, p in zip(owners.tolist(), tokens.tolist())])

    return frontier_step


@pytest.mark.parametrize("step", [hashed_step, tied_step, masked_step], ids=["hashed", "tied", "masked"])
def test_batched_search_equals_independent_reference_searches(step):
    rng = np.random.default_rng(17)
    for _ in range(12):
        drawn = random_settings(rng, int(rng.integers(1, 9)), [0.0, 1.0, 20.0, 1e19], [0.0, 3.0, 5.0])
        group_counts = [groups for groups, _ in drawn]
        for _, kw in drawn:  # each drawn setting runs once, over every drawn group count
            got = beam_decode(routed(step), Search(**kw), group_counts, vocab_size=V, sb_id=SB, excluded_ids=(EXC,))
            for g, groups in enumerate(group_counts):
                own = batched(lambda prefix, g=g: step((200 + g,) + prefix))
                want = per_search_decode(own, vocab_size=V, sb_id=SB, excluded_ids=(EXC,), group_count=groups, **kw)
                assert got[g] == want, (groups, kw)  # tokens, the score's bits and the truncation flag


def test_grouped_top_k_equals_one_top_k_per_search():
    rng = np.random.default_rng(7)
    for _ in range(400):
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 6)))
        owner = np.repeat(np.arange(sizes.size), sizes)
        table = rng.integers(-3, 1, size=(owner.size, int(rng.integers(1, 8)))).astype(float)  # many exact ties
        table[rng.random(table.shape) < 0.3] = -np.inf
        table[rng.random(table.shape) < 0.05] = np.nan
        for k in np.unique(rng.integers(1, 7, size=sizes.size)).tolist():  # one call per drawn k, over all searches
            want_rows, want_cols = [], []
            for g, first in enumerate(np.cumsum(sizes) - sizes):
                rows, cols = one_search_top_k(table[first : first + sizes[g]], k)
                want_rows += (rows + first).tolist()
                want_cols += cols.tolist()
            rows, cols = top_k(table, k, owner)
            assert rows.tolist() == want_rows and cols.tolist() == want_cols
            rows, cols = top_k(table, k)
            want = one_search_top_k(table, k)
            assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()


def test_blocks_split_items_by_their_sizes():
    assert blocks([30, 30, 30], 60) == [slice(0, 2), slice(2, 3)]
    assert blocks([61, 1, 30, 60], 60) == [slice(0, 1), slice(1, 3), slice(3, 4)]
    assert blocks([], 60) == []


def test_exact_ties_at_the_kth_slot_resolve_to_lower_token_then_hypothesis():
    # rows are hypotheses, columns tokens; five candidates tie at the top score
    table = np.array([[0.0, 1.0, 1.0, -np.inf], [1.0, -2.0, 1.0, 1.0]])
    rows, cols = top_k(table, 3)
    assert list(zip(rows.tolist(), cols.tolist())) == [(1, 0), (0, 1), (0, 2)]
    rows, cols = top_k(table, 5)
    assert list(zip(rows.tolist(), cols.tolist())) == [(1, 0), (0, 1), (0, 2), (1, 2), (1, 3)]
    # masked entries are never selected, even when fewer than k remain
    rows, cols = top_k(np.array([[-np.inf, -5.0], [-np.inf, -np.inf]]), 3)
    assert rows.tolist() == [0] and cols.tolist() == [1]

    # in a decode: every word ties, so only the lowest ids and the earliest hypotheses survive
    def flat_step(prefix):
        logp = np.full(V, -3.0)
        logp[SB] = -40.0
        return logp

    got, want = stub_case(flat_step, 2, BeamPenaltyConfig(alpha=20.0, gamma=5.0, beam_size=3), 3)
    assert_same_decode(got, want)
    assert sorted(got[0][:3]) == [0, 1, 2] and got[0][3] == SB


def test_forced_sentence_close_matches_reference():
    def never_ending(prefix):
        logp = hashed_step(prefix)
        logp[SB] = -60.0
        return logp

    for cap in (1, 2, 4):
        got, want = stub_case(never_ending, 3, BeamPenaltyConfig(beam_size=3), cap)
        assert_same_decode(got, want)
        assert got[2]
        assert got[0].count(SB) == 3 and len(got[0]) == 3 * (cap + 1)


def test_stop_rules_pick_different_winners():
    # vocabulary: 0 closes the sentence, 1 and 2 are words; beam 2, one sentence of at most 2 words
    table = {
        (): [-1.0, -0.5, -3.0],  # [0] finishes at -1.0, (1,) lives at -0.5
        (1,): [-2.0, -0.1, -0.1],  # [1, 0] finishes at -2.5: two finished; (1, 2) lives at -0.6
        (1, 2): [-0.01, -5.0, -5.0],  # the word cap forces [1, 2, 0], which finishes at -0.61
    }

    def decode(**rule):
        return decode_one(
            batched(lambda prefix: np.array(table[prefix])),
            vocab_size=3,
            sb_id=0,
            group_count=1,
            penalties=BeamPenaltyConfig(alpha=1e19, gamma=0.0, beam_size=2),
            max_sentence_tokens=2,
            **rule,
        )

    assert decode() == ([0], -1.0, False)  # the story rule: stop once two have finished
    tokens, score, truncated = decode(run_until_empty=True)  # the term rule: stop once none is live
    assert (tokens, truncated) == ([1, 2, 0], True)
    assert score == pytest.approx(-0.61)


def small_random_generator(seed=5):
    vocab = [BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, "<unk>", "<s>", "</s>", "<sep>"] + [f"w{i}" for i in range(40)]
    config = GeneratorConfig(
        hidden_size=16, heads=2, encoder_layers=2, decoder_layers=2, ff_multiple=2, max_sentence_tokens=4, seed=seed
    )
    return GeneratorModel.build(vocab, config, sentence_budget=3)


def assert_story_matches_recompute(model, groups, penalties):
    budget = len(groups) * (model.sentence_budget + 1) + 1
    story = decode_story(TermPath.from_groups(groups), model, penalties)
    excluded = tuple(model.token_to_id[t] for t in (BOS_STORY, EOS_STORY, "<unk>"))
    want_ids, want_score, want_trunc = reference_story_beam(
        recompute_step(model, groups, budget),
        vocab_size=len(model.vocab),
        sb_id=model.token_to_id[SENTENCE_BOUNDARY],
        group_count=len(groups),
        penalties=penalties,
        max_sentence_tokens=model.config.max_sentence_tokens,
        excluded_ids=excluded,
    )
    assert story.tokens == [model.vocab[t] for t in want_ids]
    assert story.truncated == want_trunc
    assert abs(story.score - want_score) <= 1e-9
    return story


def test_kv_cached_decode_matches_full_recompute_on_random_generator():
    model = small_random_generator()
    rng = np.random.default_rng(4)
    truncated = 0
    for trial in range(6):
        groups = [[f"w{i}" for i in rng.integers(0, 40, size=2)] for _ in range(1 + trial % 4)]
        for penalties in (
            BeamPenaltyConfig(),
            BeamPenaltyConfig(alpha=0.5, gamma=2.0, beam_size=4),
        ):
            truncated += assert_story_matches_recompute(model, groups, penalties).truncated
    assert truncated  # random weights hit the sentence cap, so forced closes are covered


def test_kv_cached_decode_matches_full_recompute_on_trained_models(memorized, pipeline_run):
    model, _, pairs = memorized
    assert_story_matches_recompute(model, pairs[0].term_groups, BeamPenaltyConfig())
    longer = GeneratorModel(model.vocab, model.config, model.store, sentence_budget=7)  # the same weights
    assert longer.sentence_budget != model.sentence_budget
    assert_story_matches_recompute(longer, pairs[0].term_groups, BeamPenaltyConfig())
    fixture_model = GeneratorModel.load(pipeline_run["world"]["generator_model"])
    with open(f"{pipeline_run['out_dir']}/paths.jsonl", "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records[:8]:
        assert_story_matches_recompute(fixture_model, rec["groups"], BeamPenaltyConfig())


# ------------------------------------------------------- many paths, one search


def record_blocks(monkeypatch) -> list[list[int]]:
    """Wrap step_log_probs_fn: per story block, [its path count, its step calls]."""
    made = []
    factory = GeneratorModel.step_log_probs_fn

    def recorded(self, path_groups, budgets):
        step = factory(self, path_groups, budgets)
        block = [len(path_groups), 0]
        made.append(block)

        def counting(frontier):
            block[1] += 1
            return step(frontier)

        return counting

    monkeypatch.setattr(GeneratorModel, "step_log_probs_fn", recorded)
    return made


def assert_same_stories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.story_id, a.tokens, a.sentences, a.truncated) == (b.story_id, b.tokens, b.sentences, b.truncated)
        # more rows in one matmul, and a padded memory's exact zeros, round differently: a declared float change
        assert abs(a.score - b.score) <= BLOCK_SCORE_RTOL * abs(b.score)


BLOCK_SCORE_RTOL = 1e-12


def cache_step(model, groups, budget):
    """The step of ``step_log_probs_fn`` for one path, with its memory from the tape encoder and its LDPE computed per step."""
    memory = model.encode_path(groups).data
    cache = DecoderCache(model.decoder, memory[None], np.array([len(memory)]))
    bos = model.token_to_id[BOS_STORY]

    def step(frontier):
        parents, tokens = frontier
        pos = tokens.shape[1]
        ids = tokens[:, -1] if pos else np.full(len(tokens), bos)
        x = model.dec_embedding.data[ids] + sinusoidal_encoding([max(budget - pos, 0)] * len(ids), model.config.hidden_size)
        h = cache.step(x, parents, np.zeros(len(ids), dtype=np.int64))
        return ad.log_softmax_values(h @ model.w_out.data + model.b_out.data)

    return step


def assert_one_path_decodes_bit_for_bit(model, groups, penalties):
    story = decode_stories([TermPath.from_groups(groups)], model, penalties)[0]
    budget = len(groups) * (model.sentence_budget + 1) + 1
    excluded = tuple(model.token_to_id[t] for t in (BOS_STORY, EOS_STORY, "<unk>"))
    ids, score, truncated = decode_one(
        cache_step(model, groups, budget), vocab_size=len(model.vocab), sb_id=model.token_to_id[SENTENCE_BOUNDARY],
        excluded_ids=excluded, group_count=len(groups), penalties=penalties, max_sentence_tokens=model.config.max_sentence_tokens,
    )
    assert story.tokens == [model.vocab[t] for t in ids] and story.truncated == truncated
    assert np.float64(story.score).view(np.uint64) == np.float64(score).view(np.uint64)


def test_one_path_decodes_bit_for_bit_as_with_the_tape_encoder_and_per_step_ldpe(pipeline_run):
    model = small_random_generator()
    rng = np.random.default_rng(12)
    for trial in range(4):
        groups = [[f"w{i}" for i in rng.integers(0, 40, size=2)] for _ in range(1 + trial)]
        assert_one_path_decodes_bit_for_bit(model, groups, BeamPenaltyConfig(alpha=0.5, gamma=2.0, beam_size=3 + trial % 2))
    fixture_model = GeneratorModel.load(pipeline_run["world"]["generator_model"])
    with open(f"{pipeline_run['out_dir']}/paths.jsonl", "r", encoding="utf-8") as fh:
        for line in list(fh)[:4]:
            assert_one_path_decodes_bit_for_bit(fixture_model, json.loads(line)["groups"], BeamPenaltyConfig())


def test_decode_stories_equals_one_path_decodes_on_random_generator(monkeypatch):
    model = small_random_generator()
    rng = np.random.default_rng(9)
    count = 23
    paths = [
        TermPath.from_groups(
            [[f"w{i}" for i in rng.integers(0, 40, size=int(rng.integers(1, 4)))] for _ in range(int(rng.integers(2, 7)))],
            story_id=f"p{n}",
        )
        for n in range(count)
    ]
    paths[1] = TermPath.from_groups([["w7"]], story_id="short")  # finishes many beam steps before the others
    monkeypatch.setattr(generate, "STORY_BLOCK_CACHE_BYTES", 2**17)  # a few of these paths per block
    for penalties in (BeamPenaltyConfig(), BeamPenaltyConfig(alpha=0.5, gamma=2.0, beam_size=4)):
        made = record_blocks(monkeypatch)
        got = decode_stories(paths, model, penalties)
        assert 1 < len(made) < count and sum(paths_in for paths_in, _ in made) == count  # more paths than one block holds
        assert_same_stories(got, [decode_story(path, model, penalties) for path in paths])
    assert len(got[1].sentences) == 1 and max(len(s.sentences) for s in got) >= 5
    assert decode_stories([], model) == []


def test_decode_stories_equals_one_path_decodes_on_fixture_generator(pipeline_run):
    model = GeneratorModel.load(pipeline_run["world"]["generator_model"])
    with open(f"{pipeline_run['out_dir']}/paths.jsonl", "r", encoding="utf-8") as fh:
        paths = [TermPath.from_record(json.loads(line)) for line in fh]
    assert len({len(path.groups) for path in paths}) > 1
    assert_same_stories(decode_stories(paths, model), [decode_story(path, model) for path in paths])


def test_stage_generate_makes_one_step_call_per_beam_step_per_block(pipeline_run, monkeypatch, tmp_path):
    from storybridge.pipeline import stage_generate

    monkeypatch.setattr(generate, "STORY_BLOCK_CACHE_BYTES", 2**19)  # a few fixture paths per block
    made = record_blocks(monkeypatch)
    config = pipeline_run["config"]
    paths_path = f"{pipeline_run['out_dir']}/paths.jsonl"
    stage_generate(config, paths_path, str(tmp_path / "stories.jsonl"))
    batched = list(made)
    made.clear()
    model = GeneratorModel.load(config.generator_model)
    penalties = BeamPenaltyConfig(alpha=config.alpha, gamma=config.gamma, beam_size=config.beam_size)
    with open(paths_path, "r", encoding="utf-8") as fh:
        for line in fh:
            decode_story(TermPath.from_record(json.loads(line)), model, penalties)
    per_story = [steps for _, steps in made]
    assert len(batched) > 1 and max(count for count, _ in batched) > 1
    start = 0
    for count, steps in batched:  # the block's longest search, not the sum over its stories
        assert steps == max(per_story[start : start + count])
        start += count
    assert start == len(per_story)
    assert min(per_story) < max(per_story) and sum(steps for _, steps in batched) < sum(per_story)
