"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; a failed criterion fails its test. Criteria 7 and 8 train models and
take the longest; the pipeline run is shared with the integration tests.
"""

import math
import os
import time
import zlib

import numpy as np
import pytest

from helpers import batched, beam_penalty_score, decode_one, ldpe, next_token_distribution, numeric_grad, rel_err
from storybridge import autodiff as ad
from storybridge.autodiff import Tensor
from storybridge.corpus import (
    AnnotatedSentence,
    CorefChain,
    FrameSpan,
    StoryRecord,
    apply_coref_replacement,
    build_training_pairs,
    extract_terms,
)
from storybridge.distill import (
    FEATURE_DIM,
    DistillerConfig,
    ImageSequence,
    ObjectFeatureSet,
    train_distiller,
)
from storybridge.enrich import TermPath, build_candidates, select_best
from storybridge.generate import (
    BeamPenaltyConfig,
    GeneratorConfig,
    decode_story,
    train_generator,
)
from storybridge.ioutil import sha256_file
from storybridge.kg import Bridge, KGTuple, RelationIndex
from storybridge.layers import GRUParams, TransformerEncoder
from storybridge.lm import LMConfig, NGramLM, linearize_groups, perplexity, train_lm
from storybridge.metrics import bleu_n
from storybridge.optim import TrainConfig
from storybridge.params import ParameterStore
from storybridge.pipeline import rerun_from_manifest


def report(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n} PASS: {message}")


# ------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def check(build, arrays, tol):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        ad.backward(build(*tensors))
        for t, a in zip(tensors, arrays):
            numeric = numeric_grad(lambda: build(*[Tensor(x.data) for x in tensors]).item(), a)
            assert rel_err(t.grad, numeric) <= tol

    def proj(out):
        r = np.cos(np.arange(out.size)).reshape(out.shape) + 0.5
        return ad.reduce_sum(ad.mul(out, Tensor(r)))

    # every primitive
    check(lambda a, b: proj(ad.add(a, b)), [rng.normal(size=(3, 4)), rng.normal(size=(4,))], 1e-4)
    check(lambda a, b: proj(ad.sub(a, b)), [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))], 1e-4)
    check(lambda a, b: proj(ad.mul(a, b)), [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))], 1e-4)
    check(lambda a: proj(ad.scale(a, -2.5)), [rng.normal(size=(3, 3))], 1e-4)
    check(lambda a, b: proj(ad.matmul(a, b)), [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))], 1e-4)
    check(lambda a: proj(ad.transpose(a, (1, 0, 2))), [rng.normal(size=(2, 3, 4))], 1e-4)
    check(lambda a: proj(ad.reshape(a, (6, 2))), [rng.normal(size=(3, 4))], 1e-4)
    check(lambda a, b: proj(ad.concat([a, b], axis=1)), [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))], 1e-4)
    check(lambda a: proj(ad.reduce_sum(a, axis=1)), [rng.normal(size=(3, 4))], 1e-4)
    check(lambda a: proj(ad.reduce_mean(a, axis=0)), [rng.normal(size=(3, 4))], 1e-4)
    check(lambda a: proj(ad.tanh(a)), [rng.normal(size=(3, 4))], 1e-4)
    check(lambda a: proj(ad.sigmoid(a)), [rng.normal(size=(3, 4))], 1e-4)
    relu_in = rng.normal(size=(4, 4))
    relu_in[np.abs(relu_in) < 0.2] += 0.5
    check(lambda a: proj(ad.relu(a)), [relu_in], 1e-4)
    check(lambda a: proj(ad.softmax(a, axis=-1)), [rng.normal(size=(3, 5))], 1e-4)
    check(
        lambda x, g, b: proj(ad.layernorm(x, g, b)),
        [rng.normal(size=(3, 6)), rng.normal(size=(6,)) + 1.0, rng.normal(size=(6,))],
        1e-4,
    )
    ids = np.array([0, 2, 2, 4])
    check(lambda t: proj(ad.embed(t, ids)), [rng.normal(size=(5, 3))], 1e-4)
    targets = np.array([0, 1, 4, 2])
    check(lambda l: ad.softmax_cross_entropy(l, targets), [rng.normal(size=(4, 5))], 1e-4)

    # composed stack: 2-layer attention encoder feeding a recurrent cell
    def composite(store, x_data, seq_data):
        enc = TransformerEncoder(store, "enc", d=8, heads=2, layers=2, d_ff=12)
        cell = GRUParams(store, "gru", d_in=8, d=8)
        memory = enc(Tensor(x_data))
        h = Tensor(np.zeros((1, 8)))
        for i in range(seq_data.shape[0]):
            h = cell(ad.reshape(ad.embed(memory, [i % memory.shape[0]]), (1, 8)), h)
        return proj(h)

    store = ParameterStore(5)
    x_data = rng.normal(size=(4, 8))
    seq = np.zeros(3)
    loss = composite(store, x_data, seq)
    ad.backward(loss)
    for name, t in store.items():
        numeric = numeric_grad(lambda: composite(store, x_data, seq).item(), t.data)
        assert rel_err(t.grad, numeric) <= 1e-3, name

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"all primitives at 1e-4 and the attention+GRU stack at 1e-3 in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2


def test_criterion_2_ldpe_laws():
    vec = ldpe(9, 9, 16)
    assert (vec[0::2] == 0.0).all() and (vec[1::2] == 1.0).all()

    rng = np.random.default_rng(1)
    for _ in range(1000):
        l1 = int(rng.integers(1, 80))
        p1 = int(rng.integers(0, l1 + 1))
        shift = int(rng.integers(0, 40))
        assert (ldpe(p1, l1, 12) == ldpe(p1 + shift, l1 + shift, 12)).all()

    for pos, length, d in ((0, 10, 4), (3, 17, 8), (5, 5, 6)):
        vec = ldpe(pos, length, d)
        for i in range(d // 2):
            angle = (length - pos) / (10000 ** (2 * i / d))
            assert abs(vec[2 * i] - math.sin(angle)) <= 1e-12
            assert abs(vec[2 * i + 1] - math.cos(angle)) <= 1e-12
    report(2, "terminal 0/1 pattern, 1000 remaining-length equivalences, formulas at 1e-12")


# ------------------------------------------------------------- criterion 3

V = 22
SB = 20
EXC = 21


def _stub_beam(step, groups, alpha, gamma, beam=3, max_sentence_tokens=5):
    return decode_one(
        batched(step),
        vocab_size=V,
        sb_id=SB,
        group_count=groups,
        penalties=BeamPenaltyConfig(alpha=alpha, gamma=gamma, beam_size=beam),
        max_sentence_tokens=max_sentence_tokens,
        excluded_ids=(EXC,),
    )


def test_criterion_3_beam_penalty_laws():
    # hand arithmetic
    assert beam_penalty_score(-1.0, True, False, 20.0, 5.0, 10) == pytest.approx(-21.0)
    assert beam_penalty_score(-1.0, False, True, 20.0, 5.0, 10) == pytest.approx(-1.5)
    assert beam_penalty_score(-1.0, True, True, 20.0, 5.0, 10) == pytest.approx(-21.5)

    # exhaustive: for every token of a 20-token vocab, the repeat is argmax
    # but an alternative sits within 20 nats, so the repeat must never win
    checked = 0
    for repeat_tok in range(20):
        for delta in (0.0, 2.0, 10.0, 19.0, 19.9):

            def step(prefix, repeat_tok=repeat_tok, delta=delta):
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

            tokens, _, _ = _stub_beam(step, groups=2, alpha=20.0, gamma=5.0)
            sentence = []
            for t in tokens:
                if t == SB:
                    sentence = []
                else:
                    assert t not in sentence, (repeat_tok, delta)
                    sentence.append(t)
            checked += 1
    assert checked == 100

    # alpha = gamma = 0 equals an independently written penalty-free beam
    def hashed_step(prefix):
        seed = zlib.crc32(bytes(t % 256 for t in prefix) + b"acceptance")
        raw = np.random.default_rng(seed).normal(size=V)
        return raw - np.log(np.exp(raw).sum())

    def reference(step, groups, beam, max_sentence_tokens):
        live = [(0.0, ())]
        done = []
        while live:
            scored = []
            for hyp_idx, (score, tokens) in enumerate(live):
                logp = step(tokens)
                sent_len = 0
                for t in tokens:
                    sent_len = 0 if t == SB else sent_len + 1
                allowed = [SB] if sent_len >= max_sentence_tokens else [
                    t for t in range(V) if t == SB or t != EXC
                ]
                for tok in allowed:
                    scored.append((score + float(logp[tok]), tok, hyp_idx))
            scored.sort(key=lambda c: (-c[0], c[1], c[2]))
            new_live = []
            for s, tok, hyp_idx in scored[:beam]:
                tokens = live[hyp_idx][1] + (tok,)
                if tok == SB and sum(1 for t in tokens if t == SB) == groups:
                    done.append((s, tokens))
                else:
                    new_live.append((s, tokens))
            live = new_live
            if len(done) >= beam:
                break
        best = max(enumerate(done), key=lambda kv: (kv[1][0], -kv[0]))[1]
        return list(best[1]), best[0]

    for groups in (1, 2, 3):
        got_tokens, got_score, _ = _stub_beam(hashed_step, groups=groups, alpha=0.0, gamma=0.0)
        want_tokens, want_score = reference(hashed_step, groups, 3, 5)
        assert got_tokens == want_tokens
        assert got_score == pytest.approx(want_score, abs=1e-12)
    report(3, "hand scores, exhaustive no-repeat over 20-token vocab, zero-penalty equivalence")


# ------------------------------------------------------------- criterion 4


def test_criterion_4_kg_oracle_equivalence():
    def brute_one(tuples, h, t):
        return sorted({x.relation for x in tuples if x.head == h and x.tail == t})

    def brute_two(tuples, h, t):
        out = set()
        for a in tuples:
            for b in tuples:
                if a.head == h and b.tail == t and a.tail == b.head and a.tail not in (h, t):
                    out.add((a.relation, a.tail, b.relation))
        return sorted(out)

    rng = np.random.default_rng(7)
    for graph in range(50):
        n_tuples = int(rng.integers(1, 501))
        index = RelationIndex()
        tuples = []
        for _ in range(n_tuples):
            tup = KGTuple(f"n{rng.integers(25)}", f"r{rng.integers(6)}", f"n{rng.integers(25)}", "g")
            index.add(tup)
            tuples.append(tup)
        nodes = sorted({t.head for t in tuples} | {t.tail for t in tuples})
        pick = rng.choice(len(nodes), size=min(6, len(nodes)), replace=False)
        for i in pick:
            for j in pick:
                h, t = nodes[i], nodes[j]
                assert index.one_hop(h, t) == brute_one(tuples, h, t)
                assert index.two_hop(h, t) == brute_two(tuples, h, t)
        terms_a = set(nodes[:8])
        terms_b = set(nodes[-8:])
        got = index.enumerate_bridges(terms_a, terms_b, allow_two_hop=True)
        want = []
        for a in sorted(terms_a):
            for b in sorted(terms_b):
                want.extend(Bridge(a, (r,), None, b) for r in brute_one(tuples, a, b))
                want.extend(Bridge(a, (r1, r2), m, b) for r1, m, r2 in brute_two(tuples, a, b))
        want.sort(key=Bridge.sort_key)
        assert got == want

    chain = RelationIndex()
    chain.add(KGTuple("a", "r_ab", "b", "g"))
    chain.add(KGTuple("b", "r_bc", "c", "g"))
    chain.add(KGTuple("c", "r_ca", "a", "g"))
    assert chain.two_hop("a", "c") == [("r_ab", "b", "r_bc")]
    assert chain.two_hop("a", "a") == []
    assert chain.two_hop("b", "b") == []
    report(4, "50 random graphs match brute-force scans; chain fixtures exclude endpoints")


# ------------------------------------------------------------- criterion 5


def test_criterion_5_enrichment_selection():
    rng = np.random.default_rng(11)
    terms = [f"w{i}" for i in range(8)]
    for trial in range(20):
        index = RelationIndex()
        for _ in range(int(rng.integers(5, 50))):
            index.add(KGTuple(terms[rng.integers(8)], f"r{rng.integers(4)}", terms[rng.integers(8)], "g"))
        groups = [list(rng.choice(terms, size=int(rng.integers(1, 3)), replace=False)) for _ in range(5)]
        corpus = [linearize_groups([list(rng.choice(terms, size=2)) for _ in range(5)]) for _ in range(6)]
        lm = NGramLM.train(corpus, order=2, smoothing_k=0.5)
        cands = build_candidates(TermPath.from_groups(groups), index, cap=None)
        choice = select_best(cands, lm)
        rescored = [perplexity(lm, c.linearized()) for c in cands]
        assert choice.path == cands[int(np.argmin(rescored))]
        assert choice.perplexity == pytest.approx(min(rescored))

    base = TermPath.from_groups([["a"], ["b"], ["c"], ["d"], ["e"]])
    lm = NGramLM.train([base.linearized()], order=2, smoothing_k=1.0)
    assert select_best(build_candidates(base, RelationIndex()), lm).path == base

    figure = TermPath.from_groups(
        [["x1"], ["graduates_NOUN"], ["diplomas_NOUN"], ["x2"], ["x3"]]
    )
    index = RelationIndex()
    index.add(KGTuple("graduates_NOUN", "Arriving_Frame", "diplomas_NOUN", "scene"))
    cands = build_candidates(figure, index)
    assert cands[1].groups[2] == ("graduates_NOUN", "Arriving_Frame", "diplomas_NOUN")
    report(5, "20 argmin rescoring checks, empty-graph base survival, bridge figure fixture")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_lm_correctness():
    bigram = NGramLM.train([["a", "b", "a", "b"]], order=2, smoothing_k=1.0, vocab={"a", "b"})
    assert bigram.prob("b", ["a"]) == pytest.approx(0.75)

    seq = ["<s>", "dog", "park", "<sep>", "ball", "dog", "</s>"]
    gru, _ = train_lm(
        [seq] * 4,
        LMConfig(kind="gru", hidden_size=24, seed=3),
        TrainConfig(epochs=150, learning_rate=3e-3, warmup_steps=20),
    )
    ppl = perplexity(gru, seq)
    assert ppl <= 1.05

    for ctx in (["<s>"], ["a"], ["never seen"]):
        assert abs(sum(next_token_distribution(bigram, ctx).values()) - 1.0) < 1e-9
    assert abs(sum(next_token_distribution(gru, ["<s>", "dog"]).values()) - 1.0) < 1e-9
    report(6, f"add-1 bigram 0.75, overfit recurrent perplexity {ppl:.4f}, normalization at 1e-9")


# ------------------------------------------------------------- criterion 7


def dog_story():
    s0 = AnnotatedSentence(
        tokens=["The", "dog", "is", "ready", "to", "go"],
        pos=["DET", "NOUN", "AUX", "ADJ", "PART", "VERB"],
        frames=[FrameSpan(5, 6, "Motion")],
    )
    s1 = AnnotatedSentence(
        tokens=["He", "is", "playing", "on", "the", "ground"],
        pos=["PRON", "AUX", "VERB", "ADP", "DET", "NOUN"],
        frames=[FrameSpan(2, 3, "Performers_and_roles")],
        coref=[CorefChain(mention=(0, 1), root=(0, 0, 2), entity_type="ANIMAL")],
    )
    return StoryRecord("dog", [s0, s1])


def test_criterion_7_memorization_and_printed_example():
    # distiller: one fixture pair, 300 steps
    t0 = time.time()
    gold = [["Dog_Noun", "Motion_Frame"], ["Ground_Noun"]]
    rng = np.random.default_rng(0)
    seq = ImageSequence(
        "fixture",
        [
            ObjectFeatureSet(0, rng.normal(size=(2, FEATURE_DIM)), np.array([0.9, 0.8])),
            ObjectFeatureSet(1, rng.normal(size=(1, FEATURE_DIM)), np.array([0.7])),
        ],
    )
    distiller, _ = train_distiller(
        [(seq, gold)],
        DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=2, seed=1),
        TrainConfig(epochs=300, learning_rate=5e-3, warmup_steps=20),
    )
    distiller_steps = 300
    assert distiller.predict_terms(seq, beam_size=3) == gold
    distiller_seconds = time.time() - t0
    assert distiller_seconds < 300.0

    # generator: one fixture pair, 400 steps
    t0 = time.time()
    story = StoryRecord(
        "overfit",
        [
            AnnotatedSentence(
                tokens=["the", "dog", "is", "ready", "to", "go"],
                pos=["DET", "NOUN", "AUX", "ADJ", "PART", "VERB"],
                frames=[FrameSpan(5, 6, "Motion")],
            ),
            AnnotatedSentence(
                tokens=["he", "plays", "on", "the", "ground"],
                pos=["PRON", "VERB", "ADP", "DET", "NOUN"],
                frames=[FrameSpan(1, 2, "Performers_and_roles")],
            ),
        ],
    )
    pairs = build_training_pairs([story], mode="generator")
    generator, history = train_generator(
        pairs,
        GeneratorConfig(hidden_size=24, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=2, seed=9),
        TrainConfig(epochs=400, learning_rate=5e-3, warmup_steps=20),
    )
    generator_steps = 400
    out = decode_story(TermPath.from_groups(pairs[0].term_groups), generator, BeamPenaltyConfig())
    assert out.sentences == pairs[0].sentences
    generator_seconds = time.time() - t0
    assert generator_seconds < 300.0

    # printed term extraction and coreference replacement example round-trips
    story = dog_story()
    assert extract_terms(story.sentences[0]) == ["Dog_Noun", "Motion_Frame"]
    assert extract_terms(story.sentences[1]) == ["Performers_and_roles_Frame", "Ground_Noun"]
    replaced = apply_coref_replacement(story)
    assert replaced.sentences[1].tokens == ["The", "dog", "is", "playing", "on", "the", "ground"]
    assert extract_terms(replaced.sentences[1]) == [
        "Dog_Noun",
        "Performers_and_roles_Frame",
        "Ground_Noun",
    ]
    report(
        7,
        f"distiller memorized in {distiller_steps} steps / {distiller_seconds:.0f}s, "
        f"generator in {generator_steps} steps / {generator_seconds:.0f}s, dog example round-trips",
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8_pipeline_integration(pipeline_run, tmp_path):
    assert pipeline_run["seconds"] < 600.0
    stories = pipeline_run["stories"]
    assert len(stories) == 20
    six = [s for s in stories if len(s["sentences"]) == 6]
    assert len(six) >= 1
    assert all(s["bridge"] is not None and s["bridge_slot"] is not None for s in six)

    rerun_dir = str(tmp_path / "acceptance_rerun")
    rerun_from_manifest(os.path.join(pipeline_run["out_dir"], "manifest.json"), out_dir=rerun_dir)
    for name in ("terms.jsonl", "paths.jsonl", "stories.jsonl"):
        assert sha256_file(os.path.join(pipeline_run["out_dir"], name)) == sha256_file(
            os.path.join(rerun_dir, name)
        )
    report(
        8,
        f"pipeline over 20 stories in {pipeline_run['seconds']:.1f}s, "
        f"{len(six)} six-sentence stories with bridge provenance, rerun byte-identical",
    )


# ------------------------------------------------------------- criterion 9


def test_criterion_9_metrics():
    cands = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran"],
        ["a", "bird"],
    ]
    refs = [
        ["the", "cat", "sat", "on", "the", "mat"],
        ["the", "dog", "ran", "away"],
        ["the", "bird", "flew"],
    ]
    precisions = [10 / 11, 7 / 8, 1.0, 1.0]
    bp = math.exp(1 - 13 / 11)
    for n in range(1, 5):
        expected = bp * math.exp(sum(math.log(p) for p in precisions[:n]) / n)
        assert bleu_n(cands, refs, n) == pytest.approx(expected, abs=1e-9)
    for n in range(1, 5):
        assert bleu_n(refs, refs, n) == pytest.approx(1.0, abs=1e-12)
    report(9, "toy-corpus BLEU matches hand values at 1e-9; identical corpus scores 1.0")
