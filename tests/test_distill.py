import json
from dataclasses import fields

import numpy as np
import pytest

from helpers import per_image_loss, reference_term_beam
from storybridge import autodiff as ad
from storybridge import distill, optim
from storybridge.autodiff import Tensor, linear
from storybridge.beam import BeamPenaltyConfig, Search, beam_decode
from storybridge.corpus import build_training_pairs, load_corpus
from storybridge.distill import (
    END_OF_SET,
    FEATURE_DIM,
    REPEAT_MASK,
    TERM_BLOCK_BYTES,
    TOP_K_OBJECTS,
    DistillerConfig,
    DistillerModel,
    ImageSequence,
    ObjectFeatureSet,
    build_term_vocab,
    load_feature_file,
    save_feature_file,
    train_distiller,
)
from storybridge.optim import TrainConfig

RNG = np.random.default_rng(123)

SMALL = DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=2, seed=5)


def make_slot(index, n_objects, rng=RNG, features=None):
    feats = features if features is not None else rng.normal(size=(n_objects, FEATURE_DIM)) * 0.1
    confs = rng.uniform(0.1, 1.0, size=len(feats))
    return ObjectFeatureSet.from_objects(index, list(zip(feats, confs)))


def make_sequence(n_slots=2, n_objects=2, sid="s0"):
    return ImageSequence(sid, [make_slot(i, n_objects) for i in range(n_slots)])


def test_top_k_truncation_keeps_highest_confidence():
    feats = RNG.normal(size=(40, FEATURE_DIM))
    confs = np.linspace(0.0, 1.0, 40)
    slot = ObjectFeatureSet.from_objects(0, list(zip(feats, confs)))
    assert slot.features.shape == (25, FEATURE_DIM)
    np.testing.assert_allclose(slot.confidences, confs[::-1][:25])
    np.testing.assert_allclose(slot.features[0], feats[39])


def test_wrong_feature_dimension_rejected():
    with pytest.raises(ValueError, match="2048"):
        ObjectFeatureSet.from_objects(0, [(np.zeros(100), 0.5)])


@pytest.mark.parametrize("feature, confidence", [
    (np.full(FEATURE_DIM, np.nan), 0.5),
    (np.ones(FEATURE_DIM), float("inf")),
    (np.r_[np.ones(FEATURE_DIM - 1), -np.inf], 0.5),
    (np.ones(FEATURE_DIM), float("nan")),
])
def test_non_finite_features_and_confidences_are_refused_naming_the_slot(feature, confidence):
    finite = (np.zeros(FEATURE_DIM), 0.9)
    with pytest.raises(ValueError, match="image slot 3 has a non-finite"):
        ObjectFeatureSet.from_objects(3, [finite, (feature, confidence)])


def test_image_indexes_must_be_consecutive():
    with pytest.raises(ValueError, match="consecutive"):
        ImageSequence("s", [make_slot(1, 1)])


def test_swap_within_slot_keeps_encoded_multiset():
    model = DistillerModel.build([END_OF_SET, "a"], SMALL)
    feats = RNG.normal(size=(3, FEATURE_DIM)) * 0.1
    confs = np.array([0.9, 0.9, 0.9])
    seq1 = ImageSequence("s", [ObjectFeatureSet(0, feats, confs), make_slot(1, 1)])
    swapped = feats[[1, 0, 2]]
    seq2 = ImageSequence("s", [ObjectFeatureSet(0, swapped, confs), seq1.slots[1]])
    enc1 = model.encode_objects(seq1).data
    enc2 = model.encode_objects(seq2).data
    np.testing.assert_allclose(enc2, enc1[[1, 0, 2, 3]], atol=1e-10)


def test_order_embedding_distinguishes_slots():
    model = DistillerModel.build([END_OF_SET, "a"], SMALL)
    feat = RNG.normal(size=(1, FEATURE_DIM)) * 0.1
    conf = np.array([1.0])
    seq = ImageSequence(
        "s", [ObjectFeatureSet(0, feat, conf), ObjectFeatureSet(1, feat.copy(), conf.copy())]
    )
    x = model.input_embeddings(seq).data
    assert not np.allclose(x[0], x[1])


def test_input_embedding_is_plain_projection_when_order_zeroed():
    model = DistillerModel.build([END_OF_SET, "a"], SMALL)
    model.order_embedding.data[:] = 0.0
    model.b_proj.data[:] = 0.0
    feat = RNG.normal(size=(1, FEATURE_DIM))
    seq = ImageSequence("s", [ObjectFeatureSet(0, feat, np.array([1.0])), make_slot(1, 1)])
    x = model.input_embeddings(seq).data
    np.testing.assert_allclose(x[0], (feat @ model.w_proj.data)[0], rtol=1e-12)


def test_predictions_never_repeat_terms_within_an_image():
    vocab = [END_OF_SET] + [f"t{i}" for i in range(5)]
    for seed in range(4):
        cfg = DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=2, seed=seed)
        model = DistillerModel.build(vocab, cfg)
        terms = model.predict_terms(make_sequence(), beam_size=3)
        for image_terms in terms:
            assert len(image_terms) == len(set(image_terms))


def test_beam_size_one_equals_greedy_reference():
    vocab = [END_OF_SET] + [f"t{i}" for i in range(6)]
    model = DistillerModel.build(vocab, SMALL)
    seq = make_sequence()
    beam = model.predict_terms(seq, beam_size=1)

    # independent greedy decoder with the same repetition mask
    memory = Tensor(model.encode_objects(seq).data)
    keys = linear(memory, model.attn_mem)
    eos = model.token_to_id[END_OF_SET]
    greedy = []
    for slot in seq.slots:
        h = Tensor(np.zeros((1, model.config.hidden_size)))
        prev = ad.embed(model.order_embedding, [slot.image_index])
        used = set()
        tokens = []
        for step in range(model.config.max_terms_per_image):
            logits, h = model._step(prev, h, model._context(h, memory, keys))
            logp = ad.log_softmax_values(logits.data)[0]
            scores = logp.copy()
            for t in used:
                scores[t] -= 1e19
            tok = int(np.argmax(scores))  # first occurrence wins, so low id breaks ties
            if tok == eos:
                break
            tokens.append(tok)
            used.add(tok)
            prev = ad.embed(model.term_embedding, [tok])
        greedy.append([model.vocab[t] for t in tokens])
    assert beam == greedy


def test_overfit_single_pair_reproduces_table_terms():
    gold = [["Dog_Noun", "Motion_Frame"], ["Ground_Noun"]]
    rng = np.random.default_rng(0)
    seq = ImageSequence(
        "fixture",
        [
            ObjectFeatureSet(0, rng.normal(size=(2, FEATURE_DIM)), np.array([0.9, 0.8])),
            ObjectFeatureSet(1, rng.normal(size=(1, FEATURE_DIM)), np.array([0.7])),
        ],
    )
    model, history = train_distiller(
        [(seq, gold)],
        DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=2, seed=1),
        TrainConfig(epochs=300, learning_rate=5e-3, warmup_steps=20),
    )
    assert history[-1] < 0.1
    assert model.predict_terms(seq, beam_size=3) == gold


def test_empty_gold_list_learns_immediate_end_of_set():
    gold = [["A_Noun"], []]
    rng = np.random.default_rng(1)
    seq = ImageSequence(
        "fixture",
        [
            ObjectFeatureSet(0, rng.normal(size=(1, FEATURE_DIM)), np.array([0.9])),
            ObjectFeatureSet(1, rng.normal(size=(1, FEATURE_DIM)), np.array([0.9])),
        ],
    )
    model, _ = train_distiller(
        [(seq, gold)],
        DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=2, seed=2),
        TrainConfig(epochs=150, learning_rate=5e-3, warmup_steps=20),
    )
    assert model.predict_terms(seq)[1] == []


def test_identical_seeds_identical_loss_curves(tmp_path):
    """Two trainings under one seed give the same history and byte-equal checkpoints, on uneven groups."""
    rng = np.random.default_rng(3)
    pairs = [
        (ImageSequence("a", [make_slot(0, 3, rng), make_slot(1, 1, rng), make_slot(2, 2, rng)]),
         [[], ["X_Noun", "Y_Noun", "Z_Noun"], ["Y_Noun"]]),
        (ImageSequence("b", [make_slot(0, 2, rng)]), [["Z_Noun", "X_Noun"]]),
    ]
    cfg = DistillerConfig(hidden_size=12, heads=2, layers=1, ff_multiple=2, num_slots=3, seed=7)
    tr = TrainConfig(epochs=5, learning_rate=1e-3)
    histories = []
    for name in ("one", "two"):
        model, history = train_distiller(pairs, cfg, tr)
        model.save(str(tmp_path / f"{name}.json"))
        histories.append(history)
    assert histories[0] == histories[1]
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


ORACLE_RTOL = 1e-12  # all images in one step against one image at a time: the rows' products round differently


def assert_loss_and_gradients_match_the_per_image_oracle(model, pairs):
    """teacher_forced_loss against helpers.per_image_loss: the loss within ORACLE_RTOL relative, each
    parameter's gradient within ORACLE_RTOL times the oracle's largest gradient magnitude."""
    model.store.freeze(False)
    for seq, groups in pairs:
        loss, count = model.teacher_forced_loss(seq, groups)
        got = ad.backward(loss)
        oracle, oracle_count = per_image_loss(model, seq, groups)
        want = ad.backward(oracle)
        assert count == oracle_count == sum(len(gold) + 1 for gold in groups)
        assert abs(loss.item() - oracle.item()) <= ORACLE_RTOL * abs(oracle.item())
        scale = max(np.abs(g).max() for g in want.values())
        for name, param in model.store.items():
            assert (param in got) == (param in want), name
            if param in want:
                assert np.abs(got[param] - want[param]).max() <= ORACLE_RTOL * scale, name
    model.store.freeze()


def test_teacher_forced_loss_matches_the_per_image_oracle_on_every_desk_fixture_pair(fixture_world, trained_world):
    vision = load_corpus(fixture_world["corpus"])
    pairs = build_training_pairs(vision, mode="distiller", features=load_feature_file(fixture_world["features"]))
    config = DistillerConfig(hidden_size=32, heads=2, layers=2, ff_multiple=2, num_slots=5, seed=0)
    built = DistillerModel.build(build_term_vocab(groups for _, groups in pairs), config)
    for model in (built, DistillerModel.load(trained_world["distiller_model"])):
        assert_loss_and_gradients_match_the_per_image_oracle(model, pairs)


@pytest.mark.parametrize("seed", range(3))
def test_teacher_forced_loss_matches_the_per_image_oracle_on_uneven_groups(seed):
    vocab = [END_OF_SET] + [f"t{i}" for i in range(6)]
    config = DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=4, max_terms_per_image=4, seed=seed)
    model = DistillerModel.build(vocab, config)
    rng = np.random.default_rng(seed)
    full = [str(t) for t in rng.choice(vocab[1:], config.max_terms_per_image, replace=False)]
    pairs = [
        # an image with only end-of-set, one at max_terms_per_image, uneven object counts
        (ImageSequence("uneven", [make_slot(i, n, rng) for i, n in enumerate((2, 5, 1, 3))]), [[], full, ["t0"], full[:2]]),
        (ImageSequence("one-image", [make_slot(0, 4, rng)]), [full[1:]]),
        (ImageSequence("only-ends", [make_slot(0, 1, rng), make_slot(1, 2, rng)]), [[], []]),
    ]
    assert_loss_and_gradients_match_the_per_image_oracle(model, pairs)


def test_group_count_mismatch_rejected_before_any_step(monkeypatch):
    steps, lines = [], []
    step = optim.adam_step
    monkeypatch.setattr(optim, "adam_step", lambda *args: steps.append(args) or step(*args))
    good = (make_sequence(sid="a"), [["X_Noun"], ["Y_Noun"]])
    bad = (make_sequence(sid="b"), [["X_Noun"]])
    with pytest.raises(ValueError, match="'b': 1 gold groups for 2 image slots"):
        train_distiller([good, good, bad], SMALL, TrainConfig(epochs=2, log=lines.append))
    assert steps == [] and lines == []
    train_distiller([good, good], SMALL, TrainConfig(epochs=1))
    assert len(steps) == 2  # the count sees every step fit takes


def test_checkpoint_config_round_trip(tmp_path):
    config = DistillerConfig(
        hidden_size=8, heads=4, layers=2, ff_multiple=3, num_slots=3, max_terms_per_image=5, seed=11
    )
    assert all(getattr(config, f.name) != f.default for f in fields(DistillerConfig))
    model = DistillerModel.build([END_OF_SET, "a", "b"], config)
    path = str(tmp_path / "distiller.json")
    model.save(path)
    loaded = DistillerModel.load(path)
    assert loaded.config == config
    assert loaded.vocab == model.vocab


def test_beam_scores_are_log_probability_sums():
    # every extension adds a log-probability (<= 0) and possibly a penalty,
    # so a finished hypothesis's score never exceeds zero
    vocab = [END_OF_SET] + [f"t{i}" for i in range(4)]
    model = DistillerModel.build(vocab, SMALL)
    for _terms, score in model.term_beams([make_sequence()], beam_size=3)[0]:
        assert score <= 0.0
        assert score > -1e18  # the winner never carries a repeat penalty


def test_feature_file_roundtrip(tmp_path):
    path, again = str(tmp_path / "features.bin"), str(tmp_path / "again.bin")
    seqs = [make_sequence(sid="a"), make_sequence(n_slots=3, n_objects=30, sid="b")]
    save_feature_file(path, seqs)
    loaded = load_feature_file(path)
    assert [s.story_id for s in loaded] == ["a", "b"]
    for seq, got in zip(seqs, loaded):
        assert [slot.image_index for slot in got.slots] == [slot.image_index for slot in seq.slots]
        for want, slot in zip(seq.slots, got.slots):
            for name in ("features", "confidences"):
                array = getattr(slot, name)
                # owned, C-contiguous and writeable, like the arrays from_objects stacks, and bit for bit the saved values
                assert type(array) is np.ndarray and array.dtype == np.float64
                assert array.flags.owndata and array.flags.c_contiguous and array.flags.writeable
                assert np.array_equal(array.view(np.uint64), getattr(want, name).view(np.uint64))
    save_feature_file(again, seqs)
    with open(path, "rb") as fh, open(again, "rb") as gh:
        assert fh.read() == gh.read()


def test_feature_file_keeps_the_top_k_objects_by_stable_confidence_order(tmp_path):
    path = str(tmp_path / "features.bin")
    features = RNG.normal(size=(30, FEATURE_DIM))
    confidences = np.round(RNG.uniform(size=30), 1)  # ties, which keep file order
    save_feature_file(path, [ImageSequence("s", [ObjectFeatureSet(0, features, confidences)])])
    [[slot]] = [seq.slots for seq in load_feature_file(path)]
    order = np.argsort(-confidences, kind="stable")[:TOP_K_OBJECTS]
    assert np.array_equal(slot.features, features[order]) and np.array_equal(slot.confidences, confidences[order])


def test_feature_file_ranks_integer_confidences_within_float_range(tmp_path):
    # finite numbers, as 1e300 is: integers past int64 load as the nearest float64
    path = str(tmp_path / "features.bin")
    features = RNG.normal(size=(3, FEATURE_DIM))
    save_feature_file(path, [ImageSequence("s", [ObjectFeatureSet(0, features, np.zeros(3))])])
    with open(path, "rb") as fh:
        header, rows = json.loads(fh.readline()), fh.read()
    header["images"][0]["confidences"] = [-(2**70), 10**300, 2**63]
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + rows)
    [[slot]] = [seq.slots for seq in load_feature_file(path)]
    assert slot.confidences.tolist() == [1e300, float(2**63), -float(2**70)]
    assert np.array_equal(slot.features, features[[1, 2, 0]])


SCORE_TOLERANCE = 1e-9  # one decoder matmul over every image's rows rounds differently from one over a single row


def assert_terms_match_reference(model, seq, beam_size):
    memory = Tensor(model.encode_objects(seq).data)
    eos = model.token_to_id[END_OF_SET]
    want = [reference_term_beam(model, memory, slot.image_index, beam_size, eos) for slot in seq.slots]
    got = model.term_beams([seq], beam_size=beam_size)[0]
    assert [terms for terms, _ in got] == [terms for terms, _ in want]
    assert all(abs(got_score - want_score) <= SCORE_TOLERANCE for (_, got_score), (_, want_score) in zip(got, want))
    assert model.predict_terms(seq, beam_size=beam_size) == [terms for terms, _ in want]
    return [terms for terms, _ in want]


def test_batched_term_beam_matches_per_hypothesis_reference():
    vocab = [END_OF_SET] + [f"t{i}" for i in range(12)]
    config = DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=3, max_terms_per_image=4, seed=8)
    model = DistillerModel.build(vocab, config)
    # a large output bias on a few terms makes repeats tempting and runs to the length bound
    model.b_out.data[1:4] += 6.0
    lengths = set()
    for k in range(4):
        seq = ImageSequence(f"r{k}", [make_slot(i, 3) for i in range(3)])
        for beam in (1, 2, 3, 5):
            lengths.update(len(terms) for terms in assert_terms_match_reference(model, seq, beam))
    assert max(lengths) == config.max_terms_per_image


def test_batched_term_beam_matches_reference_on_trained_fixture(trained_world):
    model = DistillerModel.load(trained_world["distiller_model"])
    for seq in load_feature_file(trained_world["features"])[:6]:
        assert_terms_match_reference(model, seq, 3)


BLOCK_SCORE_RTOL = 1e-12


def tape_term_beams(model, seq, beam_size):
    """term_beams of one sequence with its memory from the tape encoder and its attention from ``_context``."""
    memory = model.encode_objects(seq)
    keys = linear(memory, model.attn_mem)
    starts = [slot.image_index for slot in seq.slots]
    h = np.zeros((len(starts), model.config.hidden_size))

    def step(frontier):
        nonlocal h
        parents, tokens = frontier
        prev = model.term_embedding.data[tokens[:, -1]] if tokens.shape[1] else model.order_embedding.data[starts]
        h_rows = Tensor(h[parents])
        logits, h_next = model._step(Tensor(prev), h_rows, model._context(h_rows, memory, keys))
        h = h_next.data
        return ad.log_softmax_values(logits.data)

    search = Search(BeamPenaltyConfig(alpha=REPEAT_MASK, gamma=0.0, beam_size=beam_size),
                    model.config.max_terms_per_image, run_until_empty=True)
    results = beam_decode(step, search, [1] * len(starts), vocab_size=len(model.vocab), sb_id=model.token_to_id[END_OF_SET])
    return [([model.vocab[t] for t in ids[:-1]], score) for ids, score, _truncated in results]


def assert_one_sequence_bit_for_bit(model, seq, beam_size):
    got, want = model.term_beams([seq], beam_size=beam_size)[0], tape_term_beams(model, seq, beam_size)
    assert [terms for terms, _ in got] == [terms for terms, _ in want]
    assert [np.float64(score).view(np.uint64) for _, score in got] == [np.float64(score).view(np.uint64) for _, score in want]


def test_one_sequence_decodes_bit_for_bit_as_with_the_tape_encoder_and_attention(trained_world):
    vocab = [END_OF_SET] + [f"t{i}" for i in range(12)]
    config = DistillerConfig(hidden_size=16, heads=2, layers=2, ff_multiple=2, num_slots=4, max_terms_per_image=4, seed=3)
    model = DistillerModel.build(vocab, config)
    rng = np.random.default_rng(5)
    for k in range(4):  # images of different object counts
        seq = ImageSequence(f"x{k}", [make_slot(i, int(rng.integers(1, 5)), rng) for i in range(1 + k)])
        assert_one_sequence_bit_for_bit(model, seq, 1 + k)
    fixture_model = DistillerModel.load(trained_world["distiller_model"])
    for seq in load_feature_file(trained_world["features"])[:3]:
        assert_one_sequence_bit_for_bit(fixture_model, seq, 3)


def record_term_blocks(monkeypatch, run=True) -> list[int]:
    """Sequence count of every block term_beams runs; with run=False the blocks are counted, not decoded."""
    sizes, original = [], DistillerModel._term_block

    def term_block(model, seqs, search):
        sizes.append(len(seqs))
        return original(model, seqs, search) if run else [[] for _ in seqs]

    monkeypatch.setattr(DistillerModel, "_term_block", term_block)
    return sizes


@pytest.mark.parametrize("attention_bytes", [None, 40_000, 1])  # one attention call per step, a few, one per sequence
def test_term_beams_over_many_sequences_equal_one_sequence_at_a_time(monkeypatch, attention_bytes):
    if attention_bytes is not None:
        monkeypatch.setattr(distill, "TERM_ATTENTION_BYTES", attention_bytes)
    vocab = [END_OF_SET] + [f"t{i}" for i in range(12)]
    config = DistillerConfig(hidden_size=16, heads=2, layers=1, ff_multiple=2, num_slots=4, max_terms_per_image=4, seed=8)
    model = DistillerModel.build(vocab, config)
    model.b_out.data[1:4] += 6.0
    rng = np.random.default_rng(2)
    seqs = [
        ImageSequence(f"m{k}", [make_slot(i, int(rng.integers(1, 4)), rng) for i in range(int(rng.integers(1, 5)))])
        for k in range(12)
    ]
    monkeypatch.setattr(distill, "TERM_BLOCK_BYTES", 20 * len(vocab) * 8)  # 20 rows: 1 to 6 of these sequences
    blocks = record_term_blocks(monkeypatch)
    got = model.term_beams(seqs, beam_size=3)
    assert len(blocks) > 2 and sum(blocks) == len(seqs)
    assert [[terms for terms, _ in beams] for beams in got] == [model.predict_terms(seq, beam_size=3) for seq in seqs]
    for beams, seq in zip(got, seqs):
        want = model.term_beams([seq], beam_size=3)[0]
        # the padded rows' and objects' exact zeros may regroup sums: a declared float change
        assert all(abs(a - b) <= BLOCK_SCORE_RTOL * abs(b) for (_, a), (_, b) in zip(beams, want))
    assert model.term_beams([], beam_size=3) == []


def test_term_block_bound_holds_four_published_sequences_at_beam_three(monkeypatch):
    vocab = [END_OF_SET] + [f"t{i:04d}" for i in range(1999)]  # 2000 terms, as at the published size
    model = DistillerModel.build(vocab, DistillerConfig(hidden_size=8, heads=2, layers=1, ff_multiple=2, num_slots=5))
    seqs = [ImageSequence(f"p{k}", [make_slot(i, 1) for i in range(5)]) for k in range(10)]
    blocks = record_term_blocks(monkeypatch, run=False)
    model.term_beams(seqs, beam_size=3)
    assert blocks == [4, 4, 2]  # 60 rows of beam 3 per block
    assert TERM_BLOCK_BYTES == 60 * len(vocab) * 8
    blocks.clear()
    model.term_beams(seqs[:1], beam_size=30)  # over the bound on its own: still one block
    assert blocks == [1]


def test_the_fixture_term_beams_run_as_one_block(trained_world, monkeypatch):
    model = DistillerModel.load(trained_world["distiller_model"])
    seqs = load_feature_file(trained_world["features"])
    blocks = record_term_blocks(monkeypatch, run=False)
    model.term_beams(seqs, beam_size=3)
    assert blocks == [len(seqs)] == [20]


def test_term_beams_over_the_fixture_file_equal_one_sequence_at_a_time(trained_world):
    model = DistillerModel.load(trained_world["distiller_model"])
    seqs = load_feature_file(trained_world["features"])
    got = model.term_beams(seqs, beam_size=3)
    assert [[terms for terms, _ in beams] for beams in got] == [model.predict_terms(seq, beam_size=3) for seq in seqs]
