"""Frozen parameters are constants: inference records no tape, and only fit trains."""

import numpy as np

from helpers import count_tape_nodes
from storybridge import lm as lm_module
from storybridge.corpus import build_training_pairs, load_corpus
from storybridge.distill import END_OF_SET, DistillerConfig, DistillerModel, load_feature_file
from storybridge.enrich import TermPath
from storybridge.generate import (
    BOS_STORY,
    EOS_STORY,
    SENTENCE_BOUNDARY,
    GeneratorConfig,
    GeneratorModel,
    decode_story,
    train_generator,
)
from storybridge.lm import BOS, EOS, SEP, GRULanguageModel, LMConfig, load_lm, perplexities, train_lm
from storybridge.optim import TrainConfig


def test_inference_on_loaded_checkpoints_records_no_tape(trained_world):
    distiller = DistillerModel.load(trained_world["distiller_model"])
    lm = load_lm(trained_world["lm_model"])
    generator = GeneratorModel.load(trained_world["generator_model"])
    seq = load_feature_file(trained_world["features"])[0]

    with count_tape_nodes() as tape:
        groups = distiller.predict_terms(seq, beam_size=3)
    assert tape.nodes == 0
    path = TermPath.from_groups(groups, story_id=seq.story_id)
    with count_tape_nodes() as tape:
        scores = perplexities(lm, [path.linearized(), [BOS, *groups[0], SEP, "unseen", EOS]])
    assert tape.nodes == 0 and (scores >= 1.0).all()
    with count_tape_nodes() as tape:
        story = decode_story(path, generator)
    assert tape.nodes == 0 and len(story.sentences) == len(groups)


def test_a_built_model_starts_frozen():
    distiller = DistillerModel.build([END_OF_SET, "a"], DistillerConfig(hidden_size=4, heads=2, layers=1, ff_multiple=1))
    generator = GeneratorModel.build([BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, "<unk>", "a"],
                                     GeneratorConfig(hidden_size=4, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=1))
    lm = GRULanguageModel.build([BOS, EOS, "a"], hidden_size=4, seed=0)
    for model in (distiller, generator, lm):
        assert model.store.frozen and not any(t.requires_grad for _, t in model.store.items())
    with count_tape_nodes() as tape:
        perplexities(lm, [[BOS, "a", EOS]])
    assert tape.nodes == 0


def test_the_tape_counter_sees_a_trainable_model():
    model = GRULanguageModel.build([BOS, EOS, "a"], hidden_size=4, seed=0)
    model.store.freeze(False)
    with count_tape_nodes() as tape:
        perplexities(model, [[BOS, "a", EOS]])
    assert tape.nodes > 0
    model.store.freeze()
    with count_tape_nodes() as tape:
        perplexities(model, [[BOS, "a", EOS]])
    assert tape.nodes == 0


def test_train_lm_holdout_measure_records_no_tape(monkeypatch):
    measured = []
    fit = lm_module.fit

    def counting_fit(store, examples, loss_fn, train, measure=None, metric="loss"):
        def counted():
            with count_tape_nodes() as tape:
                value = measure()
            measured.append(tape.nodes)
            return value

        return fit(store, examples, loss_fn, train, measure=counted, metric=metric)

    monkeypatch.setattr(lm_module, "fit", counting_fit)
    corpus = [[BOS, "a", "b", EOS], [BOS, "b", "a", EOS], [BOS, "a", "a", EOS]] * 3
    model, history = train_lm(corpus, LMConfig(hidden_size=8, seed=0), TrainConfig(epochs=3, warmup_steps=2))
    assert measured == [0, 0, 0] and len(history) == 3
    assert model.store.frozen


def test_train_generator_fine_tunes_a_loaded_checkpoint(trained_world):
    model = GeneratorModel.load(trained_world["generator_model"])
    assert model.store.frozen
    before = {name: t.data.copy() for name, t in model.store.items()}
    pairs = build_training_pairs(load_corpus(trained_world["corpus"]), mode="generator")[:2]
    tuned, history = train_generator(
        pairs, train=TrainConfig(epochs=1, learning_rate=3e-3, warmup_steps=5), model=model
    )
    assert tuned is model and len(history) == 1
    changed = [name for name, t in model.store.items() if not np.array_equal(t.data, before[name])]
    assert "dec.w_out" in changed and "enc.embedding" in changed
    assert model.store.frozen
