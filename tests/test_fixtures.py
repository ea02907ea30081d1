import numpy as np

from storybridge.corpus import apply_coref_replacement, extract_term_groups, load_corpus
from storybridge.distill import load_feature_file
from storybridge.fixtures import (
    build_feature_sequences,
    build_text_stories,
    build_vision_stories,
    term_signature,
    write_fixtures,
)
from storybridge.kg import load_tuples


def test_world_shape():
    vision = build_vision_stories()
    assert len(vision) == 20
    assert all(len(s.sentences) == 5 for s in vision)
    text = build_text_stories()
    assert any(len(s.sentences) == 6 for s in text)
    assert any(len(s.sentences) == 4 for s in text)
    ids = [s.story_id for s in vision + text]
    assert len(ids) == len(set(ids))


def test_no_token_repeats_inside_fixture_sentences():
    # gold stories must be expressible under the intra-sentence penalty
    for story in build_vision_stories() + build_text_stories():
        for sent in apply_coref_replacement(story).sentences:
            assert len(sent.tokens) == len(set(sent.tokens)), (story.story_id, sent.tokens)


def test_bridged_text_story_realizes_kg_relation():
    text = build_text_stories()
    six = next(s for s in text if len(s.sentences) == 6)
    groups = extract_term_groups(six)
    assert groups[3] == ["Dog_Noun", "Desiring_Frame", "Cake_Noun"]


def test_signatures_deterministic_and_distinct():
    a = term_signature("Dog_Noun", seed=0)
    b = term_signature("Dog_Noun", seed=0)
    c = term_signature("Cake_Noun", seed=0)
    assert (a == b).all()
    assert not np.allclose(a, c)
    assert a.shape == (2048,)


def test_features_align_with_gold_terms():
    vision = build_vision_stories()[:2]
    sequences = build_feature_sequences(vision, seed=0)
    for story, seq in zip(vision, sequences):
        groups = extract_term_groups(story)
        for sent_terms, slot in zip(groups, seq.slots):
            assert slot.features.shape == (len(sent_terms), 2048)
            # low noise: nearest signature identifies the term
            for row, term in zip(slot.features, sent_terms):
                assert np.linalg.norm(row - term_signature(term, 0)) < np.linalg.norm(
                    row - term_signature("Unrelated_Noun", 0)
                )


def test_write_fixtures_outputs_parse(tmp_path):
    paths = write_fixtures(str(tmp_path), seed=1)
    assert len(load_corpus(paths["corpus"])) == 20
    assert load_feature_file(paths["features"])
    index = load_tuples(paths["kg_scene"], "scene")
    assert index.one_hop("Dog_Noun", "Cake_Noun") == ["Desiring_Frame"]
    load_tuples(paths["kg_textrel"], "textrel", two_hop_ok=False, into=index)
    assert len(index) >= 6
