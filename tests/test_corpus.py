import copy
import json
import re

import numpy as np
import pytest

from storybridge.corpus import (
    AnnotatedSentence,
    CorefChain,
    FrameSpan,
    StoryRecord,
    apply_coref_replacement,
    build_training_pairs,
    extract_term_groups,
    extract_terms,
    frame_term,
    load_corpus,
    noun_term,
    save_corpus,
    story_from_record,
    story_to_record,
)
from storybridge.distill import FEATURE_DIM, ImageSequence, ObjectFeatureSet
from storybridge.ioutil import InputError
from storybridge.lm import BOS, EOS, SEP


def dog_story():
    """Two-sentence story: 'The dog is ready to go. He is playing on the ground.'"""
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


def test_term_formatting():
    assert noun_term("dog") == "Dog_Noun"
    assert noun_term("Children") == "Child_Noun"
    assert frame_term("Motion") == "Motion_Frame"


def test_extract_terms_dog_sentence():
    story = dog_story()
    assert extract_terms(story.sentences[0]) == ["Dog_Noun", "Motion_Frame"]
    assert extract_terms(story.sentences[1]) == ["Performers_and_roles_Frame", "Ground_Noun"]


def test_extract_terms_empty_without_nouns_or_verbs():
    sent = AnnotatedSentence(tokens=["so", "nice"], pos=["ADV", "ADJ"])
    assert extract_terms(sent) == []


def test_extract_terms_follow_token_order():
    sent = AnnotatedSentence(
        tokens=["kids", "chase", "the", "dog", "home"],
        pos=["NOUN", "VERB", "DET", "NOUN", "NOUN"],
        frames=[FrameSpan(1, 2, "Cotheme")],
    )
    # hand-built span walk: noun, frame verb, noun, noun
    assert extract_terms(sent) == ["Kids_Noun", "Cotheme_Frame", "Dog_Noun", "Home_Noun"]


def test_verb_without_frame_is_dropped():
    sent = AnnotatedSentence(tokens=["dogs", "bark"], pos=["NOUN", "VERB"])
    assert extract_terms(sent) == ["Dogs_Noun"]


def test_coref_replacement_matches_printed_example():
    replaced = apply_coref_replacement(dog_story())
    assert replaced.sentences[1].tokens == ["The", "dog", "is", "playing", "on", "the", "ground"]
    assert replaced.sentences[1].pos[:2] == ["DET", "NOUN"]
    # frame span shifted past the two-token replacement
    assert (replaced.sentences[1].frames[0].start, replaced.sentences[1].frames[0].end) == (3, 4)
    assert extract_terms(replaced.sentences[1]) == [
        "Dog_Noun",
        "Performers_and_roles_Frame",
        "Ground_Noun",
    ]
    # the original story is untouched
    assert dog_story().sentences[1].tokens[0] == "He"


def test_replaced_mention_span_covers_exactly_the_root_tokens():
    replaced = apply_coref_replacement(dog_story())
    chain = replaced.sentences[1].coref[0]
    s, e = chain.mention
    assert replaced.sentences[1].tokens[s:e] == ["The", "dog"]


def test_coref_replacement_idempotent():
    once = apply_coref_replacement(dog_story())
    twice = apply_coref_replacement(once)
    assert story_to_record(twice) == story_to_record(once)


def test_story_without_chains_unchanged():
    story = StoryRecord(
        "plain",
        [AnnotatedSentence(tokens=["the", "sun", "rose"], pos=["DET", "NOUN", "VERB"])],
    )
    replaced = apply_coref_replacement(story)
    assert story_to_record(replaced) == story_to_record(story)


def test_possessive_pronouns_left_alone():
    sent = AnnotatedSentence(
        tokens=["his", "ball", "bounced"],
        pos=["PRON", "NOUN", "VERB"],
        coref=[CorefChain(mention=(0, 1), root=(0, 1, 2), entity_type="PRODUCT")],
    )
    replaced = apply_coref_replacement(StoryRecord("p", [sent]))
    assert replaced.sentences[0].tokens == ["his", "ball", "bounced"]


def test_chain_outside_story_raises_with_chain_id():
    story = dog_story()
    story.sentences[1].coref[0] = CorefChain(mention=(0, 1), root=(7, 0, 2), entity_type="ANIMAL")
    with pytest.raises(InputError, match=r"chain 1\.0"):
        apply_coref_replacement(story)


def test_non_pronoun_mentions_untouched():
    sent = AnnotatedSentence(
        tokens=["the", "dog", "slept"],
        pos=["DET", "NOUN", "VERB"],
        coref=[CorefChain(mention=(1, 2), root=(0, 1, 2), entity_type="ANIMAL")],
    )
    replaced = apply_coref_replacement(StoryRecord("n", [sent]))
    assert replaced.sentences[0].tokens == ["the", "dog", "slept"]


def test_generator_pairs_repeat_noun_but_keep_pronoun():
    pairs = build_training_pairs([dog_story()], mode="generator")
    assert len(pairs) == 1
    ex = pairs[0]
    flattened = [t for group in ex.term_groups for t in group]
    assert flattened.count("Dog_Noun") == 2
    assert ex.sentences[1][0] == "He"


def test_lm_mode_linearizes_raw_terms_with_markers():
    # no coref replacement here: the LM scores distilled paths, which have none
    seqs = build_training_pairs([dog_story()], mode="lm")
    assert len(seqs) == 1
    assert seqs[0] == [
        BOS,
        "Dog_Noun",
        "Motion_Frame",
        SEP,
        "Performers_and_roles_Frame",
        "Ground_Noun",
        EOS,
    ]


def test_empty_story_set_gives_empty_records():
    assert build_training_pairs([], mode="generator") == []
    assert build_training_pairs([], mode="lm") == []


def test_record_counts_match_story_count():
    stories = [dog_story(), dog_story()]
    stories[1] = copy.deepcopy(stories[1])
    stories[1].story_id = "dog2"
    assert len(build_training_pairs(stories, mode="generator")) == 2
    assert len(build_training_pairs(stories, mode="lm")) == 2


def features_for(story_id, n_slots):
    rng = np.random.default_rng(0)
    slots = [
        ObjectFeatureSet(i, rng.normal(size=(1, FEATURE_DIM)), np.array([0.9]))
        for i in range(n_slots)
    ]
    return ImageSequence(story_id, slots)


def test_distiller_mode_joins_by_story_id():
    story = dog_story()
    [(seq, groups)] = build_training_pairs([story], mode="distiller", features=[features_for("dog", 2)])
    assert seq.story_id == "dog"
    assert groups == extract_term_groups(story)
    # raw extraction: the pronoun sentence has no Dog_Noun before replacement
    assert "Dog_Noun" not in groups[1]


def test_distiller_mode_missing_ids_listed():
    with pytest.raises(InputError, match="dog"):
        build_training_pairs([dog_story()], mode="distiller", features=[features_for("other", 2)])


def test_distiller_mode_slot_count_mismatch():
    with pytest.raises(InputError, match="feature slots"):
        build_training_pairs([dog_story()], mode="distiller", features=[features_for("dog", 3)])


def test_extraction_is_pure():
    sent = dog_story().sentences[0]
    assert extract_terms(sent) == extract_terms(sent)


def test_terms_of_generator_pairs_come_from_replaced_annotations():
    pairs = build_training_pairs([dog_story()], mode="generator")
    replaced = apply_coref_replacement(dog_story())
    for group, sent in zip(pairs[0].term_groups, replaced.sentences):
        for term in group:
            assert term in extract_terms(sent)


def test_corpus_roundtrip(tmp_path):
    path = str(tmp_path / "corpus.jsonl")
    save_corpus(path, [dog_story()])
    loaded = load_corpus(path)
    assert story_to_record(loaded[0]) == story_to_record(dog_story())


def test_bad_story_record_names_its_line(tmp_path):
    good = json.dumps(story_to_record(dog_story()))
    bad = json.dumps({**story_to_record(dog_story()), "story_id": "cat", "version": 999})
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{good}\n\n{bad}\n")  # the bad record is on line 3, after a blank line
    with pytest.raises(InputError, match=re.escape(f"{path}:3: unsupported corpus schema version 999")):
        load_corpus(str(path))
    path.write_text(f"{good}\n\n" + json.dumps({**story_to_record(dog_story()), "sentences": [{"tokens": ["a"]}]}) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3 story 'dog': sentence record missing")):
        load_corpus(str(path))


def test_bad_schema_version_rejected():
    rec = story_to_record(dog_story())
    rec["version"] = 999
    with pytest.raises(InputError, match="version"):
        story_from_record(rec)


def test_span_out_of_bounds_rejected():
    with pytest.raises(ValueError, match="outside sentence"):
        AnnotatedSentence(tokens=["a"], pos=["DET"], frames=[FrameSpan(0, 5, "X")])
