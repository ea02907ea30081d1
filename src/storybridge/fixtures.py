"""Synthetic fixture world: templated stories, features, and a toy graph.

Everything is deterministic in the seed. Stories follow a handful of
five-sentence archetypes with small noun pools; the picnic archetype also
exists in a six-sentence form whose extra sentence realizes the knowledge
graph relation between its neighbours, so a term LM trained on this corpus
prefers the bridged path. Object features are per-term signature vectors
plus noise, which makes image-to-term distillation learnable at desk scale.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from .corpus import (
    AnnotatedSentence,
    CorefChain,
    FrameSpan,
    StoryRecord,
    extract_terms,
    save_corpus,
)
from .distill import FEATURE_DIM, ImageSequence, ObjectFeatureSet, save_feature_file

SPOTS = ["park", "valley", "meadow", "field", "lake"]
ACTS = ["band", "choir", "quartet", "duo", "trio"]
VENUES = ["city", "town", "square", "hall", "plaza"]
BUILDS = ["castle", "tower", "fort", "wall", "boat"]
SHORES = ["beach", "coast", "bay", "shore", "island"]
PLANTS = ["tree", "rose", "fern", "vine", "shrub"]
WORKERS = ["neighbors", "farmers", "students", "scouts", "helpers"]
VARIANTS = 5  # stories per archetype: variant v takes entry v of each noun pool


def transitive(subject: str, verb: str, frame: str, obj: str) -> AnnotatedSentence:
    # determiners alternate so no token repeats inside a sentence; the
    # intra-sentence repetition penalty would otherwise forbid the gold text
    return AnnotatedSentence(
        tokens=["the", subject, verb, "a", obj],
        pos=["DET", "NOUN", "VERB", "DET", "NOUN"],
        frames=[FrameSpan(2, 3, frame)],
    )


def pronoun_sentence(pron: str, verb: str, frame: str, obj: str, root, entity_type: str) -> AnnotatedSentence:
    return AnnotatedSentence(
        tokens=[pron, verb, "a", obj],
        pos=["PRON", "VERB", "DET", "NOUN"],
        frames=[FrameSpan(1, 2, frame)],
        coref=[CorefChain(mention=(0, 1), root=root, entity_type=entity_type)],
    )


def picnic_sentences(v: int) -> list[AnnotatedSentence]:
    # only the location varies; the bridgeable middle is lexically stable
    return [
        transitive("family", "visited", "Arriving", SPOTS[v]),
        transitive("kids", "played", "Performers_and_roles", "ball"),
        transitive("dog", "chased", "Cotheme", "ball"),
        pronoun_sentence("they", "shared", "Ingestion", "cake", root=(1, 0, 2), entity_type="PERSON"),
        transitive("family", "walked", "Self_motion", "trail"),
    ]


def picnic_bridge_sentence(v: int) -> AnnotatedSentence:
    return transitive("dog", "wanted", "Desiring", "cake")


def show_sentences(v: int) -> list[AnnotatedSentence]:
    return [
        transitive("friends", "visited", "Arriving", VENUES[v]),
        transitive(ACTS[v], "played", "Performers_and_roles", "music"),
        transitive("crowd", "watched", "Perception_active", ACTS[v]),
        transitive("singer", "thanked", "Judgment", "crowd"),
        transitive("friends", "left", "Departing", VENUES[v]),
    ]


def shore_sentences(v: int) -> list[AnnotatedSentence]:
    return [
        transitive("family", "visited", "Arriving", SHORES[v]),
        transitive("kids", "built", "Building", BUILDS[v]),
        transitive("parents", "admired", "Experiencer_obj", BUILDS[v]),
        transitive("waves", "reached", "Motion", "sand"),
        transitive("family", "ate", "Ingestion", "lunch"),
    ]


def garden_sentences(v: int) -> list[AnnotatedSentence]:
    return [
        transitive(WORKERS[v], "visited", "Arriving", "garden"),
        transitive("children", "planted", "Placing", PLANTS[v]),
        transitive("birds", "watched", "Perception_active", "children"),
        transitive("children", "watered", "Cause_motion", PLANTS[v]),
        transitive(WORKERS[v], "walked", "Self_motion", "road"),
    ]


ARCHETYPES = {
    "picnic": picnic_sentences,
    "show": show_sentences,
    "shore": shore_sentences,
    "garden": garden_sentences,
}


def build_vision_stories() -> list[StoryRecord]:
    """Twenty five-sentence stories, image features available for all of them."""
    stories = []
    for name, build in ARCHETYPES.items():
        for v in range(VARIANTS):
            stories.append(StoryRecord(f"vis-{name}{v}", build(v)))
    return stories


def build_text_stories() -> list[StoryRecord]:
    """Text-only stories: two copies of each bridged picnic variant plus short ones for length variety."""
    stories = []
    for v in range(VARIANTS):
        for c in range(2):
            base = picnic_sentences(v)
            six = base[:3] + [picnic_bridge_sentence(v)] + base[3:]
            stories.append(StoryRecord(f"txt-picnic{v}-{c}", six))
    for v in range(2):
        base = garden_sentences(v)
        stories.append(StoryRecord(f"txt-garden{v}", base[:3] + base[4:]))
    return stories


def kg_rows() -> tuple[list[str], list[str]]:
    """(scene-graph rows, open-IE rows); rows are head<TAB>relation<TAB>tail."""
    scene = ["Dog_Noun\tDesiring_Frame\tCake_Noun"]
    # distractor bridging a pair the LM never saw as a six-group pattern
    scene.append("Music_Noun\tMake_noise_Frame\tCrowd_Noun")
    # a two-hop chain between the shore story's second and third groups
    scene.append("Kids_Noun\tlead\tVisitors_Noun")
    scene.append("Visitors_Noun\tjoin\tParents_Noun")
    textrel = [
        "Ball_Noun\tused_for\tGame_Noun",
        "City_Noun\tnear\tStation_Noun",
    ]
    return scene, textrel


def term_signature(term: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(zlib.crc32(term.encode("utf-8")) ^ (seed * 2654435761 % 2**32))
    return rng.normal(size=FEATURE_DIM)


def build_feature_sequences(stories, seed: int = 0) -> list[ImageSequence]:
    """One image per sentence; its objects are that sentence's term signatures."""
    sequences = []
    for story in stories:
        rng = np.random.default_rng(zlib.crc32(story.story_id.encode("utf-8")) ^ seed)
        slots = []
        for i, sent in enumerate(story.sentences):
            terms = extract_terms(sent)
            feats = np.stack(
                [term_signature(t, seed) + 0.05 * rng.normal(size=FEATURE_DIM) for t in terms]
            )
            confs = np.round(np.linspace(0.95, 0.55, len(terms)), 6)
            slots.append(ObjectFeatureSet(i, np.round(feats, 6), confs))
        sequences.append(ImageSequence(story.story_id, slots))
    return sequences


def write_fixtures(out_dir: str, seed: int = 0) -> dict:
    """Write the full fixture suite; returns the paths keyed by role."""
    os.makedirs(out_dir, exist_ok=True)
    vision = build_vision_stories()
    text = build_text_stories()
    paths = {
        "corpus": os.path.join(out_dir, "corpus_vision.jsonl"),
        "text_corpus": os.path.join(out_dir, "corpus_text.jsonl"),
        "features": os.path.join(out_dir, "features.bin"),
        "kg_scene": os.path.join(out_dir, "kg_scene.tsv"),
        "kg_textrel": os.path.join(out_dir, "kg_textrel.tsv"),
    }
    save_corpus(paths["corpus"], vision)
    save_corpus(paths["text_corpus"], text)
    save_feature_file(paths["features"], build_feature_sequences(vision, seed))
    scene, textrel = kg_rows()
    with open(paths["kg_scene"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(scene) + "\n")
    with open(paths["kg_textrel"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(textrel) + "\n")
    return paths
