"""Turn annotated story corpora into training material.

Stories arrive with precomputed annotations (POS tags, frame spans, coref
chains); nothing here runs a tagger or parser. Terms are noun lemmas
("Dog_Noun") and frame labels standing in for verbs ("Motion_Frame").
Coreference replacement rewrites pronouns to their root entity mention so a
generator trained on the result learns to emit anaphora when it sees the
same noun term twice in a row.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .ioutil import InputError, read_jsonl_lines, write_jsonl

SCHEMA_VERSION = 1

NOUN_TAGS = {"NOUN", "PROPN"}
VERB_TAGS = {"VERB"}

# Closed list of replaceable pronouns. Possessives ("his", "its", ...) are
# deliberately left alone.
REPLACEABLE_PRONOUNS = {"he", "him", "she", "her", "it", "they", "them"}

# No automatic plural stripping: lemma = lowercased surface unless excepted.
LEMMA_EXCEPTIONS = {
    "men": "man",
    "women": "woman",
    "children": "child",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
}


def noun_term(surface: str) -> str:
    lemma = LEMMA_EXCEPTIONS.get(surface.lower(), surface.lower())
    return lemma.capitalize() + "_Noun"


def frame_term(label: str) -> str:
    return label + "_Frame"


@dataclass
class FrameSpan:
    start: int
    end: int
    label: str


@dataclass
class CorefChain:
    mention: tuple[int, int]
    root: tuple[int, int, int]  # sentence index, token start, token end
    entity_type: str


@dataclass
class AnnotatedSentence:
    tokens: list[str]
    pos: list[str]
    frames: list[FrameSpan] = field(default_factory=list)
    coref: list[CorefChain] = field(default_factory=list)

    def __post_init__(self):
        if len(self.tokens) != len(self.pos):
            raise ValueError(f"tokens/pos length mismatch: {len(self.tokens)} vs {len(self.pos)}")
        n = len(self.tokens)
        for f in self.frames:
            if not (0 <= f.start < f.end <= n):
                raise ValueError(f"frame span ({f.start}, {f.end}) outside sentence of {n} tokens")
        for c in self.coref:
            s, e = c.mention
            if not (0 <= s < e <= n):
                raise ValueError(f"coref mention ({s}, {e}) outside sentence of {n} tokens")


@dataclass
class StoryRecord:
    story_id: str
    sentences: list[AnnotatedSentence]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"story {self.story_id!r} has no sentences")


def extract_terms(sent: AnnotatedSentence) -> list[str]:
    """Noun and frame terms in token order.

    Nouns become "<Lemma>_Noun". A verb covered by a frame span yields that
    frame's "<Label>_Frame" term once; verbs with no frame coverage are
    dropped.
    """
    terms = []
    used_spans: set[int] = set()
    for i, (tok, tag) in enumerate(zip(sent.tokens, sent.pos)):
        if tag in NOUN_TAGS:
            terms.append(noun_term(tok))
        elif tag in VERB_TAGS:
            for j, f in enumerate(sent.frames):
                if f.start <= i < f.end and j not in used_spans:
                    terms.append(frame_term(f.label))
                    used_spans.add(j)
                    break
    return terms


def _shift_sentence_spans(story: StoryRecord, sent_idx: int, at: int, delta: int) -> None:
    """Shift every recorded span in sentence sent_idx at or beyond token `at`."""
    if delta == 0:
        return
    sent = story.sentences[sent_idx]
    for f in sent.frames:
        if f.start >= at:
            f.start += delta
            f.end += delta
        elif f.end > at:  # span covers the edit point, stretch it
            f.end += delta
    for c in sent.coref:
        s, e = c.mention
        if s >= at:
            c.mention = (s + delta, e + delta)
        elif e > at:
            c.mention = (s, e + delta)
    for other in story.sentences:
        for c in other.coref:
            rs_sent, rs, re = c.root
            if rs_sent == sent_idx:
                if rs >= at:
                    c.root = (rs_sent, rs + delta, re + delta)
                elif re > at:
                    c.root = (rs_sent, rs, re + delta)


def apply_coref_replacement(story: StoryRecord) -> StoryRecord:
    """Replace single-token pronominal mentions with their root entity tokens.

    POS tags on the replaced span come from the root. Frame spans and other
    chains are re-indexed around each edit. Applying the function twice is a
    no-op because replaced mentions are no longer pronouns.
    """
    out = copy.deepcopy(story)
    for sent_idx, sent in enumerate(out.sentences):
        # rightmost first so earlier edits in the sentence need no rescan
        for chain_idx, chain in sorted(enumerate(sent.coref), key=lambda ic: -ic[1].mention[0]):
            s, e = chain.mention
            root_sent_idx, rs, re = chain.root
            if not (0 <= root_sent_idx < len(out.sentences)):
                raise InputError(
                    f"story {out.story_id!r}: coref chain {sent_idx}.{chain_idx} "
                    f"points outside the story (sentence {root_sent_idx})"
                )
            root_sent = out.sentences[root_sent_idx]
            if not (0 <= rs < re <= len(root_sent.tokens)):
                raise InputError(
                    f"story {out.story_id!r}: coref chain {sent_idx}.{chain_idx} "
                    f"root span ({rs}, {re}) outside its sentence"
                )
            if e - s != 1 or sent.tokens[s].lower() not in REPLACEABLE_PRONOUNS:
                continue
            root_tokens = list(root_sent.tokens[rs:re])
            root_pos = list(root_sent.pos[rs:re])
            delta = len(root_tokens) - 1
            sent.tokens[s : s + 1] = root_tokens
            sent.pos[s : s + 1] = root_pos
            # shift other spans first: the old (s, s+1) mention is below the
            # edit point and stays put, then gets rewritten to the new span
            _shift_sentence_spans(out, sent_idx, s + 1, delta)
            chain.mention = (s, s + len(root_tokens))
    return out


def extract_term_groups(story: StoryRecord) -> list[list[str]]:
    return [extract_terms(sent) for sent in story.sentences]


@dataclass
class GeneratorExample:
    story_id: str
    term_groups: list[list[str]]
    sentences: list[list[str]]  # original surface tokens, pronouns intact


def build_training_pairs(stories, mode: str, features=None):
    """Assemble records for one training mode.

    generator: (terms of the coref-replaced story, original story tokens)
    lm:        linearized marker-delimited term sequences
    distiller: (ImageSequence, per-image gold term lists), joined with the feature records by id
    """
    from .distill import ImageSequence  # local import, avoids a cycle
    from .lm import linearize_groups

    stories = list(stories)
    if mode == "generator":
        out = []
        for story in stories:
            replaced = apply_coref_replacement(story)
            out.append(
                GeneratorExample(
                    story_id=story.story_id,
                    term_groups=extract_term_groups(replaced),
                    sentences=[list(s.tokens) for s in story.sentences],
                )
            )
        return out
    if mode == "lm":
        # raw extraction: the LM ranks distilled paths, which have no replacement
        return [linearize_groups(extract_term_groups(s)) for s in stories]
    if mode == "distiller":
        if features is None:
            raise ValueError("distiller mode needs feature records")
        by_id: dict[str, ImageSequence] = {seq.story_id: seq for seq in features}
        missing = [s.story_id for s in stories if s.story_id not in by_id]
        if missing:
            raise InputError(f"no object features for story ids: {missing}")
        out = []
        for story in stories:
            seq = by_id[story.story_id]
            if len(seq.slots) != len(story.sentences):
                raise InputError(
                    f"story {story.story_id!r}: {len(story.sentences)} sentences "
                    f"but {len(seq.slots)} feature slots"
                )
            out.append((seq, extract_term_groups(story)))
        return out
    raise ValueError(f"unknown mode {mode!r}")


def _sentence_to_record(sent: AnnotatedSentence) -> dict:
    return {
        "tokens": sent.tokens,
        "pos": sent.pos,
        "frames": [{"start": f.start, "end": f.end, "label": f.label} for f in sent.frames],
        "coref": [
            {"mention": list(c.mention), "root": list(c.root), "type": c.entity_type}
            for c in sent.coref
        ],
    }


def _sentence_from_record(rec: dict, where: str) -> AnnotatedSentence:
    for key in ("tokens", "pos"):
        if key not in rec:
            raise InputError(f"{where}: sentence record missing '{key}'")
    try:
        frames = [FrameSpan(f["start"], f["end"], f["label"]) for f in rec.get("frames", [])]
        coref = [
            CorefChain(tuple(c["mention"]), tuple(c["root"]), c.get("type", ""))
            for c in rec.get("coref", [])
        ]
        return AnnotatedSentence(list(rec["tokens"]), list(rec["pos"]), frames, coref)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{where}: malformed sentence record ({exc})") from None


def story_to_record(story: StoryRecord) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "story_id": story.story_id,
        "sentences": [_sentence_to_record(s) for s in story.sentences],
        "meta": story.meta,
    }


def story_from_record(rec: dict, where: str = "corpus") -> StoryRecord:
    version = rec.get("version")
    if version != SCHEMA_VERSION:
        raise InputError(f"{where}: unsupported corpus schema version {version!r}")
    if "story_id" not in rec or "sentences" not in rec:
        raise InputError(f"{where}: story record missing 'story_id' or 'sentences'")
    sentences = [
        _sentence_from_record(s, f"{where} story {rec['story_id']!r}") for s in rec["sentences"]
    ]
    try:
        return StoryRecord(str(rec["story_id"]), sentences, dict(rec.get("meta", {})))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_corpus(path: str) -> list[StoryRecord]:
    return [story_from_record(rec, where=f"{path}:{lineno}") for lineno, rec in read_jsonl_lines(path)]


def save_corpus(path: str, stories) -> None:
    write_jsonl(path, (story_to_record(s) for s in stories))
