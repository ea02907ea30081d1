"""Stage 1: map per-image object features to a term set per image.

A transformer encoder reads the projected object features of all images,
summed with trainable image-order embeddings (objects inside one image carry
no order of their own). A GRU decoder with additive attention then emits
a term set for each image, decoded with a beam search whose score

    beam_score(x) = log p(x) - 1e19 * [x already predicted for this image]

makes within-image repeats effectively impossible.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .beam import BeamPenaltyConfig, Search, beam_decode, blocks
from .ioutil import InputError, atomic_writer, canonical_dumps
from .layers import GRUParams, TransformerEncoder, encode_padded, linear, pad_mask
from .optim import TrainConfig, fit
from .params import ParameterStore

FEATURE_DIM = 2048
TOP_K_OBJECTS = 25  # objects kept per image, the most confident: the paper's cut
FEATURE_FORMAT = {"format": "storybridge-features", "version": 2}  # the object-feature container's header keys
END_OF_SET = "</set>"
REPEAT_MASK = 1e19
# Bytes of a term block's (rows, vocabulary) float64 candidate table, each image's beam_size rows counted
# in full: four five-image sequences at beam 3 over 2000 terms. The GRU decoder keeps no cache that grows
# with the rows, so that table is what does; each sequence's encoded objects stay live for its block
# (README "Decoding").
TERM_BLOCK_BYTES = 60 * 2000 * 8
# Bytes of one additive-attention call's tanh(keys + query) table, (sequences, rows, objects, d) float64, each
# sequence counted at the most rows and objects of its block: one five-image sequence at beam 3 over 125
# objects at hidden 512, the table that decoding one sequence at a time makes. A term block's step attends
# over its sequences in consecutive chunks of at most that (at least one sequence each); the quick-start
# file's 20 sequences (hidden 32, 15 objects) make one chunk of 1.15 MB.
TERM_ATTENTION_BYTES = 15 * 125 * 512 * 8


@dataclass
class ObjectFeatureSet:
    """Detected-object features for one image slot, strongest first."""

    image_index: int
    features: np.ndarray  # (n, FEATURE_DIM)
    confidences: np.ndarray  # (n,)

    @classmethod
    def from_objects(cls, image_index: int, objects) -> "ObjectFeatureSet":
        """objects is an iterable of finite (feature vector, confidence); the TOP_K_OBJECTS most confident are kept."""
        feats, confs = [], []
        for feature, confidence in objects:
            vec = np.asarray(feature, dtype=np.float64)
            if vec.shape != (FEATURE_DIM,):
                raise ValueError(f"object feature must have dimension {FEATURE_DIM}, got {vec.shape}")
            if not (np.isfinite(vec).all() and np.isfinite(float(confidence))):
                raise ValueError(f"image slot {image_index} has a non-finite object feature or confidence")
            feats.append(vec)
            confs.append(float(confidence))
        if not feats:
            raise ValueError(f"image slot {image_index} has no objects")
        return cls.strongest(image_index, np.stack(feats), np.asarray(confs))

    @classmethod
    def strongest(cls, image_index: int, features: np.ndarray, confidences: np.ndarray) -> "ObjectFeatureSet":
        """The slot of the TOP_K_OBJECTS most confident rows: one stable sort of the confidences, one fancy index."""
        order = np.argsort(-confidences, kind="stable")[:TOP_K_OBJECTS]
        return cls(image_index, features[order], confidences[order])


@dataclass
class ImageSequence:
    story_id: str
    slots: list[ObjectFeatureSet]

    def __post_init__(self):
        for expected, slot in enumerate(self.slots):
            if slot.image_index != expected:
                raise ValueError(
                    f"story {self.story_id!r}: image_index values must be consecutive from 0, "
                    f"found {slot.image_index} at position {expected}"
                )


def load_feature_file(path: str) -> list[ImageSequence]:
    """Read an object-feature container (README "File formats"), grouped by story_id.

    Each image keeps its TOP_K_OBJECTS most confident objects
    (``ObjectFeatureSet.strongest``). A malformed file raises InputError
    naming it; a boolean is not a number there.
    """
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        images = header.get("images") if isinstance(header, dict) else None
        if not isinstance(images, list) or any(header.get(k) != v for k, v in FEATURE_FORMAT.items()):
            raise InputError(f"{path}: not an object-feature container (format storybridge-features, version 2: "
                             "one JSON header line, then the raw float64 rows)")
        for i, image in enumerate(images):
            n, confidences = (image.get("objects"), image.get("confidences")) if isinstance(image, dict) else (0, None)
            if not (_is_int(n) and n >= 1 and isinstance(confidences, list) and len(confidences) == n
                    and all((isinstance(c, float) or _is_int(c)) and abs(c) <= sys.float_info.max for c in confidences)
                    and _is_int(image.get("image_index")) and "story_id" in image):
                raise InputError(f"{path}: header image {i} needs a story_id, an integer image_index, "
                                 "objects >= 1 and as many finite confidences")
        offsets = np.cumsum([0] + [image["objects"] * FEATURE_DIM for image in images])
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * offsets[-1]:
            raise InputError(f"{path}: the float64 rows take {size} bytes, but the header's objects need {8 * offsets[-1]}")
        values = np.fromfile(fh, dtype="<f8")
    if not np.isfinite(values).all():
        raise InputError(f"{path}: feature values must be finite")
    grouped: dict[str, list[ObjectFeatureSet]] = {}
    for image, start, stop in zip(images, offsets, offsets[1:]):
        confidences = np.asarray(image["confidences"], dtype=np.float64)
        slot = ObjectFeatureSet.strongest(image["image_index"], values[start:stop].reshape(-1, FEATURE_DIM), confidences)
        grouped.setdefault(str(image["story_id"]), []).append(slot)
    sequences = []
    for sid, slots in grouped.items():
        try:
            sequences.append(ImageSequence(sid, sorted(slots, key=lambda slot: slot.image_index)))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    return sequences


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def save_feature_file(path: str, sequences) -> None:
    """Write the object-feature container: a canonical JSON header line, then each image's rows as raw float64."""
    slots = [(seq.story_id, slot) for seq in sequences for slot in seq.slots]
    images = [
        {"story_id": sid, "image_index": slot.image_index, "objects": len(slot.features), "confidences": slot.confidences.tolist()}
        for sid, slot in slots
    ]
    with atomic_writer(path, binary=True) as fh:
        fh.write((canonical_dumps({**FEATURE_FORMAT, "images": images}) + "\n").encode("utf-8"))
        for _sid, slot in slots:
            fh.write(np.ascontiguousarray(slot.features, dtype="<f8").tobytes())


@dataclass
class DistillerConfig:
    hidden_size: int = 512
    heads: int = 2
    layers: int = 4
    ff_multiple: int = 4
    num_slots: int = 5
    max_terms_per_image: int = 8
    seed: int = 0


class DistillerModel:
    """Transformer encoder over order-embedded objects, GRU+attention decoder."""

    def __init__(self, vocab: list[str], config: DistillerConfig, store: ParameterStore):
        if not vocab or END_OF_SET not in vocab:
            raise ValueError("vocabulary must be nonempty and contain the end-of-set marker")
        self.vocab = list(vocab)
        self.token_to_id = {t: i for i, t in enumerate(self.vocab)}
        self.config = config
        self.store = store
        d = config.hidden_size
        self.w_proj = store.param("proj.w", (FEATURE_DIM, d))
        self.b_proj = store.param("proj.b", (d,), init="zeros")
        self.order_embedding = store.param("order_embedding", (config.num_slots, d))
        self.encoder = TransformerEncoder(store, "encoder", d, config.heads, config.layers, d * config.ff_multiple)
        self.term_embedding = store.param("decoder.term_embedding", (len(self.vocab), d))
        self.attn_mem = store.param("decoder.attn.mem", (d, d))
        self.attn_hidden = store.param("decoder.attn.hidden", (d, d))
        self.attn_bias = store.param("decoder.attn.bias", (d,), init="zeros")
        self.attn_v = store.param("decoder.attn.v", (d, 1))
        self.cell = GRUParams(store, "decoder.gru", d_in=2 * d, d=d)
        self.w_out = store.param("decoder.w_out", (2 * d, len(self.vocab)))
        self.b_out = store.param("decoder.b_out", (len(self.vocab),), init="zeros")

    @classmethod
    def build(cls, vocab, config: DistillerConfig | None = None) -> "DistillerModel":
        config = config or DistillerConfig()
        model = cls(vocab, config, ParameterStore(config.seed))
        model.store.freeze()  # constants until fit trains them
        return model

    def input_embeddings(self, seq: ImageSequence) -> Tensor:
        """Projected object features plus the image-order embedding, pre-encoder."""
        if len(seq.slots) > self.config.num_slots:
            raise ValueError(
                f"sequence has {len(seq.slots)} slots but model was built for {self.config.num_slots}"
            )
        if any(slot.features.shape[0] == 0 for slot in seq.slots):
            raise ValueError("all slots must hold at least one object")
        rows = []
        for slot in seq.slots:
            if slot.features.shape[1] != FEATURE_DIM:
                raise ValueError(f"object feature dimension {slot.features.shape[1]} != {FEATURE_DIM}")
            projected = linear(Tensor(slot.features), self.w_proj, self.b_proj)
            order = ad.embed(self.order_embedding, [slot.image_index])
            rows.append(ad.add(projected, order))
        return ad.concat(rows, axis=0)

    def encode_objects(self, seq: ImageSequence) -> Tensor:
        """One encoded vector per retained object, order-free within an image."""
        return self.encoder(self.input_embeddings(seq))

    def _context(self, h: Tensor, memory: Tensor, keys: Tensor) -> Tensor:
        """Additive attention of each row of h over memory (M, d); keys is the memory's projection through attn_mem."""
        return ad.additive_attention(keys, linear(h, self.attn_hidden, self.attn_bias), self.attn_v, memory)

    def _step(self, prev_embedding: Tensor, h: Tensor, context: Tensor):
        """One decoder step for B rows, given each row's attention context (B, d)."""
        u = ad.concat([prev_embedding, context], axis=1)
        h_next = self.cell(u, h)
        logits = linear(ad.concat([h_next, context], axis=1), self.w_out, self.b_out)
        return logits, h_next

    def teacher_forced_loss(self, seq: ImageSequence, groups) -> tuple[Tensor, int]:
        """Mean cross-entropy of each image's gold terms then end-of-set, and the count of those targets.

        Each term position is one decoder step over every image of the
        story, one row per image: a row starts from its image's order
        embedding, then reads its gold terms, then end-of-set once it has
        none left. The rows are gathered back image by image into one
        cross-entropy; a row past its image's end is not gathered, so it
        gets zero gradient.
        """
        eos = self.token_to_id[END_OF_SET]
        targets = [[self.token_to_id[t] for t in gold] + [eos] for gold in groups]
        memory = self.encode_objects(seq)
        keys = linear(memory, self.attn_mem)
        h = Tensor(np.zeros((len(targets), self.config.hidden_size)))
        starts = ad.embed(self.order_embedding, [slot.image_index for slot in seq.slots])
        steps = []
        for t in range(max(map(len, targets))):
            prev = ad.embed(self.term_embedding, [ids[min(t, len(ids)) - 1] for ids in targets]) if t else starts
            logits, h = self._step(prev, h, self._context(h, memory, keys))
            steps.append(logits)
        rows = [t * len(targets) + i for i, ids in enumerate(targets) for t in range(len(ids))]  # image-major
        flat = [tid for ids in targets for tid in ids]
        return ad.softmax_cross_entropy(ad.embed(ad.concat(steps, axis=0), rows), flat), len(flat)

    def predict_terms(self, seq: ImageSequence, beam_size: int = 3) -> list[list[str]]:
        """Per-image term lists, repetition-masked beam search, vocab order ties to low id."""
        return [terms for terms, _score in self.term_beams([seq], beam_size)[0]]

    def term_beams(self, seqs, beam_size: int = 3) -> list[list[tuple[list[str], float]]]:
        """Per sequence, each image's best term list and its beam score: one sentence of terms closed by end-of-set.

        The searches of every image of a block of sequences (as many
        consecutive sequences as fit ``TERM_BLOCK_BYTES`` of (rows,
        vocabulary) float64 candidates, beam_size rows per image) run as one
        batched search, so each beam step is one decoder step over all their
        live hypotheses. The block's sequences are encoded in one padded
        pass (``layers.encode_padded``), and each step's additive attention
        is one call over all rows, each reading its own sequence's memory.
        """
        if len(self.vocab) <= 1:
            raise ValueError("term vocabulary holds only the end-of-set marker")
        seqs = list(seqs)
        search = Search(BeamPenaltyConfig(alpha=REPEAT_MASK, gamma=0.0, beam_size=beam_size), self.config.max_terms_per_image,
                        run_until_empty=True)
        table_bytes = [len(seq.slots) * beam_size * len(self.vocab) * 8 for seq in seqs]
        return [terms for block in blocks(table_bytes, TERM_BLOCK_BYTES) for terms in self._term_block(seqs[block], search)]

    def _term_block(self, seqs: list[ImageSequence], search: Search) -> list[list[tuple[list[str], float]]]:
        """term_beams of the sequences by one batched search.

        Each step lays the live rows of a chunk of sequences out as
        (sequences, rows, objects, d), padded per sequence to the most rows
        and objects, and masks padded objects out of the attention; a block
        of one sequence needs no mask and computes the products of
        ``_context`` bit for bit.
        """
        memories, lengths = encode_padded(self.encoder, [self.input_embeddings(seq).data for seq in seqs])
        n, m, d = memories.shape
        keys = (memories.reshape(n * m, d) @ self.attn_mem.data).reshape(n, m, d)
        mask = None if (lengths == m).all() else pad_mask(lengths, m)[:, 0]  # (S, 1, M)
        table_bytes = max(len(seq.slots) for seq in seqs) * search.penalties.beam_size * m * d * 8
        chunks = blocks([table_bytes] * n, TERM_ATTENTION_BYTES)
        starts = [slot.image_index for seq in seqs for slot in seq.slots]
        seq_of = np.repeat(np.arange(len(seqs)), [len(seq.slots) for seq in seqs])  # each row's sequence
        h = np.zeros((len(starts), d))  # row r: the GRU state after row r of the last call

        def step(frontier) -> np.ndarray:
            nonlocal h, seq_of
            parents, tokens = frontier
            seq_of = seq_of[parents]
            prev = self.term_embedding.data[tokens[:, -1]] if tokens.shape[1] else self.order_embedding.data[starts]
            h_rows = h[parents]
            query = h_rows @ self.attn_hidden.data + self.attn_bias.data
            rank = np.arange(len(seq_of)) - np.searchsorted(seq_of, seq_of)  # each row's place in its sequence
            context = np.empty_like(h_rows)
            for chunk in chunks:  # rows are sequence by sequence, so a chunk's rows are consecutive
                rows = slice(*np.searchsorted(seq_of, [chunk.start, chunk.stop]))
                if rows.start == rows.stop:
                    continue
                s, r = seq_of[rows] - chunk.start, rank[rows]
                padded = np.zeros((chunk.stop - chunk.start, r.max() + 1, d))
                padded[s, r] = query[rows]
                chunk_mask = None if mask is None else mask[chunk]
                context[rows] = ad.additive_attention_values(keys[chunk], padded, self.attn_v.data, memories[chunk], chunk_mask)[2][s, r]
            logits, h_next = self._step(Tensor(prev), Tensor(h_rows), Tensor(context))
            h = h_next.data
            return ad.log_softmax_values(logits.data)

        results = iter(beam_decode(step, search, [1] * len(starts), vocab_size=len(self.vocab), sb_id=self.token_to_id[END_OF_SET]))
        return [[([self.vocab[t] for t in ids[:-1]], score) for ids, score, _truncated in islice(results, len(seq.slots))] for seq in seqs]

    def save(self, path: str) -> None:
        extra = {"kind": "distiller", "vocab": self.vocab, "config": asdict(self.config)}
        self.store.save(path, extra=extra)

    @classmethod
    def load(cls, path: str) -> "DistillerModel":
        store, extra = ParameterStore.load(path, kind="distiller")
        return store.build_model(path, lambda: cls(extra["vocab"], DistillerConfig(**extra["config"]), store))


def build_term_vocab(term_groups_per_story) -> list[str]:
    terms = sorted({t for groups in term_groups_per_story for group in groups for t in group})
    return [END_OF_SET] + terms


def train_distiller(
    pairs,
    config: DistillerConfig | None = None,
    train: TrainConfig | None = None,
):
    """Train on (ImageSequence, per-image gold term lists) pairs, over the vocabulary of their gold terms.

    Returns (model, per-epoch mean token cross-entropy). A pair whose group
    count differs from its image count aborts before any training step.
    """
    config = config or DistillerConfig()
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot train the distiller on an empty pair set")
    for seq, groups in pairs:
        if len(groups) != len(seq.slots):
            raise ValueError(f"story {seq.story_id!r}: {len(groups)} gold groups for {len(seq.slots)} image slots")
    model = DistillerModel.build(build_term_vocab(groups for _, groups in pairs), config)
    history = fit(model.store, pairs, lambda pair: model.teacher_forced_loss(*pair), train or TrainConfig(),
                  metric="token cross-entropy")
    return model, history
