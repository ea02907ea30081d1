"""Stage 3: transformer encoder-decoder from term paths to stories.

The decoder's positional signal encodes the remaining length of the story
rather than the absolute position, so the end-of-story state looks the same
whatever the story length; the encoder keeps the standard sinusoidal table.
Decoding is the penalised beam search of ``storybridge.beam``, where l is
the number of tokens generated so far (at least 1). A sentence-boundary
marker closes each sentence; the decode finishes when as many sentences
exist as the path has term groups.

Inference runs the beams of a block of paths as one batch over a
key/value cache: an emitted position's LDPE vector and, by the causal mask,
its hidden states never change, so each decode step computes only the new
positions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .beam import BeamPenaltyConfig, Search, beam_decode, blocks
from .enrich import TermPath
from .layers import DecoderCache, TransformerDecoder, TransformerEncoder, encode_padded, linear, sinusoidal_encoding, slab_product
from .lm import BOS as PATH_BOS
from .lm import EOS as PATH_EOS
from .lm import SEP as GROUP_SEP
from .lm import UNK, linearize_groups
from .optim import TrainConfig, fit
from .params import ParameterStore

BOS_STORY = "<bos>"
EOS_STORY = "<eos>"
SENTENCE_BOUNDARY = "<sb>"
# Bytes of self-attention keys and values a story block may cache, each path's beam_size rows
# counted at its longest story. It bounds the rows of a block by the decoder's size: four
# five-group paths at the published size (hidden 512, 4 layers), which keeps a block's peak RSS
# within 10% of one path at a time, and every quick-start path at the desk size (README "Decoding").
# It does not count the decoder's folded cross-attention tables, 2·D·H·T·8 bytes per layer per path
# at the block's longest path T: they are fixed when the block starts, not grown by its steps, and
# take about 1.4 MB per published five-group path (T about 21) against its 4.2 MiB counted here.
STORY_BLOCK_CACHE_BYTES = 18 * 2**20


@dataclass
class Story:
    story_id: str
    sentences: list[list[str]]
    tokens: list[str]
    score: float
    truncated: bool = False
    bridge: dict | None = None

    @property
    def sentence_spans(self) -> list[tuple[int, int]]:
        spans, start = [], 0
        for i, tok in enumerate(self.tokens):
            if tok == SENTENCE_BOUNDARY:
                spans.append((start, i))
                start = i + 1
        return spans


class UnknownWordsError(ValueError):
    """A training story holds words outside the vocabulary of the model being fine-tuned."""

    def __init__(self, story_id: str, words: list[str]):
        super().__init__(f"story {story_id!r}: words {words} are not in the generator vocabulary")
        self.story_id, self.words = story_id, words


@dataclass
class GeneratorConfig:
    hidden_size: int = 512
    heads: int = 2
    encoder_layers: int = 4
    decoder_layers: int = 4
    ff_multiple: int = 4
    max_sentence_tokens: int = 24
    seed: int = 0


class GeneratorModel:
    """Encoder over linearized term paths, LDPE decoder over story tokens."""

    def __init__(self, vocab: list[str], config: GeneratorConfig, store: ParameterStore, sentence_budget: int = 10):
        self.vocab = list(vocab)
        self.token_to_id = {t: i for i, t in enumerate(self.vocab)}
        for marker in (BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, UNK):
            if marker not in self.token_to_id:
                raise ValueError(f"generator vocabulary must contain {marker!r}")
        self.config = config
        self.store = store
        self.sentence_budget = sentence_budget  # LDPE length budget per sentence: the mean training sentence length
        d = config.hidden_size
        v = len(self.vocab)
        self.enc_embedding = store.param("enc.embedding", (v, d))
        self.encoder = TransformerEncoder(store, "enc.stack", d, config.heads, config.encoder_layers, d * config.ff_multiple)
        self.dec_embedding = store.param("dec.embedding", (v, d))
        self.decoder = TransformerDecoder(store, "dec.stack", d, config.heads, config.decoder_layers, d * config.ff_multiple)
        self.w_out = store.param("dec.w_out", (d, v))
        self.b_out = store.param("dec.b_out", (v,), init="zeros")

    @classmethod
    def build(cls, vocab, config: GeneratorConfig | None = None, sentence_budget: int = 10) -> "GeneratorModel":
        config = config or GeneratorConfig()
        model = cls(vocab, config, ParameterStore(config.seed), sentence_budget)
        model.store.freeze()  # constants until fit trains them
        return model

    def _ids(self, tokens, strict: bool = False) -> list[int]:
        ids = []
        for t in tokens:
            if t in self.token_to_id:
                ids.append(self.token_to_id[t])
            elif strict:
                raise ValueError(f"token {t!r} not in generator vocabulary")
            else:
                ids.append(self.token_to_id[UNK])
        return ids

    def path_embeddings(self, groups) -> Tensor:
        """The linearized path's token embeddings plus the sinusoidal position table, pre-encoder."""
        ids = self._ids(linearize_groups(groups))
        return ad.add(ad.embed(self.enc_embedding, ids), Tensor(sinusoidal_encoding(range(len(ids)), self.config.hidden_size)))

    def encode_path(self, groups) -> Tensor:
        return self.encoder(self.path_embeddings(groups))

    def decoder_logits(self, memory: Tensor, input_ids: list[int], remaining: np.ndarray) -> Tensor:
        x = ad.embed(self.dec_embedding, input_ids)
        x = ad.add(x, Tensor(sinusoidal_encoding(remaining, self.config.hidden_size)))
        h = self.decoder(x, memory)
        return linear(h, self.w_out, self.b_out)

    def training_loss(self, groups, sentences) -> Tensor:
        targets = story_tokens(sentences)
        target_ids = self._ids(targets, strict=True)
        memory = self.encode_path(groups)
        input_ids = [self.token_to_id[BOS_STORY]] + target_ids[:-1]
        total = len(targets)
        remaining = total - np.arange(total)  # true remaining length, teacher forced
        logits = self.decoder_logits(memory, input_ids, remaining)
        return ad.softmax_cross_entropy(logits, target_ids)

    def step_log_probs_fn(self, path_groups, budgets):
        """Batched next-token log-probs for the frontier of one search per path (no tape).

        path_groups and budgets hold each path's term groups and LDPE length
        budget. The returned step takes the frontier (parents, tokens) of
        ``beam.beam_decode``, whose search g decodes path g, and gives
        (B, V) log-probabilities. Row b extends row parents[b] of the
        previous call, so the decoder runs just the B new positions over a
        key/value cache; each row reads its own path's memory and takes its
        position from its own path's budget. The paths are encoded in one
        padded pass (``layers.encode_padded``), and each step reads its LDPE
        rows from one table of every remaining length up to the largest budget.
        """
        cache = DecoderCache(self.decoder, *encode_padded(self.encoder, [self.path_embeddings(g).data for g in path_groups]))
        budgets = np.asarray(budgets)
        ldpe = sinusoidal_encoding(np.arange(budgets.max(initial=0) + 1), self.config.hidden_size)
        bos = self.token_to_id[BOS_STORY]
        path_of = np.arange(len(budgets))  # each row's path: at the first call, root g is path g

        def step(frontier) -> np.ndarray:
            nonlocal path_of
            parents, tokens = frontier
            path_of = path_of[parents]
            pos = tokens.shape[1]
            ids = tokens[:, -1] if pos else np.full(len(tokens), bos)
            h = cache.step(self.dec_embedding.data[ids] + ldpe[np.maximum(budgets[path_of] - pos, 0)], parents, path_of)
            return ad.log_softmax_values(slab_product(h, self.w_out.data) + self.b_out.data)

        return step

    def save(self, path: str) -> None:
        extra = {
            "kind": "generator",
            "vocab": self.vocab,
            "sentence_budget": self.sentence_budget,
            "config": asdict(self.config),
        }
        self.store.save(path, extra=extra)

    @classmethod
    def load(cls, path: str) -> "GeneratorModel":
        store, extra = ParameterStore.load(path, kind="generator")
        return store.build_model(
            path, lambda: cls(extra["vocab"], GeneratorConfig(**extra["config"]), store, extra["sentence_budget"])
        )


def story_tokens(sentences) -> list[str]:
    """Flatten sentences into decoder targets: each sentence closed by a boundary."""
    tokens = []
    for sent in sentences:
        tokens.extend(sent)
        tokens.append(SENTENCE_BOUNDARY)
    tokens.append(EOS_STORY)
    return tokens


def decode_stories(paths, model: GeneratorModel, penalties: BeamPenaltyConfig | None = None) -> list[Story]:
    """One story per path, a sentence per term group; the paths' searches run as one batched search per block.

    A block holds as many consecutive paths as fit ``STORY_BLOCK_CACHE_BYTES``
    (at least one), each path's beam_size rows caching a key and a value
    per layer for every position of its longest story, and every beam
    step of a block is one decoder step over all its live rows.
    """
    penalties = penalties or BeamPenaltyConfig()
    paths = list(paths)
    excluded = tuple(model.token_to_id[t] for t in (BOS_STORY, EOS_STORY, UNK))
    config = model.config
    position_bytes = penalties.beam_size * config.decoder_layers * 2 * config.hidden_size * 8  # float64 keys and values
    cache_bytes = [len(path.groups) * (config.max_sentence_tokens + 1) * position_bytes for path in paths]
    stories = []
    for span in blocks(cache_bytes, STORY_BLOCK_CACHE_BYTES):
        block = paths[span]
        groups = [list(path.groups) for path in block]
        budgets = [len(g) * (model.sentence_budget + 1) + 1 for g in groups]  # boundaries and end marker included
        results = beam_decode(
            model.step_log_probs_fn(groups, budgets),
            Search(penalties, config.max_sentence_tokens),
            [len(g) for g in groups],
            vocab_size=len(model.vocab),
            sb_id=model.token_to_id[SENTENCE_BOUNDARY],
            excluded_ids=excluded,
        )
        stories += [_story(path, model, *result) for path, result in zip(block, results)]
    return stories


def decode_story(path: TermPath, model: GeneratorModel, penalties: BeamPenaltyConfig | None = None) -> Story:
    """Generate one sentence per term group of the path: ``decode_stories`` with one path."""
    return decode_stories([path], model, penalties)[0]


def _story(path: TermPath, model: GeneratorModel, token_ids, score: float, truncated: bool) -> Story:
    tokens = [model.vocab[t] for t in token_ids]
    sentences, current = [], []
    for tok in tokens:
        if tok == SENTENCE_BOUNDARY:
            sentences.append(current)
            current = []
        else:
            current.append(tok)
    return Story(
        story_id=path.story_id,
        sentences=sentences,
        tokens=tokens,
        score=score,
        truncated=truncated,
        bridge=path.bridge.to_record() if path.bridge is not None else None,
    )


def build_generator_vocab(pairs) -> list[str]:
    tokens = set()
    for example in pairs:
        for group in example.term_groups:
            tokens.update(group)
        for sent in example.sentences:
            tokens.update(sent)
    markers = [BOS_STORY, EOS_STORY, SENTENCE_BOUNDARY, UNK, PATH_BOS, PATH_EOS, GROUP_SEP]
    seen = set()
    vocab = []
    for t in markers + sorted(tokens):
        if t not in seen:
            seen.add(t)
            vocab.append(t)
    return vocab


def mean_sentence_budget(pairs) -> int:
    lengths = [len(sent) for ex in pairs for sent in ex.sentences]
    return max(1, int(round(float(np.mean(lengths)))))


def train_generator(
    pairs,
    config: GeneratorConfig | None = None,
    train: TrainConfig | None = None,
    model: GeneratorModel | None = None,
):
    """Teacher-forced training over (term path, story) pairs.

    Pass an existing model to fine-tune it in place; it keeps its
    vocabulary, so a story word outside it raises UnknownWordsError before
    the first step. Returns (model, per-epoch mean cross-entropy).
    """
    config = config or GeneratorConfig()
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot train the generator on an empty pair set")
    for ex in pairs:
        if len(ex.term_groups) != len(ex.sentences):
            raise ValueError(
                f"story {ex.story_id!r}: {len(ex.term_groups)} term groups but {len(ex.sentences)} sentences"
            )
    if model is None:
        model = GeneratorModel.build(build_generator_vocab(pairs), config, sentence_budget=mean_sentence_budget(pairs))
    for ex in pairs:
        missing = sorted({tok for sent in ex.sentences for tok in sent} - model.token_to_id.keys())
        if missing:
            raise UnknownWordsError(ex.story_id, missing)

    history = fit(
        model.store,
        pairs,
        lambda ex: (model.training_loss(ex.term_groups, ex.sentences), 1),
        train or TrainConfig(),
        metric="cross-entropy",
    )
    return model, history
