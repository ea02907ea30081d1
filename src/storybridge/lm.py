"""Language models over term sequences, used to rank candidate term paths.

Two interchangeable scorers: a deterministic add-k n-gram model and a GRU
model trained with the neural core. Both score a sequence as the sum of
conditional log-probabilities of every token after the first, and report
perplexity normalized by that token count. The GRU model has one forward
over an id matrix: training runs it on one sequence, scoring on padded
blocks of sequences whose logits tables fit ``SCORE_BLOCK_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .beam import blocks
from .ioutil import InputError
from .layers import GRUParams, linear
from .optim import TrainConfig, fit
from .params import ParameterStore

BOS = "<s>"
EOS = "</s>"
SEP = "<sep>"
UNK = "<unk>"

# Bytes of a scoring block's (rows, vocabulary) float64 logits table: 100 rows of a 2048-word LM, one
# story's capped candidates at the published size. 512-row blocks scored a published-size file more
# slowly, also with the allocator's cost taken out (README "Enrichment scoring").
SCORE_BLOCK_BYTES = 100 * 2048 * 8
# Share of a GRU LM's training sequences, the last ones, kept for its per-epoch perplexity.
HOLDOUT_FRACTION = 0.1


def linearize_groups(groups) -> list[str]:
    """Flatten term groups into one marker-delimited sequence."""
    tokens = [BOS]
    for i, group in enumerate(groups):
        if i > 0:
            tokens.append(SEP)
        tokens.extend(group)
    tokens.append(EOS)
    return tokens


def _map_token(token: str, vocab: set[str]) -> str:
    if token in vocab:
        return token
    if UNK in vocab:
        return UNK
    raise ValueError(f"token {token!r} not in vocabulary and no {UNK} entry present")


class NGramLM:
    """Add-k smoothed n-gram model over a closed vocabulary.

    Contexts near the sequence start are truncated rather than padded, so a
    bigram model conditions the second token on the first, whatever it is.
    """

    def __init__(self, order: int, vocab, counts, context_counts, smoothing_k: float):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab = sorted(vocab)
        self._vocab_set = set(self.vocab)
        self.counts = counts
        self.context_counts = context_counts
        self.smoothing_k = float(smoothing_k)

    @classmethod
    def train(cls, corpus, order: int = 2, smoothing_k: float = 1.0, vocab=None) -> "NGramLM":
        """Count n-grams over the corpus; vocabulary defaults to corpus types plus UNK."""
        corpus = list(corpus)
        if not corpus:
            raise ValueError("cannot train a language model on an empty corpus")
        if vocab is None:
            vocab = {tok for seq in corpus for tok in seq} | {UNK}
        counts: dict[tuple, dict[str, int]] = {}
        context_counts: dict[tuple, int] = {}
        for seq in corpus:
            for i in range(1, len(seq)):
                ctx = tuple(seq[max(0, i - order + 1) : i])
                w = seq[i]
                counts.setdefault(ctx, {}).setdefault(w, 0)
                counts[ctx][w] += 1
                context_counts[ctx] = context_counts.get(ctx, 0) + 1
        return cls(order, vocab, counts, context_counts, smoothing_k)

    def prob(self, token: str, context) -> float:
        ctx = tuple(context[-(self.order - 1) :]) if self.order > 1 else ()
        token = _map_token(token, self._vocab_set)
        c = self.counts.get(ctx, {}).get(token, 0)
        total = self.context_counts.get(ctx, 0)
        k = self.smoothing_k
        denom = total + k * len(self.vocab)
        if denom == 0:
            return 0.0
        return (c + k) / denom

    def log_probs(self, seqs) -> np.ndarray:
        """Summed log-probabilities of each sequence's tokens after the first."""
        totals = np.zeros(len(seqs))
        for row, seq in enumerate(seqs):
            for i in range(1, len(seq)):
                p = self.prob(seq[i], seq[:i])
                totals[row] += math.log(p) if p > 0 else -math.inf
        return totals

    def save(self, path: str) -> None:
        """A checkpoint of the shared layout with no parameters: the tables are its ``extra``."""
        ParameterStore(0).save(path, extra={
            "kind": "ngram",
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "vocab": self.vocab,
            "counts": [[list(ctx), dict(ws)] for ctx, ws in sorted(self.counts.items())],
            "context_counts": [[list(ctx), n] for ctx, n in sorted(self.context_counts.items())],
        })


class GRULanguageModel:
    """Recurrent term model: embedding, GRU cell, softmax over the vocabulary."""

    def __init__(self, vocab, hidden_size: int, store: ParameterStore):
        self.vocab = list(vocab)
        self.token_to_id = {t: i for i, t in enumerate(self.vocab)}
        self._vocab_set = set(self.vocab)
        self.hidden_size = hidden_size
        self.store = store
        d = hidden_size
        self.embedding = store.param("lm.embedding", (len(self.vocab), d))
        self.cell = GRUParams(store, "lm.gru", d_in=d, d=d)
        self.w_out = store.param("lm.w_out", (d, len(self.vocab)))
        self.b_out = store.param("lm.b_out", (len(self.vocab),), init="zeros")

    @classmethod
    def build(cls, vocab, hidden_size: int = 64, seed: int = 0) -> "GRULanguageModel":
        model = cls(vocab, hidden_size, ParameterStore(seed))
        model.store.freeze()  # constants until fit trains them
        return model

    def _ids(self, tokens) -> list[int]:
        return [self.token_to_id[_map_token(t, self._vocab_set)] for t in tokens]

    def _states(self, ids: np.ndarray):
        """The GRU state (N, d) after each column of an id matrix (N, T), one GRU step per column."""
        h = Tensor(np.zeros((ids.shape[0], self.hidden_size)))
        for j in range(ids.shape[1]):
            h = self.cell(ad.embed(self.embedding, ids[:, j]), h)
            yield h

    def _forward(self, ids: np.ndarray):
        """Next-token logits (N, V) after each column of an id matrix (N, T)."""
        return (linear(h, self.w_out, self.b_out) for h in self._states(ids))

    def log_probs(self, seqs) -> np.ndarray:
        """Summed log-probabilities of each sequence's tokens after the first.

        Each distinct id sequence is scored once, so sequences that map to
        the same ids (say, through <unk>) get the very same float. Distinct
        sequences, shortest first, run through the GRU cell as padded
        (rows, d) batches whose (rows, vocabulary) tables fit SCORE_BLOCK_BYTES.
        Every step of a batch writes its logits into the batch's one table,
        with the bits of ``_forward``'s.
        """
        first: dict[tuple, int] = {}
        owner = [first.setdefault(tuple(self._ids(seq)), len(first)) for seq in seqs]
        distinct = list(first)
        order = sorted(range(len(distinct)), key=lambda i: len(distinct[i]))  # blocks of like lengths pad little
        totals = np.empty(len(distinct))
        for span in blocks([8 * len(self.vocab)] * len(order), SCORE_BLOCK_BYTES):
            rows = order[span]
            block = [distinct[i] for i in rows]
            lengths = np.array([len(ids) for ids in block])
            ids = np.zeros((len(block), lengths.max()), dtype=np.int64)
            for row, seq_ids in enumerate(block):
                ids[row, : len(seq_ids)] = seq_ids
            gathered = np.zeros((len(block), ids.shape[1] - 1))
            logits = np.empty((len(block), len(self.vocab)))
            for j, h in enumerate(self._states(ids[:, :-1])):
                np.matmul(h.data, self.w_out.data, out=logits)
                logits += self.b_out.data
                live = j + 1 < lengths
                gathered[live, j] = ad.log_softmax_at(logits, ids[:, j + 1])[live]
            totals[rows] = gathered.sum(axis=1)
        return totals[owner]

    def save(self, path: str) -> None:
        self.store.save(path, extra={"kind": "gru_lm", "vocab": self.vocab, "hidden_size": self.hidden_size})


def log_probs(model, seqs) -> np.ndarray:
    """Sum of conditional log-probabilities of seq[1:] for each sequence; always <= 0.

    A GRU model scores all sequences in batched passes; an n-gram model
    scores them one at a time.
    """
    seqs = [list(seq) for seq in seqs]
    if any(len(seq) < 2 for seq in seqs):
        raise ValueError("sequence must hold at least a begin and an end token")
    return model.log_probs(seqs)


def perplexities(model, seqs) -> np.ndarray:
    """exp(-log_prob / scored token count) per sequence; the first token is not scored."""
    seqs = [list(seq) for seq in seqs]
    return np.array([math.exp(-lp / (len(seq) - 1)) for lp, seq in zip(log_probs(model, seqs), seqs)])


def perplexity(model, seq) -> float:
    """exp(-log_prob / scored token count); the first token is not scored."""
    return float(perplexities(model, [seq])[0])


@dataclass
class LMConfig:
    kind: str = "gru"  # "gru" or "ngram"
    order: int = 2
    smoothing_k: float = 1.0
    hidden_size: int = 64
    seed: int = 0


def train_lm(corpus, config: LMConfig | None = None, train: TrainConfig | None = None):
    """Train a term LM; returns (model, per-epoch held-out perplexity history).

    The n-gram variant trains in one counting pass, ignores ``train`` and has
    an empty history. The GRU variant holds out the last
    ``HOLDOUT_FRACTION`` of the corpus (at least one sequence) for the
    per-epoch perplexity; a corpus that this would leave nothing to train
    on raises InputError.
    """
    config = config or LMConfig()
    corpus = [list(seq) for seq in corpus]
    if not corpus:
        raise ValueError("cannot train a language model on an empty corpus")
    if config.kind == "ngram":
        return NGramLM.train(corpus, order=config.order, smoothing_k=config.smoothing_k), []
    if config.kind != "gru":
        raise ValueError(f"unknown language model kind {config.kind!r}")

    n_holdout = max(1, int(round(len(corpus) * HOLDOUT_FRACTION)))
    if n_holdout >= len(corpus):
        raise InputError(
            f"holding out {HOLDOUT_FRACTION:.0%} of {len(corpus)} term sequences (at least one) would hold out all of them"
        )
    vocab = sorted({tok for seq in corpus for tok in seq} | {BOS, EOS, SEP, UNK})
    model = GRULanguageModel.build(vocab, hidden_size=config.hidden_size, seed=config.seed)
    holdout, train_split = corpus[-n_holdout:], corpus[:-n_holdout]

    history = fit(
        model.store,
        [model._ids(seq) for seq in train_split],
        lambda ids: (ad.softmax_cross_entropy(ad.concat(model._forward(np.array([ids[:-1]]))), ids[1:]), 1),
        train or TrainConfig(),
        measure=lambda: float(np.mean(perplexities(model, holdout))),
        metric="holdout perplexity",
    )
    return model, history


def load_lm(path: str):
    """Load either LM kind from the one checkpoint layout, dispatching on ``extra.kind``.

    Any other kind, or a checkpoint that does not fit its kind, raises
    InputError naming the file.
    """
    store, extra = ParameterStore.load(path)
    kind = extra.get("kind")
    if kind == "ngram":
        return store.build_model(path, lambda: NGramLM(
            extra["order"], extra["vocab"], {tuple(ctx): ws for ctx, ws in extra["counts"]},
            {tuple(ctx): n for ctx, n in extra["context_counts"]}, extra["smoothing_k"]))
    if kind == "gru_lm":
        return store.build_model(path, lambda: GRULanguageModel(extra["vocab"], extra["hidden_size"], store))
    raise InputError(f"{path}: not a term LM checkpoint (kind {kind!r})")
