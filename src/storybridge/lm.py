"""Language models over term sequences, used to rank candidate term paths.

Two interchangeable scorers: a deterministic add-k n-gram model and a GRU
model trained with the neural core. Both score a sequence as the sum of
conditional log-probabilities of every token after the first, and report
perplexity normalized by that token count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import GRUParams, linear
from .optim import AdamState, adam_step
from .params import ParameterStore

BOS = "<s>"
EOS = "</s>"
SEP = "<sep>"
UNK = "<unk>"


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

    def next_token_distribution(self, context) -> dict[str, float]:
        return {w: self.prob(w, context) for w in self.vocab}

    def save(self, path: str) -> None:
        payload = {
            "kind": "ngram",
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "vocab": self.vocab,
            "counts": [[list(ctx), dict(ws)] for ctx, ws in sorted(self.counts.items())],
            "context_counts": [[list(ctx), n] for ctx, n in sorted(self.context_counts.items())],
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path: str) -> "NGramLM":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("kind") != "ngram":
            raise ValueError(f"{path}: not an n-gram checkpoint")
        counts = {tuple(ctx): ws for ctx, ws in payload["counts"]}
        context_counts = {tuple(ctx): n for ctx, n in payload["context_counts"]}
        return cls(payload["order"], payload["vocab"], counts, context_counts, payload["smoothing_k"])


class GRULanguageModel:
    """Recurrent term model: embedding, GRU cell, softmax over the vocabulary."""

    def __init__(self, vocab, hidden_size: int, store: ParameterStore):
        self.vocab = list(vocab)
        self.token_to_id = {t: i for i, t in enumerate(self.vocab)}
        self.hidden_size = hidden_size
        self.store = store
        d = hidden_size
        self.embedding = store.param("lm.embedding", (len(self.vocab), d))
        self.cell = GRUParams(store, "lm.gru", d_in=d, d=d)
        self.w_out = store.param("lm.w_out", (d, len(self.vocab)))
        self.b_out = store.param("lm.b_out", (len(self.vocab),), init="zeros")

    @classmethod
    def build(cls, vocab, hidden_size: int = 64, seed: int = 0) -> "GRULanguageModel":
        return cls(vocab, hidden_size, ParameterStore(seed))

    def _ids(self, tokens) -> list[int]:
        vocab_set = set(self.vocab)
        return [self.token_to_id[_map_token(t, vocab_set)] for t in tokens]

    def sequence_logits(self, tokens) -> Tensor:
        """Logit rows predicting tokens[1:] from their prefixes."""
        ids = self._ids(tokens)
        h = Tensor(np.zeros((1, self.hidden_size)))
        rows = []
        for tok_id in ids[:-1]:
            x = ad.embed(self.embedding, [tok_id])
            h = self.cell(x, h)
            rows.append(linear(h, self.w_out, self.b_out))
        return ad.concat(rows, axis=0)

    def step_log_probs(self, prefix_tokens) -> np.ndarray:
        """Next-token log-probabilities given a prefix (no tape)."""
        ids = self._ids(prefix_tokens)
        h = Tensor(np.zeros((1, self.hidden_size)))
        for tok_id in ids:
            x = ad.embed(self.embedding, [tok_id])
            h = self.cell(x, h)
        logits = linear(h, self.w_out, self.b_out)
        return ad.log_softmax_values(logits.data)[0]

    def next_token_distribution(self, context) -> dict[str, float]:
        logp = self.step_log_probs(context)
        return {t: float(np.exp(logp[i])) for i, t in enumerate(self.vocab)}

    def save(self, path: str) -> None:
        self.store.save(
            path,
            schedule=getattr(self, "trained_schedule", None),
            extra={"kind": "gru_lm", "vocab": self.vocab, "hidden_size": self.hidden_size},
        )

    @classmethod
    def load(cls, path: str) -> "GRULanguageModel":
        store, meta = ParameterStore.load(path)
        extra = meta["extra"]
        if extra.get("kind") != "gru_lm":
            raise ValueError(f"{path}: not a recurrent LM checkpoint")
        return store.build_model(path, lambda: cls(extra["vocab"], extra["hidden_size"], store))


def log_prob(model, seq) -> float:
    """Sum of conditional log-probabilities of seq[1:]; always <= 0."""
    seq = list(seq)
    if len(seq) < 2:
        raise ValueError("sequence must hold at least a begin and an end token")
    if isinstance(model, NGramLM):
        total = 0.0
        for i in range(1, len(seq)):
            p = model.prob(seq[i], seq[:i])
            total += math.log(p) if p > 0 else -math.inf
        return total
    vocab_set = set(model.vocab)
    ids = [model.token_to_id[_map_token(t, vocab_set)] for t in seq]
    logits = model.sequence_logits(seq)
    logp = ad.log_softmax_values(logits.data)
    return float(logp[np.arange(len(ids) - 1), ids[1:]].sum())


def perplexity(model, seq) -> float:
    """exp(-log_prob / scored token count); the first token is not scored."""
    seq = list(seq)
    lp = log_prob(model, seq)
    return float(math.exp(-lp / (len(seq) - 1)))


@dataclass
class LMTrainConfig:
    kind: str = "gru"
    order: int = 2
    smoothing_k: float = 1.0
    hidden_size: int = 64
    epochs: int = 30
    learning_rate: float = 1e-3
    warmup_steps: int = 100
    seed: int = 0
    holdout_fraction: float = 0.1
    log: object = None
    extra_vocab: tuple = field(default_factory=tuple)


def train_lm(corpus, config: LMTrainConfig | None = None):
    """Train a term LM; returns (model, per-epoch held-out perplexity history).

    The n-gram variant trains in one counting pass and has an empty history.
    """
    config = config or LMTrainConfig()
    corpus = [list(seq) for seq in corpus]
    if not corpus:
        raise ValueError("cannot train a language model on an empty corpus")
    if config.kind == "ngram":
        return NGramLM.train(corpus, order=config.order, smoothing_k=config.smoothing_k), []
    if config.kind != "gru":
        raise ValueError(f"unknown language model kind {config.kind!r}")

    vocab = sorted({tok for seq in corpus for tok in seq} | {BOS, EOS, SEP, UNK} | set(config.extra_vocab))
    model = GRULanguageModel.build(vocab, hidden_size=config.hidden_size, seed=config.seed)
    n_holdout = max(1, int(round(len(corpus) * config.holdout_fraction)))
    holdout = corpus[-n_holdout:]
    train_split = corpus[:-n_holdout] or corpus

    state = AdamState(base_lr=config.learning_rate, warmup_steps=config.warmup_steps)
    history = []
    for epoch in range(config.epochs):
        for seq in train_split:
            logits = model.sequence_logits(seq)
            targets = model._ids(seq)[1:]
            loss = ad.softmax_cross_entropy(logits, targets)
            ad.backward(loss)
            adam_step(model.store, model.store.collect_grads(), state)
            model.store.zero_grads()
        ppl = float(np.mean([perplexity(model, seq) for seq in holdout]))
        history.append(ppl)
        if config.log:
            config.log(f"epoch {epoch + 1}: holdout perplexity {ppl:.4f}")
    model.trained_schedule = state.schedule()
    return model, history


def load_term_sequences(path: str) -> list[list[str]]:
    """Read an LM corpus file: one {"tokens": [...]} record per line."""
    from .ioutil import InputError, read_jsonl

    sequences = []
    for i, rec in enumerate(read_jsonl(path), start=1):
        if "tokens" not in rec or not isinstance(rec["tokens"], list):
            raise InputError(f"{path}:{i}: term-sequence record needs a 'tokens' list")
        sequences.append([str(t) for t in rec["tokens"]])
    return sequences


def save_term_sequences(path: str, sequences) -> None:
    from .ioutil import write_jsonl

    write_jsonl(path, ({"tokens": list(seq)} for seq in sequences))


def load_lm(path: str):
    """Load either LM kind by sniffing the checkpoint."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") == "ngram":
        return NGramLM.load(path)
    return GRULanguageModel.load(path)
