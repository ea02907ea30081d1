"""Computations made apart from the program, to check its outputs.

Nothing here imports the program: BLEU and distinct-n are recounted from
n-gram counts, bridges are enumerated by brute force over a plain tuple
list, the GRU term LM is re-run in plain numpy from the checkpoint file,
and the story beam search is re-implemented over whole score arrays.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

# ------------------------------------------------------------------ BLEU / distinct


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references, n: int) -> float:
    """Corpus BLEU-n: brevity penalty times the geometric mean of clipped precisions."""
    precisions = []
    for k in range(1, n + 1):
        hit = total = 0
        for cand, ref in zip(candidates, references):
            ref_counts = ngram_counts(ref, k)
            for gram, count in ngram_counts(cand, k).items():
                hit += min(count, ref_counts.get(gram, 0))
                total += count
        if hit == 0:
            return 0.0
        precisions.append(hit / total)
    c = sum(len(x) for x in candidates)
    r = sum(len(x) for x in references)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(math.log(p) for p in precisions) / n)


def distinct(stories, n: int) -> float:
    grams = [g for s in stories for g in zip(*(s[i:] for i in range(n)))]
    return len(set(grams)) / len(grams) if grams else 0.0


# ------------------------------------------------------------------ KG bridges


def brute_bridges(tuples, two_hop_sources, terms_a, terms_b, allow_two_hop=True):
    """Every bridge from terms_a to terms_b, in the documented order.

    tuples are (head, relation, tail, source). A one-hop bridge is any tuple
    from a term of A to a term of B. A two-hop bridge is a pair of tuples
    from two-hop sources, A -> middle -> B, with the middle equal to neither
    endpoint. Bridges are (head, relations, middle, tail), deduplicated and
    sorted by (head, relations, tail, middle or "").
    """
    a_set, b_set = set(terms_a), set(terms_b)
    found = {(h, (r,), None, t) for h, r, t, _s in tuples if h in a_set and t in b_set}
    if allow_two_hop:
        first = [x for x in tuples if x[0] in a_set and x[3] in two_hop_sources]
        second = [x for x in tuples if x[2] in b_set and x[3] in two_hop_sources]
        for h, r1, m, _s1 in first:
            for m2, r2, t, _s2 in second:
                if m2 == m and m != h and m != t:
                    found.add((h, (r1, r2), m, t))
    return sorted(found, key=lambda b: (b[0], b[1], b[3], b[2] or ""))


# ------------------------------------------------------------------ GRU term LM


def log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class NumpyGRULM:
    """The GRU term LM, re-run from a checkpoint payload with plain numpy."""

    def __init__(self, payload: dict):
        self.vocab = list(payload["extra"]["vocab"])
        self.ids = {t: i for i, t in enumerate(self.vocab)}
        self.w = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in payload["params"].items()
        }
        self.d = int(payload["extra"]["hidden_size"])

    @classmethod
    def from_file(cls, path: str) -> "NumpyGRULM":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def log_prob(self, tokens) -> float:
        unk = self.ids.get("<unk>")
        ids = [self.ids.get(t, unk) for t in tokens]
        w = self.w
        h = np.zeros((1, self.d))
        total = 0.0
        for cur, nxt in zip(ids[:-1], ids[1:]):
            x = w["lm.embedding"][[cur]]
            r = sigmoid(x @ w["lm.gru.w_xr"] + h @ w["lm.gru.w_hr"] + w["lm.gru.b_r"])
            z = sigmoid(x @ w["lm.gru.w_xz"] + h @ w["lm.gru.w_hz"] + w["lm.gru.b_z"])
            n = np.tanh(x @ w["lm.gru.w_xn"] + w["lm.gru.b_nx"] + r * (h @ w["lm.gru.w_hn"] + w["lm.gru.b_nh"]))
            h = (1.0 - z) * n + z * h
            total += float(log_softmax(h @ w["lm.w_out"] + w["lm.b_out"])[0, nxt])
        return total

    def perplexity(self, tokens) -> float:
        return math.exp(-self.log_prob(tokens) / (len(tokens) - 1))


# ------------------------------------------------------------------ story beam search


def penalized_score(logp_rows, ids, sb, alpha, gamma) -> float:
    """Score of a finished token sequence, replaying the decode penalties.

    logp_rows[t] holds the next-token log-probabilities after t tokens. A
    token pays alpha if it already occurs in the current sentence and
    gamma / max(1, t) if it occurs in an earlier sentence; the boundary
    token sb opens a new sentence and is never penalised.
    """
    current, previous = set(), set()
    score = 0.0
    for t, tok in enumerate(ids):
        step = float(logp_rows[t][tok])
        if tok in current:
            step -= alpha
        if tok in previous:
            step -= gamma / max(1, t)
        score += step
        if tok == sb:
            previous |= current
            current = set()
        else:
            current.add(tok)
    return score


def reference_beam(step, vocab_size, sb, group_count, alpha, gamma, beam, cap, excluded):
    """Beam search over whole score arrays; returns (tokens, score, truncated).

    step(prefix tuple) gives next-token log-probabilities. Candidates rank
    by score, then lower token id, then earlier hypothesis. A sentence of
    cap tokens is closed by a forced boundary; a hypothesis finishes at its
    group_count-th boundary, and the search stops once beam hypotheses have
    finished. The best finished one wins, earlier ones winning exact ties.
    """
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[list(excluded)] = False
    allowed[sb] = True
    # hypothesis: [score, tokens, current-sentence mask, earlier-sentence mask, boundaries, length, truncated]
    live = [[0.0, (), np.zeros(vocab_size, bool), np.zeros(vocab_size, bool), 0, 0, False]]
    done = []
    while live:
        scores, toks, hyps = [], [], []
        for i, (score, tokens, cur, prev, _b, length, _tr) in enumerate(live):
            logp = np.asarray(step(tokens), dtype=np.float64)
            if length >= cap:
                cand = np.array([sb])
            else:
                cand = np.flatnonzero(allowed)
            a = np.where(cur[cand], alpha, 0.0)
            g = np.where(prev[cand], gamma / max(1, len(tokens)), 0.0)
            scores.append(score + (logp[cand] - a - g))
            toks.append(cand)
            hyps.append(np.full(cand.size, i))
        scores, toks, hyps = np.concatenate(scores), np.concatenate(toks), np.concatenate(hyps)
        order = np.lexsort((hyps, toks, -scores))[:beam]
        nxt = []
        for j in order:
            score, tok, i = float(scores[j]), int(toks[j]), int(hyps[j])
            _, tokens, cur, prev, bounds, length, trunc = live[i]
            trunc = trunc or length >= cap
            if tok == sb:
                hyp = [score, tokens + (tok,), np.zeros(vocab_size, bool), cur | prev, bounds + 1, 0, trunc]
                (done if bounds + 1 == group_count else nxt).append(hyp)
            else:
                cur = cur.copy()
                cur[tok] = True
                nxt.append([score, tokens + (tok,), cur, prev, bounds, length + 1, trunc])
        live = nxt
        if len(done) >= beam:
            break
    best = max(range(len(done)), key=lambda k: (done[k][0], -k))
    return list(done[best][1]), done[best][0], done[best][6]
