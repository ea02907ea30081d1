"""The penalised beam search of the story and term decoders, and its top-k selection.

A candidate x scores log p(x) - alpha*[x in S] - (gamma/l)*[x in R], where S
and R hold the tokens of the current and of earlier sentences and l counts
the tokens generated so far (at least 1), as the paper's l does. A term set is
one sentence closed by the end-of-set marker, with alpha = 1e19 and gamma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BeamPenaltyConfig:
    alpha: float = 20.0
    gamma: float = 5.0
    beam_size: int = 3

    def __post_init__(self):
        if self.alpha < 0 or self.gamma < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.beam_size < 1:
            raise ValueError("beam size must be >= 1")


def top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best finite entries of a (B, V) candidate table, best first.

    Candidates rank by score (higher first), then lower token id (column),
    then lower hypothesis index (row); ties at the k-th score resolve the
    same way. Non-finite entries are masked and never selected, so fewer
    than k come back when fewer are finite. Returns (rows, columns).
    """
    b = scores.shape[0]
    flat = scores.T.reshape(-1)  # flat index = column * B + row: the tie order
    finite = np.isfinite(flat)
    k = min(k, int(finite.sum()))
    if k == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    neg = np.where(finite, -flat, np.inf)
    kth = -neg[np.argpartition(neg, k - 1)[k - 1]]
    above = np.flatnonzero(finite & (flat > kth))
    tied = np.flatnonzero(flat == kth)[: k - above.size]
    chosen = np.concatenate([above, tied])
    chosen = chosen[np.lexsort((chosen, -flat[chosen]))]
    return chosen % b, chosen // b


def beam_search(
    *,
    vocab_size: int,
    sb_id: int,
    group_count: int,
    penalties: BeamPenaltyConfig,
    max_sentence_tokens: int,
    excluded_ids=(),
    run_until_empty: bool = False,
):
    """One beam search over token ids with inter/intra-sentence repetition penalties, as a generator.

    At each beam step it yields its frontier (parents, tokens) and is sent
    the (B, V) next-token log-probabilities of its rows; it returns (token
    ids, score, truncated) of the winner. tokens holds the live hypotheses'
    (B, t) token ids, and row b extends row parents[b] of the previous
    frontier; the first frontier is one empty row with parents [0].
    Structural rules: ids in excluded_ids are never emitted; a hypothesis
    finishes at its group_count-th sentence boundary; a sentence hitting
    max_sentence_tokens is closed by a forced boundary and flags the story
    as truncated. Marker tokens stay out of the repetition sets S (current
    sentence) and R (earlier sentences), both boolean (B, V) masks. Exact
    score ties resolve to the lower token id, then the earlier hypothesis.
    The search stops once beam_size hypotheses have finished, or with
    run_until_empty once none is live; the two rules can pick different
    winners.
    """
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[list(excluded_ids)] = False
    allowed[sb_id] = True
    only_sb = np.zeros(vocab_size, dtype=bool)
    only_sb[sb_id] = True
    # live hypotheses, one row each
    parents = np.zeros(1, dtype=np.int64)
    scores = np.zeros(1)
    tokens = np.zeros((1, 0), dtype=np.int64)
    s_mask = np.zeros((1, vocab_size), dtype=bool)
    r_mask = np.zeros((1, vocab_size), dtype=bool)
    bounds = np.zeros(1, dtype=np.int64)
    sent_len = np.zeros(1, dtype=np.int64)
    trunc = np.zeros(1, dtype=bool)
    done = []  # (score, tokens, truncated) in finishing order
    while scores.size:
        logp = np.asarray((yield parents, tokens), dtype=np.float64)
        gamma_l = penalties.gamma / max(1, tokens.shape[1])  # l: tokens generated so far
        step_score = (logp - np.where(s_mask, penalties.alpha, 0.0)) - np.where(r_mask, gamma_l, 0.0)
        forced = sent_len >= max_sentence_tokens
        open_ids = np.where(forced[:, None], only_sb, allowed)
        candidates = scores[:, None] + step_score
        hyp, tok = top_k(np.where(open_ids, candidates, -np.inf), penalties.beam_size)
        new_scores = candidates[hyp, tok]
        is_sb = tok == sb_id
        s_mask, r_mask = s_mask[hyp], r_mask[hyp]
        r_mask[is_sb] |= s_mask[is_sb]
        s_mask[is_sb] = False
        s_mask[~is_sb, tok[~is_sb]] = True
        bounds = bounds[hyp] + is_sb
        sent_len = np.where(is_sb, 0, sent_len[hyp] + 1)
        trunc = trunc[hyp] | forced[hyp]
        tokens = np.concatenate([tokens[hyp], tok[:, None]], axis=1)
        finished = is_sb & (bounds == group_count)
        for i in np.flatnonzero(finished):
            done.append((float(new_scores[i]), tokens[i].tolist(), bool(trunc[i])))
        keep = ~finished
        parents, scores, tokens, s_mask, r_mask = hyp[keep], new_scores[keep], tokens[keep], s_mask[keep], r_mask[keep]
        bounds, sent_len, trunc = bounds[keep], sent_len[keep], trunc[keep]
        if len(done) >= penalties.beam_size and not run_until_empty:
            break
    score, token_ids, truncated = max(enumerate(done), key=lambda kv: (kv[1][0], -kv[0]))[1]
    return token_ids, score, truncated


def decode_lockstep(step_log_probs, searches) -> list:
    """Run beam_search generators together: one step_log_probs call per beam step.

    step_log_probs takes one frontier (parents, tokens): the frontiers of the
    live searches stacked in index order, and gives their (B, V)
    log-probabilities in the same order. Row b extends row parents[b] of the
    previous call; at the first call, search g's root is row g. A search
    drops out once it finishes under its own stop rule, so the step runs as
    many times as the longest search. Returns each search's (token ids,
    score, truncated).
    """
    results = [None] * len(searches)
    asks = {g: next(search) for g, search in enumerate(searches)}
    starts = list(range(len(searches)))  # each search's first row in the previous call
    while asks:
        parents = np.concatenate([starts[g] + own for g, (own, _) in asks.items()])
        logp = step_log_probs((parents, np.concatenate([tokens for _, tokens in asks.values()])))
        start = 0
        for g, (_, tokens) in list(asks.items()):
            rows = logp[start : start + len(tokens)]
            starts[g] = start
            start += len(tokens)
            try:
                asks[g] = searches[g].send(rows)
            except StopIteration as finished:
                results[g] = finished.value
                del asks[g]
    return results


def beam_decode(step_log_probs, **settings):
    """One beam_search(**settings), with step_log_probs mapping its frontiers to (B, V) log-probabilities.

    Returns the winner's (token ids, score, truncated).
    """
    return decode_lockstep(step_log_probs, [beam_search(**settings)])[0]
