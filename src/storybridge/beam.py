"""The penalised beam search of the story and term decoders, run over many searches at once, and its top-k.

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


@dataclass(frozen=True)
class Search:
    """The settings of a batched search, shared by all its searches.

    A sentence hitting max_sentence_tokens is closed by a forced boundary
    and flags the hypothesis as truncated. A search stops once beam_size
    hypotheses have finished, or with run_until_empty once none is live;
    the two rules can pick different winners.
    """

    penalties: BeamPenaltyConfig
    max_sentence_tokens: int
    run_until_empty: bool = False


def blocks(sizes, limit: int) -> list[slice]:
    """Consecutive slices of items with the given sizes, each summing to at most limit or holding a single item."""
    out, start, total = [], 0, 0
    for i, n in enumerate(sizes):
        if i > start and total + n > limit:
            out.append(slice(start, i))
            start, total = i, 0
        total += n
    return out + [slice(start, len(sizes))] if len(sizes) else out


def top_k(scores: np.ndarray, k: int, owner: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The k best finite entries of each search's rows of a (R, V) candidate table.

    owner[r] is row r's search, nondecreasing, so each search's rows are
    contiguous (all rows are search 0 when owner is None). Within a
    search, candidates rank by score (higher first), then lower token id
    (column), then lower row; ties at the k-th score resolve the same way.
    Non-finite entries are never selected, so fewer than k come back when
    fewer are finite. Returns (rows, columns), search by search, best
    first within each.
    """
    rows, vocab = scores.shape
    if rows == 0 or k < 1:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    owner = np.zeros(rows, dtype=np.int64) if owner is None else np.asarray(owner, dtype=np.int64)
    count = int(owner[-1]) + 1
    masked = np.where(np.isfinite(scores), scores, -np.inf)
    # a search's k best values are among its rows' k best values each
    width = min(k, vocab)
    best = -np.partition(-masked, width - 1, axis=1)[:, :width]
    best_owner = np.repeat(owner, width)
    best = best.reshape(-1)[np.lexsort((-best.reshape(-1), best_owner))]
    found = np.minimum(k, np.bincount(best_owner, weights=np.isfinite(best), minlength=count).astype(np.int64))
    first = np.searchsorted(best_owner, np.arange(count))  # best_owner is sorted as owner is
    kth = np.where(found > 0, best[first + found - 1], np.inf)
    r, c = np.nonzero(masked >= kth[owner][:, None])
    order = np.lexsort((r, c, -masked[r, c], owner[r]))
    r, c = r[order], c[order]
    search = owner[r]
    rank = np.arange(r.size) - np.searchsorted(search, search)
    keep = rank < found[search]
    return r[keep], c[keep]


def beam_decode(step_log_probs, search: Search, group_counts, *, vocab_size: int, sb_id: int, excluded_ids=()) -> list:
    """Run one search per group count as one batched beam search over token ids; one step_log_probs call per beam step.

    step_log_probs takes one frontier (parents, tokens) and gives the (R, V)
    next-token log-probabilities of its rows. tokens holds the live
    hypotheses' (R, t) token ids, search by search in index order, and row
    b extends row parents[b] of the previous call; at the first call,
    search g's root is row g. Ids in excluded_ids are never emitted. Marker
    tokens stay out of the repetition sets S (current sentence) and R
    (earlier sentences), both boolean (R, V) masks. The searches share the
    settings of ``search``; search g finishes a hypothesis at its
    group_counts[g]-th sentence boundary, and drops out of the frontier
    once it stops, so the step runs as many times as the longest search.
    Returns each search's winner as (token ids, score, truncated): its best
    finished score, the earlier finisher on a tie.
    """
    group_counts = np.asarray(group_counts, dtype=np.int64)
    count = group_counts.size
    alpha, gamma, beam = float(search.penalties.alpha), float(search.penalties.gamma), search.penalties.beam_size
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[list(excluded_ids)] = False
    allowed[sb_id] = True
    only_sb = np.zeros(vocab_size, dtype=bool)
    only_sb[sb_id] = True
    # live hypotheses, one row each, search by search
    owner = np.arange(count)
    parents = np.arange(count)
    scores = np.zeros(count)
    tokens = np.zeros((count, 0), dtype=np.int64)
    s_mask = np.zeros((count, vocab_size), dtype=bool)
    r_mask = np.zeros((count, vocab_size), dtype=bool)
    bounds = np.zeros(count, dtype=np.int64)
    sent_len = np.zeros(count, dtype=np.int64)
    trunc = np.zeros(count, dtype=bool)
    done = [[] for _ in range(count)]  # per search: (score, tokens, truncated) in finishing order
    finished_count = np.zeros(count, dtype=np.int64)
    live = np.ones(count, dtype=bool)
    results = [None] * count
    enough = np.inf if search.run_until_empty else beam  # finished hypotheses that stop a search
    while owner.size:
        logp = np.asarray(step_log_probs((parents, tokens)), dtype=np.float64)
        gamma_l = gamma / max(1, tokens.shape[1])  # l: tokens generated so far
        step_score = (logp - np.where(s_mask, alpha, 0.0)) - np.where(r_mask, gamma_l, 0.0)
        forced = sent_len >= search.max_sentence_tokens
        open_ids = np.where(forced[:, None], only_sb, allowed)
        candidates = scores[:, None] + step_score
        hyp, tok = top_k(np.where(open_ids, candidates, -np.inf), beam, owner)
        owner = owner[hyp]
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
        finished = is_sb & (bounds == group_counts[owner])
        for i in np.flatnonzero(finished):
            done[owner[i]].append((float(new_scores[i]), tokens[i].tolist(), bool(trunc[i])))
        finished_count += np.bincount(owner[finished], minlength=count)
        stopped = live & ((finished_count >= enough) | (np.bincount(owner[~finished], minlength=count) == 0))
        for g in np.flatnonzero(stopped):
            if not done[g]:
                raise ValueError(f"search {g} has no live hypothesis and none finished")
            score, token_ids, truncated = max(enumerate(done[g]), key=lambda kv: (kv[1][0], -kv[0]))[1]
            results[g] = (token_ids, score, truncated)
        live &= ~stopped
        keep = ~finished & live[owner]
        owner, parents, scores, tokens = owner[keep], hyp[keep], new_scores[keep], tokens[keep]
        s_mask, r_mask, bounds, sent_len, trunc = s_mask[keep], r_mask[keep], bounds[keep], sent_len[keep], trunc[keep]
    return results
