"""Top-k selection shared by the term and story beam searches."""

from __future__ import annotations

import numpy as np


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
