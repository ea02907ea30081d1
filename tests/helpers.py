"""Shared numeric oracles for the test suite.

The finite-difference gradient here is the independent check for every
analytic gradient in the package; it must never call into the tape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import types

import numpy as np


def numeric_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar-valued f with respect to x.

    f takes no arguments and must reread x (mutated in place) on each call.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # floor keeps finite-difference noise from dominating genuinely zero grads
    denom = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-6)
    return float(np.max(np.abs(analytic - numeric)) / denom)


@contextlib.contextmanager
def count_tape_nodes():
    """Count the tape nodes (op outputs carrying a VJP) made inside the block, as ``.nodes``."""
    from storybridge import autodiff as ad

    make = ad._make
    counter = types.SimpleNamespace(nodes=0)

    def counting(data, parents, vjp):
        out = make(data, parents, vjp)
        counter.nodes += out._vjp is not None
        return out

    ad._make = counting
    try:
        yield counter
    finally:
        ad._make = make


# ------------------------------------------------------------ composite layer ops
#
# The fused primitives in storybridge.autodiff as compositions of the
# elementary tape ops, the way the layers built them before fusion. They
# are the oracles for the fused ops' values, gradients and float order.


def composite_linear(x, w, b=None):
    from storybridge import autodiff as ad

    y = ad.matmul(x, w)
    return y if b is None else ad.add(y, b)


def composite_feed_forward(x, w1, b1, w2, b2):
    from storybridge import autodiff as ad

    return composite_linear(ad.relu(composite_linear(x, w1, b1)), w2, b2)


def composite_add_layernorm(x, y, gain, bias, eps: float = 1e-5):
    from storybridge import autodiff as ad

    return ad.layernorm(ad.add(x, y), gain, bias, eps)


def composite_attention(q, k, v, num_heads: int, mask=None):
    import math

    from storybridge import autodiff as ad
    from storybridge.autodiff import Tensor

    (tq, d), tk = q.shape, k.shape[0]
    dh = d // num_heads
    q3 = ad.transpose(ad.reshape(q, (tq, num_heads, dh)), (1, 0, 2))
    k3t = ad.transpose(ad.reshape(k, (tk, num_heads, dh)), (1, 2, 0))
    v3 = ad.transpose(ad.reshape(v, (tk, num_heads, dh)), (1, 0, 2))
    scores = ad.scale(ad.matmul(q3, k3t), 1.0 / math.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v3)
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tq, d))


def composite_additive_attention(keys, query, v, memory):
    from storybridge import autodiff as ad

    b, (m, a) = query.shape[0], keys.shape
    scores = ad.tanh(ad.add(keys, ad.reshape(query, (b, 1, a))))  # (B, M, a)
    weights = ad.softmax(ad.reshape(ad.matmul(scores, v), (b, m)), axis=-1)
    return ad.matmul(weights, memory)


def composite_gru_cell(x, h, *, w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, b_nx, w_hn, b_nh):
    from storybridge import autodiff as ad

    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_xr), ad.matmul(h, w_hr)), b_r))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, w_xz), ad.matmul(h, w_hz)), b_z))
    n = ad.tanh(ad.add(composite_linear(x, w_xn, b_nx), ad.mul(r, composite_linear(h, w_hn, b_nh))))
    return ad.add(ad.mul(ad.sub(1.0, z), n), ad.mul(z, h))


GRU_GATES = ("w_xr", "w_hr", "b_r", "w_xz", "w_hz", "b_z", "w_xn", "b_nx", "w_hn", "b_nh")


def composite_ops() -> dict:
    """Fused op name in storybridge.autodiff -> its composite oracle."""
    return {
        "linear": composite_linear,
        "feed_forward": composite_feed_forward,
        "add_layernorm": composite_add_layernorm,
        "attention": composite_attention,
        "additive_attention": composite_additive_attention,
        "gru_cell": composite_gru_cell,
    }


def use_composite_ops(monkeypatch, names=None) -> None:
    """Swap the named fused ops (default: all) for their composites, in every storybridge module that holds them."""
    import sys

    from storybridge import autodiff as ad

    for name, composite in composite_ops().items():
        if names is not None and name not in names:
            continue
        fused = getattr(ad, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "storybridge" or mod_name.startswith("storybridge.")):
                for attr, value in list(vars(mod).items()):
                    if value is fused:
                        monkeypatch.setattr(mod, attr, composite)


# ------------------------------------------------------------ out-of-place forwards
#
# The numpy forwards of storybridge.autodiff written with a fresh array for
# every temporary. The package computes the same operations in place; these
# are the oracles that its results must equal bit for bit.


def oracle_layernorm_values(x, gain, bias, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def oracle_feed_forward_values(x, w1, b1, w2, b2):
    hidden = x @ w1 + b1
    mask = hidden > 0
    r = hidden * mask
    return r @ w2 + b2, r, mask


def oracle_attention_values(q, k, v, mask=None):
    import math

    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights, weights @ v


def oracle_log_softmax_values(logits):
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))


def oracle_additive_attention(keys, query, v, memory):
    (b, a), m = query.shape, keys.shape[0]
    t = np.tanh(keys + query.reshape(b, 1, a))
    z = (t @ v).reshape(b, m)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights @ memory


# ------------------------------------------------------------ decode references


def ldpe(pos: int, length: int, d: int) -> np.ndarray:
    """Length-difference positional encoding of one position.

    Component 2i is sin((length - pos) / 10000^(2i/d)) and component 2i+1 is
    the matching cosine: the sinusoidal table read at the remaining length,
    so the vector depends on the remaining length only.
    """
    from storybridge.layers import sinusoidal_encoding

    if d % 2 != 0:
        raise ValueError(f"ldpe: dimension {d} must be even")
    if pos < 0 or length < 1:
        raise ValueError(f"ldpe: need 0 <= pos and 1 <= len, got pos={pos}, len={length}")
    if pos > length:
        raise ValueError(f"ldpe: position {pos} exceeds the length budget {length}")
    return sinusoidal_encoding([length - pos], d)[0]


def beam_penalty_score(log_p: float, in_current: bool, in_previous: bool, alpha: float, gamma: float, story_len: int) -> float:
    """The decode score of one candidate token; beam_decode applies it to the whole (B, V) table."""
    l = max(1, story_len)
    return log_p - (alpha if in_current else 0.0) - ((gamma / l) if in_previous else 0.0)


def batched(step):
    """Lift a per-prefix step (prefix tuple -> (V,) log-probs) to beam_decode's frontier contract."""
    return lambda frontier: np.stack([np.asarray(step(tuple(p)), dtype=np.float64) for p in frontier[1].tolist()])


def recompute_step(model, groups, budget: int):
    """Per-prefix next-token log-probs by a full decoder recompute (the training path)."""
    from storybridge import autodiff as ad
    from storybridge.generate import BOS_STORY

    memory = model.encode_path(groups)
    bos = model.token_to_id[BOS_STORY]

    def step(prefix):
        input_ids = [bos] + list(prefix)
        remaining = np.maximum(budget - np.arange(len(input_ids)), 0)
        return ad.log_softmax_values(model.decoder_logits(memory, input_ids, remaining).data)[-1]

    return step


def reference_term_beam(model, memory, image_index: int, beam_size: int, eos: int):
    """The term beam search one hypothesis at a time, with per-token Python bookkeeping."""
    from storybridge import autodiff as ad
    from storybridge.autodiff import Tensor
    from storybridge.distill import REPEAT_MASK
    from storybridge.layers import linear

    keys = linear(memory, model.attn_mem)
    start = ad.embed(model.order_embedding, [image_index])
    live = [(0.0, (), Tensor(np.zeros((1, model.config.hidden_size))), frozenset())]
    finished = []
    for step in range(model.config.max_terms_per_image + 1):
        candidates = []
        for hyp_idx, (score, tokens, h, used) in enumerate(live):
            prev = start if not tokens else ad.embed(model.term_embedding, [tokens[-1]])
            logits, h_next = model._step(prev, h, model._context(h, memory, keys))
            logp = ad.log_softmax_values(logits.data)[0]
            token_range = [eos] if step == model.config.max_terms_per_image else range(len(model.vocab))
            for tok in token_range:
                penalty = REPEAT_MASK if (tok in used and tok != eos) else 0.0
                candidates.append((score + logp[tok] - penalty, tok, hyp_idx, Tensor(h_next.data)))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for cand_score, tok, hyp_idx, h_next in candidates[:beam_size]:
            _, tokens, _, used = live[hyp_idx]
            if tok == eos:
                finished.append((cand_score, tokens))
            else:
                next_live.append((cand_score, tokens + (tok,), h_next, used | {tok}))
        live = next_live
        if not live:
            break
    best_score, best_tokens = max(enumerate(finished), key=lambda kv: (kv[1][0], -kv[0]))[1]
    return [model.vocab[t] for t in best_tokens], best_score


def slot_logits(model, memory, keys, image_index: int, target_ids):
    """One image's teacher-forced logit rows, one decoder step per target: the first step reads the image's
    order embedding, each later step the previous target."""
    from storybridge import autodiff as ad
    from storybridge.autodiff import Tensor

    h = Tensor(np.zeros((1, model.config.hidden_size)))
    prev = ad.embed(model.order_embedding, [image_index])
    rows = []
    for tid in target_ids:
        logits, h = model._step(prev, h, model._context(h, memory, keys))
        rows.append(logits)
        prev = ad.embed(model.term_embedding, [tid])
    return ad.concat(rows, axis=0)


def per_image_loss(model, seq, groups):
    """The distiller's loss with each image teacher-forced on its own: the oracle for ``teacher_forced_loss``."""
    from storybridge import autodiff as ad
    from storybridge.distill import END_OF_SET
    from storybridge.layers import linear

    memory = model.encode_objects(seq)
    keys = linear(memory, model.attn_mem)
    all_logits, all_targets = [], []
    for slot, gold in zip(seq.slots, groups):
        target_ids = [model.token_to_id[t] for t in gold] + [model.token_to_id[END_OF_SET]]
        all_logits.append(slot_logits(model, memory, keys, slot.image_index, target_ids))
        all_targets.extend(target_ids)
    return ad.softmax_cross_entropy(ad.concat(all_logits, axis=0), all_targets), len(all_targets)


def reference_story_beam(step, *, vocab_size, sb_id, group_count, penalties, max_sentence_tokens, excluded_ids=()):
    """The penalized story beam search one hypothesis and one token at a time.

    step takes one prefix tuple; returns (token ids, score, truncated) like beam_decode.
    """
    excluded = frozenset(excluded_ids) - {sb_id}
    # hypothesis: (score, tokens, S, R, boundaries, sentence_len, truncated)
    live = [(0.0, (), frozenset(), frozenset(), 0, 0, False)]
    done = []
    while live:
        candidates = []
        for hyp_idx, (score, tokens, s_set, r_set, bounds, sent_len, trunc) in enumerate(live):
            logp = step(tokens)
            forced = sent_len >= max_sentence_tokens
            for tok in [sb_id] if forced else range(vocab_size):
                if tok in excluded:
                    continue
                step_score = beam_penalty_score(
                    float(logp[tok]), tok in s_set, tok in r_set, penalties.alpha, penalties.gamma, len(tokens)
                )
                candidates.append((score + step_score, tok, hyp_idx, trunc or forced))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for cand_score, tok, hyp_idx, trunc in candidates[: penalties.beam_size]:
            _, tokens, s_set, r_set, bounds, sent_len, _ = live[hyp_idx]
            if tok == sb_id:
                hyp = (cand_score, tokens + (tok,), frozenset(), r_set | s_set, bounds + 1, 0, trunc)
                (done if bounds + 1 == group_count else next_live).append(hyp)
            else:
                next_live.append((cand_score, tokens + (tok,), s_set | {tok}, r_set, bounds, sent_len + 1, trunc))
        live = next_live
        if len(done) >= penalties.beam_size:
            break
    best = max(enumerate(done), key=lambda kv: (kv[1][0], -kv[0]))[1]
    return list(best[1]), best[0], best[6]


def per_search_beam(
    *,
    vocab_size: int,
    sb_id: int,
    group_count: int,
    penalties,
    max_sentence_tokens: int,
    excluded_ids=(),
    run_until_empty: bool = False,
):
    """One beam search as a generator, with its own top-k: the search that the batched beam_decode replaced.

    At each beam step it yields its frontier (parents, tokens) and is sent
    the (B, V) log-probabilities of its rows; it returns (token ids, score,
    truncated) of the winner, under the rules of ``beam.Search``.
    """
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[list(excluded_ids)] = False
    allowed[sb_id] = True
    only_sb = np.zeros(vocab_size, dtype=bool)
    only_sb[sb_id] = True
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
        gamma_l = penalties.gamma / max(1, tokens.shape[1])
        step_score = (logp - np.where(s_mask, penalties.alpha, 0.0)) - np.where(r_mask, gamma_l, 0.0)
        forced = sent_len >= max_sentence_tokens
        open_ids = np.where(forced[:, None], only_sb, allowed)
        candidates = scores[:, None] + step_score
        hyp, tok = one_search_top_k(np.where(open_ids, candidates, -np.inf), penalties.beam_size)
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


def one_search_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """top_k of one (B, V) table by a threshold and one sort, independent of the grouped ``beam.top_k``.

    Flat index column * B + row is the tie order (lower token, then earlier row).
    """
    b = scores.shape[0]
    flat = scores.T.reshape(-1)
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


def per_search_decode(step_log_probs, **settings):
    """Run one per_search_beam(**settings) to its end; returns its (token ids, score, truncated)."""
    search = per_search_beam(**settings)
    frontier = next(search)
    while True:
        try:
            frontier = search.send(step_log_probs(frontier))
        except StopIteration as finished:
            return finished.value


def decode_one(step_log_probs, *, vocab_size, sb_id, excluded_ids=(), **search):
    """beam_decode with one search whose settings are given as keywords; returns its (token ids, score, truncated)."""
    from storybridge.beam import Search, beam_decode

    return beam_decode(step_log_probs, [Search(**search)], vocab_size=vocab_size, sb_id=sb_id, excluded_ids=excluded_ids)[0]


# ------------------------------------------------------------ LM scoring references


def sequence_log_probs(model, seq) -> np.ndarray:
    """GRU next-token log-probability rows after each token but the last, as the training path runs them."""
    from storybridge import autodiff as ad

    ids = model._ids(seq)
    return ad.log_softmax_values(ad.concat(model._forward(np.array([ids[:-1]]))).data)


def reference_perplexity(model, seq) -> float:
    """GRU perplexity of one sequence through the training path's one-row forward."""
    import math

    ids = model._ids(seq)
    logp = sequence_log_probs(model, seq)
    return math.exp(-float(logp[np.arange(len(ids) - 1), ids[1:]].sum()) / (len(seq) - 1))


def oracle_batched_log_probs(model, seqs) -> np.ndarray:
    """GRULanguageModel.log_probs for distinct id sequences in one padded block, gathering from full log-softmax tables."""
    block = [model._ids(seq) for seq in seqs]
    lengths = np.array([len(ids) for ids in block])
    ids = np.zeros((len(block), lengths.max()), dtype=np.int64)
    for row, seq_ids in enumerate(block):
        ids[row, : len(seq_ids)] = seq_ids
    gathered = np.zeros((len(block), ids.shape[1] - 1))
    for j, logits in enumerate(model._forward(ids[:, :-1])):
        live = j + 1 < lengths
        gathered[live, j] = oracle_log_softmax_values(logits.data)[live, ids[live, j + 1]]
    return gathered.sum(axis=1)


def reference_select(candidates, model):
    """Index and perplexity of the first lowest-perplexity candidate, scored one at a time."""
    scores = [reference_perplexity(model, path.linearized()) for path in candidates]
    best = int(np.argmin(scores))
    return best, scores[best]


def next_token_distribution(model, context) -> dict[str, float]:
    """Next-token probabilities after context, keyed by vocabulary entry, for either LM kind."""
    from storybridge.lm import NGramLM

    if isinstance(model, NGramLM):
        return {w: model.prob(w, context) for w in model.vocab}
    from storybridge import autodiff as ad

    *_, logits = model._forward(np.array([model._ids(context)]))
    logp = ad.log_softmax_values(logits.data)
    return {t: float(np.exp(logp[0, i])) for i, t in enumerate(model.vocab)}


def log_prob(model, seq) -> float:
    """Sum of conditional log-probabilities of seq[1:]; always <= 0."""
    from storybridge.lm import log_probs

    return float(log_probs(model, [seq])[0])


def read_jsonl(path: str) -> list[dict]:
    """The records of a JSONL file, without their line numbers."""
    from storybridge.ioutil import read_jsonl_lines

    return [rec for _lineno, rec in read_jsonl_lines(path)]


# ------------------------------------------------------------ checkpoints


def checkpoint_payload(store, extra: dict | None = None) -> dict:
    """The whole checkpoint of a store as one dict; ``ParameterStore.save`` writes ``canonical_dumps`` of it."""
    return {
        "format_version": 1,
        "rng_seed": store.rng_seed,
        "schedule": store.schedule,
        "extra": extra or {},
        "params": {name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()} for name, t in store.items()},
    }


def store_holding(arrays: dict, rng_seed: int = 5, schedule: dict | None = None):
    """A ParameterStore holding exactly these arrays, by name, with this seed and schedule."""
    from storybridge.params import ParameterStore

    store = ParameterStore(rng_seed)
    for name, values in arrays.items():
        store.param(name, np.shape(values), init="zeros").data[...] = values
    store.schedule = schedule
    return store


# ------------------------------------------------------------ training references


@dataclasses.dataclass
class ReferenceAdamState:
    """The schedule of ``optim.AdamState``, with one pair of moments per parameter name."""

    base_lr: float = 1e-3
    warmup_steps: int = 100
    step_count: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)


def reference_adam_step(params, grads: dict, state: ReferenceAdamState) -> float:
    """One Adam update as one out-of-place expression per parameter: the oracle for ``optim.adam_step``."""
    from storybridge.optim import BETA1, BETA2, EPS, schedule_scale

    state.step_count += 1
    lr = state.base_lr * schedule_scale(state.step_count, state.warmup_steps)
    bias1 = 1.0 - BETA1**state.step_count
    bias2 = 1.0 - BETA2**state.step_count
    for name, tensor in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + EPS)
        tensor.data = tensor.data - lr * update
    return lr


def reference_backward(loss) -> dict:
    """Gradients of ``autodiff.backward``'s walk, summed out of place and never into a piece or a ``grad_view``.

    Returns {tensor: gradient} for every requires_grad tensor reached and
    frees the tape, like ``backward``; it sets no ``.grad``.
    """
    from storybridge.autodiff import RowGradient

    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if (p.requires_grad or p._vjp is not None) and id(p) not in seen)
    grads, result = {id(loss): np.ones_like(loss.data)}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is not None:
            if node.requires_grad:
                result[node] = g
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not (parent.requires_grad or parent._vjp is not None):
                        continue
                    acc = grads.get(id(parent))
                    if isinstance(pg, RowGradient):
                        acc = np.zeros(parent.shape) if acc is None else acc.copy()
                        np.add.at(acc, pg.rows, pg.values)
                        grads[id(parent)] = acc
                    else:
                        grads[id(parent)] = pg if acc is None else acc + pg
        node._parents, node._vjp = (), None
    return result


# ------------------------------------------------------------ input files


def with_second_line(tmp_path, source: str, line: str) -> str:
    """A new JSONL file holding the first line of source, then line; its path."""
    with open(source, encoding="utf-8") as fh:
        first = fh.readline()
    out = str(tmp_path / f"bad_{os.path.basename(source)}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(first + line + "\n")
    return out


# ------------------------------------------------------------ term paths


def without_bridge(path):
    """The path with its bridge group (if any) taken out."""
    from storybridge.enrich import TermPath

    keep = [i for i, o in enumerate(path.origins) if o[0] != "bridge"]
    return TermPath(
        tuple(path.groups[i] for i in keep), tuple(path.origins[i] for i in keep), None, path.story_id
    )


def all_candidates_truncated(base, index, cap: int | None, allow_two_hop: bool = True):
    """Every bridge-enriched variant of base, base first in slot then bridge order, then the first cap of them."""
    candidates = [base]
    for k in range(len(base.groups) - 1):
        for bridge in index.enumerate_bridges(set(base.groups[k]), set(base.groups[k + 1]), allow_two_hop):
            candidates.append(base.with_bridge(k, bridge))
    return candidates if cap is None else candidates[:cap]


def enrich_path(base, index, lm, cap: int | None = 500, allow_two_hop: bool = True):
    """The selected candidate of one base path: build_candidates, then select_best."""
    from storybridge.enrich import build_candidates, select_best

    return select_best(build_candidates(base, index, cap, allow_two_hop), lm)
