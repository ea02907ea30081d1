"""Layers composed from autodiff primitives.

Linear maps, multi-head attention, transformer encoder/decoder stacks, a GRU
cell, and the sinusoidal positional table. Parameters live in a
ParameterStore and are addressed by dotted names, so a stack built twice
from the same seed is bit-identical and a loaded checkpoint slots straight
back in. For inference, ``encode_padded`` runs a trained encoder stack over
a padded batch of sequences in one pass, and ``DecoderCache`` runs a trained
decoder stack one new position per hypothesis per call over one memory per
decoded path; both work in plain numpy, off the tape, through the same
numpy forwards as the fused training ops. A decoder step reads cross-attention
from folded per-path tables and runs its weight products through
``slab_product``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, gru_cell, linear
from .params import ParameterStore

NEG_INF = -1e30
# OpenBLAS on SkylakeX cores (numpy's wheels) reads a cold float64 weight slowly in a product of a few
# rows: a (512, 512) one at 4-5 GB/s with 3 rows and 7-9 GB/s with 4 to 10, where a gemv reads 18-20 GB/s.
# Summed over K-slabs of SLAB_ROWS weight rows, the same product reads it at 11-17 GB/s with 2 to 6 rows.
# Past 6 rows w_out (512, 5000) reads slower in slabs, and from about 12 rows every decoder weight does
# (README "Decoding -> Decoder step"). Weights under SLAB_MIN_BYTES are read from cache, so their
# products stay plain, bit for bit. These follow the BLAS, not settings.
SLAB_ROWS = 32
SLAB_MAX_ROWS = 6
SLAB_MIN_BYTES = 2**20


def multi_head_attention(
    query: Tensor, key: Tensor, value: Tensor, *, wq, bq, wk, bk, wv, bv, wo, bo, num_heads: int, mask=None
) -> Tensor:
    """Scaled dot-product attention with ``num_heads`` heads over 2-d inputs.

    query is (Tq, D), key/value are (Tk, D); an optional additive mask of
    shape (Tq, Tk) is applied to the attention scores before softmax.
    """
    d = query.shape[-1]
    if d % num_heads != 0:
        raise ShapeError(f"multi_head_attention: hidden size {d} not divisible by {num_heads} heads")
    q, k, v = linear(query, wq, bq), linear(key, wk, bk), linear(value, wv, bv)
    return linear(ad.attention(q, k, v, num_heads, mask), wo, bo)


def causal_mask(t: int) -> np.ndarray:
    """Additive (t, t) mask hiding future positions."""
    return np.triu(np.full((t, t), NEG_INF), k=1)


def sinusoidal_encoding(positions, d: int) -> np.ndarray:
    """Standard sine/cosine position table for the given positions."""
    if d % 2 != 0:
        raise ShapeError(f"sinusoidal_encoding: dimension {d} must be even")
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    i2 = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i2 / d)
    out = np.empty((pos.shape[0], d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


class AttentionParams:
    def __init__(self, store: ParameterStore, prefix: str, d: int):
        self.kw = dict(
            wq=store.param(f"{prefix}.wq", (d, d)),
            bq=store.param(f"{prefix}.bq", (d,), init="zeros"),
            wk=store.param(f"{prefix}.wk", (d, d)),
            bk=store.param(f"{prefix}.bk", (d,), init="zeros"),
            wv=store.param(f"{prefix}.wv", (d, d)),
            bv=store.param(f"{prefix}.bv", (d,), init="zeros"),
            wo=store.param(f"{prefix}.wo", (d, d)),
            bo=store.param(f"{prefix}.bo", (d,), init="zeros"),
        )

    def __call__(self, q, k, v, num_heads, mask=None):
        return multi_head_attention(q, k, v, num_heads=num_heads, mask=mask, **self.kw)

    def project(self, x: np.ndarray, which: str, num_heads: int) -> np.ndarray:
        """Rows x (N, D) through the named projection ("q", "k" or "v"), as (N, H, D/H)."""
        y = x @ self.kw[f"w{which}"].data + self.kw[f"b{which}"].data
        return y.reshape(x.shape[0], num_heads, -1)


class FeedForwardParams:
    def __init__(self, store: ParameterStore, prefix: str, d: int, d_ff: int):
        self.w1 = store.param(f"{prefix}.w1", (d, d_ff))
        self.b1 = store.param(f"{prefix}.b1", (d_ff,), init="zeros")
        self.w2 = store.param(f"{prefix}.w2", (d_ff, d))
        self.b2 = store.param(f"{prefix}.b2", (d,), init="zeros")

    def __call__(self, x):
        return ad.feed_forward(x, self.w1, self.b1, self.w2, self.b2)


class NormParams:
    def __init__(self, store: ParameterStore, prefix: str, d: int):
        self.g = store.param(f"{prefix}.g", (d,), init="ones")
        self.b = store.param(f"{prefix}.b", (d,), init="zeros")

    def __call__(self, x, residual):
        """layernorm(x + residual)."""
        return ad.add_layernorm(x, residual, self.g, self.b)


class TransformerEncoder:
    """Post-norm encoder stack over a (T, D) sequence."""

    def __init__(self, store: ParameterStore, prefix: str, d: int, heads: int, layers: int, d_ff: int):
        self.heads = heads
        self.blocks = []
        for i in range(layers):
            base = f"{prefix}.layer{i}"
            self.blocks.append(
                (
                    AttentionParams(store, f"{base}.attn", d),
                    NormParams(store, f"{base}.norm1", d),
                    FeedForwardParams(store, f"{base}.ff", d, d_ff),
                    NormParams(store, f"{base}.norm2", d),
                )
            )

    def __call__(self, x: Tensor) -> Tensor:
        for attn, norm1, ff, norm2 in self.blocks:
            x = norm1(x, attn(x, x, x, self.heads))
            x = norm2(x, ff(x))
        return x


class TransformerDecoder:
    """Post-norm decoder stack with causal self-attention and cross-attention."""

    def __init__(self, store: ParameterStore, prefix: str, d: int, heads: int, layers: int, d_ff: int):
        self.heads = heads
        self.blocks = []
        for i in range(layers):
            base = f"{prefix}.layer{i}"
            self.blocks.append(
                (
                    AttentionParams(store, f"{base}.self", d),
                    NormParams(store, f"{base}.norm1", d),
                    AttentionParams(store, f"{base}.cross", d),
                    NormParams(store, f"{base}.norm2", d),
                    FeedForwardParams(store, f"{base}.ff", d, d_ff),
                    NormParams(store, f"{base}.norm3", d),
                )
            )

    def __call__(self, x: Tensor, memory: Tensor) -> Tensor:
        mask = causal_mask(x.shape[0])
        for self_attn, norm1, cross, norm2, ff, norm3 in self.blocks:
            x = norm1(x, self_attn(x, x, x, self.heads, mask))
            x = norm2(x, cross(x, memory, memory, self.heads))
            x = norm3(x, ff(x))
        return x


def pad_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """Additive (N, 1, 1, width) key mask: NEG_INF at each item's positions from lengths[n] on, else 0."""
    return np.where(np.arange(width) >= lengths[:, None], NEG_INF, 0.0)[:, None, None, :]


def encode_padded(encoder: TransformerEncoder, inputs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Run the encoder over every (T_n, D) input at once, off the tape: (outputs (N, T, D), lengths (N,)).

    The inputs are padded with zero rows to the longest, T, and the padding
    is masked out of self-attention as keys, so a real position reads only
    its own input's positions; padded positions hold finite values that a
    reader must mask in turn. The projections and feed-forwards run over all
    N * T rows as one matrix. An input that needs no padding (one input, or
    inputs of one length) runs the products of ``TransformerEncoder.__call__``
    on its rows bit for bit; padded ones may differ in the last bits, as each
    attention row's sum then also adds the padding's exact zeros.
    """
    lengths = np.array([len(x) for x in inputs])
    n, t, d = len(inputs), int(lengths.max()), inputs[0].shape[1]
    padded = np.zeros((n, t, d))
    for row, x in zip(padded, inputs):
        row[: len(x)] = x
    mask = None if (lengths == t).all() else pad_mask(lengths, t)
    heads, x = encoder.heads, padded.reshape(n * t, d)
    for attn, norm1, ff, norm2 in encoder.blocks:
        q, k, v = (attn.project(x, which, heads).reshape(n, t, heads, -1).transpose(0, 2, 1, 3) for which in "qkv")
        ctx = ad.attention_values(q, k, v, mask)[1].transpose(0, 2, 1, 3).reshape(n * t, d)
        x = _norm(norm1, x, ctx @ attn.kw["wo"].data + attn.kw["bo"].data)
        x = _norm(norm2, x, ad.feed_forward_values(x, ff.w1.data, ff.b1.data, ff.w2.data, ff.b2.data)[0])
    return x.reshape(n, t, d), lengths


class DecoderCache:
    """Incremental numpy inference over a TransformerDecoder, no tape, over one or more memories.

    The memories come padded, as ``encode_padded`` gives them, and their
    padding is masked out of cross-attention. Cross-attention is folded
    into per-memory tables, built once per layer: with head h's keys K_h
    and values V_h, A = Wq_h·K_hᵀ and U = V_h·Wo_h, heads side by side as
    (D, H·T) and (H·T, D), and c = bq_h·K_hᵀ. A step computes
    softmax((x·A + c)/√Dh + padding mask)·U + bo, one product per memory,
    without reading ``wq`` or ``wo``. Each layer keeps the self-attention
    keys and values of every position already run, one row per hypothesis.
    ``step`` gathers those rows by parent hypothesis, appends the new
    position and runs only the new rows, all memories' rows as one batch;
    its self-attention and feed-forward products run through
    ``slab_product``. Attention is causal, so an
    emitted position never changes and the result equals recomputing each
    whole prefix, up to float reassociation.
    """

    def __init__(self, decoder: TransformerDecoder, memories: np.ndarray, lengths: np.ndarray):
        """memories (P, T, D) holds memory p in its first lengths[p] positions."""
        self.heads = h = decoder.heads
        self.blocks = decoder.blocks
        p, t, d = memories.shape
        rows = memories.reshape(p * t, d)
        self.cross = []  # per layer: (P, D, H*T) A, (P, H*T) bias row, (P, H*T, D) U; the keys and values are dropped
        for _s, _n1, cross, _n2, _ff, _n3 in self.blocks:
            keys, values = (cross.project(rows, which, h).reshape(p, t, h, -1).transpose(0, 2, 1, 3) for which in "kv")
            keys_t = np.swapaxes(keys, -1, -2)  # (P, H, Dh, T)
            a = cross.kw["wq"].data.reshape(d, h, -1).transpose(1, 0, 2) @ keys_t  # (P, H, D, T)
            bias = cross.kw["bq"].data.reshape(h, 1, -1) @ keys_t  # (P, H, 1, T)
            u = values @ cross.kw["wo"].data.reshape(h, -1, d)  # (P, H, T, D)
            self.cross.append((a.transpose(0, 2, 1, 3).reshape(p, d, h * t), bias.reshape(p, h * t), u.reshape(p, h * t, d)))
        self.pad_mask = pad_mask(lengths, t)[:, 0]  # (P, 1, T)
        self.past: list[tuple[np.ndarray, np.ndarray]] = []  # per layer: (B, H, t, Dh) keys, values

    def step(self, x: np.ndarray, parents, memory_of) -> np.ndarray:
        """Run new rows x (B, D); row b extends cached hypothesis parents[b] and reads memory memory_of[b]. Returns (B, D)."""
        parents, memory_of = np.asarray(parents, dtype=np.int64), np.asarray(memory_of, dtype=np.int64)
        (b, d), (p, _one, t), h = x.shape, self.pad_mask.shape, self.heads
        counts = np.bincount(memory_of, minlength=p)  # each row's slot among its memory's rows: a (P, rows, ..) batch
        slot = np.empty(b, dtype=np.int64)
        slot[np.argsort(memory_of, kind="stable")] = np.arange(b) - np.repeat(np.cumsum(counts) - counts, counts)
        grouped, weights = (np.zeros((p, counts.max(initial=0), width)) for width in (d, h * t))
        mask, scale = self.pad_mask[memory_of], 1.0 / np.sqrt(d // h)
        first = not self.past
        for i, (self_attn, norm1, cross, norm2, ff, norm3) in enumerate(self.blocks):
            kw = self_attn.kw
            q, k, v = ((slab_product(x, kw[f"w{n}"].data) + kw[f"b{n}"].data).reshape(b, h, 1, -1) for n in "qkv")
            if first:
                self.past.append((k, v))
            else:  # replaced layer by layer, so no more than one layer's keys and values are held twice
                self.past[i] = tuple(np.concatenate([old[parents], new], axis=2) for old, new in zip(self.past[i], (k, v)))
            ctx = ad.attention_values(q, *self.past[i])[1].reshape(b, d)
            x = _norm(norm1, x, slab_product(ctx, kw["wo"].data) + kw["bo"].data)
            a, bias, u = self.cross[i]
            grouped[memory_of, slot] = x
            scores = ((grouped @ a)[memory_of, slot] + bias[memory_of]).reshape(b, h, t) * scale + mask
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights[memory_of, slot] = (scores / scores.sum(axis=-1, keepdims=True)).reshape(b, h * t)
            x = _norm(norm2, x, (weights @ u)[memory_of, slot] + cross.kw["bo"].data)
            hidden = slab_product(x, ff.w1.data) + ff.b1.data
            hidden *= hidden > 0  # relu as feed_forward_values computes it
            x = _norm(norm3, x, slab_product(hidden, ff.w2.data) + ff.b2.data)
        return x


def _norm(norm: NormParams, x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    return ad.layernorm_values(x + residual, norm.g.data, norm.b.data)[0]


def slab_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (B, K) @ w (K, N), as a sum over K-slabs of SLAB_ROWS weight rows when 1 < B <= SLAB_MAX_ROWS, w holds
    at least SLAB_MIN_BYTES and K is a multiple of SLAB_ROWS; otherwise ``x @ w`` itself, bit for bit."""
    b, k = x.shape
    if not (1 < b <= SLAB_MAX_ROWS and w.nbytes >= SLAB_MIN_BYTES and k % SLAB_ROWS == 0):
        return x @ w
    slabs = k // SLAB_ROWS  # one (B, SLAB_ROWS) @ (SLAB_ROWS, N) product per slab, in one batched call
    return np.matmul(x.reshape(b, slabs, SLAB_ROWS).swapaxes(0, 1), w.reshape(slabs, SLAB_ROWS, -1)).sum(axis=0)


class GRUParams:
    def __init__(self, store: ParameterStore, prefix: str, d_in: int, d: int):
        self.kw = dict(
            w_xr=store.param(f"{prefix}.w_xr", (d_in, d)),
            w_hr=store.param(f"{prefix}.w_hr", (d, d)),
            b_r=store.param(f"{prefix}.b_r", (d,), init="zeros"),
            w_xz=store.param(f"{prefix}.w_xz", (d_in, d)),
            w_hz=store.param(f"{prefix}.w_hz", (d, d)),
            b_z=store.param(f"{prefix}.b_z", (d,), init="zeros"),
            w_xn=store.param(f"{prefix}.w_xn", (d_in, d)),
            b_nx=store.param(f"{prefix}.b_nx", (d,), init="zeros"),
            w_hn=store.param(f"{prefix}.w_hn", (d, d)),
            b_nh=store.param(f"{prefix}.b_nh", (d,), init="zeros"),
        )

    def __call__(self, x, h):
        return gru_cell(x, h, **self.kw)

