import tracemalloc

import numpy as np
import pytest

from helpers import numeric_grad, rel_err
from storybridge import autodiff as ad
from storybridge import layers
from storybridge.autodiff import ShapeError, Tensor
from storybridge.layers import (
    DecoderCache,
    GRUParams,
    TransformerDecoder,
    TransformerEncoder,
    causal_mask,
    encode_padded,
    gru_cell,
    multi_head_attention,
    sinusoidal_encoding,
    slab_product,
)
from storybridge.params import ParameterStore


def _attention_stack_loss(store, x_data):
    enc = TransformerEncoder(store, "enc", d=8, heads=2, layers=2, d_ff=16)
    out = enc(Tensor(x_data))
    r = np.sin(np.arange(out.size)).reshape(out.shape) + 0.2
    return ad.reduce_sum(ad.mul(out, Tensor(r)))


def test_two_layer_attention_stack_matches_finite_differences():
    store = ParameterStore(3)
    x = np.random.default_rng(0).normal(size=(5, 8))
    loss = _attention_stack_loss(store, x)
    ad.backward(loss)
    checked = 0
    for name, t in store.items():
        analytic = t.grad
        numeric = numeric_grad(lambda: _attention_stack_loss(store, x).item(), t.data)
        assert rel_err(analytic, numeric) <= 1e-3, name
        checked += 1
    assert checked > 10


def _gru_chain_loss(store, x_data):
    cell = GRUParams(store, "gru", d_in=4, d=6)
    h = Tensor(np.zeros((1, 6)))
    for row in x_data:
        h = cell(Tensor(row.reshape(1, 4)), h)
    r = np.cos(np.arange(6)).reshape(1, 6) + 0.3
    return ad.reduce_sum(ad.mul(h, Tensor(r)))


def test_gru_chain_matches_finite_differences():
    store = ParameterStore(11)
    x = np.random.default_rng(1).normal(size=(3, 4))
    loss = _gru_chain_loss(store, x)
    ad.backward(loss)
    for name, t in store.items():
        numeric = numeric_grad(lambda: _gru_chain_loss(store, x).item(), t.data)
        assert rel_err(t.grad, numeric) <= 1e-3, name


def test_attention_is_permutation_equivariant_without_positions():
    store = ParameterStore(5)
    enc = TransformerEncoder(store, "enc", d=8, heads=2, layers=1, d_ff=8)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8))
    out = enc(Tensor(x)).data
    perm = [2, 0, 3, 1]
    out_perm = enc(Tensor(x[perm])).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_causal_mask_blocks_future_positions():
    store = ParameterStore(9)
    d = 8
    attn_store = ParameterStore(9)
    kw = dict(
        wq=attn_store.param("wq", (d, d)),
        bq=attn_store.param("bq", (d,), init="zeros"),
        wk=attn_store.param("wk", (d, d)),
        bk=attn_store.param("bk", (d,), init="zeros"),
        wv=attn_store.param("wv", (d, d)),
        bv=attn_store.param("bv", (d,), init="zeros"),
        wo=attn_store.param("wo", (d, d)),
        bo=attn_store.param("bo", (d,), init="zeros"),
    )
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, d))
    mask = causal_mask(5)
    base = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), num_heads=2, mask=mask, **kw).data
    x2 = x.copy()
    x2[4] += 10.0  # only the last position changes
    out = multi_head_attention(Tensor(x2), Tensor(x2), Tensor(x2), num_heads=2, mask=mask, **kw).data
    np.testing.assert_allclose(out[:4], base[:4], atol=1e-12)
    assert not np.allclose(out[4], base[4])


def test_decoder_stack_runs_and_differentiates():
    store = ParameterStore(21)
    dec = TransformerDecoder(store, "dec", d=8, heads=2, layers=1, d_ff=8)
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 8)))
    mem = Tensor(rng.normal(size=(6, 8)))
    out = dec(x, mem)
    ad.backward(ad.reduce_sum(out))
    assert all(t.grad is not None for _, t in store.items())


def test_sinusoidal_encoding_shape_and_range():
    pe = sinusoidal_encoding(range(7), 8)
    assert pe.shape == (7, 8)
    assert np.abs(pe).max() <= 1.0
    np.testing.assert_allclose(pe[0, 0::2], 0.0)
    np.testing.assert_allclose(pe[0, 1::2], 1.0)


def _attention_kw(seed, d):
    store = ParameterStore(seed)
    return dict(
        wq=store.param("wq", (d, d)),
        bq=store.param("bq", (d,), init="zeros"),
        wk=store.param("wk", (d, d)),
        bk=store.param("bk", (d,), init="zeros"),
        wv=store.param("wv", (d, d)),
        bv=store.param("bv", (d,), init="zeros"),
        wo=store.param("wo", (d, d)),
        bo=store.param("bo", (d,), init="zeros"),
    )


def test_layer_ops_raise_shape_errors():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    cell = GRUParams(ParameterStore(33), "g", d_in=3, d=4)
    with pytest.raises(ShapeError, match="gru_cell"):
        gru_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 4))), **cell.kw)
    x = Tensor(np.ones((2, 4)))
    with pytest.raises(ShapeError, match="multi_head_attention"):
        multi_head_attention(x, x, x, num_heads=3, **_attention_kw(34, 4))


def test_gru_cell_rows_and_attention_shapes():
    cell = GRUParams(ParameterStore(33), "g", d_in=3, d=4)
    rng = np.random.default_rng(5)
    x, h = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    batched = gru_cell(Tensor(x), Tensor(h), **cell.kw).data
    assert batched.shape == (6, 4)
    for row in range(6):
        single = cell(Tensor(x[row : row + 1]), Tensor(h[row : row + 1])).data
        np.testing.assert_allclose(batched[row : row + 1], single, rtol=1e-12, atol=1e-15)
    x = Tensor(np.ones((2, 4)))
    out = multi_head_attention(x, x, x, num_heads=2, **_attention_kw(34, 4))
    assert out.shape == (2, 4)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_padded_encoder_on_one_input_is_the_tape_encoder_bit_for_bit():
    store = ParameterStore(5)
    enc = TransformerEncoder(store, "enc", d=16, heads=2, layers=2, d_ff=32)
    store.freeze()
    x = np.random.default_rng(1).normal(size=(7, 16))
    out, lengths = encode_padded(enc, [x])
    assert out.shape == (1, 7, 16) and lengths.tolist() == [7]
    assert (bits(out[0]) == bits(enc(Tensor(x)).data)).all()


def test_padded_encoder_masks_padding_out_of_each_input():
    store = ParameterStore(6)
    enc = TransformerEncoder(store, "enc", d=16, heads=4, layers=3, d_ff=32)
    store.freeze()
    rng = np.random.default_rng(2)
    inputs = [rng.normal(size=(n, 16)) * 3 for n in (4, 1, 9, 4, 6)]
    out, lengths = encode_padded(enc, inputs)
    assert out.shape == (5, 9, 16) and lengths.tolist() == [4, 1, 9, 4, 6]
    assert np.isfinite(out).all()  # padded positions too: a reader masks them, so they must not be NaN
    for row, x in zip(out, inputs):
        # the padding's exact zeros may regroup each attention row's sums: a declared float change
        np.testing.assert_allclose(row[: len(x)], enc(Tensor(x)).data, rtol=1e-12, atol=1e-12)
    same, _ = encode_padded(enc, inputs[:1] + inputs[3:4])  # equal lengths: nothing to mask
    assert (bits(same[0]) == bits(enc(Tensor(inputs[0])).data)).all()


def random_decoder(seed):
    """A small decoder whose biases and norm parameters are random too, so every folded table term is exercised."""
    store = ParameterStore(seed)
    dec = TransformerDecoder(store, "dec", d=16, heads=2, layers=2, d_ff=32)
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if t.data.ndim == 1:
            t.data[:] = rng.normal(scale=0.5, size=t.data.shape) + (1.0 if name.endswith(".g") else 0.0)
    store.freeze()
    return dec


def padded_memories(rng, lengths):
    memories = np.zeros((len(lengths), max(lengths), 16))
    for m, n in zip(memories, lengths):
        m[:n] = rng.normal(size=(n, 16)) * 2
    return memories


@pytest.fixture(params=["plain", "slabs"])
def product_route(request, monkeypatch):
    """With "slabs", every weight product of a d = 16 decoder's step of 2 to SLAB_MAX_ROWS rows takes the slab route."""
    if request.param == "slabs":
        monkeypatch.setattr(layers, "SLAB_ROWS", 4)  # d = 16 in 4 slabs, d_ff = 32 in 8
        monkeypatch.setattr(layers, "SLAB_MIN_BYTES", 0)
    return request.param


@pytest.mark.parametrize("lengths", [[6], [5, 2, 8]], ids=["one-memory", "three-unequal-memories"])
def test_decoder_cache_steps_equal_the_tape_decoder_over_each_whole_prefix(lengths, product_route):
    dec = random_decoder(7)
    rng = np.random.default_rng(len(lengths))
    memories, p, t = padded_memories(rng, lengths), len(lengths), max(lengths)
    cache = DecoderCache(dec, memories, np.array(lengths))
    for layer in cache.cross:  # the folded tables only: the cross keys and values are not kept
        assert [a.shape for a in layer] == [(p, 16, 2 * t), (p, 2 * t), (p, 2 * t, 16)]
    prefixes, memory_of = [np.zeros((0, 16))] * p, np.arange(p)  # root b reads memory b
    for step, rows in enumerate([p, 2, 3, 4, 7, 3, 1, 2, 4]):  # frontiers of 1, 2, 3, 4 and 7 rows
        parents = np.arange(p) if step == 0 else rng.integers(0, len(prefixes), size=rows)  # reordered, with repeats
        prefixes, memory_of = [prefixes[j] for j in parents], memory_of[parents]
        x = rng.normal(size=(rows, 16))
        prefixes = [np.vstack([pre, row]) for pre, row in zip(prefixes, x)]
        out = cache.step(x, parents, memory_of)
        for row, pre, m in zip(out, prefixes, memory_of):
            want = dec(Tensor(pre), Tensor(memories[m, : lengths[m]])).data[-1]
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


def test_each_row_of_a_small_step_equals_that_row_stepped_alone(product_route):
    dec = random_decoder(11)
    lengths = [4, 7, 3]
    memories = padded_memories(np.random.default_rng(3), lengths)
    history = [(np.random.default_rng(20 + k).normal(size=(3, 16)), [0, 1, 2] if k == 0 else [2, 0, 1]) for k in range(3)]

    def assert_caches_live_rows(cache, rows, positions):  # no padding row enters the keys and values
        for keys, values in cache.past:
            assert keys.shape == values.shape == (rows, dec.heads, positions, 8)

    def replayed():
        cache, mem = DecoderCache(dec, memories, np.array(lengths)), np.arange(3)
        for k, (x, parents) in enumerate(history):
            mem = mem[parents]
            cache.step(x, parents, mem)
            assert_caches_live_rows(cache, 3, k + 1)
        return cache, mem

    for parents in ([1, 1], [2, 0, 2]):
        cache, mem = replayed()
        x = np.random.default_rng(len(parents)).normal(size=(len(parents), 16))
        out = cache.step(x, parents, mem[parents])
        assert_caches_live_rows(cache, len(parents), len(history) + 1)
        for b, parent in enumerate(parents):
            alone, mem_alone = replayed()
            row = alone.step(x[b : b + 1], [parent], mem_alone[[parent]])
            assert np.abs(out[b] - row[0]).max() <= 1e-12 * np.abs(row).max()
            for (keys, values), (keys_alone, values_alone) in zip(cache.past, alone.past):
                assert np.abs(keys[b] - keys_alone[0]).max() <= 1e-12 * np.abs(keys_alone).max()
                assert np.abs(values[b] - values_alone[0]).max() <= 1e-12 * np.abs(values_alone).max()


PUBLISHED_WEIGHTS = [(512, 512), (512, 2048), (2048, 512), (512, 5000)]  # attention, ff w1, ff w2, w_out


@pytest.mark.parametrize("shape", PUBLISHED_WEIGHTS, ids=lambda shape: "x".join(map(str, shape)))
def test_slab_product_equals_the_plain_product_on_each_published_weight(shape):
    rng = np.random.default_rng(shape[1])
    w = rng.normal(size=shape)
    assert w.nbytes >= layers.SLAB_MIN_BYTES and shape[0] % layers.SLAB_ROWS == 0  # on the slab route
    for rows in range(2, layers.SLAB_MAX_ROWS + 1):
        x = rng.normal(size=(rows, shape[0]))
        want = x @ w
        got = slab_product(x, w)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_slab_product_off_the_slab_route_is_the_plain_product_bit_for_bit():
    rng = np.random.default_rng(4)
    published = rng.normal(size=(512, 512))
    desk = rng.normal(size=(64, 64))  # under the byte floor
    ragged = rng.normal(size=(528, 512))  # K not a multiple of SLAB_ROWS: no slabs
    assert desk.nbytes < layers.SLAB_MIN_BYTES <= ragged.nbytes and 528 % layers.SLAB_ROWS
    # one row (a gemv), rows past SLAB_MAX_ROWS (a 4-path block's 12, the term beam's 15), a desk or ragged weight
    over = [(published, rows) for rows in (1, layers.SLAB_MAX_ROWS + 1, 12, 15)]
    for w, rows in over + [(desk, 3), (ragged, 3)]:
        x = rng.normal(size=(rows, len(w)))
        assert (bits(slab_product(x, w)) == bits(x @ w)).all()


def test_a_slab_product_allocates_only_its_partials_and_its_output():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(512, 5000))  # w_out at the published size
    x = rng.normal(size=(layers.SLAB_MAX_ROWS, 512))
    slab_product(x, w)
    tracemalloc.start()
    try:
        out = slab_product(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    partials = 512 // layers.SLAB_ROWS * out.nbytes  # (S, B, N): one (B, N) product per slab, summed into out
    assert partials + out.nbytes <= peak <= partials + out.nbytes + 2**16  # about 21% of w's 20.5 MB
