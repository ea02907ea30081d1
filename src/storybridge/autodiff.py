"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape-based engine: every op returns a Tensor that remembers its
parent tensors and a vector-Jacobian callback. ``backward`` walks the tape
once from a scalar loss, accumulates gradients into every tensor that
requires them, and frees the tape. A packed parameter (``ParameterStore.pack``)
has a ``grad_view`` into its store's flat gradient buffer, and ``backward``
accumulates its gradient there in place. All math runs in float64 so numeric
gradient checks are stable.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operands cannot be combined under an op's shape rules."""


class Tensor:
    """Dense float64 array, optionally tracked on the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "grad_view", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.grad_view: Array | None = None  # where backward writes this tensor's gradient, if anywhere
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar so layer code stays readable.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, s):
        return scale(self, 1.0 / float(s))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._vjp is not None


def _make(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    for p in parents:
        if p.requires_grad or p._vjp is not None:
            out._parents = parents
            out._vjp = vjp
            break
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _shape_error(op: str, *tensors: Tensor) -> ShapeError:
    shapes = " and ".join(str(t.shape) for t in tensors)
    return ShapeError(f"{op}: shapes {shapes} do not fit together")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a, b) from None

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise _shape_error("sub", a, b) from None

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a, b) from None

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), vjp)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _make(a.data * s, (a,), vjp)


def _matmul_data(op: str, a: Tensor, b: Tensor) -> Array:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{op}: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    try:
        return a.data @ b.data
    except ValueError:
        raise ShapeError(f"{op}: cannot multiply {a.shape} @ {b.shape}") from None


def _matmul_vjp(g: Array, a: Tensor, b: Tensor):
    """Gradients of a @ b for g; None for an operand that is off the tape."""
    ga = _unbroadcast(g @ _swap_last(b.data), a.shape) if _tracked(a) else None
    gb = _unbroadcast(_swap_last(a.data) @ g, b.shape) if _tracked(b) else None
    return ga, gb


def _swap_last(x: Array) -> Array:
    """x with its last two axes swapped: the same view as np.swapaxes(x, -1, -2), by ``.T`` when x is 2-d."""
    return x.T if x.ndim == 2 else np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def vjp(g):
        return _matmul_vjp(g, a, b)

    return _make(_matmul_data("matmul", a, b), (a, b), vjp)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make(np.transpose(a.data, axes), (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in ts], axis=axis)

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        pieces, start = [], 0
        for t in ts:
            stop = start + t.shape[axis]
            pieces.append(g[lead + (slice(start, stop),)])
            start = stop
        return pieces

    return _make(data, tuple(ts), vjp)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out_data**2),)

    return _make(out_data, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return _make(out_data, (a,), vjp)


def layernorm_values(x: Array, gain: Array, bias: Array, eps: float = 1e-5):
    """Layer norm over the last axis in plain numpy: (output, normalized x, 1/std)."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _norm_node(op: str, s: Array, inputs: tuple[Tensor, ...], gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer norm of s, the sum of inputs; every input gets the same gradient."""
    d = s.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op}: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    out, xhat, inv = layernorm_values(s, gain.data, bias.data, eps)

    def vjp(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx,) * len(inputs) + (_unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    return _make(out, (*inputs, gain, bias), vjp)


def layernorm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    return _norm_node("layernorm", x.data, (x,), gain, bias, eps)


class RowGradient:
    """A gradient that is zero outside some rows: row indices, repeats allowed, and their (n, d) values.

    ``backward`` scatter-adds it into the input's accumulated gradient in
    place, so no zeroed table is made per call.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows: Array, values: Array):
        self.rows, self.values = rows, values


def embed(table, ids) -> Tensor:
    """Gather rows of ``table`` by integer index; gradients scatter-add back."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embed: table must be 2-d, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embed: index out of range for table with {table.shape[0]} rows")

    def vjp(g):
        return (RowGradient(idx.reshape(-1), g.reshape(-1, table.shape[1])),)

    return _make(table.data[idx], (table,), vjp)


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    n, v = logits.shape
    if tgt.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: targets shape {tgt.shape} does not match {n} rows")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise ShapeError(f"softmax_cross_entropy: target id out of range for {v} classes")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    log_z = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    log_p = z - log_z
    rows = np.arange(n)

    def vjp(g):
        p = np.exp(log_p)
        p[rows, tgt] -= 1.0
        return (p * (float(g) / n),)

    return _make(-log_p[rows, tgt].mean(), (logits,), vjp)


def log_softmax_values(logits: Array) -> Array:
    """Plain numpy log-softmax over the last axis (no tape participation)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def log_softmax_at(z: Array, cols: Array) -> Array:
    """log_softmax_values(z)[arange(len(z)), cols], bit for bit, for a 2-d float64 z that it overwrites."""
    zmax = z.max(axis=-1, keepdims=True)
    picked = z[np.arange(len(z)), cols] - zmax[:, 0]
    z -= zmax
    np.exp(z, out=z)
    return picked - np.log(z.sum(axis=-1))


# ------------------------------------------------------------ fused layer primitives
# One node each for a composite of the ops above, with the composite's arithmetic.
# Every internal node of the composite has one consumer, and the parents are listed
# so that ``backward`` reaches them in the composite's order: gradients are summed
# in the same float order, and training is bit-identical to the composite's.


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b): one node in place of matmul then add."""
    x, w = as_tensor(x), as_tensor(w)
    if b is None:
        return matmul(x, w)
    b = as_tensor(b)
    y = _matmul_data("linear", x, w)
    try:
        data = y + b.data
    except ValueError:
        raise _shape_error("linear", x, w, b) from None

    def vjp(g):
        return (*_matmul_vjp(g, x, w), _unbroadcast(g, b.shape))

    return _make(data, (x, w, b), vjp)


def feed_forward_values(x: Array, w1: Array, b1: Array, w2: Array, b2: Array):
    """relu(x @ w1 + b1) @ w2 + b2 in plain numpy: (output, relu output, relu mask)."""
    hidden = x @ w1
    hidden += b1
    mask = hidden > 0
    hidden *= mask
    out = hidden @ w2
    out += b2
    return out, hidden, mask


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """The position-wise feed-forward block linear(relu(linear(x, w1, b1)), w2, b2)."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    try:
        out, r, mask = feed_forward_values(x.data, w1.data, b1.data, w2.data, b2.data)
    except ValueError:
        raise _shape_error("feed_forward", x, w1, b1, w2, b2) from None

    def vjp(g):
        ga = (g @ w2.data.T) * mask
        gw1 = _unbroadcast(_swap_last(x.data) @ ga, w1.shape)
        gw2 = _unbroadcast(_swap_last(r) @ g, w2.shape)
        return ga @ w1.data.T, gw1, _unbroadcast(ga, b1.shape), gw2, _unbroadcast(g, b2.shape)

    return _make(out, (x, w1, b1, w2, b2), vjp)


def add_layernorm(x, y, gain, bias, eps: float = 1e-5) -> Tensor:
    """Residual then layer norm, layernorm(x + y, gain, bias)."""
    x, y, gain, bias = as_tensor(x), as_tensor(y), as_tensor(gain), as_tensor(bias)
    if x.shape != y.shape:
        raise _shape_error("add_layernorm", x, y)
    return _norm_node("add_layernorm", x.data + y.data, (x, y), gain, bias, eps)


def attention_values(q: Array, k: Array, v: Array, mask: Array | None = None):
    """Scaled dot-product attention over head-split (..., H, T, Dh) arrays: (weights, context)."""
    weights = q @ np.swapaxes(k, -1, -2)
    weights *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights, weights @ v


def attention(q, k, v, num_heads: int, mask: Array | None = None) -> Tensor:
    """Multi-head attention between the projections: q (Tq, D), k and v (Tk, D), additive mask (Tq, Tk)."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    try:
        (tq, d), tk = q.shape, k.shape[0]
        dh = d // num_heads
        q3, k3, v3 = (np.transpose(t.data.reshape(len(t.data), num_heads, dh), (1, 0, 2)) for t in (q, k, v))
        weights, ctx = attention_values(q3, k3, v3, mask)
    except ValueError:
        shapes = f"{q.shape}, {k.shape}, {v.shape} and mask {np.shape(mask)}"
        raise ShapeError(f"attention: {shapes} do not fit {num_heads} heads") from None

    def vjp(g):
        gctx = np.transpose(g.reshape(tq, num_heads, dh), (1, 0, 2))
        gw = gctx @ np.swapaxes(v3, -1, -2)
        gv = np.swapaxes(weights, -1, -2) @ gctx
        gs = (weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))) * (1.0 / math.sqrt(dh))
        gq, gk = gs @ k3, np.swapaxes(q3, -1, -2) @ gs
        merges = ((gq, (1, 0, 2), tq), (gk, (2, 0, 1), tk), (gv, (1, 0, 2), tk))
        return tuple(np.transpose(a, axes).reshape(t, d) for a, axes, t in merges)

    return _make(np.transpose(ctx, (1, 0, 2)).reshape(tq, d), (q, k, v), vjp)


def additive_attention_values(keys: Array, query: Array, v: Array, memory: Array, mask: Array | None = None):
    """Additive attention in plain numpy over (..., M, a) keys, (..., B, a) queries and (..., M, D) memories.

    Returns (tanh(keys + query) as (..., B, M, a), weights (..., B, M), context (..., B, D)). mask is an
    optional additive (..., 1, M) mask on the scores.
    """
    t = np.add(keys[..., None, :, :], query[..., :, None, :])
    np.tanh(t, out=t)
    z = (t @ v)[..., 0]
    if mask is not None:
        z += mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return t, weights, weights @ memory


def additive_attention(keys, query, v, memory) -> Tensor:
    """Additive attention of each query row (B, a) over memory (M, D): softmax over M of tanh(keys + query) @ v.

    keys (M, a) and query are the projections of memory and of the decoder state; v is (a, 1).
    """
    keys, query, v, memory = as_tensor(keys), as_tensor(query), as_tensor(v), as_tensor(memory)
    (b, a), m = query.shape, keys.shape[0]
    if keys.shape != (m, a) or v.shape != (a, 1) or memory.ndim != 2 or memory.shape[0] != m:
        raise _shape_error("additive_attention", keys, query, v, memory)
    t, weights, context = additive_attention_values(keys.data, query.data, v.data, memory.data)

    def vjp(g):
        gw = g @ memory.data.T
        gm = weights.T @ g
        gz = (weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))).reshape(b, m, 1)
        gt = gz @ v.data.T
        gv = _unbroadcast(np.swapaxes(t, -1, -2) @ gz, v.shape)
        gs = gt * (1.0 - t**2)
        return _unbroadcast(gs, keys.shape), _unbroadcast(gs, (b, 1, a)).reshape(b, a), gv, gm

    return _make(context, (keys, query, v, memory), vjp)


def gru_cell(x, h, *, w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, b_nx, w_hn, b_nh) -> Tensor:
    """One gated recurrent step (Cho et al., 2014) over N rows; x is (N, Din), h is (N, D), returns (N, D).

    r and z are sigmoid gates and n = tanh(x w_xn + b_nx + r * (h w_hn + b_nh)); the output is
    (1 - z) * n + z * h. x has three uses and h four, and the node lists each input once per use
    with its own gradient piece, in the order the composite's tape sums them.
    """
    x, h = as_tensor(x), as_tensor(h)
    gates = tuple(as_tensor(t) for t in (w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, b_nx, w_hn, b_nh))
    w_xr, w_hr, b_r, w_xz, w_hz, b_z, w_xn, b_nx, w_hn, b_nh = gates
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_cell: expected matching 2-d inputs, got {x.shape} and {h.shape}")
    try:
        r = 1.0 / (1.0 + np.exp(-(x.data @ w_xr.data + h.data @ w_hr.data + b_r.data)))
        z = 1.0 / (1.0 + np.exp(-(x.data @ w_xz.data + h.data @ w_hz.data + b_z.data)))
        hn = h.data @ w_hn.data + b_nh.data
        n = np.tanh(x.data @ w_xn.data + b_nx.data + r * hn)
        keep = 1.0 - z
        out = keep * n + z * h.data
    except ValueError:
        raise _shape_error("gru_cell", x, h, *gates) from None

    def vjp(g):
        gz = g * h.data - g * n
        gaz = gz * z * (1.0 - z)
        gan = g * keep * (1.0 - n**2)
        ghn = gan * r
        gar = gan * hn * r * (1.0 - r)
        xs = (gan @ w_xn.data.T, gar @ w_xr.data.T, gaz @ w_xz.data.T) if _tracked(x) else (None,) * 3
        hs = (gar @ w_hr.data.T, ghn @ w_hn.data.T, g * z, gaz @ w_hz.data.T) if _tracked(h) else (None,) * 4
        return (*xs, *hs,
                x.data.T @ gar, h.data.T @ gar, _unbroadcast(gar, b_r.shape),
                x.data.T @ gaz, h.data.T @ gaz, _unbroadcast(gaz, b_z.shape),
                x.data.T @ gan, _unbroadcast(gan, b_nx.shape), h.data.T @ ghn, _unbroadcast(ghn, b_nh.shape))

    return _make(out, (x, x, x, h, h, h, h, *gates), vjp)


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Backpropagate from a scalar loss.

    Returns a map from every requires_grad tensor reached by the tape to its
    gradient (also stored on ``.grad``). The tape is freed as it is walked.

    Each tensor's incoming pieces are summed in tape order. The sum is kept
    in a piece as it came while there is one, then in an array this walk
    owns: a sum it allocated, a zeroed table for row gradients, or a packed
    parameter's ``grad_view``, whose first dense piece is copied in. Later
    pieces add into an owned array in place, which gives the bits of
    ``acc + piece``. A piece as it came may be shared (``add`` hands the
    same array to both parents), so the walk never writes into one.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not _tracked(loss):
        raise ValueError("backward: loss does not participate in the gradient tape")

    # Tensors hash by identity, so they key the walk's sets and dicts directly.
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if (p.requires_grad or p._vjp is not None) and p not in seen:
                stack.append((p, False))

    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    owned: set[Tensor] = set()  # tensors whose gradient this walk may add into in place
    result: dict[Tensor, Array] = {}
    for node in reversed(order):
        g = grads.pop(node, None)
        if g is not None:
            if node.requires_grad:
                node.grad = g
                result[node] = g
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not (parent.requires_grad or parent._vjp is not None):
                        continue
                    acc = grads.get(parent)
                    rows = isinstance(pg, RowGradient)
                    if acc is None and parent.grad_view is not None:
                        acc = grads[parent] = parent.grad_view
                        owned.add(parent)
                        if not rows:
                            np.copyto(acc, pg)
                            continue
                        acc.fill(0.0)
                    if rows:
                        if parent not in owned:
                            acc = grads[parent] = np.zeros(parent.shape) if acc is None else acc.copy()
                            owned.add(parent)
                        np.add.at(acc, pg.rows, pg.values)
                    elif acc is None:
                        grads[parent] = pg
                    elif parent in owned:
                        acc += pg
                    else:
                        grads[parent] = acc + pg
                        owned.add(parent)
        node._parents = ()
        node._vjp = None
    return result
