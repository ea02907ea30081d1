"""Adam with a warmup then inverse-square-root learning-rate decay, and the one training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .params import ParameterStore

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator offset
ADAM_BLOCK = 1 << 15  # floats per block of the in-place update: its slices and two temporaries stay in cache


@dataclass
class AdamState:
    base_lr: float = 1e-3
    warmup_steps: int = 100
    step_count: int = 0
    m: np.ndarray | None = None  # the moments over a store's flat buffer, made at the first step
    v: np.ndarray | None = None

    def schedule(self) -> dict:
        return {
            "base_lr": self.base_lr,
            "warmup_steps": self.warmup_steps,
            "decay": "inverse_sqrt",
            "step_count": self.step_count,
        }


def schedule_scale(step: int, warmup_steps: int) -> float:
    """Linear warmup to 1.0, then 1/sqrt decay; scale is min of the two."""
    if step < 1:
        raise ValueError("schedule_scale: step counts from 1")
    w = max(1, warmup_steps)
    return min(step / w, math.sqrt(w / step))


def adam_step(params: ParameterStore, state: AdamState) -> float:
    """Apply one Adam update in place to the packed store, from the gradients in its ``flat_grad``; returns the learning rate used.

    ``backward`` accumulates those gradients, so the store must be packed
    before the backward pass. A non-finite gradient aborts before anything
    changes, naming the parameter. The update runs Adam's element-wise
    expressions, in their order, over the flat parameters, gradients and
    moments in blocks of ADAM_BLOCK floats; element-wise, a block computes
    the bits that one expression per parameter computes.
    """
    if params.flat is None:
        raise ValueError("adam_step: the store is not packed, so no backward pass has filled its gradients")
    p, g = params.flat, params.flat_grad
    blocks = [slice(start, start + ADAM_BLOCK) for start in range(0, p.size, ADAM_BLOCK)]
    if not all(np.isfinite(g[b]).all() for b in blocks):
        name = next(name for name, t in params.items() if not np.isfinite(t.grad_view).all())
        raise ValueError(f"adam_step: non-finite gradient for parameter '{name}'")
    if state.m is None:
        state.m, state.v = np.zeros(p.size), np.zeros(p.size)

    state.step_count += 1
    lr = state.base_lr * schedule_scale(state.step_count, state.warmup_steps)
    bias1 = 1.0 - BETA1**state.step_count
    bias2 = 1.0 - BETA2**state.step_count
    tmp, update = np.empty(min(p.size, ADAM_BLOCK)), np.empty(min(p.size, ADAM_BLOCK))
    for b in blocks:
        gb, mb, vb, pb = g[b], state.m[b], state.v[b], p[b]
        t, u = tmp[: gb.size], update[: gb.size]
        mb *= BETA1  # m = BETA1 * m + (1 - BETA1) * g
        mb += np.multiply(gb, 1.0 - BETA1, out=t)
        vb *= BETA2  # v = BETA2 * v + (1 - BETA2) * g * g
        np.multiply(gb, 1.0 - BETA2, out=t)
        t *= gb
        vb += t
        np.divide(vb, bias2, out=t)  # p -= lr * (m / bias1) / (sqrt(v / bias2) + EPS)
        np.sqrt(t, out=t)
        t += EPS
        np.divide(mb, bias1, out=u)
        u /= t
        u *= lr
        pb -= u
    return lr


@dataclass
class TrainConfig:
    """Optimizer settings shared by the three trainers."""

    epochs: int = 60
    learning_rate: float = 1e-3
    warmup_steps: int = 100
    log: object = None  # called with one line per epoch


def fit(store: ParameterStore, examples, loss_fn, train: TrainConfig, measure=None, metric: str = "loss"):
    """Adam epochs over examples in order; returns the per-epoch history.

    loss_fn(example) gives (scalar loss, weight); every example takes one
    backward pass and one Adam step. An epoch's history entry is measure()
    when given, otherwise the weight-averaged loss of the epoch. train.log
    gets one line per epoch, naming the value ``metric``. The store is
    packed first and stays packed. It trains only while an epoch's examples
    step: it is frozen for measure() and on return, and records the final
    Adam schedule as ``store.schedule``. Each call starts fresh Adam moments
    and a fresh schedule, a fine-tuning run included.
    """
    state = AdamState(base_lr=train.learning_rate, warmup_steps=train.warmup_steps)
    store.pack()
    history = []
    for epoch in range(train.epochs):
        total, count = 0.0, 0
        store.freeze(False)
        for example in examples:
            loss, weight = loss_fn(example)
            total += loss.item() * weight
            count += weight
            ad.backward(loss)
            adam_step(store, state)
            store.zero_grads()
        store.freeze()
        history.append(measure() if measure else total / count)
        if train.log:
            train.log(f"epoch {epoch + 1}: {metric} {history[-1]:.4f}")
    store.schedule = state.schedule()
    store.freeze()  # also after zero epochs
    return history
