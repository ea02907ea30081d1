"""Adam with a warmup then inverse-square-root learning-rate decay, and the one training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .params import ParameterStore

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator offset


@dataclass
class AdamState:
    base_lr: float = 1e-3
    warmup_steps: int = 100
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

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


def adam_step(params: ParameterStore, grads: dict, state: AdamState) -> float:
    """Apply one Adam update in place; returns the learning rate used.

    grads must cover every parameter in the store; a NaN in any gradient
    aborts with the offending parameter named.
    """
    missing = [name for name in params.names() if name not in grads]
    if missing:
        raise ValueError(f"adam_step: missing gradients for {missing}")
    for name in params.names():
        if np.isnan(grads[name]).any():
            raise ValueError(f"adam_step: NaN gradient for parameter '{name}'")

    state.step_count += 1
    lr = state.base_lr * schedule_scale(state.step_count, state.warmup_steps)
    bias1 = 1.0 - BETA1**state.step_count
    bias2 = 1.0 - BETA2**state.step_count
    for name, tensor in params.items():
        g = grads[name]
        if g.shape != tensor.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != parameter '{name}' shape {tensor.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(tensor.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + EPS)
        tensor.data = tensor.data - lr * update
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
    gets one line per epoch, naming the value ``metric``. The store trains
    only while an epoch's examples step: it is frozen for measure() and on
    return, and records the final Adam schedule as ``store.schedule``.
    """
    state = AdamState(base_lr=train.learning_rate, warmup_steps=train.warmup_steps)
    history = []
    for epoch in range(train.epochs):
        total, count = 0.0, 0
        store.freeze(False)
        for example in examples:
            loss, weight = loss_fn(example)
            ad.backward(loss)
            adam_step(store, store.collect_grads(), state)
            store.zero_grads()
            total += loss.item() * weight
            count += weight
        store.freeze()
        history.append(measure() if measure else total / count)
        if train.log:
            train.log(f"epoch {epoch + 1}: {metric} {history[-1]:.4f}")
    store.schedule = state.schedule()
    store.freeze()  # also after zero epochs
    return history
