import numpy as np
import pytest

from helpers import ReferenceAdamState, reference_adam_step, reference_backward
from storybridge import autodiff as ad
from storybridge import optim
from storybridge.autodiff import Tensor
from storybridge.optim import AdamState, TrainConfig, adam_step, fit, schedule_scale
from storybridge.params import ParameterStore


def test_schedule_warmup_then_inverse_sqrt():
    assert schedule_scale(1, 100) == pytest.approx(0.01)
    assert schedule_scale(100, 100) == pytest.approx(1.0)
    assert schedule_scale(400, 100) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        schedule_scale(0, 100)


def test_zero_gradient_leaves_parameters_unchanged():
    store = ParameterStore(0)
    p = store.param("w", (3,))
    before = p.data.copy()
    state = AdamState()
    adam_step(store.pack(), state)  # a freshly packed store's flat_grad is zero
    np.testing.assert_allclose(p.data, before)
    assert state.step_count == 1


def test_single_step_moves_against_gradient_sign():
    store = ParameterStore(0)
    p = store.param("x", (1,), init="zeros")
    state = AdamState(base_lr=0.1, warmup_steps=1)
    store.pack()
    p.grad_view[...] = 1.0
    adam_step(store, state)
    assert p.data[0] < 0.0


def test_quadratic_descent_with_optimizer_as_oracle():
    # minimize x^2 from x=1; loss trend must be monotone at window scale
    store = ParameterStore(0)
    x = store.param("x", (1,), init="zeros")
    x.data[:] = 1.0
    state = AdamState(base_lr=0.02, warmup_steps=100)
    store.pack()
    losses = []
    for _ in range(100):
        loss = ad.reduce_sum(ad.mul(x, x))
        losses.append(loss.item())
        ad.backward(loss)
        adam_step(store, state)
        store.zero_grads()
    assert abs(x.data[0]) < 0.5
    windows = [np.mean(losses[i : i + 10]) for i in range(0, 100, 10)]
    assert all(a >= b for a, b in zip(windows, windows[1:]))


def test_adam_step_refuses_an_unpacked_store():
    store = ParameterStore(0)
    w = store.param("w", (2,))
    ad.backward(ad.reduce_sum(ad.mul(w, w)))  # lands in w.grad only: there is no flat_grad yet
    with pytest.raises(ValueError, match="not packed"):
        adam_step(store, AdamState())


def test_nan_gradient_names_parameter():
    store = ParameterStore(0)
    store.param("weights.proj", (2,))
    store.pack()["weights.proj"].grad_view[...] = [1.0, np.nan]
    with pytest.raises(ValueError, match="weights.proj"):
        adam_step(store, AdamState())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_names_parameter_before_any_change(bad):
    store = ParameterStore(0)
    store.param("weights.bias", (3,))
    store.param("weights.proj", (2,))
    before = {name: t.data.copy() for name, t in store.items()}
    store.pack()
    store["weights.bias"].grad_view[...] = 1.0
    store["weights.proj"].grad_view[...] = [1.0, bad]
    state = AdamState()
    with pytest.raises(ValueError, match="non-finite gradient for parameter 'weights.proj'"):
        adam_step(store, state)
    assert state.step_count == 0
    assert all((t.data == before[name]).all() for name, t in store.items())


def adam_world(seed: int = 3):
    """A store of a matrix used twice, a vector, an embedding table, an unused parameter and a second matrix,
    and a loss over ids that reaches the table both by rows (a RowGradient) and whole."""
    store = ParameterStore(seed)
    w = store.param("w", (4, 4))
    b = store.param("b", (4,), init="zeros")
    table = store.param("table", (6, 4))
    store.param("idle", (3,))
    v = store.param("v", (4, 2))

    def loss_fn(ids):
        h = ad.tanh(ad.linear(ad.embed(table, ids), w, b))
        out = ad.matmul(ad.tanh(ad.linear(h, w, b)), v)
        return ad.add(ad.reduce_sum(ad.mul(out, out)), ad.scale(ad.reduce_sum(ad.mul(table, table)), 0.01)), 1

    return store, loss_fn


ADAM_EXAMPLES = [np.random.default_rng(5).integers(0, 6, size=5) for _ in range(20)]  # ids repeat within an example
ADAM_TRAIN = TrainConfig(epochs=1, learning_rate=0.05, warmup_steps=4)


def reference_training() -> ParameterStore:
    """20 steps of the out-of-place backward walk and per-parameter Adam."""
    store, loss_fn = adam_world()
    state = ReferenceAdamState(base_lr=ADAM_TRAIN.learning_rate, warmup_steps=ADAM_TRAIN.warmup_steps)
    for ids in ADAM_EXAMPLES:
        grads = reference_backward(loss_fn(ids)[0])
        reference_adam_step(store, {name: grads.get(t, np.zeros(t.shape)) for name, t in store.items()}, state)
    return store


def bits(store: ParameterStore) -> dict:
    return {name: t.data.view(np.uint64).copy() for name, t in store.items()}


@pytest.mark.parametrize("block", [optim.ADAM_BLOCK, 7])  # 7 floats: blocks end inside parameters
def test_fit_equals_the_reference_adam_to_the_bit(monkeypatch, block):
    monkeypatch.setattr(optim, "ADAM_BLOCK", block)
    store, loss_fn = adam_world()
    start = store["idle"].data.copy()
    fit(store, ADAM_EXAMPLES, loss_fn, ADAM_TRAIN)
    want = bits(reference_training())
    got = bits(store)
    assert all((got[name] == want[name]).all() for name in want)
    assert (store["idle"].data == start).all()  # no gradient, so Adam's update is exactly zero
    assert store.flat is not None and all(np.shares_memory(t.data, store.flat) for _, t in store.items())


def test_identical_seeds_give_bit_identical_training():
    def run():
        store = ParameterStore(42)
        w = store.param("w", (4, 4))
        state = AdamState(base_lr=0.01, warmup_steps=10)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(20, 1, 4))
        store.pack()
        for x in xs:
            out = ad.matmul(Tensor(x), w)
            loss = ad.reduce_sum(ad.mul(out, out))
            ad.backward(loss)
            adam_step(store, state)
            store.zero_grads()
        return w.data.copy()

    a, b = run(), run()
    assert (a == b).all()


def tiny_fit(measure=None):
    """fit on a two-parameter store with three weighted examples; returns (history, store schedule, losses, lines)."""
    store = ParameterStore(0)
    w = store.param("w", (2,))
    examples = [(np.array([1.0, -2.0]), 1), (np.array([0.5, 3.0]), 3), (np.array([-1.0, 1.0]), 2)]
    losses, lines = [], []

    def loss_fn(example):
        x, weight = example
        loss = ad.reduce_sum(ad.mul(ad.mul(w, w), Tensor(x)))
        losses.append((loss.item(), weight))
        return loss, weight

    train = TrainConfig(epochs=3, learning_rate=0.05, warmup_steps=2, log=lines.append)
    history = fit(store, examples, loss_fn, train, measure=measure)
    return history, store.schedule, losses, lines


def test_fit_history_is_the_weighted_mean_loss_logged_once_per_epoch():
    history, schedule, losses, lines = tiny_fit()
    assert len(lines) == 3
    for epoch, line in enumerate(lines):
        epoch_losses = losses[3 * epoch : 3 * epoch + 3]
        want = sum(loss * weight for loss, weight in epoch_losses) / sum(weight for _, weight in epoch_losses)
        assert history[epoch] == pytest.approx(want, rel=1e-15)
        assert line == f"epoch {epoch + 1}: loss {history[epoch]:.4f}"
    assert schedule["step_count"] == 3 * 3
    assert len(set(history)) == 3  # the Adam steps moved the parameters


def test_fit_history_is_the_measure_when_given():
    measured = []

    def measure():
        measured.append(float(len(measured) + 10))
        return measured[-1]

    history, schedule, _, lines = tiny_fit(measure)
    assert history == measured == [10.0, 11.0, 12.0]
    assert lines == [f"epoch {i + 1}: loss {v:.4f}" for i, v in enumerate(measured)]
    assert schedule["step_count"] == 9
