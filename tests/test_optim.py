import numpy as np
import pytest

from storybridge import autodiff as ad
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
    adam_step(store, {"w": np.zeros(3)}, state)
    np.testing.assert_allclose(p.data, before)
    assert state.step_count == 1


def test_single_step_moves_against_gradient_sign():
    store = ParameterStore(0)
    p = store.param("x", (1,), init="zeros")
    state = AdamState(base_lr=0.1, warmup_steps=1)
    adam_step(store, {"x": np.ones(1)}, state)
    assert p.data[0] < 0.0


def test_quadratic_descent_with_optimizer_as_oracle():
    # minimize x^2 from x=1; loss trend must be monotone at window scale
    store = ParameterStore(0)
    x = store.param("x", (1,), init="zeros")
    x.data[:] = 1.0
    state = AdamState(base_lr=0.02, warmup_steps=100)
    losses = []
    for _ in range(100):
        loss = ad.reduce_sum(ad.mul(x, x))
        losses.append(loss.item())
        ad.backward(loss)
        adam_step(store, store.collect_grads(), state)
        store.zero_grads()
    assert abs(x.data[0]) < 0.5
    windows = [np.mean(losses[i : i + 10]) for i in range(0, 100, 10)]
    assert all(a >= b for a, b in zip(windows, windows[1:]))


def test_missing_gradient_rejected():
    store = ParameterStore(0)
    store.param("a", (2,))
    store.param("b", (2,))
    with pytest.raises(ValueError, match="missing"):
        adam_step(store, {"a": np.zeros(2)}, AdamState())


def test_nan_gradient_names_parameter():
    store = ParameterStore(0)
    store.param("weights.proj", (2,))
    grads = {"weights.proj": np.array([1.0, np.nan])}
    with pytest.raises(ValueError, match="weights.proj"):
        adam_step(store, grads, AdamState())


def test_identical_seeds_give_bit_identical_training():
    def run():
        store = ParameterStore(42)
        w = store.param("w", (4, 4))
        state = AdamState(base_lr=0.01, warmup_steps=10)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(20, 1, 4))
        for x in xs:
            out = ad.matmul(Tensor(x), w)
            loss = ad.reduce_sum(ad.mul(out, out))
            ad.backward(loss)
            adam_step(store, store.collect_grads(), state)
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
