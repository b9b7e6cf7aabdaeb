import numpy as np
import pytest

from layoutdiffusion.exceptions import NumericError
from layoutdiffusion.optim import EPS, AdamState, adam_step, finite_difference_grad
from layoutdiffusion.tensor import ParameterStore, Tensor


def make_store(**arrays):
    return ParameterStore({k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
                           for k, v in arrays.items()})


def test_zero_gradients_leave_params_unchanged():
    store = make_store(w=[1.0, -2.0, 3.0])
    state = AdamState.initialize(store, lr=0.1)
    new_store, new_state = adam_step(store, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(new_store["w"].data, store["w"].data)
    assert new_state.step == 1


def test_first_step_is_signed_lr():
    g = np.array([0.5, -3.0, 1e-3])
    store = make_store(w=[0.0, 0.0, 0.0])
    lr = 0.01
    state = AdamState.initialize(store, lr=lr)
    new_store, _ = adam_step(store, {"w": g}, state)
    expected = -lr * g / (np.abs(g) + EPS)
    np.testing.assert_allclose(new_store["w"].data, expected, atol=lr * 1e-6)


def test_quadratic_descent_matches_reference_recurrence():
    # Reference recurrence computed side by side with the same update rule.
    x = 1.0
    m = v = 0.0
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    store = make_store(x=[1.0])
    state = AdamState.initialize(store, lr=lr)
    history = []
    for t in range(1, 11):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        grad = 2.0 * store["x"].data
        store, state = adam_step(store, {"x": grad}, state)
        history.append(abs(float(store["x"].data[0])))
        assert float(store["x"].data[0]) == pytest.approx(x, abs=1e-14)
    assert all(a > b for a, b in zip([1.0] + history, history))


def test_shape_mismatch_rejected():
    store = make_store(w=[1.0, 2.0])
    state = AdamState.initialize(store, lr=0.1)
    with pytest.raises(NumericError):
        adam_step(store, {"w": np.zeros(3)}, state)


def test_state_is_functional():
    store = make_store(w=[1.0])
    state = AdamState.initialize(store, lr=0.1)
    adam_step(store, {"w": np.ones(1)}, state)
    assert state.step == 0
    np.testing.assert_array_equal(state.m["w"], np.zeros(1))


def test_finite_difference_on_square():
    store = make_store(x=[3.0])

    def f(s):
        return float((s["x"].data ** 2).sum())

    grads = finite_difference_grad(f, store, h=1e-5)
    assert grads["x"][0] == pytest.approx(6.0, abs=1e-8)


def test_finite_difference_constant_function():
    store = make_store(x=[1.0, 2.0, 3.0])
    grads = finite_difference_grad(lambda s: 7.5, store, h=1e-5)
    np.testing.assert_allclose(grads["x"], 0.0, atol=1e-10)


def test_finite_difference_rejects_bad_h():
    store = make_store(x=[1.0])
    with pytest.raises(ValueError):
        finite_difference_grad(lambda s: 0.0, store, h=0.0)


def test_finite_difference_rejects_non_finite():
    store = make_store(x=[1.0])

    def f(s):
        return float("nan")

    with pytest.raises(NumericError):
        finite_difference_grad(f, store, h=1e-5)


def test_backward_matches_fd_on_two_layer_toy():
    from layoutdiffusion.tensor import collect_grads, matmul, mul, relu, tsum

    rng = np.random.default_rng(3)
    store = make_store(
        w1=rng.normal(size=(4, 6)), b1=rng.normal(size=6),
        w2=rng.normal(size=(6, 2)), b2=rng.normal(size=2),
    )
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 2))

    def forward(s):
        h = relu(matmul(Tensor(x), s["w1"]) + s["b1"])
        out = matmul(h, s["w2"]) + s["b2"]
        diff = out - Tensor(target)
        return mul(tsum(mul(diff, diff)), 1.0 / target.size)

    grads = collect_grads(forward(store), store)
    fd = finite_difference_grad(lambda s: float(forward(s).data), store, h=1e-5)
    for name in store.names():
        denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd[name])), 1e-4)
        assert (np.abs(grads[name] - fd[name]) / denom).max() < 1e-4
