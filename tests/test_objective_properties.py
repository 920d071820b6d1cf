"""The per-fit logistic objective equals the one-call form it replaced, bit for bit.

``oracle_loss_and_grad`` is the earlier ``classifier.loss_and_grad`` body,
copied verbatim: it transposed ``x`` and multiplied by the item weights at
every evaluation.  ``classifier.objective`` builds one closure per fit that
transposes once and works in place; the fitted weights, and so records.csv, depend on its value and gradient bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from shiftbench.classifier import (
    GRAD_TOL,
    MAX_ITER,
    item_weights,
    loss_and_grad,
    objective,
    sigmoid,
    train,
)

property_settings = settings(max_examples=200, deadline=None)


def oracle_loss_and_grad(params, x, labels, C, omega):
    w, b = params[:-1], params[-1]
    z = x @ w + b
    # log-loss via softplus: log(1+e^z) - y*z, stable for large |z|
    losses = np.logaddexp(0.0, z) - labels * z
    n = len(labels)
    loss = float(w @ w) / (2.0 * C) + float(omega @ losses) / n
    gz = omega * (sigmoid(z) - labels) / n
    grad_w = x.T @ gz + w / C
    grad = np.concatenate([np.asarray(grad_w).ravel(), [gz.sum()]])
    return loss, grad


def problem(seed, n, dim, csr):
    rng = np.random.default_rng(seed)
    if csr:
        x = sparse.random(n, dim, density=0.3, format="csr", random_state=rng) * 5.0
    else:
        x = rng.standard_normal((n, dim)) * rng.choice([0.1, 1.0, 40.0])
    labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
    labels[:2] = (0.0, 1.0)
    return x, labels


def assert_same(got, want):
    assert isinstance(got[0], float) and got[0] == want[0]
    assert got[1].dtype == want[1].dtype == np.float64
    assert got[1].tobytes() == want[1].tobytes()


@property_settings
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
       dim=st.integers(1, 30), csr=st.booleans(),
       class_weight=st.sampled_from([None, "balanced"]),
       C=st.sampled_from([0.1, 1.0, 100.0, 1e4]),
       scale=st.sampled_from([0.0, 0.5, 3.0, 60.0]))
def test_objective_equals_the_one_call_oracle(seed, n, dim, csr, class_weight, C, scale):
    x, labels = problem(seed, n, dim, csr)
    omega = item_weights(labels.astype(int), class_weight)
    f = objective(x, labels, C, omega)
    rng = np.random.default_rng(seed + 1)
    # several evaluations of one closure, as one fit makes them
    for _ in range(3):
        params = rng.standard_normal(dim + 1) * scale
        want = oracle_loss_and_grad(params, x, labels, C, omega)
        assert_same(f(params), want)
        assert_same(loss_and_grad(params, x, labels, C, omega), want)


def test_train_equals_minimising_the_oracle():
    for csr in (False, True):
        for class_weight in (None, "balanced"):
            x, labels = problem(7, 300, 12, csr)
            omega = item_weights(labels.astype(int), class_weight)
            result = optimize.minimize(
                oracle_loss_and_grad, x0=np.zeros(13), args=(x, labels, 10.0, omega),
                method="L-BFGS-B", jac=True,
                options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-14})
            clf = train(x, labels, C=10.0, class_weight=class_weight)
            assert clf.weights.tobytes() == result.x[:-1].tobytes()
            assert clf.bias == result.x[-1]
