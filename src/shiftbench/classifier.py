"""Soft linear classifier: weighted L2-regularised logistic regression.

The training objective is

    J(w, b) = ||w||^2 / (2 C)  +  (1/n) sum_i omega_i * logloss_i

with per-item weights omega_i = 1 (class_weight None) or
omega_i = n / (2 * n_class(i)) ("balanced").  The data term is a mean, so
duplicating the dataset leaves the optimum unchanged.  The bias is not
regularised.  Optimisation uses L-BFGS with the analytic gradient below,
run to a gradient tolerance of 1e-6 (or a 10,000-iteration cap).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .core import StratificationError

GRAD_TOL = 1e-6
MAX_ITER = 10_000

#: Hyperparameter grid searched by default: five regularisation strengths
#: crossed with balanced/unbalanced class weighting.
DEFAULT_GRID = tuple(
    {"C": c, "class_weight": cw}
    for c in (0.1, 1.0, 10.0, 100.0, 1000.0)
    for cw in ("balanced", None)
)

_PROBA_EPS = 1e-12


class ClassRates(NamedTuple):
    """True/false positive rates of a classifier (crisp or posterior-averaged)."""

    tpr: float
    fpr: float


@dataclass(frozen=True)
class SoftClassifier:
    """A fitted linear scorer returning posteriors in (0, 1)."""

    weights: np.ndarray
    bias: float
    C: float
    class_weight: str | None

    @property
    def dim(self) -> int:
        return len(self.weights)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |z|: 1/(1+e^-z) or e^z/(1+e^z).

    Both branches share one exponential, e = exp(-|z|), which never overflows.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def item_weights(labels: np.ndarray, class_weight: str | None) -> np.ndarray:
    """Per-item loss weights: all ones, or n/(2*n_class) under "balanced"."""
    labels = np.asarray(labels)
    if class_weight is None:
        return np.ones(len(labels))
    if class_weight != "balanced":
        raise ValueError(f"class_weight must be None or 'balanced', got {class_weight!r}")
    n = len(labels)
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("balanced weighting needs both classes present")
    w = np.where(labels == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w


def objective(x, labels: np.ndarray, C: float, omega: np.ndarray):
    """The objective of one fit as a function of params = (w..., b),
    returning its value and analytic gradient.

    Built once per fit, so ``x.T`` is taken once rather than at every
    evaluation.  Each evaluation works in place where it can.
    """
    n = len(labels)
    xt = x.T

    def loss_and_grad_at(params: np.ndarray) -> tuple[float, np.ndarray]:
        w, b = params[:-1], params[-1]
        z = x @ w
        z += b
        # log-loss via softplus: log(1+e^z) - y*z, stable for large |z|
        losses = np.logaddexp(0.0, z)
        losses -= labels * z
        loss = float(w @ w) / (2.0 * C) + float(omega @ losses) / n
        gz = sigmoid(z)
        gz -= labels
        gz *= omega
        gz /= n
        grad = np.empty(len(params))
        grad[:-1] = xt @ gz
        grad[:-1] += w / C
        grad[-1] = gz.sum()
        return loss, grad

    return loss_and_grad_at


def loss_and_grad(
    params: np.ndarray, x, labels: np.ndarray, C: float, omega: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective value and analytic gradient at params = (w..., b)."""
    return objective(x, labels, C, omega)(params)


def train(x, labels: np.ndarray, C: float = 1.0, class_weight: str | None = None) -> SoftClassifier:
    """Fit the regularised logistic model; raises if only one class is present."""
    labels = np.asarray(labels, dtype=float)
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("training data must contain both classes")
    omega = item_weights(labels.astype(int), class_weight)
    dim = x.shape[1]
    result = optimize.minimize(
        objective(x, labels, C, omega),
        x0=np.zeros(dim + 1),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-14},
    )
    if not result.success:
        # a fixed message, so the default warning filter shows it once per process
        warnings.warn("train: L-BFGS stopped without converging", RuntimeWarning)
    params = result.x
    return SoftClassifier(
        weights=params[:-1], bias=float(params[-1]), C=C, class_weight=class_weight
    )


def decision_scores(clf: SoftClassifier, x) -> np.ndarray:
    if x.shape[1] != clf.dim:
        raise ValueError(f"expected {clf.dim} features, got {x.shape[1]}")
    return np.asarray(x @ clf.weights).ravel() + clf.bias


def predict_proba(clf: SoftClassifier, x) -> np.ndarray:
    """Posterior of the positive class, clipped into the open interval (0, 1)."""
    p = sigmoid(decision_scores(clf, x))
    return np.clip(p, _PROBA_EPS, 1.0 - _PROBA_EPS)


def stratified_fold_ids(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Assign each item a fold id in 0..k-1, stratified by label."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=int)
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        if len(members) < k:
            raise StratificationError(
                f"class {value} has {len(members)} member(s); need >= k={k}"
            )
        shuffled = rng.permutation(members)
        fold[shuffled] = np.arange(len(members)) % k
    return fold


def oof_posteriors_kfold(
    x, labels: np.ndarray, k: int, C: float, class_weight: str | None, seed: int
) -> np.ndarray:
    """Out-of-fold posterior for every training item, via stratified k-fold."""
    labels = np.asarray(labels)
    fold = stratified_fold_ids(labels, k, seed)
    oof = np.empty(len(labels))
    for f in range(k):
        held = fold == f
        clf = train(x[~held], labels[~held], C=C, class_weight=class_weight)
        oof[held] = predict_proba(clf, x[held])
    return oof


def rates_from_posteriors(
    posteriors: np.ndarray, labels: np.ndarray, mode: str
) -> ClassRates:
    """tpr/fpr from per-item posteriors: crisp counts or posterior means."""
    labels = np.asarray(labels)
    pos, neg = posteriors[labels == 1], posteriors[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes are needed to estimate rates")
    if mode == "hard":
        return ClassRates(float((pos >= 0.5).mean()), float((neg >= 0.5).mean()))
    if mode == "soft":
        return ClassRates(float(pos.mean()), float(neg.mean()))
    raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
