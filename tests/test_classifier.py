"""Logistic training, posterior prediction, k-fold rates, and model selection."""

import numpy as np
import pytest

from shiftbench import classifier, protocols
from shiftbench.classifier import (
    ClassRates,
    SoftClassifier,
    item_weights,
    loss_and_grad,
    oof_posteriors_kfold,
    predict_proba,
    rates_from_posteriors,
    stratified_fold_ids,
    train,
)
from shiftbench.core import BinaryDataset, Pool
from shiftbench.protocols import PRIOR, ProtocolConfig, _draw, _select_settings, _validation_parts


def separable_data(n=200, gap=4.0, prevalence=0.5, seed=0):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < prevalence).astype(int)
    x = rng.standard_normal((n, 2)) * 0.3 + np.where(labels[:, None] == 1, gap, -gap)
    return x, labels


def overlapping_data(n=600, prevalence=0.5, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < prevalence).astype(int)
    x = rng.standard_normal((n, 2)) + np.where(labels[:, None] == 1, shift, -shift)
    return x, labels


class TestGradient:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((80, 4))
        labels = (rng.random(80) < 0.4).astype(float)
        omega = item_weights(labels.astype(int), "balanced")
        h = 1e-6
        for _ in range(10):
            params = rng.standard_normal(5) * 2
            _, grad = loss_and_grad(params, x, labels, 0.7, omega)
            fd = np.empty_like(grad)
            for j in range(len(params)):
                up, dn = params.copy(), params.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    loss_and_grad(up, x, labels, 0.7, omega)[0]
                    - loss_and_grad(dn, x, labels, 0.7, omega)[0]
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-4


class TestTrain:
    def test_separable_data_perfect_training_accuracy(self):
        x, labels = separable_data()
        clf = train(x, labels, C=10.0)
        assert ((predict_proba(clf, x) >= 0.5) == labels).all()

    def test_balanced_raises_minority_recall(self):
        x, labels = overlapping_data(n=1200, prevalence=0.1, seed=3)
        plain = train(x, labels, C=100.0, class_weight=None)
        balanced = train(x, labels, C=100.0, class_weight="balanced")
        minority = labels == 1
        recall_plain = (predict_proba(plain, x)[minority] >= 0.5).mean()
        recall_balanced = (predict_proba(balanced, x)[minority] >= 0.5).mean()
        assert recall_balanced > recall_plain

    def test_duplicated_dataset_same_boundary(self):
        # the data term is a mean, so duplication leaves the objective intact
        x, labels = overlapping_data(n=300, seed=1)
        clf1 = train(x, labels, C=1.0)
        clf2 = train(np.vstack([x, x]), np.concatenate([labels, labels]), C=1.0)
        assert np.allclose(clf1.weights, clf2.weights, atol=1e-6)
        assert abs(clf1.bias - clf2.bias) <= 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((5, 2)), np.ones(5))

    def test_invalid_C_rejected(self):
        x, labels = separable_data(n=20)
        with pytest.raises(ValueError):
            train(x, labels, C=0.0)

    def test_iteration_cap_warns(self, monkeypatch):
        monkeypatch.setattr(classifier, "MAX_ITER", 1)
        x, labels = overlapping_data(n=200)
        with pytest.warns(RuntimeWarning, match="L-BFGS stopped without converging"):
            train(x, labels)

    def test_balanced_weights_formula(self):
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        w = item_weights(labels, "balanced")
        assert np.allclose(w[labels == 1], 10 / (2 * 2))
        assert np.allclose(w[labels == 0], 10 / (2 * 8))


class TestPredict:
    def test_zero_model_gives_half_and_positive(self):
        clf = SoftClassifier(np.zeros(2), 0.0, 1.0, None)
        x = np.ones((1, 2))
        assert predict_proba(clf, x)[0] == 0.5

    def test_large_bias_saturates_towards_one(self):
        clf = SoftClassifier(np.zeros(2), 30.0, 1.0, None)
        assert predict_proba(clf, np.zeros((1, 2)))[0] > 1 - 1e-9

    def test_negated_score_complements(self):
        rng = np.random.default_rng(2)
        clf = SoftClassifier(rng.standard_normal(3), 0.4, 1.0, None)
        neg = SoftClassifier(-clf.weights, -clf.bias, 1.0, None)
        x = rng.standard_normal((50, 3)) * 5
        total = predict_proba(clf, x) + predict_proba(neg, x)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_posteriors_in_open_interval(self):
        clf = SoftClassifier(np.array([100.0]), 0.0, 1.0, None)
        p = predict_proba(clf, np.array([[-100.0], [100.0]]))
        assert np.all(p > 0) and np.all(p < 1)

    def test_monotone_in_score(self):
        clf = SoftClassifier(np.array([1.0]), 0.0, 1.0, None)
        xs = np.linspace(-4, 4, 101).reshape(-1, 1)
        assert np.all(np.diff(predict_proba(clf, xs)) > 0)

    def test_dimension_mismatch(self):
        clf = SoftClassifier(np.zeros(3), 0.0, 1.0, None)
        with pytest.raises(ValueError):
            predict_proba(clf, np.zeros((2, 2)))


class TestKFold:
    def test_folds_partition_stratified(self):
        labels = (np.random.default_rng(0).random(97) < 0.3).astype(int)
        fold = stratified_fold_ids(labels, 5, seed=1)
        assert set(fold) == set(range(5))
        for f in range(5):
            held = fold == f
            assert labels[held].sum() >= 1  # every fold holds both classes
            assert (~labels[held].astype(bool)).sum() >= 1

    def test_separable_rates(self):
        x, labels = separable_data(n=300)
        oof = oof_posteriors_kfold(x, labels, 10, 10.0, None, seed=0)
        rates = rates_from_posteriors(oof, labels, "hard")
        assert rates.tpr >= 0.99 and rates.fpr <= 0.01

    def test_constant_positive_classifier_saturates_hard_rates(self):
        posteriors = np.full(40, 0.97)
        labels = np.array([1] * 20 + [0] * 20)
        rates = rates_from_posteriors(posteriors, labels, "hard")
        assert rates == ClassRates(1.0, 1.0)

    def test_soft_rates_strictly_inside_unit_interval(self):
        x, labels = overlapping_data(n=200, seed=6)
        oof = oof_posteriors_kfold(x, labels, 5, 1.0, None, seed=3)
        rates = rates_from_posteriors(oof, labels, "soft")
        assert 0 < rates.fpr < 1 and 0 < rates.tpr < 1

    def test_oof_covers_every_point(self):
        x, labels = overlapping_data(n=120, seed=7)
        oof = oof_posteriors_kfold(x, labels, 4, 1.0, None, seed=0)
        assert len(oof) == 120 and np.all((oof > 0) & (oof < 1))

    def test_class_smaller_than_k_raises(self):
        labels = np.array([1] * 3 + [0] * 50)
        with pytest.raises(ValueError, match=r"^class 1 has 3 member\(s\); need >= k=5$"):
            stratified_fold_ids(labels, 5, seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            rates_from_posteriors(np.array([0.5]), np.array([1]), "fuzzy")


class TestGridSearch:
    """Model selection (``grid_search`` on), as the protocol executor runs it."""

    def config(self, test_size=60):
        return ProtocolConfig(PRIOR, methods=("CC",), folds=4, test_size=test_size,
                              grid_search=True)

    def test_constant_classifier_loses(self, monkeypatch):
        # C ~ 0 forces w ~ 0, so CC degenerates to a constant estimate whose
        # MAE against the prevalence sweep is far above the real classifier's
        monkeypatch.setattr(protocols, "DEFAULT_GRID", (
            {"C": 1e-9, "class_weight": None}, {"C": 100.0, "class_weight": None},
        ))
        x, labels = overlapping_data(n=900, seed=0, shift=1.5)
        assert _select_settings(self.config(), x, labels, fit_seed=1) == {"CC": (100.0, None)}

    def test_deterministic_selection(self, monkeypatch):
        monkeypatch.setattr(protocols, "DEFAULT_GRID", tuple(
            {"C": c, "class_weight": cw} for c in (0.5, 50.0) for cw in (None, "balanced")
        ))
        x, labels = overlapping_data(n=900, seed=2, shift=1.5)
        a = _select_settings(self.config(test_size=50), x, labels, fit_seed=9)
        b = _select_settings(self.config(test_size=50), x, labels, fit_seed=9)
        assert a == b

    def test_validation_samples_cap_to_pool(self):
        # 9 positives cannot fill size 40 at prevalence 1.0: the size is capped
        labels = np.array([1] * 9 + [0] * 200)
        x = np.random.default_rng(1).standard_normal((len(labels), 2))
        pool = Pool(BinaryDataset(x, labels))
        samples = [_draw((part,), 0, {"val": pool})
                   for part in _validation_parts(pool, 40, "test")]
        sizes = {round(s.true_prevalence, 1): len(s) for s in samples}
        assert sizes[1.0] == 9 and sizes[0.0] == 40

    def test_validation_samples_skip_impossible_prevalences(self):
        # with no positives at all, every prevalence above 0 is skipped
        labels = np.zeros(80, dtype=int)
        x = np.random.default_rng(1).standard_normal((80, 2))
        pool = Pool(BinaryDataset(x, labels))
        with pytest.warns(UserWarning, match="skipping"):
            parts = _validation_parts(pool, 40, "test")
        assert {part.prevalence for part in parts} == {0.0}

    def test_validation_pool_serving_nothing_raises(self):
        pool = Pool(BinaryDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))
        with pytest.warns(UserWarning, match="skipping"):
            with pytest.raises(ValueError, match="too small for every prevalence"):
                _validation_parts(pool, 40, "test")
