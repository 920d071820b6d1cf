"""Prevalence estimators: formula oracles, fitted behaviour, shared invariants."""

import numpy as np
import pytest

from shiftbench.classifier import ClassRates, predict_proba
from shiftbench.core import EmptyDatasetError
from shiftbench.quantifiers import (
    METHOD_NAMES,
    METHODS,
    PosteriorHistogram,
    adjust_prevalence,
    classify_and_count,
    expectation_maximisation_prevalence,
    fit_evidence,
    hellinger_distance,
    mean_matching_prevalence,
    mixture_fit_alpha,
    probabilistic_classify_and_count,
    quantifier_factory,
    topsoe_distance,
)


def gaussian_instance(seed, n_train=500, n_test=300, shift=1.0):
    rng = np.random.default_rng(seed)
    train_labels = (rng.random(n_train) < rng.uniform(0.25, 0.75)).astype(int)
    x = rng.standard_normal((n_train, 2)) + np.where(
        train_labels[:, None] == 1, shift, -shift
    )
    test_labels = (rng.random(n_test) < rng.uniform(0.05, 0.95)).astype(int)
    xt = rng.standard_normal((n_test, 2)) + np.where(
        test_labels[:, None] == 1, shift, -shift
    )
    return x, train_labels, xt


class TestCountingFormulas:
    def test_classify_and_count(self):
        assert classify_and_count(np.array([1, 0, 1, 1])) == 0.75
        assert classify_and_count(np.zeros(10)) == 0.0

    def test_probabilistic_count(self):
        assert probabilistic_classify_and_count(np.array([0.9, 0.1, 0.5, 0.5])) == 0.5
        assert probabilistic_classify_and_count(np.ones(4)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            classify_and_count(np.array([]))


class TestAdjustment:
    def test_perfect_classifier_identity(self):
        assert adjust_prevalence(0.3, ClassRates(1.0, 0.0)) == 0.3

    def test_hand_evaluated_correction(self):
        # (0.6 - 0.2) / (0.9 - 0.2) = 4/7
        assert adjust_prevalence(0.6, ClassRates(0.9, 0.2)) == pytest.approx(
            0.5714285714285714, abs=1e-12
        )

    def test_negative_raw_value_clips_to_zero(self):
        # (0.1 - 0.2) / 0.7 = -1/7 before clipping
        assert adjust_prevalence(0.1, ClassRates(0.9, 0.2)) == 0.0

    def test_degenerate_rates_fall_back_to_base(self):
        assert adjust_prevalence(0.42, ClassRates(0.5, 0.5)) == 0.42
        assert adjust_prevalence(0.42, ClassRates(0.5, 0.5 - 1e-12)) == 0.42

    def test_soft_adjustment_endpoints(self):
        assert adjust_prevalence(0.3, ClassRates(0.8, 0.3)) == 0.0
        assert adjust_prevalence(0.8, ClassRates(0.8, 0.3)) == 1.0
        assert adjust_prevalence(0.55, ClassRates(0.8, 0.3)) == pytest.approx(0.5)


class TestMeanMatching:
    def test_endpoints_and_midpoint(self):
        assert mean_matching_prevalence(0.7, 0.7, 0.2) == 1.0
        assert mean_matching_prevalence(0.45, 0.7, 0.2) == pytest.approx(0.5)
        assert mean_matching_prevalence(0.2, 0.7, 0.2) == 0.0

    def test_agrees_with_adjusted_posterior_count(self):
        # same quantity through the two code paths, for every fitted instance
        for seed in range(30):
            x, labels, xt = gaussian_instance(seed)
            evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=seed)
            pacc = quantifier_factory("PACC").fit_evidence(evidence)
            smm = quantifier_factory("SMM").fit_evidence(evidence)
            assert abs(pacc.quantify(xt) - smm.quantify(xt)) <= 1e-9


class TestExpectationMaximisation:
    def test_fixed_point_at_training_prevalence(self):
        p, converged, iters = expectation_maximisation_prevalence(
            np.full(8, 0.3), 0.3
        )
        assert (p, converged, iters) == (0.3, True, 0)

    def test_certain_posteriors_absorb_to_one(self):
        p, converged, _ = expectation_maximisation_prevalence(np.ones(5), 0.5)
        assert p == 1.0 and converged

    def test_scalar_fixed_point_oracle(self):
        posteriors = np.array([0.8, 0.8, 0.2])
        p, converged, _ = expectation_maximisation_prevalence(posteriors, 0.5)
        # independently iterate the closed-form map to a much tighter tolerance
        q = 0.5
        for _ in range(200_000):
            num = (q / 0.5) * posteriors
            den = num + ((1 - q) / 0.5) * (1 - posteriors)
            m = float((num / den).mean())
            if abs(m - q) < 1e-13:
                break
            q = m
        assert converged
        assert abs(p - q) <= 1e-4

    def test_returned_value_is_near_fixed_point(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.beta(2, 2, size=200)
            p_l = rng.uniform(0.1, 0.9)
            p, converged, _ = expectation_maximisation_prevalence(s, p_l)
            if converged and 0 < p < 1:
                num = (p / p_l) * s
                den = num + ((1 - p) / (1 - p_l)) * (1 - s)
                assert abs(float((num / den).mean()) - p) < 1e-6

    def test_degenerate_training_prevalence_rejected(self):
        with pytest.raises(ValueError):
            expectation_maximisation_prevalence(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            expectation_maximisation_prevalence(np.array([0.5]), 1.0)


class TestHistograms:
    def test_masses_normalised(self):
        h = PosteriorHistogram.from_scores(np.random.default_rng(0).random(500), 10)
        assert abs(h.masses.sum() - 1.0) <= 1e-12
        assert (h.masses >= 0).all()

    def test_exact_one_lands_in_top_bin(self):
        h = PosteriorHistogram.from_scores(np.array([1.0, 1.0, 0.0]), 4)
        assert h.masses[-1] == pytest.approx(2 / 3)
        assert h.masses[0] == pytest.approx(1 / 3)

    def test_bin_count_validation(self):
        with pytest.raises(ValueError):
            PosteriorHistogram(np.array([1.0]))
        with pytest.raises(ValueError):
            PosteriorHistogram(np.array([0.6, 0.6]))


class TestDistances:
    def test_identity_of_indiscernibles(self):
        h = PosteriorHistogram.from_scores(np.random.default_rng(1).random(100), 10)
        assert topsoe_distance(h, h) == 0.0
        assert hellinger_distance(h, h) == 0.0

    def test_disjoint_support_closed_forms(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert topsoe_distance(a, b) == pytest.approx(2 * np.log(2), abs=1e-12)
        assert hellinger_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.random(10)
            b = rng.random(10)
            a, b = a / a.sum(), b / b.sum()
            assert topsoe_distance(a, b) == pytest.approx(topsoe_distance(b, a))
            assert hellinger_distance(a, b) == pytest.approx(hellinger_distance(b, a))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.random(8), rng.random(8)
            assert topsoe_distance(a / a.sum(), b / b.sum()) >= 0
            assert hellinger_distance(a / a.sum(), b / b.sum()) >= 0

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError):
            topsoe_distance(np.full(4, 0.25), np.full(5, 0.2))


class TestMixtureSearch:
    def histograms(self, seed=0):
        rng = np.random.default_rng(seed)
        pos = PosteriorHistogram.from_scores(rng.beta(5, 2, 400), 10)
        neg = PosteriorHistogram.from_scores(rng.beta(2, 5, 400), 10)
        return pos, neg

    def test_pure_positive_histogram(self):
        pos, neg = self.histograms()
        assert mixture_fit_alpha(pos, neg, pos, "topsoe") == pytest.approx(1.0, abs=1e-4)

    def test_even_mixture_matches_grid_oracle(self):
        pos, neg = self.histograms(seed=5)
        target = PosteriorHistogram(0.5 * pos.masses + 0.5 * neg.masses)
        found = mixture_fit_alpha(pos, neg, target, "topsoe")
        grid = np.linspace(0, 1, 20001)
        values = [
            topsoe_distance(a * pos.masses + (1 - a) * neg.masses, target.masses)
            for a in grid
        ]
        oracle = grid[int(np.argmin(values))]
        assert found == pytest.approx(0.5, abs=1e-3)
        assert found == pytest.approx(oracle, abs=1e-3)

    def test_objective_no_worse_than_endpoints(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            pos, neg = self.histograms(seed=seed)
            t = rng.random(10)
            target = PosteriorHistogram(t / t.sum())
            for distance, fn in (("topsoe", topsoe_distance), ("hellinger", hellinger_distance)):
                alpha = mixture_fit_alpha(pos, neg, target, distance)
                best = fn(alpha * pos.masses + (1 - alpha) * neg.masses, target.masses)
                assert best <= fn(pos.masses, target.masses) + 1e-9
                assert best <= fn(neg.masses, target.masses) + 1e-9

    def test_unknown_distance_rejected(self):
        pos, neg = self.histograms()
        with pytest.raises(ValueError):
            mixture_fit_alpha(pos, neg, pos, "euclidean")


class TestFittedQuantifiers:
    def test_mlpe_is_constant(self):
        x, labels, xt = gaussian_instance(0)
        q = quantifier_factory("MLPE").fit(x, labels)
        expected = labels.sum() / len(labels)
        assert q.quantify(xt) == expected
        assert q.quantify(xt[:7]) == expected

    def test_mlpe_zero_prevalence(self):
        q = quantifier_factory("MLPE").fit(np.zeros((4, 1)), np.zeros(4))
        assert q.quantify(np.zeros((2, 1))) == 0.0

    def test_cc_on_separable_data_tracks_prevalence(self):
        rng = np.random.default_rng(11)
        labels = (rng.random(800) < 0.5).astype(int)
        x = rng.standard_normal((800, 2)) * 0.2 + np.where(labels[:, None] == 1, 3, -3)
        q = quantifier_factory("CC", C=100.0, folds=5).fit(x, labels)
        test_labels = (rng.random(400) < 0.3).astype(int)
        xt = rng.standard_normal((400, 2)) * 0.2 + np.where(
            test_labels[:, None] == 1, 3, -3
        )
        truth = test_labels.mean()
        assert abs(q.quantify(xt) - truth) <= 1 / 400

    def test_acc_equals_cc_under_perfect_rates(self):
        x, labels, xt = gaussian_instance(3)
        evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=3)
        acc = quantifier_factory("ACC").fit_evidence(evidence)
        cc = quantifier_factory("CC").fit_evidence(evidence)
        acc.rates_ = ClassRates(1.0, 0.0)
        assert acc.quantify(xt) == cc.quantify(xt)

    def test_pacc_equals_pcc_under_perfect_soft_rates(self):
        x, labels, xt = gaussian_instance(4)
        evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=4)
        pacc = quantifier_factory("PACC").fit_evidence(evidence)
        pcc = quantifier_factory("PCC").fit_evidence(evidence)
        pacc.rates_ = ClassRates(1.0, 0.0)
        assert pacc.quantify(xt) == pcc.quantify(xt)

    def test_hellinger_variant_matches_direct_search(self):
        for seed in range(5):
            x, labels, xt = gaussian_instance(seed, shift=1.3)
            evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=seed)
            hdy = quantifier_factory("HDy").fit_evidence(evidence)
            found = hdy.quantify(xt)
            # direct scan over the same histograms
            h_pos, h_neg = hdy.hist_pos_.masses, hdy.hist_neg_.masses
            h_test = PosteriorHistogram.from_scores(
                predict_proba(hdy.clf_, xt), 10
            ).masses
            grid = np.linspace(0, 1, 100001)
            mixes = grid[:, None] * h_pos + (1 - grid)[:, None] * h_neg
            direct = grid[
                int(np.argmin(np.sqrt(((np.sqrt(mixes) - np.sqrt(h_test)) ** 2).sum(1))))
            ]
            assert abs(found - direct) <= 1e-4

    def test_outputs_within_unit_interval(self):
        x, labels, xt = gaussian_instance(12)
        evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=12)
        for name in METHOD_NAMES:
            q = quantifier_factory(name, folds=5)
            q = q.fit_evidence(evidence) if name != "MLPE" else q.fit(x, labels)
            value = q.quantify(xt)
            assert 0.0 <= value <= 1.0, name

    def test_permutation_invariance(self):
        x, labels, xt = gaussian_instance(13)
        evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=13)
        perm = np.random.default_rng(0).permutation(len(xt))
        for name in METHOD_NAMES:
            q = quantifier_factory(name, folds=5)
            q = q.fit_evidence(evidence) if name != "MLPE" else q.fit(x, labels)
            assert abs(q.quantify(xt) - q.quantify(xt[perm])) <= 1e-12, name

    def test_empty_sample_rejected_everywhere(self):
        x, labels, _ = gaussian_instance(14)
        evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=14)
        empty = np.zeros((0, 2))
        for name in METHOD_NAMES:
            q = quantifier_factory(name, folds=5)
            q = q.fit_evidence(evidence) if name != "MLPE" else q.fit(x, labels)
            with pytest.raises(EmptyDatasetError):
                q.quantify(empty)

    def test_sld_on_shifted_sample_beats_uncorrected_count(self):
        rng = np.random.default_rng(21)
        labels = (rng.random(3000) < 0.5).astype(int)
        x = rng.standard_normal((3000, 2)) + np.where(labels[:, None] == 1, 1, -1)
        evidence = fit_evidence(x, labels, C=1000.0, folds=5, seed=21)
        sld = quantifier_factory("SLD").fit_evidence(evidence)
        pcc = quantifier_factory("PCC").fit_evidence(evidence)
        test_labels = (rng.random(2000) < 0.9).astype(int)
        xt = rng.standard_normal((2000, 2)) + np.where(test_labels[:, None] == 1, 1, -1)
        truth = test_labels.mean()
        assert abs(sld.quantify(xt) - truth) < abs(pcc.quantify(xt) - truth)


class TestFactory:
    def test_known_names(self):
        assert quantifier_factory("CC").method == "CC"
        hdy = quantifier_factory("HDy")
        assert hdy.method == "HDy" and hdy.distance == "hellinger"
        assert quantifier_factory("DyS").distance == "topsoe"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="XYZ"):
            quantifier_factory("XYZ")

    def test_unfitted_quantify_rejected(self):
        with pytest.raises(RuntimeError):
            quantifier_factory("CC").quantify(np.zeros((3, 2)))

    @pytest.mark.parametrize("cls", METHODS.values(), ids=METHOD_NAMES)
    def test_unfitted_aggregate_rejected(self, cls):
        """Estimating from posteriors needs the fitted state as much as
        quantifying features does, and says so in the same words."""
        message = f"^{cls.method} quantifier is not fitted$"
        with pytest.raises(RuntimeError, match=message):
            cls().aggregate(np.array([0.2, 0.7]))
        with pytest.raises(RuntimeError, match=message):
            cls().aggregate_many([np.array([0.2, 0.7]), np.array([0.4])])
