"""Properties of ``aggregate`` over arbitrary posterior vectors in (0, 1)."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftbench.classifier import ClassRates
from shiftbench.quantifiers import METHODS, fit_evidence
from test_batched_estimators_properties import oracle_estimate

open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
posterior_vectors = arrays(float, st.integers(1, 300), elements=open_unit)
property_settings = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def fitted():
    """Every registered method fitted on one shared evidence stack."""
    rng = np.random.default_rng(5)
    labels = (rng.random(400) < 0.4).astype(int)
    x = rng.standard_normal((400, 2)) + np.where(labels[:, None] == 1, 1.0, -1.0)
    evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=5)
    return {name: cls(folds=5).fit_evidence(evidence) for name, cls in METHODS.items()}


@property_settings
@given(posteriors=posterior_vectors)
def test_every_method_lies_in_unit_interval_and_keeps_its_state(fitted, posteriors):
    for name, q in fitted.items():
        before = pickle.dumps(q)
        assert 0.0 <= q.aggregate(posteriors) <= 1.0, name
        assert pickle.dumps(q) == before, name


@property_settings
@given(posteriors=posterior_vectors, data=st.data())
def test_result_does_not_depend_on_posterior_order(fitted, posteriors, data):
    order = data.draw(st.permutations(range(len(posteriors))))
    for name, q in fitted.items():
        assert q.aggregate(posteriors[list(order)]) == pytest.approx(
            q.aggregate(posteriors), abs=1e-9
        ), name


@property_settings
@given(samples=st.lists(posterior_vectors, max_size=6))
def test_aggregate_many_equals_aggregate_of_each_sample(fitted, samples):
    """``aggregate`` is ``aggregate_many`` of one sample, so both are checked
    against each method's independent per-sample formula."""
    for name, q in fitted.items():
        expected = [oracle_estimate(q, p) for p in samples]
        assert q.aggregate_many(samples) == expected, name
        assert [q.aggregate(p) for p in samples] == expected, name


@property_settings
@given(posteriors=posterior_vectors)
def test_pacc_and_smm_agree(fitted, posteriors):
    assert fitted["PACC"].aggregate(posteriors) == pytest.approx(
        fitted["SMM"].aggregate(posteriors), abs=1e-9
    )


@property_settings
@given(posteriors=posterior_vectors)
def test_perfect_rates_collapse_adjusted_counts(fitted, posteriors):
    for adjusted, plain in (("ACC", "CC"), ("PACC", "PCC")):
        q = copy.copy(fitted[adjusted])
        q.rates_ = ClassRates(1.0, 0.0)
        assert q.aggregate(posteriors) == fitted[plain].aggregate(posteriors), adjusted


def test_sld_cap_hit_warns_without_changing_state(fitted):
    sld = fitted["SLD"]
    # posteriors just above the training prevalence move the EM prior by about
    # 2e-6 per step, above the 1e-6 tolerance, until the iteration cap
    posteriors = np.full(50, sld.train_prevalence_ + 2e-6)
    before = pickle.dumps(sld)
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        estimate = sld.aggregate(posteriors)
    assert 0.0 <= estimate <= 1.0
    assert pickle.dumps(sld) == before
