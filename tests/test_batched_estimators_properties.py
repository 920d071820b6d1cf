"""The batched estimators equal independent per-sample oracles, bit for bit.

Each method estimates a matrix of posteriors, one sample per row, in one
pass: ``histogram_masses`` builds every row's histogram,
``expectation_maximisation_prevalences`` runs one EM loop over all rows, and
the counting methods take row sums and row means.  The oracles here are the
per-sample routines they replaced, written out independently: the histogram
through ``np.histogram``, the EM loop one sample at a time, and the counting
formulas on one sample with Python's ``min``/``max`` clipping.  Results are
compared with ``==`` and by ``repr``, which tells -0.0 from 0.0 as the
records file does.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftbench.classifier import ClassRates
from shiftbench.quantifiers import (
    DEGENERATE_RATE_GAP,
    EM_MAX_ITER,
    EM_TOL,
    METHODS,
    SLD,
    expectation_maximisation_prevalences,
    histogram_masses,
)
from test_mixture_search_properties import oracle_mixture_fit_alpha

property_settings = settings(max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# the per-sample oracles
# ---------------------------------------------------------------------------


def oracle_histogram_masses(scores, bins):
    counts, _ = np.histogram(np.asarray(scores, dtype=float), bins=bins, range=(0.0, 1.0))
    return counts / counts.sum()


def oracle_em(posteriors, train_prevalence, tol=EM_TOL, max_iter=EM_MAX_ITER):
    """The one-sample EM loop: (prevalence, converged, iterations)."""
    s = np.asarray(posteriors, dtype=float)
    p = train_prevalence
    for iteration in range(max_iter):
        if p <= 0.0 or p >= 1.0:
            return float(p), True, iteration  # absorbing endpoint
        num = (p / train_prevalence) * s
        den = num + ((1.0 - p) / (1.0 - train_prevalence)) * (1.0 - s)
        m = float((num / den).mean())
        if abs(m - p) < tol:
            return float(p), True, iteration
        p = m
    return float(p), False, max_iter


def oracle_cc(posteriors):
    preds = np.asarray(posteriors) >= 0.5
    return float(preds.sum() / len(preds))


def oracle_pcc(posteriors):
    return float(np.asarray(posteriors, dtype=float).mean())


def oracle_adjust(base, rates):
    gap = rates.tpr - rates.fpr
    if abs(gap) < DEGENERATE_RATE_GAP:
        return min(max(base, 0.0), 1.0)
    return min(max((base - rates.fpr) / gap, 0.0), 1.0)


def oracle_mean_matching(test_mean, positive_mean, negative_mean):
    spread = positive_mean - negative_mean
    if abs(spread) < DEGENERATE_RATE_GAP:
        return min(max(test_mean, 0.0), 1.0)
    return min(max((test_mean - negative_mean) / spread, 0.0), 1.0)


def oracle_estimate(q, posteriors):
    """A fitted quantifier's estimate for one sample, by the per-sample formula."""
    if q.method == "MLPE":
        return q.prevalence_
    if q.method == "CC":
        return oracle_cc(posteriors)
    if q.method == "ACC":
        return oracle_adjust(oracle_cc(posteriors), q.rates_)
    if q.method == "PCC":
        return oracle_pcc(posteriors)
    if q.method == "PACC":
        return oracle_adjust(oracle_pcc(posteriors), q.rates_)
    if q.method == "SMM":
        return oracle_mean_matching(oracle_pcc(posteriors), q.positive_mean_, q.negative_mean_)
    if q.method in ("DyS", "HDy"):
        h_test = oracle_histogram_masses(posteriors, q.bins)
        return oracle_mixture_fit_alpha(q.hist_pos_.masses, q.hist_neg_.masses, h_test, q.distance)
    if q.method == "SLD":
        return oracle_em(posteriors, q.train_prevalence_)[0]
    raise AssertionError(f"no oracle for {q.method}")


def same(batched, oracle):
    """Equal with ``==`` (NaN matching NaN) and equal in ``repr``."""
    batched, oracle = list(batched), list(oracle)
    assert np.array_equal(np.array(batched, dtype=float), np.array(oracle, dtype=float),
                          equal_nan=True)
    assert [repr(v) for v in batched] == [repr(v) for v in oracle]


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def edge_values(bins):
    """0, 1, 1 - 2**-53, every bin edge k/bins and np.histogram's own edges,
    each with its neighbours one ulp either side (inside [0, 1])."""
    edges = np.concatenate((np.arange(bins + 1) / bins, np.linspace(0.0, 1.0, bins + 1)))
    near = np.concatenate((edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)))
    near = near[(near >= 0.0) & (near <= 1.0)]
    return np.unique(np.concatenate((near, [0.0, 1.0, 1.0 - 2.0**-53])))


@st.composite
def score_matrices(draw, out_of_range=False):
    bins = draw(st.integers(2, 40))
    rows, size = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    pool = edge_values(bins).tolist()
    if out_of_range:
        pool += [-0.0, -1e-300, -0.5, np.nextafter(1.0, 2.0), 1.5, np.nan, np.inf]
    element = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0))
    matrix = draw(arrays(float, (rows, size), elements=element))
    if out_of_range:
        matrix[:, 0] = draw(st.floats(0.0, 1.0))  # every row keeps a score in range
    return matrix, bins


@property_settings
@given(case=score_matrices())
def test_histograms_equal_np_histogram_on_edges(case):
    matrix, bins = case
    masses = histogram_masses(matrix, bins)
    for row, got in zip(matrix, masses):
        assert np.array_equal(got, oracle_histogram_masses(row, bins))


@property_settings
@given(case=score_matrices(out_of_range=True))
def test_histograms_leave_out_what_np_histogram_leaves_out(case):
    matrix, bins = case
    masses = histogram_masses(matrix, bins)
    for row, got in zip(matrix, masses):
        assert np.array_equal(got, oracle_histogram_masses(row, bins))


def test_histogram_of_every_edge_value():
    # both edge corrections fire in this range, the upward one in the
    # next-to-top bin too (at 14, 28 and 29 bins)
    for bins in range(2, 61):
        values = edge_values(bins)
        assert np.array_equal(histogram_masses(values[None, :], bins)[0],
                              oracle_histogram_masses(values, bins))
        # one value per row: each lands in the bin np.histogram puts it in
        per_value = histogram_masses(values[:, None], bins)
        expected = np.array([oracle_histogram_masses([v], bins) for v in values])
        assert np.array_equal(per_value, expected)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def check_em(rows, train_prevalence, **kwargs):
    # a subnormal training prevalence overflows both routines alike, into NaN
    with np.errstate(all="ignore"):
        p, converged, iterations = expectation_maximisation_prevalences(
            np.asarray(rows, dtype=float), train_prevalence, **kwargs)
        oracle = [oracle_em(row, train_prevalence, **kwargs) for row in rows]
    same(p.tolist(), [o[0] for o in oracle])
    assert converged.tolist() == [o[1] for o in oracle]
    assert iterations.tolist() == [o[2] for o in oracle]
    return converged


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
train_prevalences = st.one_of(open_unit, st.sampled_from([0.5, 0.3, 1e-3, 1 - 1e-3]))


@property_settings
@given(rows=st.integers(1, 6).flatmap(
           lambda n: arrays(float, (n, 40), elements=st.one_of(
               open_unit, st.sampled_from([0.0, 1.0, 0.5, 1e-12, 1 - 1e-12])))),
       train_prevalence=train_prevalences,
       max_iter=st.one_of(st.just(EM_MAX_ITER), st.integers(1, 30)))
def test_em_rows_equal_the_one_sample_loop(rows, train_prevalence, max_iter):
    check_em(rows, train_prevalence, max_iter=max_iter)


def test_em_absorbing_endpoints_and_running_rows_together():
    rows = np.array([
        np.ones(5),                        # jumps to 1, then stops at the endpoint
        np.zeros(5),                       # jumps to 0, then stops at the endpoint
        [1.0, 1.0, 1.0, 1.0, 0.0],         # moves to 0.8 and settles there
        [0.3] * 5,                         # a fixed point at once
        [0.9, 0.1, 0.6, 0.7, 0.35],
    ])
    converged = check_em(rows, 0.3)
    assert converged.all()


def test_em_cap_hit_warns_and_matches_the_loop():
    sld = SLD()
    sld.train_prevalence_ = 0.4
    # posteriors just above the training prevalence move the prior by about
    # 2e-6 per step, above the 1e-6 tolerance, until the iteration cap
    samples = [np.full(50, 0.4 + 2e-6), np.full(30, 0.7), np.full(50, 0.2)]
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        estimates = sld.aggregate_many(samples)
    same(estimates, [oracle_em(s, 0.4)[0] for s in samples])
    assert oracle_em(samples[0], 0.4)[1:] == (False, EM_MAX_ITER)


def test_em_single_row_ragged_rows_and_no_rows():
    rng = np.random.default_rng(8)
    sld = SLD()
    sld.train_prevalence_ = 0.35
    samples = [rng.beta(2, 3, n) for n in (7, 300, 7, 1, 300, 64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none of these hits the cap
        same(sld.aggregate_many(samples), [oracle_em(s, 0.35)[0] for s in samples])
        same(sld.aggregate_many(samples[:1]), [oracle_em(samples[0], 0.35)[0]])
    assert sld.aggregate_many([]) == []
    p, converged, iterations = expectation_maximisation_prevalences(np.empty((0, 5)), 0.35)
    assert p.shape == converged.shape == iterations.shape == (0,)


def test_em_rows_stopping_at_staggered_steps():
    # rows that settle at many different steps, so the running rows change
    # many times; two rows end at an endpoint among them, and no step
    # divides 0 by 0
    rng = np.random.default_rng(11)
    rows = rng.beta(rng.uniform(0.2, 5.0, (64, 1)), rng.uniform(0.2, 5.0, (64, 1)), (64, 120))
    rows[7], rows[9] = 1.0, 0.0
    with np.errstate(all="raise"):
        expectation_maximisation_prevalences(rows, 0.4)
    converged = check_em(rows, 0.4)
    iterations = expectation_maximisation_prevalences(rows, 0.4)[2]
    assert converged.all() and len(set(iterations.tolist())) > 20


# ---------------------------------------------------------------------------
# the counting methods
# ---------------------------------------------------------------------------


rate_values = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.75, 0.8, 1.0, 0.5 + 1e-10, 0.5 - 1e-10]),
)
posterior_samples = st.lists(
    arrays(float, st.integers(1, 12), elements=st.one_of(
        open_unit, st.sampled_from([0.25, 0.5, 0.75, 0.2, 0.8, np.nextafter(0.5, 0.0)]))),
    max_size=8,
)


@property_settings
@given(samples=posterior_samples, tpr=rate_values, fpr=rate_values,
       positive_mean=rate_values, negative_mean=rate_values)
def test_counting_methods_equal_their_per_sample_formulas(samples, tpr, fpr, positive_mean,
                                                          negative_mean):
    """Including degenerate gaps (tpr = fpr, or within 1e-9) and inverted
    rates, where an adjusted count can come out as -0.0."""
    for name in ("CC", "ACC", "PCC", "PACC", "SMM"):
        q = METHODS[name]()
        q.rates_ = ClassRates(tpr, fpr)
        q.positive_mean_, q.negative_mean_ = positive_mean, negative_mean
        same(q.aggregate_many(samples), [oracle_estimate(q, p) for p in samples])


def test_inverted_rates_keep_negative_zero():
    acc = METHODS["ACC"]()
    acc.rates_ = ClassRates(0.25, 0.5)  # (0.5 - 0.5) / -0.25 is -0.0
    sample = np.array([0.9, 0.1, 0.7, 0.3])
    assert repr(oracle_estimate(acc, sample)) == "-0.0"
    same(acc.aggregate_many([sample, sample[:2]]), [-0.0, -0.0])


def test_fortran_ordered_and_strided_matrices_give_each_rows_estimate():
    """A column-major matrix summed along its rows does not add in the
    pairwise order of a lone row; the batched routines make rows contiguous."""
    rows = np.asfortranarray(np.random.default_rng(2).random((40, 777)))
    for matrix in (rows, rows[:, ::2], rows[::3]):
        p, converged, iterations = expectation_maximisation_prevalences(matrix, 0.4)
        oracle = [oracle_em(row.copy(), 0.4) for row in matrix]
        same(p.tolist(), [o[0] for o in oracle])
        assert iterations.tolist() == [o[2] for o in oracle]
        pcc = METHODS["PCC"]()
        same(pcc._estimate(matrix).tolist(), [oracle_pcc(row.copy()) for row in matrix])
