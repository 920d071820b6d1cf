"""The batched mixture search equals the full grid scan, bit for bit.

The oracle, ``oracle_mixture_fit_alpha``, is the one-sample search that
scored every ternary answer against the whole 1e-4 grid, copied verbatim.
``mixture_fit_alphas`` scores only a window of the grid around each answer
and widens it to the whole grid when the window does not certify itself;
its answers must equal the oracle's with ``==``.  The certificate relies on
the objective being convex (Topsoe) or the square root of a convex function
(Hellinger) in the mixture weight, which the convexity properties check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench import quantifiers
from shiftbench.quantifiers import (
    _DISTANCES,
    _GRID,
    GRID_STEP,
    TERNARY_TOL,
    _check_pair,
    _masses,
    mixture_fit_alpha,
    mixture_fit_alphas,
)

DISTANCES = tuple(_DISTANCES)

#: Allowed negative second difference on the alpha-grid.  One distance value
#: carries a rounding error of a few ulps of a value below 2*ln(2) (about
#: 1e-15); a second difference combines three values, so 1e-12 is over 100
#: times the rounding error and far below the curvature that matters.
CONVEXITY_SLACK = 1e-12


def oracle_mixture_fit_alpha(h_pos, h_neg, h_test, distance: str = "topsoe") -> float:
    """The mixture weight alpha minimising dist(alpha*H+ + (1-alpha)*H-, H_test).

    Ternary search narrows [0, 1] down to 1e-6, scoring both probes of a step
    in one batched call.  Its answer and a 1e-4-step grid, which guards
    against non-unimodal objectives, are then scored in one call; the lowest
    distance wins, the ternary answer on a tie.
    """
    if distance not in _DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; use one of {sorted(_DISTANCES)}")
    pos, neg, test = _masses(h_pos), _masses(h_neg), _masses(h_test)
    _check_pair(pos, neg)
    _check_pair(pos, test)
    rows = _DISTANCES[distance]

    lo, hi = 0.0, 1.0
    while hi - lo > TERNARY_TOL:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        probes = np.array([[m1], [m2]])
        d1, d2 = rows(probes * pos + (1.0 - probes) * neg, test)
        if d1 <= d2:
            hi = m2
        else:
            lo = m1

    # the ternary answer first, so that it wins a tie with the grid
    alphas = np.concatenate(([(lo + hi) / 2.0], np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)))
    values = rows(alphas[:, None] * pos + (1.0 - alphas)[:, None] * neg, test)
    return float(alphas[int(np.argmin(values))])


@st.composite
def histograms(draw, bins: int) -> np.ndarray:
    """Normalised masses: bin counts (zero-mass bins included) or one-hot."""
    if draw(st.integers(0, 4)) == 0:
        masses = np.zeros(bins)
        masses[draw(st.integers(0, bins - 1))] = 1.0
        return masses
    counts = np.array(draw(st.lists(st.integers(0, 60), min_size=bins, max_size=bins)), float)
    if counts.sum() == 0:
        counts[draw(st.integers(0, bins - 1))] = 1.0
    return counts / counts.sum()


@st.composite
def search_cases(draw):
    """(pos, neg, tests): pos == neg now and then; tests are free histograms,
    exact mixtures of pos and neg, or pos or neg themselves."""
    bins = draw(st.integers(2, 20))
    pos = draw(histograms(bins))
    neg = pos.copy() if draw(st.integers(0, 5)) == 0 else draw(histograms(bins))
    tests = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("free", "mixture", "grid mixture", "pos", "neg")))
        if kind == "free":
            tests.append(draw(histograms(bins)))
        elif kind in ("mixture", "grid mixture"):
            alpha = (
                draw(st.floats(0.0, 1.0))
                if kind == "mixture"
                else draw(st.integers(0, len(_GRID) - 1)) * GRID_STEP
            )
            tests.append(alpha * pos + (1.0 - alpha) * neg)
        else:
            tests.append((pos if kind == "pos" else neg).copy())
    return pos, neg, tests


@settings(max_examples=120, deadline=None)
@given(case=search_cases())
def test_batched_search_equals_full_grid_scan(case):
    pos, neg, tests = case
    for distance in DISTANCES:
        found = mixture_fit_alphas(pos, neg, tests, distance)
        assert found.shape == (len(tests),)
        for alpha, test in zip(found, tests):
            assert alpha == oracle_mixture_fit_alpha(pos, neg, test, distance), distance
        assert mixture_fit_alpha(pos, neg, tests[0], distance) == found[0]


@pytest.mark.parametrize("distance", DISTANCES)
def test_flat_objective_takes_the_full_grid_fallback(monkeypatch, distance):
    """With pos == neg every alpha scores the same, so no window certifies
    itself and each row's window is widened to the whole grid: one scoring
    call per row with its ternary answer and every grid point."""
    calls = []
    score = quantifiers._score

    def spy(pos, neg, tests, alphas, rows):
        calls.append(alphas.shape)
        return score(pos, neg, tests, alphas, rows)

    monkeypatch.setattr(quantifiers, "_score", spy)
    pos = np.array([0.1, 0.2, 0.3, 0.4])
    tests = [pos, np.array([0.4, 0.3, 0.2, 0.1])]
    found = mixture_fit_alphas(pos, pos, tests, distance)
    assert calls.count((1, len(_GRID) + 1)) == len(tests)
    assert found.tolist() == [oracle_mixture_fit_alpha(pos, pos, t, distance) for t in tests]


def test_no_tests_give_no_alphas():
    pos = np.array([0.5, 0.5])
    assert mixture_fit_alphas(pos, pos, [], "topsoe").shape == (0,)


def test_mismatched_test_bins_rejected():
    pos = np.full(4, 0.25)
    with pytest.raises(ValueError):
        mixture_fit_alphas(pos, pos, [np.full(5, 0.2)], "topsoe")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bins=st.integers(2, 20))
def test_objectives_are_convex_on_the_alpha_grid(data, bins):
    """Topsoe and squared Hellinger have non-negative second differences on
    the 1e-4 alpha-grid, up to ``CONVEXITY_SLACK``.

    The certificate of ``mixture_fit_alphas`` relies on this: a value that
    rises at the edge of a window keeps rising beyond it, so no grid point
    outside a certified window can beat the ternary answer.
    """
    pos, neg, test = (data.draw(histograms(bins)) for _ in range(3))
    mixtures = _GRID[:, None] * pos + (1.0 - _GRID)[:, None] * neg
    for name, values in (
        ("topsoe", _DISTANCES["topsoe"](mixtures, test)),
        ("squared hellinger", _DISTANCES["hellinger"](mixtures, test) ** 2),
    ):
        second = values[:-2] - 2.0 * values[1:-1] + values[2:]
        assert second.min() >= -CONVEXITY_SLACK, name
