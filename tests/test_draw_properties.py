"""Properties of the arithmetic that fixes every draw: sizes, counts and seeds."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.core import BinaryDataset, Pool, round_half_up, sample_at_prevalence
from shiftbench.protocols import exact_ceil
from shiftbench.seeds import derive_seed

property_settings = settings(max_examples=200, deadline=None)


@st.composite
def simple_fractions(draw):
    """p/q in [0, 1] with the small denominators that grid fractions have."""
    q = draw(st.integers(1, 1000))
    return Fraction(draw(st.integers(0, q)), q)


@property_settings
@given(fraction=simple_fractions(), n=st.integers(0, 100_000))
def test_exact_ceil_equals_fraction_ceiling(fraction, n):
    assert exact_ceil(float(fraction), n) == math.ceil(fraction * n)


@property_settings
@given(
    size=st.integers(1, 80),
    spare_pos=st.integers(0, 20),
    spare_neg=st.integers(0, 20),
    prevalence=st.floats(0.0, 1.0),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
)
def test_sample_draws_exact_positive_count_without_repeats(
    size, spare_pos, spare_neg, prevalence, seeds
):
    # each class holds at least ``size`` items, so every prevalence is servable;
    # with no spare items a class can be drawn in full
    labels = np.array([1] * (size + spare_pos) + [0] * (size + spare_neg))
    labels = np.random.default_rng(seeds[0]).permutation(labels)
    pool = Pool(BinaryDataset(np.arange(len(labels), dtype=float).reshape(-1, 1), labels))
    sample = sample_at_prevalence(pool, prevalence, size, seeds[1])
    index = sample.x[:, 0].astype(int)
    assert len(sample) == size
    assert int(sample.labels.sum()) == round_half_up(prevalence * size)
    assert len(np.unique(index)) == size
    assert np.array_equal(sample.labels, labels[index])


def test_derive_seed_is_pinned():
    # records.csv depends on these values: a change here changes every draw
    assert derive_seed(0, "prior", 0, "train", 3) == 15225896781931170365
    assert derive_seed(5, "global_covariate", 1, "test", 2, 0, 4, 7) == 14052371476457098586
    assert derive_seed(123) == 1310526025452434071
