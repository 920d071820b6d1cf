"""Both stratified draws run through one routine and draw what they drew.

``core.draw_indices`` (positives, then negatives) and ``_star_indices``
(star by star) each hand their strata to ``core.draw_stratified``.  The
oracles are their earlier bodies, which made the generator, checked and
drew each stratum, concatenated and shuffled on their own; the indices and
the exhaustion messages must not change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.core import (
    BinaryDataset,
    Pool,
    PoolExhaustionError,
    StarDataset,
    draw_indices,
    round_half_up,
)
from shiftbench.protocols import _STARS, _star_allocation, _star_indices, _StarHalf

property_settings = settings(max_examples=300, deadline=None)

CUTS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
# prevalences at and next to the ends, where one stratum gets a zero count
prevalences = st.sampled_from((0.0, 1.0, 1e-9, 1 - 1e-9)) | st.floats(0.0, 1.0)


def oracle_draw_indices(pool: Pool, prevalence: float, size: int, seed: int) -> np.ndarray:
    """The earlier ``draw_indices``, verbatim."""
    if not 0 <= prevalence <= 1:
        raise ValueError(f"prevalence must lie in [0, 1], got {prevalence}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n_pos = round_half_up(prevalence * size)
    n_neg = size - n_pos
    if n_pos > pool.n_positive:
        raise PoolExhaustionError("positive", n_pos, pool.n_positive)
    if n_neg > pool.n_negative:
        raise PoolExhaustionError("negative", n_neg, pool.n_negative)
    rng = np.random.default_rng(seed)
    chosen = np.concatenate(
        [
            rng.choice(pool.positive_index, n_pos, replace=False),
            rng.choice(pool.negative_index, n_neg, replace=False),
        ]
    ).astype(int)
    rng.shuffle(chosen)
    return chosen


def oracle_star_indices(half: _StarHalf, prevalence, size: int, cut: float,
                        seed: int) -> np.ndarray:
    """The earlier ``_star_indices``, verbatim."""
    if prevalence is None:
        allocation = _star_allocation(size, _STARS)
    else:
        n_pos = round_half_up(prevalence * size)
        allocation = {
            **_star_allocation(n_pos, [s for s in _STARS if s > cut]),
            **_star_allocation(size - n_pos, [s for s in _STARS if s < cut]),
        }
    rng = np.random.default_rng(seed)
    chosen = []
    for s in sorted(allocation):
        want = allocation[s]
        if want == 0:
            continue
        available = half.by_star[s]
        if want > len(available):
            raise PoolExhaustionError(f"{s}-star", want, len(available))
        chosen.append(rng.choice(available, want, replace=False))
    idx = np.concatenate(chosen)
    rng.shuffle(idx)
    return idx


def outcome(draw, *args):
    """The drawn indices, or the exhaustion message."""
    try:
        return draw(*args)
    except PoolExhaustionError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)


@property_settings
@given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=60), data=st.data(),
       prevalence=prevalences, seed=st.integers(0, 2**64 - 1))
def test_draw_indices_equals_its_earlier_body(labels, data, prevalence, seed):
    # a pool over a random subset of the dataset, so indices are not positions
    member = data.draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    pool = Pool(BinaryDataset(np.zeros((len(labels), 1)), labels), np.flatnonzero(member))
    size = data.draw(st.integers(1, len(labels) + 2))
    assert_same(outcome(draw_indices, pool, prevalence, size, seed),
                outcome(oracle_draw_indices, pool, prevalence, size, seed))


@property_settings
@given(counts=st.lists(st.integers(0, 12), min_size=5, max_size=5),
       prevalence=st.none() | prevalences, cut=st.sampled_from(CUTS),
       size=st.integers(1, 50), seed=st.integers(0, 2**64 - 1))
def test_star_indices_equals_its_earlier_body(counts, prevalence, cut, size, seed):
    stars = np.repeat(_STARS, counts)
    dataset = StarDataset(np.zeros((len(stars), 1)), stars, np.full(len(stars), "A"))
    # every other item belongs to the half, so indices are not positions
    by_star = {s: np.flatnonzero(stars == s)[::2] for s in _STARS}
    half = _StarHalf(dataset, by_star)
    assert_same(outcome(_star_indices, half, prevalence, size, cut, seed),
                outcome(oracle_star_indices, half, prevalence, size, cut, seed))
