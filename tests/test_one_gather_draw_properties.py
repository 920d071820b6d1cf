"""A draw is one gather over the run's one dataset.

Pools are index sets over the dataset their run prepared, and ``_draw``
gathers the rows of all its parts with one ``x[idx]``.  The oracle here
gathers each part's rows on its own and concatenates them, as runs did
when every part was a sample of its own.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from shiftbench.core import (
    BinaryDataset,
    StarDataset,
    TermCounts,
    binarise_dataset,
    sample_at_prevalence,
)
from shiftbench.datagen import ClusterSpec, count_terms, generate_mixture
from shiftbench.protocols import (
    CONCEPT,
    GLOBAL_COVARIATE,
    LOCAL_COVARIATE,
    PRIOR,
    PROTOCOLS,
    ProtocolConfig,
    _draw,
    _Part,
    _prepare_pools,
    _star_indices,
    count_records,
    run_protocol,
)
from shiftbench.seeds import derive_seed

property_settings = settings(max_examples=150, deadline=None)

CUTS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa")


def clusters(n=800, seed=0):
    return generate_mixture(
        [
            ClusterSpec(mean=[m, y], variance=[1.0, 1.0], weight=0.25, label=int(y > 0),
                        category=cat)
            for m, cat in ((-2.0, "A"), (2.0, "B"))
            for y in (1.0, -1.0)
        ],
        n,
        seed=seed,
    )


def dense_stars(n=800, seed=0):
    return generate_mixture(
        [ClusterSpec(mean=[s - 3.0, 0.0], variance=[1.0, 1.0], weight=0.2, stars=s,
                     category="AB"[s % 2])
         for s in (1, 2, 3, 4, 5)],
        n,
        seed=seed,
    )


def text_stars(n=800, seed=0):
    """The term counts of star-rated texts over a small vocabulary."""
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(WORDS, int(rng.integers(1, 12)))) for _ in range(n)]
    return StarDataset(count_terms(texts), rng.integers(1, 6, n),
                       rng.choice(["A", "B"], n))


@functools.lru_cache(maxsize=None)
def pools(kind: str, protocol: str) -> dict:
    if kind == "text":
        dataset = text_stars()
    else:
        dataset = dense_stars() if protocol == CONCEPT else clusters()
    return _prepare_pools(ProtocolConfig(protocol=protocol), dataset)


def oracle(parts, master_seed, pools):
    """Each part's rows gathered on their own, then concatenated."""
    xs, labels = [], []
    for part in parts:
        seed = master_seed
        for coords in part.seed_path:
            seed = derive_seed(seed, *coords)
        pool = pools[part.pool]
        if part.cut is None:
            drawn = sample_at_prevalence(pool, part.prevalence, part.size, seed)
        else:
            idx = _star_indices(pool, part.prevalence, part.size, part.cut, seed)
            drawn = binarise_dataset(pool.dataset.take(idx), part.cut)
        xs.append(drawn.x)
        labels.append(drawn.labels)
    if isinstance(xs[0], TermCounts):
        x = TermCounts(sparse.vstack([p.counts for p in xs], format="csr"), xs[0].terms)
    else:
        x = np.concatenate(xs)
    return x, np.concatenate(labels)


@st.composite
def draws(draw):
    """(payload kind, protocol, parts, master seed) of a draw of 1-4 parts."""
    kind = draw(st.sampled_from(("dense", "text")))
    protocol = draw(st.sampled_from(PROTOCOLS))
    names = sorted(pools(kind, protocol))
    parts = []
    for i in range(draw(st.integers(1, 4))):
        if protocol == CONCEPT:
            prevalence = draw(st.none() | st.floats(0.0, 1.0))
            cut = draw(st.sampled_from(CUTS))
        else:
            prevalence, cut = draw(st.floats(0.0, 1.0)), None
        parts.append(_Part(draw(st.sampled_from(names)), prevalence, draw(st.integers(1, 15)),
                           (("part", i, draw(st.integers(0, 99))),), f"part {i}", cut))
    return kind, protocol, tuple(parts), draw(st.integers(0, 2**32 - 1))


@property_settings
@given(case=draws())
def test_draw_equals_per_part_gather_then_concatenation(case):
    kind, protocol, parts, master_seed = case
    given_pools = pools(kind, protocol)
    sample = _draw(parts, master_seed, given_pools)
    x, labels = oracle(parts, master_seed, given_pools)
    assert np.array_equal(sample.labels, labels)
    assert sample.true_prevalence == labels.sum() / len(labels)
    if kind == "text":
        assert isinstance(sample.x, TermCounts) and sample.x.terms == x.terms
        assert sample.x.shape == x.shape
        assert np.array_equal(sample.x.counts.toarray(), x.counts.toarray())
    else:
        assert np.array_equal(sample.x, x)


@pytest.mark.parametrize("kind", ["dense", "text"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_pool_shares_one_dataset(kind, protocol):
    prepared = pools(kind, protocol)
    assert len({id(pool.dataset) for pool in prepared.values()}) == 1


@pytest.mark.parametrize("protocol", [PRIOR, GLOBAL_COVARIATE, LOCAL_COVARIATE])
def test_csr_payload_run_matches_dense_run(protocol):
    dense = clusters(n=4000)
    csr = BinaryDataset(sparse.csr_matrix(dense.x), dense.labels, dense.category)
    cfg = ProtocolConfig(
        protocol=protocol, train_size=300, test_size=60, repetitions=1,
        samples_per_config=2, master_seed=7, folds=4, C=100.0,
        prior_train_prevalences=(0.2, 0.6), prior_test_prevalences=(0.1, 0.5, 0.9),
        covariate_class_prevalences=(0.25, 0.5), covariate_mixtures=(0.0, 0.5, 1.0),
        local_test_prevalences=(0.25, 0.5, 0.75), local_control_draws=2,
    )
    want, got = run_protocol(cfg, dense), run_protocol(cfg, csr)
    assert len(got) == count_records(cfg)
    for column in ("method", "config", "degree", "true_prev"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
    assert np.max(np.abs(got.estimate - want.estimate)) <= 1e-12
