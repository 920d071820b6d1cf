"""The draw arithmetic of every plan, read from the parts its tests list.

Nothing is drawn: each protocol's plan is walked over small random grids
and sizes, and the parts of its tests and of the cells they name are
checked for their sizes, their prevalences and the pools they name; the
cells are checked to be contiguous and one per training point, and each
cell built from its address holds the tests ``_plan_shape`` counts.
"""

import itertools
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.core import round_half_up
from shiftbench.datagen import ClusterSpec, generate_mixture
from shiftbench.protocols import (
    CONCEPT,
    GLOBAL_COVARIATE,
    LOCAL_COVARIATE,
    PRIOR,
    PROTOCOLS,
    ProtocolConfig,
    _cell,
    _local_positive_count,
    _plan,
    _plan_shape,
    _prepare_pools,
)

property_settings = settings(max_examples=60, deadline=None)

unit = st.floats(0.0, 1.0)
grids = st.lists(unit, min_size=1, max_size=3).map(tuple)
# a training prevalence lies strictly inside (0, 1): both classes are fitted
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
train_grids = st.lists(open_unit, min_size=1, max_size=3).map(tuple)
shape = dict(train_size=st.integers(2, 400), test_size=st.integers(2, 200),
             repetitions=st.integers(1, 2), samples_per_config=st.integers(1, 3))


@pytest.fixture(scope="module")
def pool_names():
    """The names of the pools ``_prepare_pools`` creates, by protocol."""
    clusters = generate_mixture(
        [
            ClusterSpec(mean=[m, y], variance=[1.0, 1.0], weight=0.25, label=int(y > 0),
                        category=cat)
            for m, cat in ((-2.0, "A"), (2.0, "B"))
            for y in (1.0, -1.0)
        ],
        400,
        seed=0,
    )
    stars = generate_mixture(
        [ClusterSpec(mean=[s - 3.0, 0.0], variance=[1.0, 1.0], weight=0.2, stars=s)
         for s in (1, 2, 3, 4, 5)],
        500,
        seed=0,
    )
    return {
        protocol: set(_prepare_pools(ProtocolConfig(protocol=protocol),
                                     stars if protocol == CONCEPT else clusters))
        for protocol in PROTOCOLS
    }


def walk(cfg):
    return [test for rep in range(cfg.repetitions) for test in _plan(cfg, rep)]


def cells(tests):
    """The distinct cells the tests are scored against, in plan order."""
    return list(dict.fromkeys(test.cell for test in tests))


def check_parts(cfg, tests, pool_names, uniform_ok=False):
    """Every part names a pool of its protocol, a training pool in a cell and
    a test pool in a test, holds at least one item, and has a prevalence in
    [0, 1] (or None, for an even draw over the stars); a cell or a test holds
    nothing mutable."""
    for side, steps in (("train", cells(tests)), ("test", tests)):
        for step in steps:
            hash(step)
            for part in step.parts:
                assert part.pool in pool_names[cfg.protocol]
                assert part.pool.startswith(side)
                assert part.size >= 1
                if part.prevalence is None:
                    assert uniform_ok and part.cut is not None
                else:
                    assert 0.0 <= part.prevalence <= 1.0


def check_sizes(cfg, tests):
    """Each cell's parts sum to the training size, each test's to the test size."""
    for cell in cells(tests):
        assert sum(part.size for part in cell.parts) == cfg.train_size
    for test in tests:
        assert sum(part.size for part in test.parts) == cfg.test_size


@property_settings
@given(train=train_grids, test=grids, data=st.data())
def test_prior_parts(pool_names, train, test, data):
    cfg = ProtocolConfig(PRIOR, prior_train_prevalences=train, prior_test_prevalences=test,
                         **{k: data.draw(v) for k, v in shape.items()})
    tests = walk(cfg)
    check_parts(cfg, tests, pool_names)
    check_sizes(cfg, tests)


@property_settings
@given(prevalences=train_grids, mixtures=grids, data=st.data())
def test_global_covariate_parts(pool_names, prevalences, mixtures, data):
    cfg = ProtocolConfig(GLOBAL_COVARIATE, covariate_class_prevalences=prevalences,
                         covariate_mixtures=mixtures,
                         **{k: data.draw(v) for k, v in shape.items()})
    tests = walk(cfg)
    check_parts(cfg, tests, pool_names)
    check_sizes(cfg, tests)


CUTS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)


@property_settings
@given(cuts=st.lists(st.sampled_from(CUTS), min_size=1,
                     max_size=3, unique=True).map(tuple),
       forced=st.none() | st.tuples(open_unit, unit), data=st.data())
def test_concept_parts(pool_names, cuts, forced, data):
    cfg = ProtocolConfig(CONCEPT, concept_cut_points=cuts, concept_force_prevalence=forced,
                         **{k: data.draw(v) for k, v in shape.items()})
    tests = walk(cfg)
    check_parts(cfg, tests, pool_names, uniform_ok=forced is None)
    check_sizes(cfg, tests)
    assert {part.cut for step in cells(tests) + tests for part in step.parts} == set(cuts)


# the sizes a local-covariate config accepts: an even training size (two
# equal halves) and at least 3 test items (a base part of at least one)
local_shape = dict(shape, train_size=st.integers(1, 200).map(lambda n: 2 * n),
                   test_size=st.integers(3, 200))


@property_settings
@given(prevalences=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3).map(tuple),
       controls=st.integers(0, 3), data=st.data())
def test_local_covariate_parts(pool_names, prevalences, controls, data):
    cfg = ProtocolConfig(LOCAL_COVARIATE, local_test_prevalences=prevalences,
                         local_control_draws=controls,
                         **{k: data.draw(v) for k, v in local_shape.items()})
    tests = walk(cfg)
    check_parts(cfg, tests, pool_names)
    assert [sum(p.size for p in cell.parts) for cell in cells(tests)] == (
        [cfg.train_size] * cfg.repetitions
    )
    # both arms at one p_U hold the base mixture's size plus the added positives
    base = round_half_up(cfg.test_size / 6.0) + cfg.test_size // 2
    expected = [
        base + _local_positive_count(cfg, p_u)
        for _ in range(cfg.repetitions * cfg.samples_per_config)
        for p_u in prevalences
        for _ in range(1 + controls)
    ]
    assert [sum(p.size for p in test.parts) for test in tests] == expected


@st.composite
def configs(draw):
    """A config of any protocol over small grids and sizes, and the number of
    training points of its plan."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    sizes = {k: draw(v) for k, v in (local_shape if protocol == LOCAL_COVARIATE else shape).items()}
    if protocol == PRIOR:
        grid = dict(prior_train_prevalences=draw(train_grids), prior_test_prevalences=draw(grids))
        points = len(grid["prior_train_prevalences"])
    elif protocol == GLOBAL_COVARIATE:
        grid = dict(covariate_class_prevalences=draw(train_grids), covariate_mixtures=draw(grids))
        points = len(grid["covariate_class_prevalences"]) * len(grid["covariate_mixtures"])
    elif protocol == CONCEPT:
        grid = dict(concept_cut_points=draw(st.lists(st.sampled_from(CUTS),
                                                     min_size=1, max_size=3).map(tuple)))
        points = len(grid["concept_cut_points"])
    else:
        grid = dict(local_test_prevalences=draw(st.lists(st.floats(0.0, 0.95), min_size=1,
                                                         max_size=3).map(tuple)),
                    local_control_draws=draw(st.integers(0, 3)))
        points = 1
    return ProtocolConfig(protocol, **grid, **sizes), points


@property_settings
@given(case=configs())
def test_each_cells_tests_are_contiguous(case):
    """``groupby`` over the plan yields every cell once: a cell's tests are
    never split by another cell's."""
    cfg, _ = case
    runs = [cell for cell, _ in itertools.groupby(walk(cfg), key=attrgetter("cell"))]
    assert len(set(runs)) == len(runs)


@property_settings
@given(case=configs())
def test_one_distinct_cell_per_training_point_per_repetition(case):
    """Each repetition's tests name one cell per training point, each with
    its own fit coordinates, which carry the repetition.  The executor takes
    the cell count from ``_plan_shape``: cell ``i`` of each repetition, for
    every ``i`` below it, holds that shape's number of tests, each naming
    that one cell object."""
    cfg, points = case
    cells, tests_per_cell = _plan_shape(cfg)
    assert cells == points
    for rep in range(cfg.repetitions):
        fits = {test.cell.fit_coords for test in _plan(cfg, rep)}
        assert len(fits) == points
        assert all(fit[:3] == (cfg.protocol, rep, "fit") for fit in fits)
        for i in range(cells):
            cell, tests = _cell(cfg, rep, i)
            assert cell.fit_coords[:3] == (cfg.protocol, rep, "fit")
            assert [test.cell is cell for test in tests] == [True] * tests_per_cell
