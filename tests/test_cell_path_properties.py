"""A run streams cell by cell, and writes what the earlier walks wrote.

``cell_tables`` yields one table per cell, in plan order, run in-process or
one cell per pool task.  Its tables, joined per repetition, are checked
against two oracles.  The first is the earlier per-repetition worker, which
grouped one repetition's plan by cell and ran each group through
``_run_cell``.  The second is the worker before that, which walked a stream
of cells and tests and kept the scored tests of the current cell pending
until the next cell or the end of the plan; it is fed that stream, rebuilt
from the plan by putting each test's cell before the first test that names
it.
"""

import functools
import itertools
import warnings
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.core import StarDataset
from shiftbench.datagen import ClusterSpec, count_terms, generate_mixture
from shiftbench.evaluation import RecordTable
from shiftbench.protocols import (
    CONCEPT,
    GLOBAL_COVARIATE,
    LOCAL_COVARIATE,
    PRIOR,
    PROTOCOLS,
    ProtocolConfig,
    _Cell,
    _draw,
    _featurise_train,
    _fitted,
    _plan,
    _prepare_pools,
    _run_cell,
    _select_settings,
    cell_tables,
    count_records,
)
from shiftbench.quantifiers import METHOD_NAMES
from shiftbench.seeds import derive_seed

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


def text_stars(n=1200, seed=0):
    """The term counts of star-rated texts whose words lean with the stars;
    every protocol runs on them (the binary ones binarise at the config's
    cut point)."""
    rng = np.random.default_rng(seed)
    stars = rng.integers(1, 6, n)
    texts = [" ".join(rng.choice(WORDS[s - 1:s + 5], int(rng.integers(1, 12)))) for s in stars]
    return StarDataset(count_terms(texts), stars, rng.choice(["A", "B"], n))


@functools.lru_cache(maxsize=None)
def dataset(kind: str, protocol: str):
    if kind == "text":
        return text_stars()
    return dense_stars() if protocol == CONCEPT else clusters()


def repetition_worker(args) -> RecordTable:
    """The records of one repetition: each cell of its plan run in turn.

    The deleted ``protocols._repetition_worker``, verbatim but for calling
    ``_plan`` directly."""
    cfg, pools, rep = args
    plan = _plan(cfg, rep)
    return RecordTable.concat(_run_cell(cfg, pools, rep, cell, tests)
                              for cell, tests in itertools.groupby(plan, key=attrgetter("cell")))


def old_steps(cfg, rep):
    """The plan as the step-walking worker walked it: each cell, then its tests."""
    current = None
    for test in _plan(cfg, rep):
        if test.cell is not current:
            current = test.cell
            yield current
        yield test


def oracle_worker(args) -> RecordTable:
    """The ``_repetition_worker`` before ``repetition_worker``, verbatim but
    for the stream it walks (``old_steps`` in place of ``_plan``)."""
    cfg, pools, rep = args
    tables: list[RecordTable] = []
    pending: list[tuple] = []

    def finish_cell():
        if not pending:
            return
        configs, degrees, true_prevs, scores = zip(*pending)
        estimates = aggregate(scores)
        k, n = len(cfg.methods), len(pending) * len(cfg.methods)
        tables.append(RecordTable.from_estimates(
            protocol=np.full(n, cfg.protocol, dtype=object),
            method=np.tile(np.array(cfg.methods, dtype=object), len(pending)),
            repetition=np.full(n, rep),
            config=np.repeat(np.array(configs, dtype=object), k),
            degree=np.repeat(degrees, k),
            true_prev=np.repeat(true_prevs, k),
            estimate=np.column_stack([estimates[name] for name in cfg.methods]).ravel(),
        ))
        pending.clear()

    for step in old_steps(cfg, rep):
        if isinstance(step, _Cell):
            finish_cell()
            train = _draw(step.parts, cfg.master_seed, pools)
            x, featurise = _featurise_train(train.x)
            fit_seed = derive_seed(cfg.master_seed, *step.fit_coords)
            settings = _select_settings(cfg, x, train.labels, fit_seed)
            score, aggregate = _fitted(cfg, x, train.labels, settings, fit_seed)
            del train, x  # hold no training data while the cell's tests run
        else:
            sample = _draw(step.parts, cfg.master_seed, pools)
            pending.append((step.config, step.degree, sample.true_prevalence,
                            score(featurise(sample.x))))
    finish_cell()
    return RecordTable.concat(tables)


def small(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2).map(tuple)


@st.composite
def runs(draw, protocol):
    """(payload kind, config) of a small run of ``protocol``; with
    ``grid_search`` on, one method and one repetition."""
    kind = draw(st.sampled_from(("dense", "text")))
    grid_search = draw(st.sampled_from((False, False, True)))
    if protocol == PRIOR:
        grid = dict(prior_train_prevalences=draw(small((0.3, 0.5, 0.7))),
                    prior_test_prevalences=draw(small((0.0, 0.2, 0.6, 1.0))))
    elif protocol == GLOBAL_COVARIATE:
        grid = dict(covariate_class_prevalences=draw(small((0.3, 0.5, 0.7))),
                    covariate_mixtures=draw(small((0.0, 0.5, 1.0))))
    elif protocol == CONCEPT:
        grid = dict(concept_cut_points=draw(small((1.5, 2.0, 2.5, 3.0, 3.5))),
                    concept_force_prevalence=draw(st.sampled_from((None, (0.4, 0.6)))))
    else:
        grid = dict(local_test_prevalences=draw(small((0.25, 0.4, 0.6, 0.75))),
                    local_control_draws=draw(st.integers(0, 2)))
    methods = draw(st.lists(st.sampled_from(METHOD_NAMES), min_size=1,
                            max_size=1 if grid_search else len(METHOD_NAMES), unique=True))
    return kind, ProtocolConfig(
        protocol, **grid, methods=tuple(methods), grid_search=grid_search,
        train_size=2 * draw(st.integers(20, 50)), test_size=draw(st.integers(3, 30)),
        repetitions=draw(st.integers(1, 1 if grid_search else 2)), samples_per_config=draw(st.integers(1, 2)),
        master_seed=draw(st.integers(0, 2**32 - 1)), folds=draw(st.integers(2, 3)),
        bins=draw(st.integers(2, 10)),
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cell_stream_equals_the_earlier_walks(protocol, jobs, data):
    kind, cfg = data.draw(runs(protocol))
    pools = _prepare_pools(cfg, dataset(kind, cfg.protocol))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # EM caps and unconverged fits on tiny draws
        stream = cell_tables(cfg, dataset(kind, cfg.protocol), jobs=jobs)
        joined = [(rep, RecordTable.concat(tables)) for rep, tables
                  in itertools.groupby(stream, key=lambda table: int(table.repetition[0]))]
        assert [rep for rep, _ in joined] == list(range(cfg.repetitions))
        for rep, table in joined:
            assert len(table) == count_records(cfg) // cfg.repetitions
            for expected in (repetition_worker((cfg, pools, rep)),
                             oracle_worker((cfg, pools, rep))):
                for name in RecordTable.COLUMNS:
                    assert np.array_equal(getattr(table, name), getattr(expected, name)), name


@pytest.mark.parametrize("grid", ["prior_train_prevalences", "prior_test_prevalences",
                                  "covariate_class_prevalences", "covariate_mixtures",
                                  "local_test_prevalences", "concept_cut_points"])
def test_an_empty_grid_is_refused(grid):
    """A grid with no values would plan cells without tests, or no cells at
    all, and write no records; the config is refused instead."""
    with pytest.raises(ValueError, match=f"^{grid}: must hold at least one value$"):
        ProtocolConfig(PRIOR, train_size=40, test_size=10, **{grid: ()})
