"""The four shift protocols, as plans of draws, and the executor that runs them.

Protocols
---------
prior             vary the class prevalence of training and test draws
                  independently; class-conditional distributions untouched
global_covariate  vary the category mix (A vs B) and the class prevalence of
                  training and test draws independently
local_covariate   shift the class-conditional of the positive class only, by
                  adding/removing positives of category A; also emits control
                  draws that preserve the class-conditionals at the same
                  nominal prevalences (the "control" arm)
concept           move the star cut point between training and test

Degree conventions: prior uses (p_U - p_L) rounded to one decimal; global
covariate uses (alpha_L - alpha_U); local covariate uses (p_U - p_L) rounded
to two decimals; concept uses the integer (c_L - c_U).

Pools are index sets over the one dataset of a run (binarised, or
star-balanced for concept).  A sample is data: a tuple of parts, each naming
a pool, a prevalence, a size, its seed coordinates and an error context;
``_draw`` draws each part's indices and gathers all their rows at once.  A
protocol's plan gives cell ``i`` of repetition ``rep`` -- the training parts
and the seed coordinates of the fit on them -- and its tests (parts, config
string, degree), each naming that cell.  Prior, global-covariate and concept
share one crossed-grid plan over named axes, whose cell i is the i-th
training point; local-covariate has one cell, of shift and control arms.

``_run_cell`` runs one cell: it fits every method on the training draw, with
one classifier per distinct set of classifier hyperparameters (with
``grid_search`` on, the methods first pick theirs together, on validation
draws from a held-out part of that training draw), then draws each test and
scores it once per classifier.  Each classifier's posteriors are stacked
into one matrix per test size, each method estimates them all in one
``aggregate_many`` call, and the cell becomes one :class:`RecordTable`, a
row per test and method in plan order.  ``cell_tables`` yields each cell's
table in plan order, in-process or in a pool that holds at most
``CELLS_PER_WORKER`` cells per worker in flight.  A pool worker gets the
config and pools once, when it starts; each task names a cell by
``(rep, i)``, and the worker builds the cell's tests.  A cell's draws, fit
seed and model selection depend only on its seed paths, which derive from
the master seed, so ``run_protocol(cfg, dataset, jobs)`` returns the same
table for any number of pool workers.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
import os
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .classifier import DEFAULT_GRID, predict_proba
from .core import (
    BinaryDataset,
    Pool,
    PoolExhaustionError,
    Sample,
    StarDataset,
    TermCounts,
    binarise_dataset,
    draw_indices,
    draw_stratified,
    round_half_up,
    StratificationError,
    split_stratified,
    stratified_split_indices,
)
from .datagen import fit_vocabulary, vectorise
from .evaluation import RecordTable
from .quantifiers import (
    BENCHMARK_METHODS,
    PosteriorRows,
    fit_evidence,
    method_class,
    quantifier_factory,
)
from .seeds import derive_seed

PRIOR = "prior"
GLOBAL_COVARIATE = "global_covariate"
LOCAL_COVARIATE = "local_covariate"
CONCEPT = "concept"
PROTOCOLS = (PRIOR, GLOBAL_COVARIATE, LOCAL_COVARIATE, CONCEPT)


def _tenths(lo: int, hi: int) -> tuple[float, ...]:
    return tuple(i / 10 for i in range(lo, hi + 1))


#: The interval every value of each of these config fields must lie in:
#: training prevalences strictly inside (0, 1), since a classifier is fitted
#: on both classes (the crossed covariate plan trains at every class
#: prevalence), and so must the fraction of the pool split off for training;
#: test prevalences and mixtures in [0, 1] (a local-covariate shift cannot
#: reach 1); star cut points strictly between the lowest and the highest
#: star; and C positive and finite.  A bool is not a number here, and a
#: list-valued field holds at least one value.
_RANGES = (
    ("(0, 1)", lambda v: 0.0 < v < 1.0,
     ("prior_train_prevalences", "covariate_class_prevalences", "split_fraction")),
    ("[0, 1]", lambda v: 0.0 <= v <= 1.0,
     ("prior_test_prevalences", "covariate_mixtures", "concept_force_prevalence")),
    ("[0, 1)", lambda v: 0.0 <= v < 1.0, ("local_test_prevalences",)),
    ("(1, 5)", lambda v: 1.0 < v < 5.0, ("concept_cut_points", "cut_point")),
    ("(0, inf)", lambda v: 0.0 < v < math.inf, ("C",)),
)
_SCALARS = ("split_fraction", "cut_point", "C")  # the fields of _RANGES that hold one value

#: Integer config fields and the least value each may take (None: any).
_INTEGERS = (("train_size", 2), ("test_size", 2), ("repetitions", 1),
             ("samples_per_config", 1), ("master_seed", None), ("folds", 2), ("bins", 2),
             ("local_control_draws", 0))

#: The fields ``ProtocolConfig.desk`` sets, and their values.
DESK = {"repetitions": 2, "samples_per_config": 5}


@dataclass
class ProtocolConfig:
    """Sizes, grids and seeds of one protocol run.

    Defaults mirror the full-scale benchmark settings (training size 5,000,
    test size 500, 10 repetitions, 50 samples per configuration); call
    :meth:`desk` for a configuration that finishes in seconds.
    """

    protocol: str
    train_size: int = 5000
    test_size: int = 500
    repetitions: int = 10
    samples_per_config: int = 50
    master_seed: int = 0
    methods: tuple[str, ...] = BENCHMARK_METHODS
    split_fraction: float = 0.5
    cut_point: float = 3.0

    # classifier settings (used directly unless grid_search is on)
    C: float = 1000.0
    class_weight: str | None = None
    folds: int = 10
    bins: int = 10
    grid_search: bool = False

    # prior-shift grids: endpoints replaced by 0.02 / 0.98 on the training side
    prior_train_prevalences: tuple[float, ...] = (0.02,) + _tenths(1, 9) + (0.98,)
    prior_test_prevalences: tuple[float, ...] = _tenths(0, 10)

    # global-covariate grids
    covariate_class_prevalences: tuple[float, ...] = (0.25, 0.50, 0.75)
    covariate_mixtures: tuple[float, ...] = _tenths(0, 10)

    # local-covariate grid and the control-arm draw count per cell
    local_test_prevalences: tuple[float, ...] = tuple(
        round(0.25 + 0.05 * i, 2) for i in range(11)
    )
    local_control_draws: int = 10

    # concept-shift cut points; optionally force (p_L, p_U)
    concept_cut_points: tuple[float, ...] = (1.5, 2.5, 3.5, 4.5)
    concept_force_prevalence: tuple[float, float] | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; one of {PROTOCOLS}")
        for name, least in _INTEGERS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name}: expected an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name}: must be at least {least}, got {value}")
        if self.protocol == LOCAL_COVARIATE:
            # a test's base part of test_size/6 negatives from A must not be
            # empty; the training draw is two halves of train_size/2
            if self.test_size < 3:
                raise ValueError(f"test_size: must be at least 3 for local-covariate "
                                 f"shift, got {self.test_size}")
            if self.train_size % 2:
                raise ValueError(f"train_size: must be even for local-covariate shift, "
                                 f"got {self.train_size}")
        for interval, inside, names in _RANGES:
            for name in names:
                values = getattr(self, name)
                if name in _SCALARS:
                    values = (values,)
                elif values is None and name == "concept_force_prevalence":
                    continue
                elif not isinstance(values, (tuple, list)):
                    raise ValueError(f"{name}: expected a list of numbers, got {values!r}")
                elif not values:
                    # an empty grid would plan no tests and write no records
                    raise ValueError(f"{name}: must hold at least one value")
                for v in values:
                    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and inside(v)):
                        raise ValueError(f"{name}: {v!r} is outside {interval}")
        forced = self.concept_force_prevalence
        if forced is not None:
            if len(forced) != 2:
                raise ValueError(f"concept_force_prevalence: expected (p_L, p_U), got {forced!r}")
            if not 0.0 < forced[0] < 1.0:
                raise ValueError(f"concept_force_prevalence: p_L {forced[0]!r} is outside (0, 1)")
        if not isinstance(self.grid_search, bool):
            raise ValueError(f"grid_search: expected true or false, got {self.grid_search!r}")
        if self.class_weight not in (None, "balanced"):
            raise ValueError(f"class_weight: expected null or 'balanced', "
                             f"got {self.class_weight!r}")
        if not (isinstance(self.methods, (tuple, list))
                and all(isinstance(m, str) for m in self.methods)):
            raise ValueError(f"methods: expected a list of method names, got {self.methods!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        # registry spelling; unknown names fail fast
        self.methods = tuple(method_class(m).method for m in self.methods)
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods: {', '.join(self.methods)}")

    def desk(self) -> "ProtocolConfig":
        """A scaled-down copy, with the fields and values of ``DESK``."""
        return dataclasses.replace(self, **DESK)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(d)
        for key, value in kwargs.items():
            if isinstance(value, list):
                kwargs[key] = tuple(value)
        return cls(**kwargs)


def _plan_shape(cfg: ProtocolConfig) -> tuple[int, int]:
    """(cells per repetition, tests per cell) of the protocol's plan."""
    rounds = cfg.samples_per_config
    if cfg.protocol == PRIOR:
        return len(cfg.prior_train_prevalences), len(cfg.prior_test_prevalences) * rounds
    if cfg.protocol == GLOBAL_COVARIATE:
        points = len(cfg.covariate_class_prevalences) * len(cfg.covariate_mixtures)
        return points, points * rounds
    if cfg.protocol == LOCAL_COVARIATE:
        return 1, len(cfg.local_test_prevalences) * (1 + cfg.local_control_draws) * rounds
    if cfg.protocol == CONCEPT:
        cuts = len(cfg.concept_cut_points)
        return cuts, cuts * rounds
    raise ValueError(f"unknown protocol {cfg.protocol!r}")


def count_records_per_method(cfg: ProtocolConfig) -> int:
    """Closed-form record count one method contributes to a full run."""
    cells, tests = _plan_shape(cfg)
    return cells * tests * cfg.repetitions


def count_records(cfg: ProtocolConfig) -> int:
    return count_records_per_method(cfg) * len(cfg.methods)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


# plans ask for the same few (fraction, size) pairs once per test
@functools.lru_cache(maxsize=1024)
def exact_ceil(fraction_value: float, n: int) -> int:
    """ceil(fraction_value * n) treating the float as the nearest simple rational.

    Grid fractions like 0.3 are binary-inexact; snapping to the nearest
    rational with a small denominator keeps sizes like ceil(0.3 * 5000) at
    exactly 1500.
    """
    frac = Fraction(fraction_value).limit_denominator(10**6) * n
    return -((-frac.numerator) // frac.denominator)


def _round_degree(value: float, decimals: int) -> float:
    return round(value, decimals) + 0.0  # normalise -0.0


def _featurise_train(x):
    """Returns (training features, featuriser for later samples).

    Term counts get a tf-idf space fitted on the training documents only;
    numeric payloads pass through unchanged.
    """
    if isinstance(x, TermCounts):
        vocab = fit_vocabulary(x)
        return vectorise(x, vocab), lambda xs: vectorise(xs, vocab)
    return x, lambda xs: xs


# ---------------------------------------------------------------------------
# pool preparation
# ---------------------------------------------------------------------------


def _ensure_binary(dataset, cut_point: float) -> BinaryDataset:
    if isinstance(dataset, StarDataset):
        return binarise_dataset(dataset, cut_point)
    if isinstance(dataset, BinaryDataset):
        return dataset
    raise TypeError(f"expected a star or binary dataset, got {type(dataset).__name__}")


_STARS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class _StarHalf:
    """One half of the star-balanced dataset: its item indices by star."""

    dataset: StarDataset
    by_star: dict[int, np.ndarray]


def _prepare_pools(cfg: ProtocolConfig, dataset) -> dict:
    """The pools that draws name: train/test for prior, train_a/test_a/
    train_b/test_b for the covariate protocols, star-balanced train/test
    halves for concept, each an index set over the run's one dataset.

    A review corpus arrives as term counts, tokenised when it was loaded;
    balancing and binarising take rows of those counts, so the pools hold
    only the rows they name and ``dataset`` itself need not outlive this
    call."""
    seed = derive_seed(cfg.master_seed, cfg.protocol, "split")
    if cfg.protocol == CONCEPT:
        if not isinstance(dataset, StarDataset):
            raise TypeError("the concept protocol needs star-labelled data")
        balanced = _balance_stars(dataset, derive_seed(seed, "balance"))
        halves = stratified_split_indices(
            balanced.stars, cfg.split_fraction, derive_seed(seed, "halves")
        )
        return {name: _StarHalf(balanced, {s: idx[balanced.stars[idx] == s] for s in _STARS})
                for name, idx in zip(("train", "test"), halves)}
    binary = _ensure_binary(dataset, cfg.cut_point)
    if cfg.protocol == PRIOR:
        return dict(zip(("train", "test"), split_stratified(binary, cfg.split_fraction, seed)))
    if binary.category is None:
        raise ValueError(f"the {cfg.protocol} protocol needs category tags")
    pools = {}
    for cat in ("A", "B"):
        members = np.flatnonzero(binary.category == cat)
        if len(members) == 0:
            raise ValueError(f"no datapoints in category {cat}")
        halves = stratified_split_indices(binary.labels[members], cfg.split_fraction,
                                          derive_seed(seed, cat))
        pools.update((f"{side}_{cat.lower()}", Pool(binary, members[idx]))
                     for side, idx in zip(("train", "test"), halves))
    return pools


def _balance_stars(dataset: StarDataset, seed: int) -> StarDataset:
    """The largest subset with a uniform star distribution (seeded draw)."""
    rng = np.random.default_rng(seed)
    counts = {s: np.flatnonzero(dataset.stars == s) for s in _STARS}
    smallest = min(len(idx) for idx in counts.values())
    if smallest == 0:
        missing = [s for s, idx in counts.items() if len(idx) == 0]
        raise ValueError(f"cannot balance stars: no items with stars {missing}")
    chosen = np.sort(
        np.concatenate([rng.choice(idx, smallest, replace=False) for idx in counts.values()])
    )
    return dataset.take(chosen)


# ---------------------------------------------------------------------------
# draws as data: a sample is a tuple of parts, drawn and gathered by ``_draw``
# ---------------------------------------------------------------------------


class _Part(NamedTuple):
    """One part of a sample: ``size`` items from the pool named ``pool`` at
    positive ``prevalence``.

    The seed is the master seed hashed with each tuple of ``seed_path`` in
    turn.  A star-half part (``cut`` set) draws by star -- evenly over the
    five stars when ``prevalence`` is None, else at that forced positive
    prevalence -- and binarises at ``cut``.  ``ctx`` names the draw in
    pool-exhaustion and stratification errors.
    """

    pool: str
    prevalence: float | None
    size: int
    seed_path: tuple[tuple, ...]
    ctx: str
    cut: float | None = None


def _draw(parts: Sequence[_Part], master_seed: int, pools) -> Sample:
    """Draw each part's indices, then gather their rows in one ``x[idx]``.

    The pools a draw names share one dataset.  A star part keeps the items
    off its cut, labelled positive above it."""
    chosen, labels = [], []
    for part in parts:
        seed = master_seed
        for coords in part.seed_path:
            seed = derive_seed(seed, *coords)
        pool = pools[part.pool]
        try:
            if part.cut is None:
                idx = draw_indices(pool, part.prevalence, part.size, seed)
                labels.append(pool.dataset.labels[idx])
            else:
                idx = _star_indices(pool, part.prevalence, part.size, part.cut, seed)
                idx = idx[pool.dataset.stars[idx] != part.cut]
                labels.append(pool.dataset.stars[idx] > part.cut)
        except PoolExhaustionError as exc:
            raise PoolExhaustionError(
                f"{exc.label_name} [{part.ctx}]", exc.requested, exc.available
            ) from None
        chosen.append(idx)
    return Sample(pool.dataset.x[np.concatenate(chosen)], np.concatenate(labels))


def _covariate_parts(side, prevalence, alpha, size, coords, ctx) -> tuple[_Part, ...]:
    """ceil(alpha*size) items from category A and the rest from B, both at the
    same class prevalence."""
    n_a = exact_ceil(alpha, size)
    return tuple(
        _Part(f"{side}_{cat.lower()}", prevalence, n, (coords, (cat,)), ctx)
        for cat, n in (("A", n_a), ("B", size - n_a))
        if n
    )


def _local_positive_count(cfg, p_u: float) -> int:
    """Positives of category A to add so the base mixture reaches p_u.

    The base mixture is test_size/6 negatives from A plus test_size/2 items
    from B at prevalence 1/3 (overall prevalence 1/4); solving
    p_u = (base_pos + POS) / (base_total + POS) gives POS, rounded half up.
    """
    base_pos = cfg.test_size / 6.0
    base_total = 2.0 * cfg.test_size / 3.0
    if p_u >= 1.0:
        raise ValueError("local covariate shift cannot reach prevalence 1.0")
    pos = (p_u * base_total - base_pos) / (1.0 - p_u)
    return max(0, round_half_up(pos))


def _control_parts(p_u, size, coords, ctx) -> tuple[_Part, ...]:
    """A class-conditional-preserving draw at the requested prevalence:
    positives 2/3 from A, negatives 2/3 from B."""
    n_pos = round_half_up(p_u * size)
    n_neg = size - n_pos
    pos_a = round_half_up(2.0 * n_pos / 3.0)
    neg_a = round_half_up(n_neg / 3.0)
    return tuple(
        _Part(pool, prevalence, n, (coords, (tag,)), ctx)
        for pool, prevalence, n, tag in (
            ("test_a", 1.0, pos_a, "posA"),
            ("test_b", 1.0, n_pos - pos_a, "posB"),
            ("test_a", 0.0, neg_a, "negA"),
            ("test_b", 0.0, n_neg - neg_a, "negB"),
        )
        if n
    )


def _star_allocation(size: int, stars: Sequence[int]) -> dict[int, int]:
    """Spread ``size`` across star values, remainder to the lowest stars."""
    base, rem = divmod(size, len(stars))
    return {s: base + (1 if i < rem else 0) for i, s in enumerate(sorted(stars))}


def _star_indices(half: _StarHalf, prevalence, size: int, cut: float, seed: int) -> np.ndarray:
    """Indices of star-rated items from one half, in draw order: evenly over
    the stars, or with a share ``prevalence`` spread over the stars above
    ``cut`` and the rest over the stars below it."""
    if prevalence is None:
        allocation = _star_allocation(size, _STARS)
    else:
        n_pos = round_half_up(prevalence * size)
        allocation = {
            **_star_allocation(n_pos, [s for s in _STARS if s > cut]),
            **_star_allocation(size - n_pos, [s for s in _STARS if s < cut]),
        }
    return draw_stratified([(f"{s}-star", half.by_star[s], allocation[s])
                            for s in sorted(allocation)], seed)


# ---------------------------------------------------------------------------
# plans: each protocol gives cell i of a repetition -- a training draw and
# fit -- and the tests scored against it
# ---------------------------------------------------------------------------


class _Cell(NamedTuple):
    """One training draw and the seed coordinates of the fit on it."""

    parts: tuple[_Part, ...]
    fit_coords: tuple


class _Test(NamedTuple):
    """One test sample, scored against the fit of ``cell``: ``parts`` fix its
    draw; the rest labels its records."""

    cell: _Cell
    parts: tuple[_Part, ...]
    config: str
    degree: float


def _points(axes) -> list[tuple]:
    """(indices, values, context label, config label) of each point of the
    product of named axes, given as (name, values) pairs."""
    named = [[(i, v, f"{name}={v:g}") for i, v in enumerate(values)] for name, values in axes]
    return [
        (indices, values, " ".join(labels), ";".join(labels))
        for indices, values, labels in (zip(*point) for point in itertools.product(*named))
    ]


def _crossed_cell(cfg, rep, i, train_axes, test_axes, draw,
                  degree) -> tuple[_Cell, Iterator[_Test]]:
    """Cell ``i`` at the i-th point of the training axes; against it, per
    round, a test per point of the test axes.

    ``draw(side, values, size, coords, ctx)`` gives the parts of the draw at
    one point of a side ("train" or "test"); ``degree(train values, test
    values)`` gives a test's shift degree.
    """
    proto = cfg.protocol
    i_l, v_l, ctx_l, cfg_l = _points(train_axes)[i]
    ctx = f"{proto} rep={rep} {ctx_l}"
    cell = _Cell(
        draw("train", v_l, cfg.train_size, (proto, rep, "train", *i_l), ctx),
        (proto, rep, "fit", *i_l),
    )
    test_points = _points(test_axes)
    return cell, (
        _Test(
            cell,
            draw("test", v_u, cfg.test_size, (proto, rep, "test", *i_l, r, *i_u),
                 f"{ctx} {ctx_u} round={r}"),
            f"{cfg_l};{cfg_u};r={r}",
            degree(v_l, v_u),
        )
        for r in range(cfg.samples_per_config)
        for i_u, v_u, ctx_u, cfg_u in test_points
    )


def _local_covariate_cell(cfg: ProtocolConfig, rep: int) -> tuple[_Cell, Iterator[_Test]]:
    """A repetition's one cell: a training draw at prevalence 1/2 (positives
    2/3 A, negatives 2/3 B), then per round the shift arm at each p_U, each
    followed by its control draws.  The shift samples of one round list the
    same base parts, so they share one base mixture."""
    proto = LOCAL_COVARIATE
    half = cfg.train_size // 2
    p_train = 0.5
    ctx = f"{proto} rep={rep} train"
    cell = _Cell(
        (
            _Part("train_a", 2.0 / 3.0, half, ((proto, rep, "trainA"),), f"{ctx} A"),
            _Part("train_b", 1.0 / 3.0, half, ((proto, rep, "trainB"),), f"{ctx} B"),
        ),
        (proto, rep, "fit"),
    )
    neg_a_size = round_half_up(cfg.test_size / 6.0)
    base_b_size = cfg.test_size // 2

    def tests():
        for r in range(cfg.samples_per_config):
            ctx = f"{proto} rep={rep} round={r}"
            base = (
                _Part("test_a", 0.0, neg_a_size, ((proto, rep, "baseA", r),), f"{ctx} base A"),
                _Part("test_b", 1.0 / 3.0, base_b_size, ((proto, rep, "baseB", r),),
                      f"{ctx} base B"),
            )
            for i_pu, p_u in enumerate(cfg.local_test_prevalences):
                f_pu = format(p_u, "g")
                pos_a = _local_positive_count(cfg, p_u)
                degree = _round_degree(p_u - p_train, 2)
                positives = (_Part("test_a", 1.0, pos_a, ((proto, rep, "posA", r, i_pu),),
                                   f"{ctx} pU={f_pu}"),)
                yield _Test(cell, base + positives if pos_a else base,
                            f"pU={f_pu};arm=shift;r={r}", degree)
                # control arm: same size and nominal prevalence, but drawn
                # with the training class-conditionals
                size = neg_a_size + base_b_size + pos_a
                for d in range(cfg.local_control_draws):
                    yield _Test(
                        cell,
                        _control_parts(p_u, size, (proto, rep, "control", r, i_pu, d),
                                       f"{ctx} pU={f_pu} control={d}"),
                        f"pU={f_pu};arm=control;r={r};d={d}",
                        degree,
                    )

    return cell, tests()


def _cell(cfg: ProtocolConfig, rep: int, i: int) -> tuple[_Cell, Iterator[_Test]]:
    """Cell ``i`` of repetition ``rep`` and an iterator over its tests, in
    plan order; ``i`` runs below ``_plan_shape(cfg)[0]``."""
    if cfg.protocol == LOCAL_COVARIATE:
        return _local_covariate_cell(cfg, rep)
    if cfg.protocol == PRIOR:
        return _crossed_cell(
            cfg, rep, i, [("pL", cfg.prior_train_prevalences)],
            [("pU", cfg.prior_test_prevalences)],
            lambda side, v, size, coords, ctx: (_Part(side, v[0], size, (coords,), ctx),),
            lambda v_l, v_u: _round_degree(v_u[0] - v_l[0], 1),
        )
    if cfg.protocol == GLOBAL_COVARIATE:
        prevalences, mixtures = cfg.covariate_class_prevalences, cfg.covariate_mixtures
        return _crossed_cell(
            cfg, rep, i, [("pL", prevalences), ("aL", mixtures)],
            [("pU", prevalences), ("aU", mixtures)],
            lambda side, v, size, coords, ctx: _covariate_parts(side, *v, size, coords, ctx),
            lambda v_l, v_u: _round_degree(v_l[1] - v_u[1], 1),
        )
    forced = dict(zip(("train", "test"), cfg.concept_force_prevalence or (None, None)))
    return _crossed_cell(
        cfg, rep, i, [("cL", cfg.concept_cut_points)], [("cU", cfg.concept_cut_points)],
        lambda side, v, size, coords, ctx: (
            _Part(side, forced[side], size, (coords,), ctx, cut=v[0]),
        ),
        lambda v_l, v_u: _round_degree(v_l[0] - v_u[0], 0),
    )


def _plan(cfg: ProtocolConfig, rep: int) -> Iterator[_Test]:
    """The tests of one repetition in plan order: each cell's in turn."""
    for i in range(_plan_shape(cfg)[0]):
        yield from _cell(cfg, rep, i)[1]


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


def _fitted(cfg: ProtocolConfig, x, labels, settings: dict, fit_seed: int):
    """Fit each method of ``settings`` (method name -> the classifier's
    (C, class_weight)) on one featurised training set; methods with the same
    settings share one classifier and one set of out-of-fold posteriors.

    Returns (score, aggregate): ``score`` maps a sample's features to its
    posteriors under each distinct classifier (None where a group needs no
    classifier), and ``aggregate`` maps the scores of a list of samples to
    each method's estimates, by method name: one ``aggregate_many`` call per
    method, on posteriors stacked once per classifier and sample length.
    """
    groups: dict[tuple, list[str]] = {}
    for name, setting in settings.items():
        groups.setdefault(setting, []).append(name)
    fitted = []
    for (C, class_weight), names in groups.items():
        quantifiers = {name: quantifier_factory(name, C=C, class_weight=class_weight,
                                                folds=cfg.folds, bins=cfg.bins, seed=fit_seed)
                       for name in names}
        evidence = fit_evidence(
            x, labels, C=C, class_weight=class_weight, folds=cfg.folds, seed=fit_seed,
            need_oof=any(q.needs_oof for q in quantifiers.values()),
            need_classifier=any(q.needs_classifier for q in quantifiers.values()),
        )
        fitted.append((evidence.clf, {n: q.fit_evidence(evidence) for n, q in quantifiers.items()}))

    def score(x) -> list:
        return [None if clf is None else predict_proba(clf, x) for clf, _ in fitted]

    def aggregate(scores: list[list]) -> dict[str, list[float]]:
        estimates = {}
        for group, (clf, quantifiers) in enumerate(fitted):
            posteriors = [s[group] for s in scores]
            if clf is not None:
                posteriors = PosteriorRows.stack(posteriors)
            for name, q in quantifiers.items():
                estimates[name] = q.aggregate_many(posteriors)
        return estimates

    return score, aggregate


def _feasible_sample_size(pool: Pool, prevalence: float, requested: int) -> int:
    """Largest size <= requested the pool can serve at this prevalence."""
    if prevalence <= 0:
        return min(requested, pool.n_negative)
    if prevalence >= 1:
        return min(requested, pool.n_positive)
    n = min(requested, int(pool.n_positive / prevalence),
            int(pool.n_negative / (1.0 - prevalence)))
    while n >= 1:
        n_pos = round_half_up(prevalence * n)
        if n_pos <= pool.n_positive and n - n_pos <= pool.n_negative:
            return n
        n -= 1
    return 0


def _validation_parts(pool: Pool, size: int, ctx: str) -> list[_Part]:
    """Ten draws from the "val" pool at each prevalence 0, 0.1, ..., 1, each
    capped to the largest size up to ``size`` the pool serves at it.

    Prevalences the pool cannot serve at any size are skipped with a warning;
    if every prevalence is skipped this raises.
    """
    parts = []
    for i, p in enumerate(_tenths(0, 10)):
        n = _feasible_sample_size(pool, p, size)
        if n < 1:
            warnings.warn(f"validation pool cannot form a sample at prevalence {p}; skipping")
            continue
        parts += [_Part("val", p, n, (("val", i, j),), f"{ctx} p={p:g} draw={j}")
                  for j in range(10)]
    if not parts:
        raise ValueError("validation pool too small for every prevalence in the grid")
    return parts


def _select_settings(cfg: ProtocolConfig, x, labels, fit_seed: int) -> dict[str, tuple]:
    """Each method's classifier (C, class_weight): the configured pair, or with
    ``grid_search`` the earliest ``DEFAULT_GRID`` point of its lowest
    validation MAE.  All methods select together on one split, seeded by the
    fit seed alone: a stratified 0.6 of the training draw is fitted once per
    grid point for every method, and the rest serves one set of validation
    draws.  So no method's choice depends on which others run."""
    if not cfg.grid_search:
        return dict.fromkeys(cfg.methods, (cfg.C, cfg.class_weight))
    seed = derive_seed(fit_seed, "grid")
    fit, val = split_stratified(BinaryDataset(x, labels), 0.6, derive_seed(seed, "split"))
    samples = [_draw((part,), seed, {"val": val})
               for part in _validation_parts(val, cfg.test_size, "grid val")]
    truth = np.array([s.true_prevalence for s in samples])
    fit_x, fit_labels = x[fit.index], labels[fit.index]
    grid = [(point["C"], point["class_weight"]) for point in DEFAULT_GRID]
    maes = []
    for setting in grid:
        score, aggregate = _fitted(cfg, fit_x, fit_labels, dict.fromkeys(cfg.methods, setting),
                                   fit_seed)
        estimates = aggregate([score(s.x) for s in samples])
        maes.append([np.mean(np.abs(truth - estimates[name])) for name in cfg.methods])
    return {name: grid[i] for name, i in zip(cfg.methods, np.argmin(maes, axis=0))}


def _run_cell(cfg: ProtocolConfig, pools, rep: int, cell: _Cell, tests) -> RecordTable:
    """Fit every method on the cell's training draw, then draw and score each
    test against that fit and estimate them all together: one table, a row
    per test and method in plan order."""
    train = _draw(cell.parts, cfg.master_seed, pools)
    x, featurise = _featurise_train(train.x)
    fit_seed = derive_seed(cfg.master_seed, *cell.fit_coords)
    try:
        settings = _select_settings(cfg, x, train.labels, fit_seed)
        score, aggregate = _fitted(cfg, x, train.labels, settings, fit_seed)
    except StratificationError as exc:
        # named as the training draw's parts are, less a part's own suffix
        ctx = os.path.commonprefix([part.ctx for part in cell.parts]).rstrip()
        raise StratificationError(f"{exc} [{ctx}]") from None
    del train, x  # hold no training data while the cell's tests run
    scored = []  # (config, degree, true prevalence, scores) per test
    for test in tests:
        sample = _draw(test.parts, cfg.master_seed, pools)
        scored.append((test.config, test.degree, sample.true_prevalence,
                       score(featurise(sample.x))))
    configs, degrees, true_prevs, scores = zip(*scored)
    estimates = aggregate(scores)
    k, n = len(cfg.methods), len(scored) * len(cfg.methods)
    return RecordTable.from_estimates(
        protocol=np.full(n, cfg.protocol, dtype=object),
        method=np.tile(np.array(cfg.methods, dtype=object), len(scored)),
        repetition=np.full(n, rep),
        config=np.repeat(np.array(configs, dtype=object), k),
        degree=np.repeat(degrees, k),
        true_prev=np.repeat(true_prevs, k),
        estimate=np.column_stack([estimates[name] for name in cfg.methods]).ravel(),
    )


def _cells(cfg: ProtocolConfig) -> list[tuple[int, int]]:
    """(repetition, index) of each cell of the run, in plan order."""
    return [(rep, i) for rep in range(cfg.repetitions) for i in range(_plan_shape(cfg)[0])]


def _cell_table(cfg: ProtocolConfig, pools, rep: int, i: int) -> RecordTable:
    """The records of cell ``i`` of repetition ``rep``, its tests built here."""
    return _run_cell(cfg, pools, rep, *_cell(cfg, rep, i))


_served = None  # in a pool worker, the (cfg, pools) of the run it serves


def _serve(cfg: ProtocolConfig, pools):
    """Pool initializer: keep the run's config and pools for every task."""
    global _served
    _served = (cfg, pools)


def _served_cell(rep: int, i: int) -> RecordTable:
    """A pool worker's task: cell ``i`` of repetition ``rep`` of its run."""
    return _cell_table(*_served, rep, i)


#: Cells in flight per pool worker: while a worker runs one cell, the next
#: waits in the pool's queue, and the parent submits no further ahead.
CELLS_PER_WORKER = 2


def cell_tables(cfg: ProtocolConfig, dataset, jobs: int = 1) -> Iterator[RecordTable]:
    """Each cell's records, one table per cell, in plan order.

    With ``jobs`` > 1 cells run in up to ``jobs`` pool workers, never more
    workers than the run has cells.  The parent keeps at most
    ``CELLS_PER_WORKER`` cells per worker submitted; a table is yielded as
    soon as it and every earlier one are done, so a caller can write it and
    let it go while later cells run.  The config and pools reach each worker
    once, through the pool initializer (inherited under fork, pickled once
    per worker otherwise), and each task is a cell's ``(rep, i)``: the
    worker builds the cell's tests.  The tables are the same for any worker
    count.  A cell that raises, or closing the generator early, cancels the
    cells that have not started.  The generator lets go of ``dataset`` once
    the pools are prepared, so only the rows they hold outlive that step
    when the caller holds no other reference.
    """
    pools = _prepare_pools(cfg, dataset)
    del dataset
    cells = _cells(cfg)
    workers = min(jobs, len(cells))
    if workers <= 1:
        for rep, i in cells:
            yield _cell_table(cfg, pools, rep, i)
        return
    # cells are submitted one at a time: Executor.map would submit every
    # cell of the run before yielding the first table
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_serve, initargs=(cfg, pools))
    window = deque()
    try:
        for rep, i in cells:
            if len(window) == CELLS_PER_WORKER * workers:
                yield window.popleft().result()
            window.append(pool.submit(_served_cell, rep, i))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_protocol(cfg: ProtocolConfig, dataset, jobs: int = 1) -> RecordTable:
    """Run one protocol end to end and return its records: the tables of
    :func:`cell_tables`, concatenated."""
    return RecordTable.concat(cell_tables(cfg, dataset, jobs))
