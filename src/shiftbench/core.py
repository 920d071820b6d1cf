"""Core data types: star-rated and binary datasets, pools, and controlled sampling.

Datasets are column-oriented: a payload ``x`` (dense matrix, sparse matrix,
or the term counts of tokenised texts), plus parallel label/category arrays.
A pool is a set of indices into a dataset it shares, and a draw's rows are
gathered once, with ``x[idx]``.  Sampling is pure in (pool, seed) and
mutates nothing, so pools can be shared freely across concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse

CATEGORIES = ("A", "B")


class EmptyDatasetError(ValueError):
    """Raised when an operation would produce or consume an empty dataset."""


class StratificationError(ValueError):
    """Raised when a stratified split is impossible (a class is too small)."""


class PoolExhaustionError(ValueError):
    """Raised when a pool cannot supply the requested number of items.

    ``label_name`` identifies the class that ran out ("positive"/"negative",
    or a star value for star-labelled pools).
    """

    def __init__(self, label_name: str, requested: int, available: int):
        self.label_name = label_name
        self.requested = requested
        self.available = available
        super().__init__(
            f"pool exhausted: need {requested} {label_name} items, "
            f"only {available} available"
        )

    def __reduce__(self):
        # rebuilt from its fields, so it survives the trip back from a pool worker
        return type(self), (self.label_name, self.requested, self.available)


def round_half_up(value: float) -> int:
    """Round to the nearest integer, with .5 going up.

    A 1e-9 guard absorbs float noise in products of grid fractions
    (e.g. 0.3 * 5000) whose exact value is integral or half-integral.
    """
    return int(math.floor(value + 0.5 + 1e-9))


@dataclass(frozen=True)
class TermCounts:
    """Raw term counts of tokenised documents: one CSR row per document.

    Column j counts ``terms[j]``; terms are in sorted order and each row's
    column indices ascend, so a subset of columns keeps sorted term order.
    Rows are taken with ``counts[indices]``; every row set taken from one
    matrix shares its ``terms``.
    """

    counts: sparse.csr_matrix
    terms: tuple[str, ...]

    def __post_init__(self):
        if self.counts.shape[1] != len(self.terms):
            raise ValueError("term counts need one column per term")

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, indices) -> "TermCounts":
        return TermCounts(self.counts[indices], self.terms)


def _as_payload(x: Any) -> Any:
    """``x`` as a dataset holds it; ``ValueError`` names the dtype of a
    payload of strings or objects, or the first row with a NaN or an inf."""
    if isinstance(x, TermCounts):
        return x
    if hasattr(x, "tocsr"):  # scipy sparse matrix: check its stored values
        x = x.tocsr()
        rows = np.searchsorted(x.indptr, np.flatnonzero(~np.isfinite(x.data)), side="right") - 1
    else:
        array = np.asarray(x)
        if array.dtype.kind in ("U", "S", "O"):
            raise ValueError(f"x: a payload must hold numbers, not dtype {array.dtype}")
        x = array if isinstance(x, np.ndarray) else array.astype(float)
        if x.dtype.kind not in ("f", "c"):
            return x
        rows = np.flatnonzero(~np.isfinite(x).all(axis=tuple(range(1, x.ndim))))
    if len(rows):
        raise ValueError(f"x: row {rows[0]} holds a non-finite feature value")
    return x


@dataclass(frozen=True)
class StarDataset:
    """Star-labelled items: payload + stars in 1..5 + category tags."""

    x: Any
    stars: np.ndarray
    category: np.ndarray

    def __post_init__(self):
        stars = np.asarray(self.stars, dtype=int)
        category = np.asarray(self.category)
        object.__setattr__(self, "x", _as_payload(self.x))
        object.__setattr__(self, "stars", stars)
        object.__setattr__(self, "category", category)
        n = self.x.shape[0]
        if len(stars) != n or len(category) != n:
            raise ValueError("x, stars and category must have equal length")
        if n and (stars.min() < 1 or stars.max() > 5):
            raise ValueError("stars must lie in 1..5")
        if n and not np.isin(category, CATEGORIES).all():
            raise ValueError(f"categories must be in {CATEGORIES}")

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, indices: np.ndarray) -> "StarDataset":
        indices = np.asarray(indices)
        return StarDataset(self.x[indices], self.stars[indices], self.category[indices])


@dataclass(frozen=True)
class BinaryDataset:
    """Binary-labelled items; label 1 is the positive class."""

    x: Any
    labels: np.ndarray
    category: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "x", _as_payload(self.x))
        object.__setattr__(self, "labels", labels)
        n = self.x.shape[0]
        if len(labels) != n:
            raise ValueError("x and labels must have equal length")
        if n and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if self.category is not None:
            category = np.asarray(self.category)
            object.__setattr__(self, "category", category)
            if len(category) != n:
                raise ValueError("category must match dataset length")
            if n and not np.isin(category, CATEGORIES).all():
                raise ValueError(f"categories must be in {CATEGORIES}")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def prevalence(self) -> float:
        return float(self.labels.sum() / len(self))


@dataclass(frozen=True)
class Pool:
    """A labelled reservoir from which samples are drawn without replacement.

    ``index`` holds the pool's items as ascending indices into ``dataset``
    (all of them by default), split by label into ``positive_index`` and
    ``negative_index``.  Immutable; drawing is pure given (pool, seed).
    """

    dataset: BinaryDataset
    index: np.ndarray | None = None
    positive_index: np.ndarray = field(init=False)
    negative_index: np.ndarray = field(init=False)

    def __post_init__(self):
        index = np.arange(len(self.dataset)) if self.index is None else np.asarray(self.index)
        labels = self.dataset.labels[index]
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "positive_index", index[labels == 1])
        object.__setattr__(self, "negative_index", index[labels == 0])

    def __len__(self) -> int:
        return len(self.index)

    @property
    def prevalence(self) -> float:
        return self.n_positive / len(self)

    @property
    def n_positive(self) -> int:
        return len(self.positive_index)

    @property
    def n_negative(self) -> int:
        return len(self.negative_index)


@dataclass(frozen=True)
class Sample:
    """A drawn sample; labels are kept for scoring but hidden from quantifiers.

    ``true_prevalence`` is exactly (count of label-1) / size.
    """

    x: Any
    labels: np.ndarray
    true_prevalence: float = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise EmptyDatasetError("a sample must contain at least one datapoint")
        object.__setattr__(self, "true_prevalence", float(labels.sum() / len(labels)))

    def __len__(self) -> int:
        return len(self.labels)


def binarise_dataset(data: StarDataset, cut_point: float) -> BinaryDataset:
    """Binarise a star-labelled dataset at ``cut_point``.

    Items with stars above the cut point become positive (label 1), items
    below become negative, and items exactly at the cut point are dropped.
    Integer cut points therefore shrink the dataset; half-integer cut points
    (e.g. 2.5) keep every item.
    """
    if not 1 < cut_point < 5:
        raise ValueError(f"cut_point must lie strictly between 1 and 5, got {cut_point}")
    if len(data) == 0:
        raise EmptyDatasetError("cannot binarise an empty dataset")
    stars = data.stars.astype(float)
    keep = stars != cut_point
    if not keep.any():
        raise EmptyDatasetError(
            f"binarising at cut_point={cut_point} removed every datapoint"
        )
    indices = np.flatnonzero(keep)
    labels = (stars[indices] > cut_point).astype(int)
    return BinaryDataset(data.x[indices], labels, data.category[indices])


def stratified_split_indices(
    labels: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into two disjoint, jointly exhaustive groups.

    Each distinct label contributes ``round_half_up(fraction * count)`` items
    to the first group, so both groups preserve the label mix to within one
    item per class.  Deterministic given ``seed``.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie strictly in (0, 1), got {fraction}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    first_parts, second_parts = [], []
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        if len(members) < 2:
            raise StratificationError(
                f"class {value} has {len(members)} member(s); "
                "need at least 2 to stratify"
            )
        shuffled = rng.permutation(members)
        k = round_half_up(fraction * len(members))
        k = min(max(k, 1), len(members) - 1)  # both sides keep >= 1 of each class
        first_parts.append(shuffled[:k])
        second_parts.append(shuffled[k:])
    return np.sort(np.concatenate(first_parts)), np.sort(np.concatenate(second_parts))


def split_stratified(
    data: BinaryDataset, fraction: float, seed: int
) -> tuple[Pool, Pool]:
    """Split a binary dataset into two label-stratified pools over it."""
    first, second = stratified_split_indices(data.labels, fraction, seed)
    return Pool(data, first), Pool(data, second)


def draw_stratified(strata, seed: int) -> np.ndarray:
    """Indices drawn from each stratum in turn, then shuffled together.

    ``strata`` lists (label name, indices, count): ``count`` of ``indices``
    are drawn uniformly without replacement, by one ``default_rng(seed)`` in
    stratum order; a zero count draws nothing (a choice of none consumes no
    randomness).  The first count above its stratum's size raises
    ``PoolExhaustionError`` naming its label, before any draw.
    """
    for label_name, indices, count in strata:
        if count > len(indices):
            raise PoolExhaustionError(label_name, count, len(indices))
    rng = np.random.default_rng(seed)
    chosen = np.concatenate([
        rng.choice(indices, count, replace=False) for _, indices, count in strata if count
    ]).astype(int)
    rng.shuffle(chosen)
    return chosen


def draw_indices(pool: Pool, prevalence: float, size: int, seed: int) -> np.ndarray:
    """Indices of ``size`` items drawn at a controlled positive prevalence.

    Exactly ``round_half_up(prevalence * size)`` positives are drawn, the rest
    negatives, uniformly without replacement within each class.  Successive
    calls with different seeds may reuse pool items.
    """
    if not 0 <= prevalence <= 1:
        raise ValueError(f"prevalence must lie in [0, 1], got {prevalence}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n_pos = round_half_up(prevalence * size)
    return draw_stratified((("positive", pool.positive_index, n_pos),
                            ("negative", pool.negative_index, size - n_pos)), seed)


def sample_at_prevalence(pool: Pool, prevalence: float, size: int, seed: int) -> Sample:
    """The rows of ``draw_indices(pool, prevalence, size, seed)``."""
    chosen = draw_indices(pool, prevalence, size, seed)
    return Sample(pool.dataset.x[chosen], pool.dataset.labels[chosen])
