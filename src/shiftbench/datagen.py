"""Synthetic Gaussian-mixture generation and star-rated review ingestion.

Synthetic datasets are mixtures of axis-aligned Gaussian clusters, each
carrying a class label (binary or 1..5 stars) and a category tag.  Review
corpora are read from line-delimited JSON.  ``count_terms`` tokenises each
document once into a row of raw term counts, with columns in sorted term
order; ``fit_vocabulary`` and ``vectorise`` then work on rows of those
counts, turning each draw into L2-normalised tf-idf vectors with a
vocabulary fitted on its training documents only.

Tokens are the maximal runs of ASCII ``[0-9a-z]`` in the lowercased text;
every other character, non-ASCII ones included, separates tokens.
``count_terms`` works through ``COUNT_BLOCK`` documents at a time, counting
a block's tokens in a few array calls; the bound keeps only one block's
token lists alive, so memory stays close to that of the counts themselves.
A row's L2 norm is ``math.sqrt(row.dot(row))``: the dot product and the
correctly rounded square root that ``np.linalg.norm`` computes.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .core import BinaryDataset, EmptyDatasetError, StarDataset, TermCounts

#: Byte table mapping every byte outside [0-9a-z] to a space.
_TOKEN_BYTES = bytes(
    c if chr(c) in "0123456789abcdefghijklmnopqrstuvwxyz" else 32 for c in range(256)
)

#: Documents tokenised and counted together by ``count_terms``.
COUNT_BLOCK = 100

MIN_REVIEW_CHARS = 200


@dataclass(frozen=True)
class ClusterSpec:
    """One axis-aligned Gaussian cluster of a synthetic mixture.

    Exactly one of ``label`` (binary) or ``stars`` (1..5) must be set; a
    mixture must use the same labelling scheme for every cluster.
    """

    mean: np.ndarray
    variance: np.ndarray
    weight: float
    category: str = "A"
    label: int | None = None
    stars: int | None = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        variance = np.asarray(self.variance, dtype=float).ravel()
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)
        if mean.shape != variance.shape:
            raise ValueError("mean and variance must have the same dimensionality")
        if not (variance > 0).all():
            raise ValueError("variances must be strictly positive")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if (self.label is None) == (self.stars is None):
            raise ValueError("exactly one of label/stars must be given")
        if self.label is not None and self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if self.stars is not None and self.stars not in (1, 2, 3, 4, 5):
            raise ValueError("stars must be in 1..5")

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterSpec":
        return cls(
            mean=np.asarray(d["mean"], dtype=float),
            variance=np.asarray(d["variance"], dtype=float),
            weight=float(d["weight"]),
            category=d.get("category", "A"),
            label=d.get("label"),
            stars=d.get("stars"),
        )


def generate_mixture(
    specs: Sequence[ClusterSpec], n: int, seed: int
) -> StarDataset | BinaryDataset:
    """Draw ``n`` points from a weighted mixture of diagonal Gaussians.

    Each point picks a cluster with probability proportional to its weight,
    then samples independently per coordinate; label/category are copied
    from the chosen cluster.  Bit-reproducible for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not specs:
        raise ValueError("at least one cluster spec is required")
    star_mode = specs[0].stars is not None
    if any((s.stars is not None) != star_mode for s in specs):
        raise ValueError("clusters must all use labels or all use stars")
    weights = np.array([s.weight for s in specs], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"cluster weights must sum to 1, got {weights.sum()}")
    dim = specs[0].mean.shape[0]
    if any(s.mean.shape[0] != dim for s in specs):
        raise ValueError("all clusters must share one dimensionality")

    rng = np.random.default_rng(seed)
    assignment = rng.choice(len(specs), size=n, p=weights)
    noise = rng.standard_normal((n, dim))
    means = np.stack([s.mean for s in specs])[assignment]
    stds = np.sqrt(np.stack([s.variance for s in specs]))[assignment]
    x = means + stds * noise
    category = np.array([s.category for s in specs])[assignment]
    if star_mode:
        stars = np.array([s.stars for s in specs])[assignment]
        return StarDataset(x, stars, category)
    labels = np.array([s.label for s in specs])[assignment]
    return BinaryDataset(x, labels, category)


@dataclass(frozen=True)
class RawReview:
    """A star-rated product review before filtering/featurisation."""

    text: str
    stars: int
    category: str
    useful_votes: int

    def __post_init__(self):
        if not self.text:
            raise ValueError("review text must be non-empty")
        if self.stars not in (1, 2, 3, 4, 5):
            raise ValueError(f"stars must be in 1..5, got {self.stars}")
        if self.useful_votes < 0:
            raise ValueError("useful_votes must be >= 0")


def filter_reviews(reviews: Iterable[RawReview]) -> list[RawReview]:
    """Keep reviews of at least 200 characters that got at least one vote."""
    return [
        r
        for r in reviews
        if len(r.text) >= MIN_REVIEW_CHARS and r.useful_votes >= 1
    ]


def reviews_to_dataset(reviews: Sequence[RawReview]) -> StarDataset:
    """Pack reviews into a star dataset whose payload is the raw texts."""
    if not reviews:
        raise EmptyDatasetError("no reviews to pack")
    texts = np.array([r.text for r in reviews], dtype=object)
    return StarDataset(
        texts,
        np.array([r.stars for r in reviews]),
        np.array([r.category for r in reviews]),
    )


def load_reviews_jsonl(path: str | Path) -> list[RawReview]:
    """Read one JSON review per line: text, stars, category, useful_votes."""
    reviews = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                reviews.append(
                    RawReview(
                        text=d["text"],
                        stars=int(d["stars"]),
                        category=d["category"],
                        useful_votes=int(d["useful_votes"]),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed review record: {exc}")
    return reviews


def tokenise(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming, no stopwords.

    A non-ASCII character encodes as ``?`` and so separates tokens, like
    every other character outside [0-9a-z].
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def count_terms(texts: Sequence[str]) -> TermCounts:
    """Tokenise each document once into a row of raw term counts.

    Columns are numbered by the terms in sorted order.  Each block of
    ``COUNT_BLOCK`` documents is counted under provisional term ids with
    one ``np.unique`` over (document, id) keys; the ids are renumbered at
    the end.
    """
    ids: dict[str, int] = {}
    columns, counts, indptr = array("i"), array("i"), array("q", [0])
    for start in range(0, len(texts), COUNT_BLOCK):
        docs = [tokenise(text) for text in texts[start:start + COUNT_BLOCK]]
        tokens = [t for doc in docs for t in doc]
        fresh = sorted(set(tokens).difference(ids))
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        width = max(len(ids), 1)
        doc = np.repeat(np.arange(len(docs), dtype=np.int64), [len(d) for d in docs])
        doc *= width
        doc += np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
        keys, tally = np.unique(doc, return_counts=True)
        columns.frombytes((keys % width).astype(np.int32).tobytes())
        counts.frombytes(tally.astype(np.int32).tobytes())
        row_ends = np.cumsum(np.bincount(keys // width, minlength=len(docs))) + indptr[-1]
        indptr.frombytes(row_ends.astype(np.int64).tobytes())
    terms = sorted(ids)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[ids[t] for t in terms]] = np.arange(len(terms), dtype=np.int32)
    matrix = sparse.csr_matrix(
        (np.asarray(counts, dtype=np.int32), rank[np.asarray(columns, dtype=np.int32)],
         np.asarray(indptr)),
        shape=(len(indptr) - 1, len(terms)),
    )
    matrix.sort_indices()
    return TermCounts(matrix, tuple(terms))


@dataclass(frozen=True)
class Vocabulary:
    """Terms fitted on training documents only, as columns of their term counts.

    ``space`` is the term list of the counts it was fitted on; vocabulary
    term i is column ``columns[i]`` of that space (ascending, so vocabulary
    order is sorted term order).  ``doc_freq[i]`` is the number of training
    documents containing term i; idf uses the smoothed form
    ln((1 + N) / (1 + df)) + 1.
    """

    space: tuple[str, ...]
    columns: np.ndarray
    doc_freq: np.ndarray
    n_docs: int

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(self.space[c] for c in self.columns)

    @property
    def idf(self) -> np.ndarray:
        return np.log((1.0 + self.n_docs) / (1.0 + self.doc_freq)) + 1.0


def fit_vocabulary(docs: TermCounts, min_count: int = 3) -> Vocabulary:
    """Keep the terms occurring at least ``min_count`` times in ``docs``.

    Counts are total occurrences across the documents; document frequency
    is the number of documents whose row holds the term.
    """
    n_docs, n_terms = docs.shape
    if n_docs == 0:
        raise EmptyDatasetError("cannot fit a vocabulary on an empty corpus")
    m = docs.counts
    totals = np.bincount(m.indices, weights=m.data, minlength=n_terms)
    columns = np.flatnonzero(totals >= min_count)
    if len(columns) == 0:
        raise EmptyDatasetError(
            f"no term occurs at least {min_count} times in the training corpus"
        )
    doc_freq = np.bincount(m.indices, minlength=n_terms)[columns]
    return Vocabulary(space=docs.terms, columns=columns, doc_freq=doc_freq, n_docs=n_docs)


def vectorise(docs: TermCounts, vocab: Vocabulary) -> sparse.csr_matrix:
    """tf-idf vectors (raw counts x smoothed idf), each row L2-normalised.

    Out-of-vocabulary terms are ignored; a document with no in-vocabulary
    terms maps to the zero vector.
    """
    if docs.terms != vocab.space:
        raise ValueError("documents and vocabulary are counted over different terms")
    m = docs.counts
    position = np.full(len(docs.terms), -1)
    position[vocab.columns] = np.arange(len(vocab))
    column = position[m.indices]
    kept = column >= 0
    column = column[kept]
    data = m.data[kept] * vocab.idf[column]
    indptr = np.concatenate(([0], np.cumsum(kept)))[m.indptr]
    bounds = indptr.tolist()
    rows = map(data.__getitem__, map(slice, bounds, bounds[1:]))
    norms = [math.sqrt(row.dot(row)) for row in rows]
    data /= np.repeat(norms, np.diff(indptr))  # an empty row has norm 0 and no values
    return sparse.csr_matrix((data, column, indptr), shape=(len(docs), len(vocab)))


def load_cluster_specs(path: str | Path) -> list[ClusterSpec]:
    """Read a JSON list of cluster specs (mean, variance, weight, ...)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError("cluster spec file must hold a non-empty JSON list")
    return [ClusterSpec.from_dict(d) for d in raw]
