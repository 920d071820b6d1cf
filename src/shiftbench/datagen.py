"""Synthetic Gaussian-mixture generation and star-rated review ingestion.

Synthetic datasets are mixtures of axis-aligned Gaussian clusters, each
carrying a class label (binary or 1..5 stars) and a category tag.  Dataset
files are line-delimited JSON: ``write_dataset`` writes feature rows and
``load_dataset`` reads feature rows or reviews, taking the sha256 of the
bytes it parses.  A review corpus is tokenised as it is read: each kept
review's text goes straight into ``count_terms``, which turns it into a row
of raw term counts, with columns in sorted term order; of the review, only
its stars and category are kept besides.  ``fit_vocabulary`` and
``vectorise`` then work on rows of those counts, turning each draw into
L2-normalised tf-idf vectors with a vocabulary fitted on its training
documents only.  Counting reviews that no draw holds adds only columns that
no vocabulary selects, so the vectors do not depend on them.

Tokens are the maximal runs of ASCII ``[0-9a-z]`` in the lowercased text;
every other character, non-ASCII ones included, separates tokens.
``count_terms`` works through ``COUNT_BLOCK`` documents at a time, counting
a block's tokens in a few array calls; the bound keeps only one block's
texts and token lists alive, so memory stays close to that of the counts
themselves, when loading a corpus too.
A row's L2 norm is ``math.sqrt(row.dot(row))``: the dot product and the
correctly rounded square root that ``np.linalg.norm`` computes.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .core import CATEGORIES, BinaryDataset, EmptyDatasetError, StarDataset, TermCounts

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
        if not isinstance(self.text, str):
            raise ValueError(f"review text must be a string, got {type(self.text).__name__}")
        if not self.text:
            raise ValueError("review text must be non-empty")
        if self.stars not in (1, 2, 3, 4, 5):
            raise ValueError(f"stars must be in 1..5, got {self.stars}")
        if self.category not in CATEGORIES:
            raise ValueError(f"category must be in {CATEGORIES}, got {self.category!r}")
        if self.useful_votes < 0:
            raise ValueError("useful_votes must be >= 0")


def _kept(review: RawReview) -> bool:
    return len(review.text) >= MIN_REVIEW_CHARS and review.useful_votes >= 1


def filter_reviews(reviews: Iterable[RawReview]) -> list[RawReview]:
    """Keep reviews of at least 200 characters that got at least one vote."""
    return list(filter(_kept, reviews))


def reviews_to_dataset(reviews: Iterable[RawReview]) -> StarDataset:
    """Pack reviews into a star dataset whose payload is their term counts.

    Each text is counted as ``reviews`` yields it, ``COUNT_BLOCK`` at a
    time, and then let go; only the stars and the category are kept."""
    stars, categories = [], []

    def texts():
        for review in reviews:
            stars.append(review.stars)
            categories.append(review.category)
            yield review.text

    counts = count_terms(texts())
    if not stars:
        raise EmptyDatasetError("no reviews to pack")
    return StarDataset(counts, np.array(stars), np.array(categories))


def write_dataset(dataset: StarDataset | BinaryDataset, path: str | Path):
    """Write ``dataset`` as JSONL, one ``{"features": [...], "label" or
    "stars": ..., "category": ...}`` object per line, the bytes ``json.dumps``
    writes for it.  A dataset's features are finite, so ``repr`` writes each
    as ``json.dumps`` does."""
    if isinstance(dataset, StarDataset):
        key, labels = "stars", dataset.stars.tolist()
    else:
        key, labels = "label", dataset.labels.tolist()
    categories = dataset.category.tolist()
    quoted = {category: json.dumps(category) for category in set(categories)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for features, label, category in zip(dataset.x.tolist(), labels, categories):
            fh.write(f'{{"features": [{", ".join(map(repr, features))}], '
                     f'"{key}": {label}, "category": {quoted[category]}}}\n')


def load_dataset(path: str | Path) -> tuple[StarDataset | BinaryDataset, str]:
    """Load a JSONL dataset file and the sha256 of its bytes.

    Blank lines are skipped and the first other line tells the kind: ``text``
    starts a review corpus, filtered as ``filter_reviews`` does and counted
    by ``reviews_to_dataset`` as it is read; otherwise rows hold
    ``features`` and ``stars`` (if the first row has them) or ``label``.
    The file is read once, as UTF-8 with universal newlines, and each row is
    checked as it is read: the first line in file order that is not a
    datapoint or a review, or is not UTF-8, is refused by its number.
    """
    sha256 = hashlib.sha256()
    with open(path, "rb") as fh:
        lines = ((i, line) for i, line in enumerate(_text_lines(path, fh, sha256), 1)
                 if line.strip())
        first_no, first = next(lines, (0, ""))
        if not first:
            raise ValueError(f"{path}: empty dataset")
        try:
            probe = json.loads(first)
        except json.JSONDecodeError:
            probe = {}  # read as a dense row, whose check names the error
        if not isinstance(probe, dict):
            raise ValueError(f"{path}: line {first_no}: expected a JSON object")
        lines = itertools.chain([(first_no, first)], lines)
        if "text" in probe:
            try:
                dataset = reviews_to_dataset(filter(_kept, _reviews(path, lines)))
            except EmptyDatasetError:
                raise ValueError(f"{path}: every review was filtered out") from None
        else:
            dataset = _vectors(path, lines, "stars" if "stars" in probe else "label")
    return dataset, sha256.hexdigest()


def _text_lines(path, fh, sha256) -> Iterator[str]:
    """Each line of the binary file ``fh``, decoded, ending in ``\\n`` as LF,
    CR LF and CR breaks all read in text mode; every byte read is added to
    ``sha256``.  Each 64 KB read is cut after its last CR or LF, bytes no
    UTF-8 sequence holds, and a CR that ends a read waits for the next, so
    no CR LF pair is split.  A batch that is not UTF-8 yields the lines
    before its first bad byte, then raises naming that byte's line."""
    line_no, held = 0, bytearray()
    while True:
        chunk = fh.read(1 << 16)
        sha256.update(chunk)
        start = max(len(held) - 1, 0)  # a held CR may end a line
        held += chunk
        end = len(held) - held.endswith(b"\r")
        cut = max(held.rfind(b"\n", start, end), held.rfind(b"\r", start, end)) + 1
        batch, held = (held[:cut], held[cut:]) if chunk else (held, None)
        try:
            text, bad = batch.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            text, bad = batch[:exc.start].decode("utf-8"), exc
        lines = io.StringIO(text, newline=None).readlines()
        if bad and lines and not lines[-1].endswith("\n"):
            lines.pop()  # the start of the bad byte's line
        yield from lines
        line_no += len(lines)
        if bad:
            raise ValueError(f"{path}: line {line_no + 1}: not UTF-8: {bad.reason}")
        if not chunk:
            return


def _reviews(path, lines):
    """Each review line as a ``RawReview``: text, stars, category, useful_votes."""
    for line_no, line in lines:
        try:
            d = json.loads(line.strip())
            review = RawReview(d["text"], _integer(d, "stars"), d["category"],
                               _integer(d, "useful_votes"))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{line_no}: malformed review record: {exc}") from None
        yield review


def _integer(record: dict, key: str) -> int:
    """``record[key]``, a JSON number with no fraction, as an int (``4.0``
    reads as 4); a boolean, a string, null, NaN or an infinity is refused."""
    value = record[key]
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


#: Each dense label field's allowed values and the problem a row outside them has.
_LABELS = {"label": ((0, 1), "label must be 0 or 1"),
           "stars": ((1, 2, 3, 4, 5), "stars must be an integer in 1..5")}


def _vectors(path, lines, label: str) -> StarDataset | BinaryDataset:
    # each row is checked as it is parsed, and the first bad one raises
    # naming its line; a good row's features go straight into one array
    values, labels, categories = array("d"), [], []
    width = None
    for line_no, line in lines:
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {line_no}: malformed JSON: {exc.msg} "
                             f"at column {exc.colno}") from None
        problem = _row_problem(row, label, width)
        if problem:
            raise ValueError(f"{path}: line {line_no}: {problem}")
        width = len(row["features"])
        values.extend(row["features"])
        labels.append(row[label])
        categories.append(row.get("category", "A"))
    x = np.frombuffer(values).reshape(len(labels), width)
    y, category = np.array(labels), np.array(categories)
    if label == "stars":
        return StarDataset(x, y, category)
    return BinaryDataset(x, y, category)


def _row_problem(row, label: str, width: int | None) -> str | None:
    """The first problem of a parsed dense row, or None; ``width`` is the
    first row's number of features (None for the first row itself)."""
    for key in ("features", label):
        if type(row) is not dict or key not in row:
            return f"missing field {key!r}"
    features = row["features"]
    if type(features) is not list or not {int, float}.issuperset(map(type, features)):
        return "features must be a list of numbers"
    if width is not None and len(features) != width:
        return f"{len(features)} features, expected {width}"
    try:
        if not all(map(math.isfinite, features)):
            return "non-finite feature value"
    except OverflowError:  # an integer too large for a float
        return "non-finite feature value"
    allowed, problem = _LABELS[label]
    if type(row[label]) is not int or row[label] not in allowed:
        return problem
    if row.get("category", "A") not in CATEGORIES:
        return f"categories must be in {CATEGORIES}"
    return None


def tokenise(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming, no stopwords.

    A non-ASCII character encodes as ``?`` and so separates tokens, like
    every other character outside [0-9a-z].
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def count_terms(texts: Iterable[str]) -> TermCounts:
    """Tokenise each document once into a row of raw term counts.

    Columns are numbered by the terms in sorted order.  ``texts`` is read
    ``COUNT_BLOCK`` documents at a time, and each block is counted under
    provisional term ids with one ``np.unique`` over (document, id) keys;
    the ids are renumbered at the end.
    """
    ids: dict[str, int] = {}
    columns, counts, indptr = array("i"), array("i"), array("q", [0])
    texts = iter(texts)
    while docs := [tokenise(text) for text in itertools.islice(texts, COUNT_BLOCK)]:
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
