"""Binary prevalence estimators behind a uniform fit/quantify/aggregate interface.

Methods
-------
MLPE   constant baseline returning the training prevalence
CC     fraction of crisp positive predictions
ACC    CC corrected by cross-validated tpr/fpr (crisp rates)
PCC    mean posterior probability
PACC   PCC corrected by posterior-averaged tpr/fpr
SMM    matches the sample's mean posterior to the class-wise training means
DyS    minimises a histogram divergence between a two-class mixture of
       training posteriors and the test posteriors (Topsoe distance)
HDy    DyS with the Hellinger distance
SLD    expectation-maximisation rescaling of posteriors and prior

Every method aggregates the posteriors of one L2 logistic classifier (MLPE
ignores them).  ``fit`` trains that classifier and whatever out-of-fold
evidence the method needs; ``aggregate_many(list of posteriors)`` turns each
sample's posteriors into an estimate in [0, 1], in order.  It stacks samples
of one length into a matrix, one row per sample, and estimates each matrix
in one pass of array operations: row sums and row means for CC, ACC, PCC,
PACC and SMM, one pass of histograms and one mixture search for DyS and HDy,
one EM loop for SLD.  A row's estimate equals the estimate of that sample
alone, bit for bit.  ``aggregate(posteriors)`` is ``aggregate_many`` of one
sample, and ``quantify(x)`` is ``aggregate(predict_proba(clf_, x))``.  Both
are pure: they read the fitted state and never write it, so fitted
quantifiers are immutable and safe to share across concurrent tasks, and a
harness can score a sample once and hand the same posteriors to every
method.  ``METHODS`` maps each method name to its class.

The per-sample routines are one-row calls of the batched ones:
``expectation_maximisation_prevalence`` of
``expectation_maximisation_prevalences``, ``PosteriorHistogram.from_scores``
of ``histogram_masses`` and ``mixture_fit_alpha`` of ``mixture_fit_alphas``;
the counting formulas take a sample or a matrix of samples alike.

The mixture search (``mixture_fit_alphas``) is a ternary search to 1e-6,
run for all samples at once, whose answer is checked against a window of the
1e-4 grid around it.  The objective is convex (Topsoe) or quasi-convex
(Hellinger) in the mixture weight, so when the window's edges rise, no grid
point outside it can win; a sample whose window does not certify that has
its window widened to the whole grid.  Either way the answer equals the
answer of a full grid scan, bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import (
    ClassRates,
    SoftClassifier,
    oof_posteriors_kfold,
    predict_proba,
    rates_from_posteriors,
    train,
)
from .core import EmptyDatasetError

#: tpr/fpr gaps below this are treated as degenerate and skip the adjustment.
DEGENERATE_RATE_GAP = 1e-9

EM_TOL = 1e-6
EM_MAX_ITER = 1000

TERNARY_TOL = 1e-6
GRID_STEP = 1e-4

#: The six methods compared throughout the benchmark tables.
BENCHMARK_METHODS = ("CC", "ACC", "PCC", "PACC", "DyS", "SLD")


# ---------------------------------------------------------------------------
# histograms and distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorHistogram:
    """Normalised histogram of posterior scores over a uniform [0, 1] grid.

    Bins are [e_i, e_{i+1}) with the last bin closed, so a score of exactly
    1.0 lands in the top bin.
    """

    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if len(masses) < 2:
            raise ValueError("a histogram needs at least 2 bins")
        if (masses < 0).any() or abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError("histogram masses must be >= 0 and sum to 1")

    @classmethod
    def from_scores(cls, scores: np.ndarray, bins: int) -> "PosteriorHistogram":
        """The histogram of one sample's scores: :func:`histogram_masses` of one row."""
        return cls(histogram_masses(np.asarray(scores, dtype=float)[None, :], bins)[0])


def histogram_masses(rows: np.ndarray, bins: int) -> np.ndarray:
    """The normalised histogram of each row of scores over ``bins`` uniform
    bins of [0, 1]: ``np.histogram(row, bins, range=(0, 1))`` counts divided
    by their sum, bit for bit.

    ``np.histogram``'s uniform-bin index rule runs once over the whole
    matrix: the scaled index ``x * bins`` (its ``(x - 0) / (1 - 0) * bins``),
    moved into the top bin from ``bins``, one bin down where ``x`` lies below
    its bin's lower edge and one bin up where it reaches the next edge, except
    in the closed top bin.  One ``np.bincount`` with row offsets then counts
    every row.  Scores outside [0, 1] and NaN are left out, as there.
    """
    rows = np.asarray(rows, dtype=float)
    n, size = rows.shape
    if size == 0:
        raise EmptyDatasetError("cannot build a histogram from zero scores")
    edges = np.linspace(0.0, 1.0, bins + 1)
    keep = (rows >= 0.0) & (rows <= 1.0)
    scores = np.where(keep, rows, 0.0)
    index = (scores * bins).astype(np.intp)
    index[index == bins] -= 1
    index[scores < edges[index]] -= 1
    index[(scores >= edges[index + 1]) & (index != bins - 1)] += 1
    index[~keep] = bins  # an extra column for left-out scores, dropped below
    index += np.arange(n)[:, None] * (bins + 1)
    counts = np.bincount(index.ravel(), minlength=n * (bins + 1)).reshape(n, bins + 1)[:, :bins]
    return counts / counts.sum(axis=1, keepdims=True)


def _masses(h) -> np.ndarray:
    return h.masses if isinstance(h, PosteriorHistogram) else np.asarray(h, dtype=float)


def _check_pair(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"histograms have mismatched bins: {a.shape} vs {b.shape}")


def _topsoe_rows(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Topsoe distance of each row against b, with 0*log(.) := 0."""
    b = np.broadcast_to(b, rows.shape)
    s = rows + b
    safe_s = np.where(s > 0, s, 1.0)

    def half(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = p * np.log(2.0 * p / safe_s)
        return np.where(p > 0, vals, 0.0)

    return (half(rows) + half(b)).sum(axis=-1)


def topsoe_distance(h1, h2) -> float:
    """Symmetric Kullback-Leibler-to-the-midpoint divergence (in nats)."""
    a, b = _masses(h1), _masses(h2)
    _check_pair(a, b)
    return float(_topsoe_rows(a[None, :], b)[0])


def _hellinger_rows(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = np.sqrt(rows) - np.sqrt(b)
    return np.sqrt((diff * diff).sum(axis=-1)) / np.sqrt(2.0)


def hellinger_distance(h1, h2) -> float:
    """Hellinger distance; 0 for identical histograms, 1 for disjoint ones."""
    a, b = _masses(h1), _masses(h2)
    _check_pair(a, b)
    return float(_hellinger_rows(a[None, :], b)[0])


_DISTANCES = {"topsoe": _topsoe_rows, "hellinger": _hellinger_rows}


#: The guard grid: every multiple of GRID_STEP in [0, 1].
_GRID = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)

#: Grid points on each side of the ternary answer scored for every row.
WINDOW_HALF_WIDTH = 8

#: How far a window's outermost value must exceed its inner neighbour and the
#: ternary value for the window to certify the whole grid (over 1e5 times the
#: rounding error of one distance value).
CERTIFICATE_MARGIN = 1e-9


def _score(pos, neg, tests: np.ndarray, alphas: np.ndarray, rows) -> np.ndarray:
    """The distance of each mixture alpha*pos + (1-alpha)*neg to its row's
    test: ``alphas`` holds one row of candidate weights per test, and so does
    the result."""
    mixtures = alphas[:, :, None] * pos + (1.0 - alphas)[:, :, None] * neg
    return rows(mixtures, tests[:, None, :])


def _select(pos, neg, tests, ternary, start, width: int, rows):
    """Each row's ternary answer scored with the ``width`` grid points from its
    ``start``; the lowest distance wins, the ternary answer on a tie, then the
    lowest alpha.  Returns the winners and the scores, the ternary answer's
    in column 0."""
    # column 0 is the ternary answer, so that it wins a tie with the grid;
    # columns 1..width are grid points in ascending alpha
    candidates = np.concatenate(
        (ternary[:, None], _GRID[start[:, None] + np.arange(width)]), axis=1
    )
    values = _score(pos, neg, tests, candidates, rows)
    return candidates[np.arange(len(candidates)), np.argmin(values, axis=1)], values


def mixture_fit_alphas(h_pos, h_neg, tests, distance: str = "topsoe") -> np.ndarray:
    """For each test histogram (histograms or masses, or a matrix of masses
    with one row per test), the alpha minimising
    dist(alpha*H+ + (1-alpha)*H-, H_test).

    A ternary search narrows [0, 1] down to 1e-6 for all rows at once.  Each
    row keeps stepping while its own interval is wider than the tolerance, so
    its probes and comparisons are those of a search run on it alone.  Each
    row's answer is then selected against a window of the
    ``WINDOW_HALF_WIDTH`` grid points on each side of it on the 1e-4 grid
    (:func:`_select`); every candidate, probes included, is scored by
    :func:`_score`.

    That equals selecting against the whole grid whenever the
    window is certified: on each side where it stops short of the grid's
    end, its outermost value exceeds both its inner neighbour and the
    ternary value by more than ``CERTIFICATE_MARGIN``.  Topsoe is an
    f-divergence and the mixture is affine in alpha, so the objective is
    convex in alpha; the Hellinger distance is the square root of a convex
    function, so it is quasi-convex.  Either way, a value that rises at the
    window's edge keeps rising beyond it, so every grid point outside a
    certified window lies strictly above the ternary value.  A row whose
    window is not certified (a flat objective, say) takes the same selection
    widened to the whole grid, one row at a time.  The result is
    bit-identical to the full scan.
    """
    if distance not in _DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; use one of {sorted(_DISTANCES)}")
    pos, neg = _masses(h_pos), _masses(h_neg)
    _check_pair(pos, neg)
    if isinstance(tests, np.ndarray):
        tests = np.asarray(tests, dtype=float)
    else:
        tests = np.array([_masses(t) for t in tests], dtype=float)
    n = len(tests)
    if n == 0:
        return np.empty(0)
    _check_pair(pos, tests[0])
    rows = _DISTANCES[distance]

    lo, hi = np.zeros(n), np.ones(n)
    active = np.flatnonzero(hi - lo > TERNARY_TOL)
    while len(active):
        a_lo, a_hi = lo[active], hi[active]
        m1 = a_lo + (a_hi - a_lo) / 3.0
        m2 = a_hi - (a_hi - a_lo) / 3.0
        d = _score(pos, neg, tests[active], np.stack((m1, m2), axis=1), rows)
        left = d[:, 0] <= d[:, 1]
        hi[active[left]] = m2[left]
        lo[active[~left]] = m1[~left]
        active = np.flatnonzero(hi - lo > TERNARY_TOL)
    ternary = (lo + hi) / 2.0

    width = 2 * WINDOW_HALF_WIDTH + 1
    last = len(_GRID) - 1
    centre = np.rint(ternary / GRID_STEP).astype(int)
    start = np.clip(centre - WINDOW_HALF_WIDTH, 0, last + 1 - width)
    best, values = _select(pos, neg, tests, ternary, start, width, rows)

    def rises(outer, inner):
        return (values[:, outer] > values[:, inner] + CERTIFICATE_MARGIN) & (
            values[:, outer] > values[:, 0] + CERTIFICATE_MARGIN
        )

    certified = (start == 0) | rises(1, 2)
    certified &= (start + width - 1 == last) | rises(width, width - 1)
    for i in np.flatnonzero(~certified):  # the window widened to the whole grid
        row = slice(i, i + 1)
        winner, _ = _select(pos, neg, tests[row], ternary[row], np.zeros(1, int), last + 1, rows)
        best[i] = winner[0]
    return best


def mixture_fit_alpha(h_pos, h_neg, h_test, distance: str = "topsoe") -> float:
    """The mixture weight alpha minimising dist(alpha*H+ + (1-alpha)*H-, H_test):
    :func:`mixture_fit_alphas` for one test histogram."""
    return float(mixture_fit_alphas(h_pos, h_neg, [h_test], distance)[0])


# ---------------------------------------------------------------------------
# prevalence formulas
# ---------------------------------------------------------------------------


def classify_and_count(hard_predictions: np.ndarray):
    """The fraction of positive predictions in a sample, or in each row of a
    matrix of samples: an integer count over the sample size."""
    preds = np.asarray(hard_predictions)
    if preds.shape[-1] == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    return preds.sum(axis=-1) / preds.shape[-1]


def probabilistic_classify_and_count(posteriors: np.ndarray):
    """The mean posterior of a sample, or of each row of a matrix of samples
    (the mean of a C-contiguous row equals the mean of that row alone, bit
    for bit)."""
    posteriors = np.ascontiguousarray(posteriors, dtype=float)
    if posteriors.shape[-1] == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    return posteriors.mean(axis=-1)


def _clip_unit(values):
    """``min(max(v, 0.0), 1.0)`` of a value or of each value of an array;
    -0.0 and NaN pass through unchanged, as they do there."""
    values = np.where(values < 0.0, 0.0, values)
    values = np.where(values > 1.0, 1.0, values)
    return values if values.ndim else float(values)


def adjust_prevalence(base_estimate, rates: ClassRates):
    """(base - fpr) / (tpr - fpr), clipped to [0, 1], of a value or of each
    value of an array.

    A near-zero denominator means the rates carry no usable signal; the
    unadjusted estimate is returned instead.
    """
    base = np.asarray(base_estimate, dtype=float)
    gap = rates.tpr - rates.fpr
    if abs(gap) < DEGENERATE_RATE_GAP:
        return _clip_unit(base)
    return _clip_unit((base - rates.fpr) / gap)


def mean_matching_prevalence(test_mean, positive_mean: float, negative_mean: float):
    """Where the sample's mean posterior falls between the class-wise means,
    for a value or for each value of an array.

    Solves test_mean = alpha * positive_mean + (1 - alpha) * negative_mean
    for alpha, clipped to [0, 1]; coincident class means carry no signal and
    return the test mean itself.
    """
    test_mean = np.asarray(test_mean, dtype=float)
    spread = positive_mean - negative_mean
    if abs(spread) < DEGENERATE_RATE_GAP:
        return _clip_unit(test_mean)
    return _clip_unit((test_mean - negative_mean) / spread)


def expectation_maximisation_prevalence(
    posteriors: np.ndarray,
    train_prevalence: float,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
) -> tuple[float, bool, int]:
    """Jointly rescale posteriors and re-estimate the prior to a fixed point.

    Starting from the training prevalence, each step rescales every posterior
    by the ratio of current to training priors and replaces the prior with
    the mean rescaled posterior, until that mean moves by less than ``tol``
    (so the returned value is within tol of the mean of its own recalibrated
    posteriors) or ``max_iter`` steps elapse.  A prior at 0 or 1 is an
    absorbing endpoint and stops the loop.  This is
    :func:`expectation_maximisation_prevalences` of one row.

    Returns (prevalence, converged, iterations).
    """
    p, converged, iterations = expectation_maximisation_prevalences(
        np.asarray(posteriors, dtype=float)[None, :], train_prevalence, tol, max_iter
    )
    return float(p[0]), bool(converged[0]), int(iterations[0])


def expectation_maximisation_prevalences(
    rows: np.ndarray,
    train_prevalence: float,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The EM fixed point of each row of a matrix of posteriors, one sample
    per row, in one loop.

    Each step updates only the rows still running.  A row stops, converged,
    before a step when its prior sits at 0 or 1, and after a step that moves
    its prior by less than ``tol`` (keeping the prior it had); a row still
    running after ``max_iter`` steps stops unconverged at its last prior.
    Every operation on a row is elementwise or a mean over that row alone,
    so each row's sequence of priors is the one it has on its own.

    Returns (prevalences, converged, iterations), one entry per row.
    """
    if not 0.0 < train_prevalence < 1.0:
        raise ValueError(
            f"training prevalence must lie strictly in (0, 1), got {train_prevalence}"
        )
    rows = np.ascontiguousarray(rows, dtype=float)  # keeps each step's row means row-wise
    n, size = rows.shape
    if size == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    p = np.full(n, float(train_prevalence))
    converged = np.zeros(n, dtype=bool)
    iterations = np.full(n, max_iter)
    # the running rows: their indices, posteriors and 1 - posteriors
    active, s, rest = np.arange(n), rows, 1.0 - rows

    def stop(done, iteration):
        nonlocal active, s, rest
        converged[active[done]] = True
        iterations[active[done]] = iteration
        keep = ~done
        active, s, rest = active[keep], s[keep], rest[keep]

    for iteration in range(max_iter):
        at_end = (p[active] <= 0.0) | (p[active] >= 1.0)  # absorbing endpoints
        if at_end.any():
            stop(at_end, iteration)
        if not len(active):
            break
        q = p[active]
        num = (q / train_prevalence)[:, None] * s
        den = ((1.0 - q) / (1.0 - train_prevalence))[:, None] * rest
        den += num
        m = np.divide(num, den, out=num).mean(axis=1)
        settled = np.abs(m - q) < tol
        p[active[~settled]] = m[~settled]
        if settled.any():
            stop(settled, iteration)
    return p, converged, iterations


# ---------------------------------------------------------------------------
# fitted evidence shared by the aggregative methods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainedEvidence:
    """A trained classifier plus the cross-validated evidence methods draw on.

    ``clf`` is None when no method needs a classifier; ``oof_posteriors``
    holds one out-of-fold posterior per training item and is only
    materialised when some method needs it.
    """

    clf: SoftClassifier | None
    labels: np.ndarray
    train_prevalence: float
    oof_posteriors: np.ndarray | None


def fit_evidence(
    x,
    labels: np.ndarray,
    C: float = 1.0,
    class_weight: str | None = None,
    folds: int = 10,
    seed: int = 0,
    need_oof: bool = True,
    need_classifier: bool = True,
) -> TrainedEvidence:
    """Train the classifier (and, if needed, its k-fold out-of-fold posteriors)."""
    labels = np.asarray(labels, dtype=int)
    clf = train(x, labels, C=C, class_weight=class_weight) if need_classifier else None
    oof = (
        oof_posteriors_kfold(x, labels, folds, C, class_weight, seed)
        if need_oof
        else None
    )
    return TrainedEvidence(
        clf=clf,
        labels=labels,
        train_prevalence=float(labels.sum() / len(labels)),
        oof_posteriors=oof,
    )


# ---------------------------------------------------------------------------
# quantifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorRows:
    """A list of samples' posteriors as matrices of equal-length rows.

    ``groups`` holds, per distinct sample length in order of first
    appearance, the positions of those samples in the list and their
    posteriors stacked as the C-contiguous rows of one matrix.
    """

    count: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return self.count

    @classmethod
    def stack(cls, posteriors: Sequence[np.ndarray]) -> "PosteriorRows":
        samples = [np.asarray(p, dtype=float) for p in posteriors]
        by_length: dict[int, list[int]] = {}
        for i, p in enumerate(samples):
            by_length.setdefault(len(p), []).append(i)
        if 0 in by_length:
            raise EmptyDatasetError("cannot quantify an empty sample")
        return cls(len(samples), tuple(
            (np.array(positions), np.stack([samples[i] for i in positions]))
            for positions in by_length.values()
        ))


class Quantifier:
    """Base interface: fit on labelled data, then quantify feature batches.

    Subclasses implement ``_prepare`` (fitted state from evidence) and
    ``_estimate`` (one estimate per row of a matrix of posteriors, one
    sample per row).  Every method takes the same keywords: the classifier
    settings ``C``, ``class_weight`` and ``folds``, the histogram ``bins``
    (read by DyS and HDy only) and the fit ``seed``.
    """

    method: str = "?"
    needs_classifier: bool = True
    needs_oof: bool = False

    def __init__(
        self,
        *,
        C: float = 1.0,
        class_weight: str | None = None,
        folds: int = 10,
        bins: int = 10,
        seed: int = 0,
    ):
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        self.C = C
        self.class_weight = class_weight
        self.folds = folds
        self.bins = bins
        self.seed = seed
        self._fitted = False

    def fit(self, x, labels) -> "Quantifier":
        evidence = fit_evidence(
            x,
            labels,
            C=self.C,
            class_weight=self.class_weight,
            folds=self.folds,
            seed=self.seed,
            need_oof=self.needs_oof,
            need_classifier=self.needs_classifier,
        )
        return self.fit_evidence(evidence)

    def fit_evidence(self, evidence: TrainedEvidence) -> "Quantifier":
        """Fit from precomputed evidence (lets the harness share one stack)."""
        if self.needs_oof and evidence.oof_posteriors is None:
            raise ValueError(f"{self.method} needs out-of-fold posteriors")
        self._prepare(evidence)
        self._fitted = True
        return self

    def _prepare(self, evidence: TrainedEvidence):
        self.clf_ = evidence.clf

    def quantify(self, x) -> float:
        """The estimate for feature batch ``x``: ``aggregate`` of its posteriors."""
        self._require_fitted()
        self._check_sample(x)
        return self.aggregate(predict_proba(self.clf_, x) if self.needs_classifier else None)

    def aggregate(self, posteriors: np.ndarray) -> float:
        """The estimate for one sample from its posteriors under ``clf_``:
        ``aggregate_many`` of that one sample."""
        return self.aggregate_many([posteriors])[0]

    def aggregate_many(self, posteriors: Sequence[np.ndarray] | PosteriorRows) -> list[float]:
        """The estimate for each sample, in order, from a list of the samples'
        posteriors or from their :class:`PosteriorRows`.  The samples of each
        length are estimated together, as the rows of one matrix."""
        if not isinstance(posteriors, PosteriorRows):
            posteriors = PosteriorRows.stack(posteriors)
        estimates = np.empty(len(posteriors))
        for positions, rows in posteriors.groups:
            estimates[positions] = self._estimate(rows)
        return estimates.tolist()

    def _estimate(self, rows: np.ndarray) -> np.ndarray:
        """The estimate for each row of a matrix of posteriors."""
        raise NotImplementedError

    def _require_fitted(self):
        if not self._fitted:
            raise RuntimeError(f"{self.method} quantifier is not fitted")

    @staticmethod
    def _check_sample(x):
        if x.shape[0] == 0:
            raise EmptyDatasetError("cannot quantify an empty sample")


class MLPE(Quantifier):
    """Returns the training prevalence for every sample, ignoring features."""

    method = "MLPE"
    needs_classifier = False

    def _prepare(self, evidence: TrainedEvidence):
        self.prevalence_ = evidence.train_prevalence

    def aggregate_many(self, posteriors) -> list[float]:
        """The training prevalence once per sample; the posteriors (None
        where no classifier was fitted) are not read."""
        return [self.prevalence_] * len(posteriors)


class CC(Quantifier):
    """Classify and count: the fraction of crisp positive predictions."""

    method = "CC"

    def _estimate(self, rows):
        return classify_and_count(rows >= 0.5)


class ACC(Quantifier):
    """CC adjusted by k-fold estimates of the crisp tpr and fpr."""

    method = "ACC"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        self.rates_ = rates_from_posteriors(
            evidence.oof_posteriors, evidence.labels, "hard"
        )

    def _estimate(self, rows):
        return adjust_prevalence(classify_and_count(rows >= 0.5), self.rates_)


class PCC(Quantifier):
    """Probabilistic classify and count: the mean posterior."""

    method = "PCC"

    def _estimate(self, rows):
        return probabilistic_classify_and_count(rows)


class PACC(Quantifier):
    """PCC adjusted by posterior-averaged (soft) tpr and fpr."""

    method = "PACC"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        self.rates_ = rates_from_posteriors(
            evidence.oof_posteriors, evidence.labels, "soft"
        )

    def _estimate(self, rows):
        return adjust_prevalence(probabilistic_classify_and_count(rows), self.rates_)


class SMM(Quantifier):
    """Places the sample's mean posterior between the class-wise training means."""

    method = "SMM"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        oof, labels = evidence.oof_posteriors, evidence.labels
        self.positive_mean_ = float(oof[labels == 1].mean())
        self.negative_mean_ = float(oof[labels == 0].mean())

    def _estimate(self, rows):
        return mean_matching_prevalence(
            probabilistic_classify_and_count(rows),
            self.positive_mean_,
            self.negative_mean_,
        )


class DyS(Quantifier):
    """Histogram-mixture matching over posterior scores."""

    method = "DyS"
    needs_oof = True
    distance = "topsoe"

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        oof, labels = evidence.oof_posteriors, evidence.labels
        self.hist_pos_ = PosteriorHistogram.from_scores(oof[labels == 1], self.bins)
        self.hist_neg_ = PosteriorHistogram.from_scores(oof[labels == 0], self.bins)

    def _estimate(self, rows):
        """One pass of histograms and one mixture search over all the rows."""
        tests = histogram_masses(rows, self.bins)
        return mixture_fit_alphas(self.hist_pos_, self.hist_neg_, tests, self.distance)


class HDy(DyS):
    """DyS with the Hellinger distance."""

    method = "HDy"
    distance = "hellinger"


class SLD(Quantifier):
    """Expectation-maximisation rescaling of posteriors and prior."""

    method = "SLD"

    def _prepare(self, evidence: TrainedEvidence):
        if not 0.0 < evidence.train_prevalence < 1.0:
            raise ValueError(
                "training prevalence must lie strictly in (0, 1) to rescale posteriors"
            )
        super()._prepare(evidence)
        self.train_prevalence_ = evidence.train_prevalence

    def _estimate(self, rows):
        """One EM loop over all the rows."""
        p, converged, _ = expectation_maximisation_prevalences(rows, self.train_prevalence_)
        if not converged.all():
            # a fixed message, so the default warning filter shows it once per process
            warnings.warn(
                f"SLD: EM stopped at the {EM_MAX_ITER}-iteration cap without converging",
                RuntimeWarning,
            )
        return p


#: Method name -> quantifier class, in table order.
METHODS: dict[str, type[Quantifier]] = {
    cls.method: cls for cls in (MLPE, CC, ACC, PCC, PACC, SMM, DyS, HDy, SLD)
}

METHOD_NAMES = tuple(METHODS)

_METHODS_BY_KEY = {name.upper(): cls for name, cls in METHODS.items()}


def method_class(method: str) -> type[Quantifier]:
    """The quantifier class registered under a method name (case-insensitive)."""
    cls = _METHODS_BY_KEY.get(method.upper())
    if cls is None:
        raise ValueError(f"unknown quantification method {method!r}; known: {METHOD_NAMES}")
    return cls


def quantifier_factory(method: str, **settings) -> Quantifier:
    """Build an unfitted quantifier by method name (case-insensitive); the
    keywords are those of :class:`Quantifier`."""
    return method_class(method)(**settings)
