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
evidence the method needs; ``aggregate(posteriors)`` turns one sample's
posteriors into an estimate in [0, 1]; ``quantify(x)`` is
``aggregate(predict_proba(clf_, x))``.  ``aggregate`` is pure: it reads the
fitted state and never writes it, so fitted quantifiers are immutable and
safe to share across concurrent tasks, and a harness can score a sample once
and hand the same posteriors to every method.  ``aggregate_many(list of
posteriors)`` returns ``aggregate`` of each sample, in order; DyS and HDy
override it to run one mixture search over all the samples' histograms.
``METHODS`` maps each method name to its class.

The mixture search (``mixture_fit_alphas``) is a ternary search to 1e-6,
run for all samples at once, whose answer is checked against a window of the
1e-4 grid around it.  The objective is convex (Topsoe) or quasi-convex
(Hellinger) in the mixture weight, so when the window's edges rise, no grid
point outside it can win; a sample whose window does not certify that is
checked against the whole grid.  Either way the answer equals the answer of
a full grid scan, bit for bit.
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

    @property
    def bins(self) -> int:
        return len(self.masses)

    @classmethod
    def from_scores(cls, scores: np.ndarray, bins: int) -> "PosteriorHistogram":
        scores = np.asarray(scores, dtype=float)
        if len(scores) == 0:
            raise EmptyDatasetError("cannot build a histogram from zero scores")
        counts, _ = np.histogram(scores, bins=bins, range=(0.0, 1.0))
        return cls(counts / counts.sum())


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


def _mixtures(alphas: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """alpha*pos + (1-alpha)*neg, one row per alpha."""
    return alphas[:, None] * pos + (1.0 - alphas)[:, None] * neg


def _grid_scan(pos, neg, test, ternary: float, rows) -> float:
    """The ternary answer against the whole grid; the lowest distance wins, the
    ternary answer on a tie."""
    alphas = np.concatenate(([ternary], _GRID))
    values = rows(_mixtures(alphas, pos, neg), test)
    return float(alphas[int(np.argmin(values))])


def mixture_fit_alphas(h_pos, h_neg, tests, distance: str = "topsoe") -> np.ndarray:
    """For each test histogram, the alpha minimising
    dist(alpha*H+ + (1-alpha)*H-, H_test).

    A ternary search narrows [0, 1] down to 1e-6 for all rows at once.  Each
    row keeps stepping while its own interval is wider than the tolerance, so
    its probes and comparisons are those of a search run on it alone.  Each
    row's answer is then scored together with a window of the
    ``WINDOW_HALF_WIDTH`` grid points on each side of it on the 1e-4 grid,
    in one call; the lowest distance wins, the ternary answer on a tie, then
    the lowest alpha.

    That equals scoring the answer against the whole grid whenever the
    window is certified: on each side where it stops short of the grid's
    end, its outermost value exceeds both its inner neighbour and the
    ternary value by more than ``CERTIFICATE_MARGIN``.  Topsoe is an
    f-divergence and the mixture is affine in alpha, so the objective is
    convex in alpha; the Hellinger distance is the square root of a convex
    function, so it is quasi-convex.  Either way, a value that rises at the
    window's edge keeps rising beyond it, so every grid point outside a
    certified window lies strictly above the ternary value.  A row whose
    window is not certified (a flat objective, say) is scored against the
    whole grid instead.  The result is bit-identical to the full scan.
    """
    if distance not in _DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; use one of {sorted(_DISTANCES)}")
    pos, neg = _masses(h_pos), _masses(h_neg)
    _check_pair(pos, neg)
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
        probes = np.stack((m1, m2), axis=1).ravel()
        d = rows(_mixtures(probes, pos, neg), np.repeat(tests[active], 2, axis=0))
        left = d[0::2] <= d[1::2]
        hi[active[left]] = m2[left]
        lo[active[~left]] = m1[~left]
        active = np.flatnonzero(hi - lo > TERNARY_TOL)
    ternary = (lo + hi) / 2.0

    width = 2 * WINDOW_HALF_WIDTH + 1
    last = len(_GRID) - 1
    centre = np.rint(ternary / GRID_STEP).astype(int)
    start = np.clip(centre - WINDOW_HALF_WIDTH, 0, last + 1 - width)
    window = _GRID[start[:, None] + np.arange(width)]
    # column 0 is the ternary answer, so that it wins a tie with the window;
    # columns 1..width are the window in ascending alpha
    candidates = np.concatenate((ternary[:, None], window), axis=1)
    values = rows(
        _mixtures(candidates.ravel(), pos, neg), np.repeat(tests, width + 1, axis=0)
    ).reshape(n, width + 1)
    best = candidates[np.arange(n), np.argmin(values, axis=1)]

    def rises(outer, inner):
        return (values[:, outer] > values[:, inner] + CERTIFICATE_MARGIN) & (
            values[:, outer] > values[:, 0] + CERTIFICATE_MARGIN
        )

    certified = (start == 0) | rises(1, 2)
    certified &= (start + width - 1 == last) | rises(width, width - 1)
    for i in np.flatnonzero(~certified):
        best[i] = _grid_scan(pos, neg, tests[i], ternary[i], rows)
    return best


def mixture_fit_alpha(h_pos, h_neg, h_test, distance: str = "topsoe") -> float:
    """The mixture weight alpha minimising dist(alpha*H+ + (1-alpha)*H-, H_test):
    :func:`mixture_fit_alphas` for one test histogram."""
    return float(mixture_fit_alphas(h_pos, h_neg, [h_test], distance)[0])


# ---------------------------------------------------------------------------
# prevalence formulas
# ---------------------------------------------------------------------------


def classify_and_count(hard_predictions: np.ndarray) -> float:
    preds = np.asarray(hard_predictions)
    if len(preds) == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    return float(preds.sum() / len(preds))


def probabilistic_classify_and_count(posteriors: np.ndarray) -> float:
    posteriors = np.asarray(posteriors, dtype=float)
    if len(posteriors) == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    return float(posteriors.mean())


def adjust_prevalence(base_estimate: float, rates: ClassRates) -> float:
    """(base - fpr) / (tpr - fpr), clipped to [0, 1].

    A near-zero denominator means the rates carry no usable signal; the
    unadjusted estimate is returned instead.
    """
    gap = rates.tpr - rates.fpr
    if abs(gap) < DEGENERATE_RATE_GAP:
        return min(max(base_estimate, 0.0), 1.0)
    return min(max((base_estimate - rates.fpr) / gap, 0.0), 1.0)


def mean_matching_prevalence(
    test_mean: float, positive_mean: float, negative_mean: float
) -> float:
    """Where the sample's mean posterior falls between the class-wise means.

    Solves test_mean = alpha * positive_mean + (1 - alpha) * negative_mean
    for alpha, clipped to [0, 1]; coincident class means carry no signal and
    return the test mean itself.
    """
    spread = positive_mean - negative_mean
    if abs(spread) < DEGENERATE_RATE_GAP:
        return min(max(test_mean, 0.0), 1.0)
    return min(max((test_mean - negative_mean) / spread, 0.0), 1.0)


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
    posteriors) or ``max_iter`` steps elapse.

    Returns (prevalence, converged, iterations).
    """
    if not 0.0 < train_prevalence < 1.0:
        raise ValueError(
            f"training prevalence must lie strictly in (0, 1), got {train_prevalence}"
        )
    s = np.asarray(posteriors, dtype=float)
    if len(s) == 0:
        raise EmptyDatasetError("cannot quantify an empty sample")
    p = train_prevalence
    for iteration in range(max_iter):
        if p <= 0.0 or p >= 1.0:
            return float(p), True, iteration  # absorbing endpoint
        num = (p / train_prevalence) * s
        den = num + ((1.0 - p) / (1.0 - train_prevalence)) * (1.0 - s)
        m = float((num / den).mean())
        if abs(m - p) < tol:
            return float(p), True, iteration
        p = m
    return float(p), False, max_iter


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


class Quantifier:
    """Base interface: fit on labelled data, then quantify feature batches.

    Subclasses implement ``_prepare`` (fitted state from evidence) and
    ``aggregate`` (an estimate from one sample's posteriors).
    """

    method: str = "?"
    needs_classifier: bool = True
    needs_oof: bool = False

    def __init__(
        self,
        C: float = 1.0,
        class_weight: str | None = None,
        folds: int = 10,
        seed: int = 0,
    ):
        self.C = C
        self.class_weight = class_weight
        self.folds = folds
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
        """The estimate for one sample from its posteriors under ``clf_``."""
        raise NotImplementedError

    def aggregate_many(self, posteriors: Sequence[np.ndarray]) -> list[float]:
        """``aggregate`` of each sample's posteriors, in order.  Methods that
        can share work across samples override it with the same results."""
        return [self.aggregate(p) for p in posteriors]

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

    def aggregate(self, posteriors) -> float:
        return self.prevalence_


class CC(Quantifier):
    """Classify and count: the fraction of crisp positive predictions."""

    method = "CC"

    def aggregate(self, posteriors) -> float:
        return classify_and_count(np.asarray(posteriors) >= 0.5)


class ACC(Quantifier):
    """CC adjusted by k-fold estimates of the crisp tpr and fpr."""

    method = "ACC"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        self.rates_ = rates_from_posteriors(
            evidence.oof_posteriors, evidence.labels, "hard"
        )

    def aggregate(self, posteriors) -> float:
        cc = classify_and_count(np.asarray(posteriors) >= 0.5)
        return adjust_prevalence(cc, self.rates_)


class PCC(Quantifier):
    """Probabilistic classify and count: the mean posterior."""

    method = "PCC"

    def aggregate(self, posteriors) -> float:
        return probabilistic_classify_and_count(posteriors)


class PACC(Quantifier):
    """PCC adjusted by posterior-averaged (soft) tpr and fpr."""

    method = "PACC"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        self.rates_ = rates_from_posteriors(
            evidence.oof_posteriors, evidence.labels, "soft"
        )

    def aggregate(self, posteriors) -> float:
        pcc = probabilistic_classify_and_count(posteriors)
        return adjust_prevalence(pcc, self.rates_)


class SMM(Quantifier):
    """Places the sample's mean posterior between the class-wise training means."""

    method = "SMM"
    needs_oof = True

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        oof, labels = evidence.oof_posteriors, evidence.labels
        self.positive_mean_ = float(oof[labels == 1].mean())
        self.negative_mean_ = float(oof[labels == 0].mean())

    def aggregate(self, posteriors) -> float:
        return mean_matching_prevalence(
            probabilistic_classify_and_count(posteriors),
            self.positive_mean_,
            self.negative_mean_,
        )


class DyS(Quantifier):
    """Histogram-mixture matching over posterior scores."""

    method = "DyS"
    needs_oof = True
    distance = "topsoe"

    def __init__(self, bins: int = 10, **kwargs):
        super().__init__(**kwargs)
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        self.bins = bins

    def _prepare(self, evidence: TrainedEvidence):
        super()._prepare(evidence)
        oof, labels = evidence.oof_posteriors, evidence.labels
        self.hist_pos_ = PosteriorHistogram.from_scores(oof[labels == 1], self.bins)
        self.hist_neg_ = PosteriorHistogram.from_scores(oof[labels == 0], self.bins)

    def aggregate(self, posteriors) -> float:
        h_test = PosteriorHistogram.from_scores(posteriors, self.bins)
        return mixture_fit_alpha(self.hist_pos_, self.hist_neg_, h_test, self.distance)

    def aggregate_many(self, posteriors) -> list[float]:
        """One mixture search over the histograms of all the samples."""
        tests = [PosteriorHistogram.from_scores(p, self.bins) for p in posteriors]
        return mixture_fit_alphas(self.hist_pos_, self.hist_neg_, tests, self.distance).tolist()


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

    def aggregate(self, posteriors) -> float:
        p, converged, _ = expectation_maximisation_prevalence(
            posteriors, self.train_prevalence_
        )
        if not converged:
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


def quantifier_factory(
    method: str,
    C: float = 1.0,
    class_weight: str | None = None,
    folds: int = 10,
    bins: int = 10,
    seed: int = 0,
) -> Quantifier:
    """Build an unfitted quantifier by method name (case-insensitive).

    ``bins`` applies to the histogram methods (DyS, HDy).
    """
    cls = method_class(method)
    common = dict(C=C, class_weight=class_weight, folds=folds, seed=seed)
    if issubclass(cls, DyS):
        return cls(bins=bins, **common)
    return cls(**common)
