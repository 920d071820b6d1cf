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
       training posteriors and the test posteriors (Topsoe by default)
HDy    DyS with the Hellinger distance
SLD    expectation-maximisation rescaling of posteriors and prior

Every method aggregates the posteriors of one L2 logistic classifier (MLPE
ignores them).  ``fit`` trains that classifier and whatever out-of-fold
evidence the method needs; ``aggregate(posteriors)`` turns one sample's
posteriors into an estimate in [0, 1]; ``quantify(x)`` is
``aggregate(predict_proba(clf_, x))``.  ``aggregate`` is pure: it reads the
fitted state and never writes it, so fitted quantifiers are immutable and
safe to share across concurrent tasks, and a harness can score a sample once
and hand the same posteriors to every method.  ``METHODS`` maps each method
name to its class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def mixture_fit_alpha(h_pos, h_neg, h_test, distance: str = "topsoe") -> float:
    """The mixture weight alpha minimising dist(alpha*H+ + (1-alpha)*H-, H_test).

    Ternary search narrows [0, 1] down to 1e-6, scoring both probes of a step
    in one batched call.  Its answer and a 1e-4-step grid, which guards
    against non-unimodal objectives, are then scored in one call; the lowest
    distance wins, the ternary answer on a tie.
    """
    if distance not in _DISTANCES:
        raise ValueError(f"unknown distance {distance!r}; use one of {sorted(_DISTANCES)}")
    pos, neg, test = _masses(h_pos), _masses(h_neg), _masses(h_test)
    _check_pair(pos, neg)
    _check_pair(pos, test)
    rows = _DISTANCES[distance]

    lo, hi = 0.0, 1.0
    while hi - lo > TERNARY_TOL:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        probes = np.array([[m1], [m2]])
        d1, d2 = rows(probes * pos + (1.0 - probes) * neg, test)
        if d1 <= d2:
            hi = m2
        else:
            lo = m1

    # the ternary answer first, so that it wins a tie with the grid
    alphas = np.concatenate(([(lo + hi) / 2.0], np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)))
    values = rows(alphas[:, None] * pos + (1.0 - alphas)[:, None] * neg, test)
    return float(alphas[int(np.argmin(values))])


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
    cls = _METHODS_BY_KEY.get(method.upper())
    if cls is None:
        raise ValueError(f"unknown quantification method {method!r}; known: {METHOD_NAMES}")
    common = dict(C=C, class_weight=class_weight, folds=folds, seed=seed)
    if issubclass(cls, DyS):
        return cls(bins=bins, **common)
    return cls(**common)
