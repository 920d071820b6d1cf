"""shiftbench: binary quantification methods and dataset-shift protocols."""

import os

# One BLAS thread per process unless the caller set a count: ``--jobs N``
# already runs N processes, and threaded BLAS in each would oversubscribe
# the CPUs.  BLAS reads these when numpy loads, so they are set first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .classifier import (
    ClassRates,
    DEFAULT_GRID,
    SoftClassifier,
    predict_proba,
    train,
)
from .core import (
    BinaryDataset,
    EmptyDatasetError,
    Pool,
    PoolExhaustionError,
    Sample,
    StarDataset,
    StratificationError,
    TermCounts,
    binarise_dataset,
    sample_at_prevalence,
    split_stratified,
)
from .datagen import (
    ClusterSpec,
    RawReview,
    Vocabulary,
    count_terms,
    filter_reviews,
    fit_vocabulary,
    generate_mixture,
    vectorise,
)
from .evaluation import (
    RecordTable,
    SignificanceMark,
    mark_significance,
    read_records_csv,
    wilcoxon_signed_rank,
    write_records_csv,
)
from .protocols import (
    PROTOCOLS,
    ProtocolConfig,
    cell_tables,
    count_records,
    count_records_per_method,
    run_protocol,
)
from .quantifiers import (
    ACC,
    BENCHMARK_METHODS,
    CC,
    DyS,
    HDy,
    MLPE,
    METHOD_NAMES,
    METHODS,
    PACC,
    PCC,
    PosteriorHistogram,
    PosteriorRows,
    SLD,
    SMM,
    expectation_maximisation_prevalence,
    expectation_maximisation_prevalences,
    hellinger_distance,
    histogram_masses,
    mixture_fit_alpha,
    mixture_fit_alphas,
    quantifier_factory,
    topsoe_distance,
)

__version__ = "0.1.0"
