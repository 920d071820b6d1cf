"""Seeded input files for the benchmark workloads.

Every generator is a pure function of its input: the same seed, or the same
source file, writes the same bytes.  Cluster datasets are not generated
here; they go through ``shiftbench gen-data`` with the specs below, so that
set-up exercises the program's own generator.  The report input is not
invented either: it tiles a records.csv the program wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Two unit-variance Gaussians one unit either side of the origin, the shape
#: of the prior-shift acceptance fixture.
TWO_GAUSSIANS = [
    {"mean": [-1.0, 0.0], "variance": [1.0, 1.0], "weight": 0.5, "label": 0, "category": "A"},
    {"mean": [1.0, 0.0], "variance": [1.0, 1.0], "weight": 0.5, "label": 1, "category": "A"},
]

#: Two categories whose class clusters differ, the shape of the
#: global-covariate acceptance fixture.
TWO_CATEGORY_CLUSTERS = [
    {"mean": [-2.0, 1.25], "variance": [1, 1], "weight": 0.25, "label": 1, "category": "A"},
    {"mean": [-2.0, -1.25], "variance": [1, 1], "weight": 0.25, "label": 0, "category": "A"},
    {"mean": [2.0, 0.75], "variance": [1, 1], "weight": 0.25, "label": 1, "category": "B"},
    {"mean": [2.0, -0.75], "variance": [1, 1], "weight": 0.25, "label": 0, "category": "B"},
]

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "be", "du",
              "fa", "go", "hi", "je", "pu", "ri", "so", "te", "wa", "zi")
_VOCABULARY = 3000
_SENTIMENT_TERMS = 400
_STAR_WEIGHTS = (0.15, 0.15, 0.20, 0.25, 0.25)


def _term(i: int) -> str:
    n = len(_SYLLABLES)
    return _SYLLABLES[i % n] + _SYLLABLES[(i // n) % n] + _SYLLABLES[(i // n // n) % n]


def write_reviews(path: Path, n: int, seed: int) -> None:
    """Star-rated reviews over a Zipfian vocabulary whose use tilts with the stars.

    A random subset of terms carries a polarity of +1 or -1; a review with s
    stars weights each such term by exp(0.9 * polarity * (s - 3)), so word use
    separates the star levels without any term being exclusive to one.  About
    5% of the reviews get no useful vote and are dropped by the program's
    review filter.
    """
    rng = np.random.default_rng(seed)
    terms = np.array([_term(i) for i in range(_VOCABULARY)], dtype=object)
    zipf = 1.0 / np.arange(1, _VOCABULARY + 1) ** 1.07
    polarity = np.zeros(_VOCABULARY)
    tagged = rng.choice(_VOCABULARY, _SENTIMENT_TERMS, replace=False)
    polarity[tagged] = rng.choice((-1.0, 1.0), _SENTIMENT_TERMS)
    term_probs = {}
    for s in range(1, 6):
        w = zipf * np.exp(0.9 * polarity * (s - 3))
        term_probs[s] = w / w.sum()

    stars = rng.choice(np.arange(1, 6), size=n, p=_STAR_WEIGHTS)
    lengths = rng.integers(50, 151, size=n)
    votes = np.where(rng.random(n) < 0.05, 0, 1 + rng.poisson(2.0, size=n))
    category = rng.choice(np.array(["A", "B"]), size=n)
    words = np.empty(n, dtype=object)
    for s in range(1, 6):
        rows = np.flatnonzero(stars == s)
        drawn = rng.choice(_VOCABULARY, size=int(lengths[rows].sum()), p=term_probs[s])
        bounds = np.cumsum(lengths[rows])[:-1]
        for row, chunk in zip(rows, np.split(terms[drawn], bounds)):
            words[row] = chunk
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            fh.write(json.dumps({
                "text": " ".join(words[i]),
                "stars": int(stars[i]),
                "category": str(category[i]),
                "useful_votes": int(votes[i]),
            }) + "\n")


#: Full-scale prior-protocol grid (training size 5,000 and test size 500 make
#: every nominal prevalence exact).
PRIOR_TRAIN = (0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.98)
PRIOR_TEST = tuple(i / 10 for i in range(11))
#: The six methods every protocol run reports.
METHODS = ("CC", "ACC", "PCC", "PACC", "DyS", "SLD")
PRIOR_REPETITIONS = 10
PRIOR_ROUNDS = 50


def tile_prior_records(source: Path, path: Path) -> int:
    """Tiles a prior-protocol records.csv up to the full 10 x 50 grid.

    ``source`` is the program's own output for fewer repetitions and rounds
    (``run prior --desk``: 2 x 5).  Repetition ``rep`` and round ``r`` of the
    full grid copy source repetition ``rep % reps`` and round ``r % rounds``,
    relabelled, so every field other than the repetition and the round is
    the program's own text.  Rows come in the order the prior protocol emits
    them (repetition, pL, round, pU, method).  Returns the row count.
    """
    cells: dict[tuple, str] = {}  # (rep, pL, round, pU, method) -> fields after config
    reps = rounds = 0
    with open(source, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        for line in fh:
            protocol, method, rep, config, rest = line.rstrip("\n").split(",", 4)
            pl, pu, r = (part.split("=", 1)[1] for part in config.split(";"))
            cells[(int(rep), pl, int(r), pu, method)] = rest
            reps, rounds = max(reps, int(rep) + 1), max(rounds, int(r) + 1)
    rows = [
        f"prior,{m},{rep},pL={pl:g};pU={pu:g};r={r},"
        + cells[(rep % reps, format(pl, "g"), r % rounds, format(pu, "g"), m)]
        for rep in range(PRIOR_REPETITIONS) for pl in PRIOR_TRAIN
        for r in range(PRIOR_ROUNDS) for pu in PRIOR_TEST for m in METHODS
    ]
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return len(rows)
