"""End-to-end runs on raw-text datasets: per-draw tf-idf and sparse features."""

import json

import numpy as np
import pytest

from shiftbench.cli import main
from shiftbench.core import StarDataset
from shiftbench.datagen import RawReview, filter_reviews, reviews_to_dataset
from shiftbench.evaluation import read_records_csv
from shiftbench.protocols import PRIOR, ProtocolConfig, run_protocol

POSITIVE_WORDS = ["great", "excellent", "loved", "perfect", "wonderful", "superb"]
NEGATIVE_WORDS = ["awful", "broken", "refund", "terrible", "waste", "poor"]
FILLER = ["the", "product", "arrived", "yesterday", "box", "colour", "size"]


def synthetic_reviews(n, seed):
    rng = np.random.default_rng(seed)
    reviews = []
    for i in range(n):
        stars = int(rng.integers(1, 6))
        lexicon = POSITIVE_WORDS if stars >= 4 else NEGATIVE_WORDS
        if stars == 3:
            lexicon = POSITIVE_WORDS + NEGATIVE_WORDS
        words = list(rng.choice(lexicon, size=6)) + list(rng.choice(FILLER, size=8))
        rng.shuffle(words)
        text = (" ".join(words) + " ") * 4  # pad past the 200-character filter
        reviews.append(
            RawReview(
                text=text,
                stars=stars,
                category="A" if i % 2 == 0 else "B",
                useful_votes=int(rng.integers(1, 5)),
            )
        )
    return reviews


@pytest.fixture(scope="module")
def review_dataset() -> StarDataset:
    return reviews_to_dataset(filter_reviews(synthetic_reviews(3000, seed=4)))


def test_prior_protocol_on_text_corpus(review_dataset):
    cfg = ProtocolConfig(
        protocol=PRIOR,
        train_size=240,
        test_size=60,
        repetitions=1,
        samples_per_config=2,
        master_seed=3,
        methods=("CC", "PCC", "SLD"),
        folds=4,
        C=100.0,
        prior_train_prevalences=(0.3, 0.7),
        prior_test_prevalences=(0.2, 0.8),
    )
    records = run_protocol(cfg, review_dataset)
    assert len(records) == 2 * 2 * 2 * 3
    # word usage separates the classes, so even CC must far outperform chance
    mean_ae = float(np.mean(records.ae))
    assert mean_ae < 0.15


def test_vocabulary_is_per_training_draw(review_dataset):
    # two repetitions draw different training sets; the fitted quantifiers
    # must not share feature spaces (no cross-draw vocabulary reuse)
    cfg = ProtocolConfig(
        protocol=PRIOR,
        train_size=150,
        test_size=40,
        repetitions=2,
        samples_per_config=1,
        master_seed=9,
        methods=("CC",),
        folds=4,
        C=100.0,
        prior_train_prevalences=(0.5,),
        prior_test_prevalences=(0.4,),
    )
    records = run_protocol(cfg, review_dataset)
    assert len(records) == 2
    assert ((records.estimate >= 0) & (records.estimate <= 1)).all()


def test_cli_run_on_reviews_file(tmp_path):
    path = tmp_path / "reviews.jsonl"
    with open(path, "w") as fh:
        for r in synthetic_reviews(2200, seed=8):
            fh.write(
                json.dumps(
                    {
                        "text": r.text,
                        "stars": r.stars,
                        "category": r.category,
                        "useful_votes": r.useful_votes,
                    }
                )
                + "\n"
            )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": "reviews.jsonl",
                "train_size": 200,
                "test_size": 50,
                "repetitions": 1,
                "samples_per_config": 1,
                "methods": ["CC", "PCC"],
                "folds": 4,
                "C": 100.0,
                "prior_train_prevalences": [0.4],
                "prior_test_prevalences": [0.3, 0.7],
            }
        )
    )
    out = tmp_path / "out"
    assert main(["run", "prior", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    assert len(records) == 4


def test_grid_search_inside_protocol(review_dataset):
    cfg = ProtocolConfig(
        protocol=PRIOR,
        train_size=200,
        test_size=50,
        repetitions=1,
        samples_per_config=1,
        master_seed=2,
        methods=("CC",),
        folds=4,
        grid_search=True,
        prior_train_prevalences=(0.5,),
        prior_test_prevalences=(0.5,),
    )
    records = run_protocol(cfg, review_dataset)
    assert len(records) == 1
    assert 0 <= records.estimate[0] <= 1
