"""Golden records on the text path: every method on every protocol, run on a
small review corpus, pinned to a stored CSV.

The corpus is binarised at 3 stars for prior and both covariate protocols
(whose draws merge parts from the two categories) and star-balanced for
concept, so each protocol tokenises, fits a vocabulary and vectorises.
The stored file was produced by ``python tests/test_golden_text_records.py``;
estimates must match it exactly, and a two-worker run must match a
one-worker run.
"""

from pathlib import Path

import pytest

from shiftbench.datagen import filter_reviews, reviews_to_dataset
from shiftbench.evaluation import RecordTable, read_records_csv, write_records_csv
from shiftbench.protocols import PROTOCOLS, run_protocol
from shiftbench.quantifiers import METHOD_NAMES
from test_protocols import same_records, tiny_config
from test_text_pipeline import synthetic_reviews

GOLDEN = Path(__file__).with_name("golden_text_records.csv")


def review_corpus():
    return reviews_to_dataset(filter_reviews(synthetic_reviews(2000, seed=11)))


def text_config(protocol):
    return tiny_config(
        protocol,
        methods=METHOD_NAMES,
        train_size=200,
        test_size=60,
        repetitions=2,
        samples_per_config=1,
    )


def golden_run(jobs=1):
    dataset = review_corpus()
    return RecordTable.concat(
        run_protocol(text_config(protocol), dataset, jobs=jobs) for protocol in PROTOCOLS
    )


@pytest.fixture(scope="module")
def one_worker_run():
    return golden_run(jobs=1)


def test_text_records_match_golden_file(one_worker_run):
    expected = read_records_csv(GOLDEN)
    assert set(expected.protocol.tolist()) == set(PROTOCOLS)
    assert same_records(one_worker_run, expected)


def test_two_workers_match_one_worker(one_worker_run):
    assert same_records(golden_run(jobs=2), one_worker_run)


if __name__ == "__main__":
    print(f"wrote {write_records_csv(golden_run(), GOLDEN)} records to {GOLDEN}")
