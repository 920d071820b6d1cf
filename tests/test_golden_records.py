"""Golden records: every method on every protocol, pinned to a stored CSV.

The stored file was produced by ``python tests/test_golden_records.py`` on a
version whose numbers were checked; any later numeric drift has to be a
deliberate regeneration, declared alongside the change that causes it.
"""

from pathlib import Path

import pytest

from shiftbench.evaluation import RecordTable, read_records_csv, write_records_csv
from shiftbench.protocols import CONCEPT, PROTOCOLS, run_protocol
from shiftbench.quantifiers import METHOD_NAMES
from test_protocols import binary_ab_dataset, star_dataset, tiny_config

GOLDEN = Path(__file__).with_name("golden_records.csv")


def golden_run():
    records = []
    for protocol in PROTOCOLS:
        dataset = star_dataset() if protocol == CONCEPT else binary_ab_dataset()
        records += run_protocol(tiny_config(protocol, methods=METHOD_NAMES), dataset)
    return records


def _key(r):
    return (r.protocol, r.method, r.repetition, r.config, r.degree, r.true_prevalence)


def test_records_match_golden_file():
    expected = read_records_csv(GOLDEN)
    actual = golden_run()
    assert [_key(r) for r in actual] == [_key(r) for r in expected]
    for got, want in zip(actual, expected):
        assert got.estimate == pytest.approx(want.estimate, abs=1e-9), _key(got)


if __name__ == "__main__":
    print(f"wrote {write_records_csv(RecordTable.from_records(golden_run()), GOLDEN)} "
          f"records to {GOLDEN}")
