"""Golden records: every method on every protocol, pinned to a stored CSV.

The stored file was produced by ``python tests/test_golden_records.py`` on a
version whose numbers were checked; any later numeric drift has to be a
deliberate regeneration, declared alongside the change that causes it.
"""

from pathlib import Path

import numpy as np

from shiftbench.evaluation import RecordTable, read_records_csv, write_records_csv
from shiftbench.protocols import CONCEPT, PROTOCOLS, run_protocol
from shiftbench.quantifiers import METHOD_NAMES
from test_protocols import binary_ab_dataset, star_dataset, tiny_config

GOLDEN = Path(__file__).with_name("golden_records.csv")


def golden_run():
    return RecordTable.concat(
        run_protocol(tiny_config(protocol, methods=METHOD_NAMES),
                     star_dataset() if protocol == CONCEPT else binary_ab_dataset())
        for protocol in PROTOCOLS
    )


def test_records_match_golden_file():
    expected = read_records_csv(GOLDEN)
    actual = golden_run()
    assert len(actual) == len(expected)
    for name in ("protocol", "method", "repetition", "config", "degree", "true_prev"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
    assert np.abs(actual.estimate - expected.estimate).max() <= 1e-9


if __name__ == "__main__":
    print(f"wrote {write_records_csv(golden_run(), GOLDEN)} records to {GOLDEN}")
