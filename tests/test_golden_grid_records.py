"""Golden records with model selection on: every method on a small prior run
with ``grid_search`` true, pinned to a stored CSV.

Each method picks its own C and class weight on its own validation split, so
the choice made for one method does not depend on which others run beside
it.  The stored file was produced by ``python tests/test_golden_grid_records.py``;
estimates must match it exactly.
"""

from pathlib import Path

import pytest

from shiftbench.evaluation import RecordTable, read_records_csv, write_records_csv
from shiftbench.protocols import PRIOR, ProtocolConfig, run_protocol
from shiftbench.quantifiers import METHOD_NAMES
from test_acceptance import two_gaussians
from test_protocols import same_records

GOLDEN = Path(__file__).with_name("golden_grid_records.csv")


def grid_config(methods=METHOD_NAMES):
    return ProtocolConfig(
        protocol=PRIOR,
        train_size=600,
        test_size=100,
        repetitions=1,
        samples_per_config=1,
        master_seed=5,
        methods=methods,
        folds=4,
        grid_search=True,
        prior_train_prevalences=(0.3, 0.7),
        prior_test_prevalences=(0.2, 0.8),
    )


def golden_run(methods=METHOD_NAMES):
    return run_protocol(grid_config(methods), two_gaussians(6000, seed=0))


@pytest.fixture(scope="module")
def all_methods_run():
    return golden_run()


def test_grid_records_match_golden_file(all_methods_run):
    expected = read_records_csv(GOLDEN)
    assert set(expected.method.tolist()) == set(METHOD_NAMES)
    assert same_records(all_methods_run, expected)


def test_selection_does_not_depend_on_other_methods(all_methods_run):
    alone = golden_run(methods=("CC",))
    cc_rows = {name: getattr(all_methods_run, name)[all_methods_run.method == "CC"]
               for name in RecordTable.COLUMNS}
    assert same_records(alone, RecordTable(**cc_rows))


if __name__ == "__main__":
    print(f"wrote {write_records_csv(golden_run(), GOLDEN)} records to {GOLDEN}")
