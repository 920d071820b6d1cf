"""``write_records_csv`` of a table writes the bytes the row-by-row writer wrote.

The oracle, ``oracle_write_records_csv``, is the earlier writer: it wrote
one row at a time, each value through ``str`` or ``repr`` and the absolute
error as ``abs(true - estimate)`` (``oracle_csv_row``), here over plain row
tuples.  One rule is added to it: a row with a carriage return in a text
field is written with every text field quoted, because the csv module
leaves a field holding a lone CR unquoted and no reader can tell it from a
line break.  The table writer must match it byte for byte on any valid rows,
including configs with commas, quotes and line breaks and floats such as
±0.0, subnormals and 1/3, and ``read_records_csv`` must read every such file
back to the same table.  Several tables, written in chunks of any size, must
give the oracle's bytes for their rows in order, and a write, finished or
failed part-way, must create no file but the path it is given.  Building a
table from estimates must reject a NaN or out-of-range prevalence with a
message naming the value.
"""

import csv
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftbench import evaluation
from shiftbench.evaluation import (
    CSV_HEADER,
    RecordTable,
    read_records_csv,
    write_records_csv,
)

property_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def oracle_csv_row(row) -> list[str]:
    protocol, method, repetition, config, degree, true_prev, estimate = row
    return [
        protocol,
        method,
        str(repetition),
        config,
        repr(degree),
        repr(true_prev),
        repr(estimate),
        repr(abs(true_prev - estimate)),
    ]


def oracle_write_records_csv(rows, path) -> int:
    """Write row tuples as UTF-8 CSV with LF line endings; returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            protocol, method, _, config = row[:4]
            if "\r" in protocol + method + config:
                fh.write(",".join(
                    field if k in (2, 4, 5, 6, 7) else '"' + field.replace('"', '""') + '"'
                    for k, field in enumerate(oracle_csv_row(row))
                ) + "\n")
            else:
                writer.writerow(oracle_csv_row(row))
            n += 1
    return n


SUBNORMALS = (5e-324, 2.2250738585072009e-308, 1e-310)
EDGE_PREVALENCES = (0.0, -0.0, 1.0, 1 / 3, 2 / 3, 0.1, 1 - 2**-53, *SUBNORMALS)

# any encodable text, plus the characters CSV must quote
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
configs = st.one_of(
    texts,
    st.lists(st.sampled_from([",", '"', "\n", "\r\n", "\r", " ", "pL=0.5", ";", "#"]),
             max_size=6).map("".join),
)
prevalences = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PREVALENCES))
degrees = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, -1.0, 0.25, 1 / 3, -2.0, *SUBNORMALS)),
)
rows = st.tuples(
    st.sampled_from(["prior", "global_covariate", "local_covariate", "concept"]),
    st.one_of(st.sampled_from(["CC", "DyS", "SLD"]), texts),
    st.integers(-(2**63), 2**63 - 1),
    configs,
    degrees,
    prevalences,
    prevalences,
)


def table_of(rows) -> RecordTable:
    columns = list(zip(*rows)) or [[]] * 7
    names = ("protocol", "method", "repetition", "config", "degree", "true_prev", "estimate")
    return RecordTable.from_estimates(**dict(zip(names, columns)))


@property_settings
@given(rows=st.lists(rows, max_size=30))
def test_table_writer_matches_row_writer(tmp_path, rows):
    ours, oracle = tmp_path / "table.csv", tmp_path / "rows.csv"
    table = table_of(rows)
    assert write_records_csv(table, ours) == oracle_write_records_csv(rows, oracle) == len(rows)
    assert ours.read_bytes() == oracle.read_bytes()


@property_settings
@given(rows=st.lists(rows, max_size=30),
       configs=st.lists(st.lists(st.sampled_from(["a", ",", '"', "\r", "\r\n", "\n"]),
                                 max_size=6).map("".join), min_size=30, max_size=30))
def test_written_table_reads_back(tmp_path, rows, configs):
    """A CR, a CR LF or a LF inside a config, or anywhere in a text field,
    survives write_records_csv then read_records_csv unchanged."""
    rows = [row[:3] + (config,) + row[4:] for row, config in zip(rows, configs)]
    path, again = tmp_path / "table.csv", tmp_path / "again.csv"
    table = table_of(rows)
    write_records_csv(table, path)
    loaded = read_records_csv(path)
    for name in RecordTable.COLUMNS:
        assert getattr(loaded, name).tolist() == getattr(table, name).tolist(), name
    write_records_csv(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@property_settings
@given(rows=st.lists(rows, max_size=40), cuts=st.lists(st.integers(0, 40), max_size=4),
       cr_rows=st.lists(st.integers(0, 39), max_size=3), chunk=st.integers(1, 7))
def test_tables_written_in_chunks_match_row_writer(tmp_path, monkeypatch, rows, cuts,
                                                   cr_rows, chunk):
    """The rows of several tables, cut at arbitrary points and written through
    a small chunk size, are the oracle's bytes for all the rows in order; a
    CR in some rows quotes those rows only."""
    monkeypatch.setattr(evaluation, "RECORDS_CHUNK_ROWS", chunk)
    rows = [row[:3] + ("r=1\rpL=0.5",) + row[4:] if k in cr_rows else row
            for k, row in enumerate(rows)]
    bounds = sorted({min(cut, len(rows)) for cut in cuts})
    pieces = [rows[a:b] for a, b in zip([0, *bounds], [*bounds, len(rows)])]
    ours, oracle = tmp_path / "tables.csv", tmp_path / "rows.csv"
    written = write_records_csv((table_of(piece) for piece in pieces), ours)
    assert written == oracle_write_records_csv(rows, oracle) == len(rows)
    assert ours.read_bytes() == oracle.read_bytes()


def test_writer_creates_no_file_but_its_path(tmp_path, monkeypatch):
    """A write, finished or failed part-way, touches only ``path``: staging
    it and publishing it are the caller's."""
    monkeypatch.setattr(evaluation, "RECORDS_CHUNK_ROWS", 1)
    path = tmp_path / "records.csv"
    row = ("prior", "CC", 0, "r=0", 0.0, 0.5, 0.25)

    def tables(fail):
        yield table_of([row, row])
        if fail:
            raise RuntimeError("the run failed")

    with pytest.raises(RuntimeError, match="the run failed"):
        write_records_csv(tables(fail=True), path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text().splitlines() == [",".join(CSV_HEADER),
                                             *["prior,CC,0,r=0,0.0,0.5,0.25,0.25"] * 2]
    path.unlink()
    assert write_records_csv(tables(fail=False), path) == 2
    assert list(tmp_path.iterdir()) == [path]


out_of_range = st.one_of(
    st.floats(max_value=-1e-300),
    st.floats(min_value=1.0, exclude_min=True),
    st.sampled_from([math.nan, -math.inf, math.inf, -5e-324, 1 + 2**-52]),
)


@property_settings
@given(rows=st.lists(rows, min_size=1, max_size=10), data=st.data())
def test_bad_prevalence_rejected_like_a_record(rows, data):
    bad = data.draw(out_of_range)
    at = data.draw(st.integers(0, len(rows) - 1))
    field = data.draw(st.sampled_from([5, 6]))  # true prevalence or estimate
    row = list(rows[at])
    row[field] = bad
    rows = rows[:at] + [tuple(row)] + rows[at + 1:]
    with pytest.raises(ValueError) as table_error:
        table_of(rows)
    name = "true prevalence" if field == 5 else "estimate"
    assert str(table_error.value) == f"{name} out of [0, 1]: {bad}"


@pytest.mark.parametrize("degree", [math.nan, math.inf, -math.inf])
def test_non_finite_degree_rejected(degree):
    with pytest.raises(ValueError, match="non-finite degree"):
        table_of([("prior", "CC", 0, "r=0", degree, 0.5, 0.5)])
