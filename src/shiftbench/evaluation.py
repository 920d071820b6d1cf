"""The records file and paired significance tests.

A :class:`RecordTable` holds evaluated test samples as columns, from the
executor that builds them to ``records.csv`` and back.  It is the one form
a record takes: :meth:`RecordTable.from_estimates` computes each row's
absolute error and rejects a bad row by the rule :func:`read_records_csv`
applies.  :func:`write_records_csv` writes one file, which its caller
stages and publishes.  The Wilcoxon signed-rank test pairs records of two
methods by (repetition, configuration), uses the exact sign-flip
distribution for up to 25 non-zero differences, and a tie- and
continuity-corrected normal approximation beyond that.  Its average ranks
come from :func:`rankdata`, written in numpy so that importing the package
does not load ``scipy.stats``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import warnings
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

EXACT_LIMIT = 25  # largest n handled by exact sign-assignment enumeration

CSV_HEADER = ("protocol", "method", "repetition", "config",
              "degree", "true_prev", "est_prev", "ae")


#: Rows turned into Python values at a time by :func:`write_records_csv`.
RECORDS_CHUNK_ROWS = 65_536


def write_records_csv(tables: RecordTable | Iterable[RecordTable], path: str | Path) -> int:
    """Write a table, or the rows of several in order, as UTF-8 CSV with LF
    line endings to ``path`` and nowhere else, for the caller to stage and
    publish; returns the row count.

    The rows go out ``RECORDS_CHUNK_ROWS`` at a time, and each table is let
    go once written, so the writer holds one table and one chunk's Python
    values at most.  A chunk's columns become Python ints, floats and
    strings, which the csv module writes with ``str``: the shortest repr of
    each float, so every value reads back exactly.  The csv module quotes a
    field holding a LF but not one holding a lone CR, which a reader would
    take for a line break, so a row with a CR in a text field is written with
    every text field quoted.
    """
    if isinstance(tables, RecordTable):
        tables = (tables,)
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(CSV_HEADER)
        for table in tables:
            for start in range(0, len(table), RECORDS_CHUNK_ROWS):
                chunk = slice(start, start + RECORDS_CHUNK_ROWS)
                _write_chunk(writer, quoted, [getattr(table, name)[chunk]
                                              for name in RecordTable.COLUMNS])
            n += len(table)
            del table
    return n


def _write_chunk(writer, quoted, columns: list[np.ndarray]):
    """Write the rows of ``columns`` (in ``RecordTable.COLUMNS`` order)."""
    rows = zip(*(column.tolist() for column in columns))
    texts = (columns[0], columns[1], columns[3])  # protocol, method, config
    if any("\r" in text for column in texts for text in set(column)):
        for row in rows:
            (quoted if "\r" in row[0] + row[1] + row[3] else writer).writerow(row)
    else:
        writer.writerows(rows)


class RecordTable:
    """Records held as read-only columns, one array per field.

    ``protocol``, ``method`` and ``config`` are object arrays of strings,
    ``repetition`` is int64, and ``degree``, ``true_prev``, ``estimate`` and
    ``ae`` are float64.  A row is read through its columns, e.g.
    ``table.ae[table.method == "CC"]``.
    """

    COLUMNS = {"protocol": object, "method": object, "repetition": np.int64, "config": object,
               "degree": np.float64, "true_prev": np.float64, "estimate": np.float64,
               "ae": np.float64}

    def __init__(self, **columns):
        if set(columns) != set(self.COLUMNS):
            raise TypeError(f"RecordTable needs exactly the columns {list(self.COLUMNS)}")
        for name, dtype in self.COLUMNS.items():
            # a read-only view: no copy, and the caller's own array stays writeable
            values = np.asarray(columns[name], dtype=dtype).view()
            values.flags.writeable = False
            setattr(self, name, values)
        if len({getattr(self, name).shape for name in self.COLUMNS}) != 1:
            raise ValueError("RecordTable columns differ in length")

    @classmethod
    def from_estimates(cls, **columns) -> RecordTable:
        """A table of every column but ``ae``, which is computed as
        |true_prev - estimate|.  Raises ``ValueError`` on a row that
        :func:`read_records_csv` would reject."""
        true_prev = np.asarray(columns["true_prev"], dtype=np.float64)
        estimate = np.asarray(columns["estimate"], dtype=np.float64)
        table = cls(**columns, ae=np.abs(true_prev - estimate))
        if invalid := _first_invalid_row(table):
            raise ValueError(invalid[1])
        return table

    @classmethod
    def concat(cls, tables: Iterable[RecordTable]) -> RecordTable:
        """The rows of ``tables``, in order."""
        tables = list(tables)
        return cls(**{
            name: np.concatenate([np.empty(0, dtype)] + [getattr(t, name) for t in tables])
            for name, dtype in cls.COLUMNS.items()
        })

    def __len__(self) -> int:
        return len(self.ae)


_ROW_DTYPE = np.dtype(list(RecordTable.COLUMNS.items()))  # one file row, fields in file order


def read_records_csv(path: str | Path) -> RecordTable:
    """Records of a file written by :func:`write_records_csv`, parsed column by column.

    A bad row raises ``ValueError`` naming its file line: a wrong field
    count, a non-integer repetition or a non-numeric value, a non-finite
    degree, a prevalence outside [0, 1], or an ``ae`` other than
    |true_prev - est_prev| exactly.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header != list(CSV_HEADER):
        raise ValueError(f"{path}: unexpected records header {header}")
    lines, has_cr = _scan_data_lines(path)
    # np.loadtxt opens a path with universal newlines, which would read a CR
    # inside a quoted config as a line break; a file holding a CR is parsed
    # through a handle that keeps line endings as they are (and reads slower)
    source = open(path, encoding="utf-8", newline="") if has_cr else contextlib.nullcontext(path)
    try:
        with source as text, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(text, dtype=_ROW_DTYPE, delimiter=",", quotechar='"',
                              comments=None, skiprows=1, ndmin=1, encoding="utf-8")
    except ValueError as exc:
        raise _first_unparsable_row(path) or ValueError(f"{path}: {exc}") from None
    # np.loadtxt skips blank lines; fewer rows than lines means a blank line
    # or a quoted line break, and only the first is an error
    if len(rows) != lines and (error := _first_unparsable_row(path)):
        raise error
    table = RecordTable(**{name: rows[name] for name in RecordTable.COLUMNS})
    if invalid := _first_invalid_row(table):
        row, problem = invalid
        raise ValueError(f"{path}: line {_line_of_row(path, row)}: {problem}")
    return table


def _first_invalid_row(table: RecordTable) -> tuple[int, str] | None:
    """(index, problem) of the first row with a non-finite degree, a
    prevalence outside [0, 1], or an ``ae`` other than |true_prev - est_prev|
    exactly; None if every row is valid."""
    degree, true_prev, estimate, ae = table.degree, table.true_prev, table.estimate, table.ae
    # each check: the rows failing it, and the message for one of them
    checks = (
        (~np.isfinite(degree), lambda i: f"non-finite degree: {float(degree[i])}"),
        (~((true_prev >= 0.0) & (true_prev <= 1.0)),
         lambda i: f"true prevalence out of [0, 1]: {float(true_prev[i])}"),
        (~((estimate >= 0.0) & (estimate <= 1.0)),
         lambda i: f"estimate out of [0, 1]: {float(estimate[i])}"),
        (ae != np.abs(true_prev - estimate),
         lambda i: f"ae {float(ae[i])!r} is not |true_prev - est_prev| = "
                   f"{float(abs(true_prev[i] - estimate[i]))!r}"),
    )
    failures = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if not failures:
        return None
    row, k = min(failures)
    return row, checks[k][1](row)


def _scan_data_lines(path: str | Path) -> tuple[int, bool]:
    """Lines after the header, counting a last line without a line break, and
    whether the file holds a carriage return."""
    lines, last, has_cr = 0, b"\n", False
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
            has_cr = has_cr or b"\r" in block
            last = block[-1:]
    return lines - 1 + (last != b"\n"), has_cr


def _data_rows(path: str | Path):
    """(file line, fields) of each data row, as the csv module reads them."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            yield reader.line_num, row


def _first_unparsable_row(path: str | Path) -> ValueError | None:
    """An error naming the first row with a wrong field count or a number np.loadtxt refuses."""
    for line, row in _data_rows(path):
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            # int() and float() also read digit separators and non-ASCII digits
            if odd := [v for v in (row[2], *row[4:]) if "_" in v or not v.isascii()]:
                raise ValueError(f"could not convert string to a number: {odd[0]!r}")
            if not -2**63 <= int(row[2]) < 2**63:
                raise ValueError(f"repetition outside int64: {row[2]!r}")
            for value in row[4:]:
                float(value)
        except ValueError as exc:
            return ValueError(f"{path}: line {line}: {exc}")
    return None


def _line_of_row(path: str | Path, index: int) -> int:
    line, _ = next(itertools.islice(_data_rows(path), index, None))
    return line


def rankdata(values) -> np.ndarray:
    """Average ranks 1..n of ``values``; tied values share the mean of their ranks.

    Matches ``scipy.stats.rankdata(values)`` (method "average") bit for bit:
    every rank is a multiple of 0.5, which float64 holds exactly.  Written in
    numpy so that importing the package does not load ``scipy.stats``.
    """
    values = np.asarray(values).ravel()
    n = len(values)
    if n == 0:
        return np.empty(0)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # index in sorted order where each run of equal values starts, plus n
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired observations.

    Zero differences are dropped; tied absolute differences share average
    ranks.  With no remaining pairs the samples are indistinguishable and the
    p-value is 1.  Between 1 and 4 remaining pairs the test is undefined here
    (it could never reach significance anyway) and raises.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired vectors differ in length: {a.shape} vs {b.shape}")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return 1.0
    if n < 5:
        raise ValueError(f"need >= 5 non-zero differences, got {n}")
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= EXACT_LIMIT:
        return _exact_p(ranks, w_plus)
    return _normal_p(ranks, w_plus, n)


def _exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact p over all 2^n sign assignments of the (tied-)rank vector.

    Ranks with ties averaged are multiples of 0.5, so doubling them makes an
    integer convolution; the distribution of W+ over sign assignments is
    built by dynamic programming, equivalent to enumerating all 2^n of them.
    """
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    # counts[v] = number of sign assignments with doubled W+ equal to v
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: len(counts) - r]
        counts = counts + shifted
    w2 = int(round(2.0 * w_plus))
    n_assignments = counts.sum()
    p_low = counts[: w2 + 1].sum() / n_assignments
    p_high = counts[w2:].sum() / n_assignments
    return float(min(1.0, 2.0 * min(p_low, p_high)))


def _normal_p(ranks: np.ndarray, w_plus: float, n: int) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= (tie_counts**3 - tie_counts).sum() / 48.0
    if w_plus == mu:
        return 1.0
    # continuity correction of 0.5 toward the mean
    z = (w_plus - mu - 0.5 * math.copysign(1.0, w_plus - mu)) / math.sqrt(var)
    return float(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))))


class SignificanceMark(Enum):
    """Marking scheme for comparisons against the per-group best method."""

    BEST = "best"
    DAGGER = "dagger"      # 0.001 < p < 0.05: somewhat similar to the best
    DDAGGER = "ddagger"    # p >= 0.05: very similar to the best
    NONE = "none"          # p <= 0.001: clearly different from the best


def mark_significance(
    ae_vectors: Mapping[str, Sequence[float]],
) -> dict[str, SignificanceMark]:
    """Mark each method against the lowest-mean-AE method of the group.

    Vectors must be aligned (same test samples in the same order).  Ties on
    the mean break lexicographically so exactly one method is BEST.  Pairs
    with fewer than 5 non-zero differences get DDAGGER: so few disagreements
    can never reach the 0.05 level.
    """
    if len(ae_vectors) < 2:
        raise ValueError("need at least two methods to compare")
    lengths = {len(v) for v in ae_vectors.values()}
    if len(lengths) != 1:
        raise ValueError(f"misaligned AE vectors: lengths {sorted(lengths)}")
    means = {m: float(np.mean(np.asarray(v, dtype=float))) for m, v in ae_vectors.items()}
    best = min(means, key=lambda m: (means[m], m))
    best_vec = np.asarray(ae_vectors[best], dtype=float)
    marks = {best: SignificanceMark.BEST}
    for method, vec in ae_vectors.items():
        if method == best:
            continue
        vec = np.asarray(vec, dtype=float)
        nonzero = int((vec != best_vec).sum())
        p = 1.0 if nonzero < 5 else wilcoxon_signed_rank(best_vec, vec)
        if p >= 0.05:
            marks[method] = SignificanceMark.DDAGGER
        elif p > 0.001:
            marks[method] = SignificanceMark.DAGGER
        else:
            marks[method] = SignificanceMark.NONE
    return marks
