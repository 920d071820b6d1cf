"""Rendering of a :class:`RecordTable` into tables and boxplot-ready quantile data."""

from __future__ import annotations

import io
from typing import NamedTuple, Sequence

import numpy as np

from .evaluation import RecordTable, SignificanceMark, mark_significance
from .quantifiers import METHOD_NAMES

_MARK_SUFFIX = {SignificanceMark.DAGGER: "†", SignificanceMark.DDAGGER: "‡"}


class _Groups(NamedTuple):
    """One protocol's records split into (degree, method) groups of row indices."""

    methods: list[str]  # report columns: registry order, then unknown names sorted
    # degrees ascending; within one, methods in order of their first row and
    # each method's row indices in record order
    degrees: list[tuple[float, dict[str, np.ndarray]]]
    ae: np.ndarray
    sample: np.ndarray  # per row: rank of its (repetition, config) in tuple order


def _ranks(values: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct values in Python sort order, and each value's index among them."""
    distinct = sorted(dict.fromkeys(values))
    lookup = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(lookup.__getitem__, values), np.int64, count=len(values))


def _groups(table: RecordTable) -> _Groups:
    """The one grouping every report renders from."""
    if len(table) == 0:
        raise ValueError("no records to report")
    if not (table.protocol == table.protocol[0]).all():
        raise ValueError(f"records mix protocols: {', '.join(_ranks(table.protocol)[0])}")
    degrees, degree_code = np.unique(table.degree, return_inverse=True)
    methods, method_code = _ranks(table.method)
    configs, config_code = _ranks(table.config)
    _, repetition_code = np.unique(table.repetition, return_inverse=True)

    key = degree_code * len(methods) + method_code
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    by_degree: dict[int, dict[str, np.ndarray]] = {}
    # (degree, first row) order puts each degree's methods in record order
    for idx in sorted(np.split(order, starts[1:]), key=lambda idx: (degree_code[idx[0]], idx[0])):
        by_degree.setdefault(degree_code[idx[0]], {})[methods[method_code[idx[0]]]] = idx
    return _Groups(
        methods=[m for m in METHOD_NAMES if m in methods]
        + [m for m in methods if m not in METHOD_NAMES],
        degrees=[(float(degrees[d]), group) for d, group in by_degree.items()],
        ae=table.ae,
        sample=repetition_code * len(configs) + config_code,
    )


def _by_sample(g: _Groups, degree: float, method: str, idx: np.ndarray) -> np.ndarray:
    """One group's row indices ordered by (repetition, config); a repeat raises."""
    ordered = idx[np.argsort(g.sample[idx], kind="stable")]
    if (np.diff(g.sample[ordered]) == 0).any():
        raise ValueError(
            f"duplicate record: method {method} repeats a (repetition, config) "
            f"at degree {degree:g}"
        )
    return ordered


def _degree_rows(g: _Groups) -> list[tuple[float, dict, dict]]:
    """Rows of (degree, MAE by method, marks by method), degrees ascending.

    Marks compare AE vectors aligned by (repetition, configuration); with a
    single method no significance testing applies and marks are empty.
    """
    rows = []
    for degree, group in g.degrees:
        aligned = {m: _by_sample(g, degree, m, idx) for m, idx in group.items()}
        mae = {m: float(np.mean(g.ae[idx])) for m, idx in group.items()}
        marks: dict[str, SignificanceMark] = {}
        if len(group) >= 2:
            n_samples = len(np.unique(g.sample[np.concatenate(list(group.values()))]))
            lacking = {m: n for m, idx in group.items() if (n := n_samples - len(idx))}
            if lacking:
                raise ValueError(f"misaligned records: samples lacking by method {lacking}")
            marks = mark_significance({m: g.ae[idx] for m, idx in aligned.items()})
        rows.append((degree, mae, marks))
    return rows


def _fmt_mae(value: float) -> str:
    out = f"{value:.3f}"
    return out[1:] if out.startswith("0.") else out


def render_markdown(table: RecordTable) -> str:
    """MAE-by-degree markdown table; best per row in bold, daggers appended."""
    g = _groups(table)
    methods = g.methods
    out = io.StringIO()
    out.write("| degree | " + " | ".join(methods) + " |\n")
    out.write("|---:|" + "---:|" * len(methods) + "\n")
    for degree, mae, marks in _degree_rows(g):
        cells = []
        for m in methods:
            if m not in mae:
                cells.append("-")
                continue
            text = _fmt_mae(mae[m])
            mark = marks.get(m)
            if mark is SignificanceMark.BEST:
                text = f"**{text}**"
            else:
                text += _MARK_SUFFIX.get(mark, "")
            cells.append(text)
        out.write(f"| {format(degree, 'g')} | " + " | ".join(cells) + " |\n")
    return out.getvalue()


def render_table_csv(table: RecordTable) -> str:
    """Machine-readable table: degree,method,mae,mark."""
    g = _groups(table)
    out = io.StringIO()
    out.write("degree,method,mae,mark\n")
    for degree, mae, marks in _degree_rows(g):
        for m in g.methods:
            if m not in mae:
                continue
            mark = marks.get(m)
            out.write(
                f"{format(degree, 'g')},{m},{mae[m]!r},"
                f"{mark.value if mark else 'none'}\n"
            )
    return out.getvalue()


def boxplot_stats(values: Sequence[float]) -> dict:
    """Five-number boxplot summary with 1.5*IQR whiskers.

    Quartiles use linear interpolation between order statistics (the default
    numpy rule); whiskers sit on the most extreme observations within
    1.5*IQR of the quartiles, and anything beyond is listed as an outlier.
    """
    v = np.sort(np.asarray(values, dtype=float))
    q1, median, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    outliers = v[(v < lo_fence) | (v > hi_fence)]
    return {
        "min": float(inside.min()),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(inside.max()),
        "outliers": [float(x) for x in outliers],
    }


def render_plotdata(table: RecordTable) -> str:
    """Per-(degree, method) boxplot numbers: whisker ends, quartiles, outliers."""
    g = _groups(table)
    out = io.StringIO()
    out.write("degree,method,min,q1,median,q3,max,outliers\n")
    for degree, group in g.degrees:
        for m in g.methods:
            if m not in group:
                continue
            s = boxplot_stats(g.ae[_by_sample(g, degree, m, group[m])])
            outliers = ";".join(repr(x) for x in s["outliers"])
            out.write(
                f"{format(degree, 'g')},{m},{s['min']!r},{s['q1']!r},"
                f"{s['median']!r},{s['q3']!r},{s['max']!r},{outliers}\n"
            )
    return out.getvalue()
