"""Rendering of record streams into tables and boxplot-ready quantile data."""

from __future__ import annotations

import io
from collections import defaultdict
from typing import Sequence

import numpy as np

from .evaluation import ExperimentRecord, SignificanceMark, mark_significance
from .quantifiers import METHOD_NAMES

_MARK_SUFFIX = {SignificanceMark.DAGGER: "†", SignificanceMark.DDAGGER: "‡"}


def _grouped(records: Sequence[ExperimentRecord]) -> tuple[list[str], dict]:
    """Method columns, and degree -> method -> records, each in record order.

    Every report renders from this one grouping; ``_samples`` keys a group's
    AEs by sample only while that group is rendered, which keeps memory low.
    """
    if not records:
        raise ValueError("no records to report")
    groups: dict[float, dict[str, list[ExperimentRecord]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        groups[rec.degree][rec.method].append(rec)
    present = {m for by_method in groups.values() for m in by_method}
    methods = [m for m in METHOD_NAMES if m in present] + sorted(present - set(METHOD_NAMES))
    return methods, groups


def _samples(group: list[ExperimentRecord]) -> dict[tuple[int, str], float]:
    """(repetition, config) -> AE of one (degree, method) group; a repeat raises."""
    aes = {(rec.repetition, rec.config): rec.ae for rec in group}
    if len(aes) < len(group):
        raise ValueError(
            f"duplicate record: method {group[0].method} repeats a (repetition, config) "
            f"at degree {group[0].degree:g}"
        )
    return aes


def _degree_rows(groups: dict) -> list[tuple[float, dict, dict]]:
    """Rows of (degree, MAE by method, marks by method), degrees ascending.

    Marks compare AE vectors aligned by (repetition, configuration); with a
    single method no significance testing applies and marks are empty.
    """
    rows = []
    for degree in sorted(groups):
        by_method = {m: _samples(group) for m, group in groups[degree].items()}
        mae = {m: float(np.mean(list(aes.values()))) for m, aes in by_method.items()}
        marks: dict[str, SignificanceMark] = {}
        if len(by_method) >= 2:
            keys = sorted({k for aes in by_method.values() for k in aes})
            lacking = {m: n for m, aes in by_method.items() if (n := len(keys) - len(aes))}
            if lacking:
                raise ValueError(f"misaligned records: samples lacking by method {lacking}")
            marks = mark_significance(
                {m: np.array([aes[k] for k in keys]) for m, aes in by_method.items()}
            )
        rows.append((degree, mae, marks))
    return rows


def _fmt_mae(value: float) -> str:
    out = f"{value:.3f}"
    return out[1:] if out.startswith("0.") else out


def render_markdown(records: Sequence[ExperimentRecord]) -> str:
    """MAE-by-degree markdown table; best per row in bold, daggers appended."""
    methods, groups = _grouped(records)
    out = io.StringIO()
    out.write("| degree | " + " | ".join(methods) + " |\n")
    out.write("|---:|" + "---:|" * len(methods) + "\n")
    for degree, mae, marks in _degree_rows(groups):
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


def render_table_csv(records: Sequence[ExperimentRecord]) -> str:
    """Machine-readable table: degree,method,mae,mark."""
    methods, groups = _grouped(records)
    out = io.StringIO()
    out.write("degree,method,mae,mark\n")
    for degree, mae, marks in _degree_rows(groups):
        for m in methods:
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


def render_plotdata(records: Sequence[ExperimentRecord]) -> str:
    """Per-(degree, method) boxplot numbers: whisker ends, quartiles, outliers."""
    methods, groups = _grouped(records)
    out = io.StringIO()
    out.write("degree,method,min,q1,median,q3,max,outliers\n")
    for degree in sorted(groups):
        for m in methods:
            if m not in groups[degree]:
                continue
            s = boxplot_stats(list(_samples(groups[degree][m]).values()))
            outliers = ";".join(repr(x) for x in s["outliers"])
            out.write(
                f"{format(degree, 'g')},{m},{s['min']!r},{s['q1']!r},"
                f"{s['median']!r},{s['q3']!r},{s['max']!r},{outliers}\n"
            )
    return out.getvalue()
