"""Output checks behind ``failed`` / ``attempted``.

Run workloads: one operation is one expected record of ``records.csv``.  The
expected keys (method, repetition, config) and degrees are rebuilt here from
the protocol grids, independently of the program.  A record fails when its
key is missing, duplicated or unexpected, when a field is malformed, when the
estimate is not a finite number in [0, 1], when ``ae`` is not
|true_prev - est_prev|, or, for seeds with a stored reference, when the
estimate is more than 1e-4 from the reference.

Report workload: one operation is one rendered (degree, method) cell, once in
the markdown table and once in the plot data.  Cells are compared with an
independent recomputation from the input records and, for seeds with a
stored reference, with the reference rendering.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen_inputs import METHODS, PRIOR_TEST, PRIOR_TRAIN

HEADER = ["protocol", "method", "repetition", "config",
          "degree", "true_prev", "est_prev", "ae"]
REFERENCE_TOLERANCE = 1e-4
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _g(v: float) -> str:
    return format(v, "g")


def _degree(value: float, decimals: int) -> float:
    return round(value, decimals) + 0.0


def expected_records(protocol: str, repetitions: int, rounds: int) -> dict[tuple, tuple]:
    """(method, repetition, config) -> (protocol, degree) for the default grids."""
    cells = []  # (config without the round, degree)
    if protocol == "prior":
        for pl in PRIOR_TRAIN:
            for pu in PRIOR_TEST:
                cells.append((f"pL={_g(pl)};pU={_g(pu)}", _degree(pu - pl, 1)))
    elif protocol == "global_covariate":
        grid = [(p, a / 10) for p in (0.25, 0.5, 0.75) for a in range(11)]
        for pl, al in grid:
            for pu, au in grid:
                cells.append((f"pL={_g(pl)};aL={_g(al)};pU={_g(pu)};aU={_g(au)}",
                              _degree(al - au, 1)))
    elif protocol == "concept":
        cuts = (1.5, 2.5, 3.5, 4.5)
        for cl in cuts:
            for cu in cuts:
                cells.append((f"cL={_g(cl)};cU={_g(cu)}", _degree(cl - cu, 0)))
    else:
        raise ValueError(f"no expected grid for protocol {protocol!r}")
    return {
        (m, rep, f"{config};r={r}"): (protocol, degree)
        for rep in range(repetitions) for config, degree in cells
        for r in range(rounds) for m in METHODS
    }


def load_reference(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}-{seed}.json.gz"
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, data) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}-{seed}.json.gz"
    payload = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(gzip.compress(payload, mtime=0))
    return path


def records_reference(path: Path, expected: dict) -> dict:
    """Estimates of a correct records.csv, in sorted expected-key order."""
    rows = {(r[1], int(r[2]), r[3]): float(r[6]) for r in _csv_rows(path)}
    return {"estimates": [round(rows[k], 8) for k in sorted(expected)]}


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != HEADER:
            return []
        return list(reader)


def _finite_unit(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) and 0.0 <= v <= 1.0 else None


def check_records(path: Path, expected: dict, reference=None) -> tuple[int, list[str]]:
    """Returns (failed records, first few problems) for one records.csv."""
    problems: list[str] = []
    failed: set[tuple] = set()
    seen: set[tuple] = set()
    extra = 0
    ref = None
    if reference is not None:
        ref = dict(zip(sorted(expected), reference["estimates"]))
    rows = _csv_rows(path) if path.exists() else []
    if not rows:
        return len(expected), [f"{path.name}: missing, empty or wrong header"]
    for row in rows:
        if len(row) != len(HEADER):
            extra += 1
            problems.append(f"malformed row {row!r}")
            continue
        try:
            key = (row[1], int(row[2]), row[3])
        except ValueError:
            extra += 1
            problems.append(f"bad repetition in {row!r}")
            continue
        if key not in expected:
            extra += 1
            problems.append(f"unexpected record {key}")
            continue
        if key in seen:
            failed.add(key)
            problems.append(f"duplicate record {key}")
            continue
        seen.add(key)
        protocol, degree = expected[key]
        true, est = _finite_unit(row[5]), _finite_unit(row[6])
        ok = row[0] == protocol and true is not None and est is not None
        if ok:
            try:
                ok = float(row[4]) == degree and abs(float(row[7]) - abs(true - est)) <= 1e-12
            except ValueError:
                ok = False
        if ok and ref is not None and abs(est - ref[key]) > REFERENCE_TOLERANCE:
            ok = False
            problems.append(f"{key}: estimate {est!r} is off the reference {ref[key]!r}")
        elif not ok:
            problems.append(f"invalid record {row!r}")
        if not ok:
            failed.add(key)
    missing = len(expected) - len(seen)
    if missing:
        problems.append(f"{missing} expected record(s) missing")
    return min(len(expected), len(failed) + missing + extra), problems[:5]


# ---------------------------------------------------------------------------
# report-full
# ---------------------------------------------------------------------------


def report_oracle(records_path: Path) -> dict:
    """Per (degree text, method): AE values in file order, recomputed here."""
    groups: dict[tuple[str, str], list[float]] = {}
    for row in _csv_rows(records_path):
        ae = abs(float(row[5]) - float(row[6]))
        groups.setdefault((_g(float(row[4])), row[1]), []).append(ae)
    return {key: np.array(values) for key, values in groups.items()}


def _fmt_mae(value: float) -> str:
    out = f"{value:.3f}"
    return out[1:] if out.startswith("0.") else out


def markdown_cells(text: str) -> dict[tuple[str, str], str]:
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    if len(lines) < 2:
        return {}
    methods = [c.strip() for c in lines[0].strip("|").split("|")][1:]
    cells = {}
    for line in lines[2:]:
        parts = [c.strip() for c in line.strip("|").split("|")]
        for method, cell in zip(methods, parts[1:]):
            cells[(parts[0], method)] = cell
    return cells


def plotdata_rows(text: str) -> dict[tuple[str, str], str]:
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",", 2)
        if len(parts) == 3:
            rows[(parts[0], parts[1])] = line
    return rows


def _row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def report_reference(markdown: str, plotdata: str) -> dict:
    return {
        "markdown": {"|".join(k): v for k, v in markdown_cells(markdown).items()},
        "plotdata": {"|".join(k): _row_digest(v) for k, v in plotdata_rows(plotdata).items()},
    }


def _plot_row_ok(line: str, ae: np.ndarray) -> bool:
    fields = line.split(",")
    if len(fields) != 8:
        return False
    v = np.sort(ae)
    q1, median, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    inside = v[(v >= lo) & (v <= hi)]
    want = [inside.min(), q1, median, q3, inside.max()]
    try:
        got = [float(x) for x in fields[2:7]]
        outliers = [float(x) for x in fields[7].split(";")] if fields[7] else []
    except ValueError:
        return False
    want_out = v[(v < lo) | (v > hi)]
    return (np.allclose(got, want, rtol=0, atol=1e-12)
            and len(outliers) == len(want_out)
            and np.allclose(sorted(outliers), np.sort(want_out), rtol=0, atol=1e-12))


def check_report(markdown: str, plotdata: str, oracle: dict, reference=None) -> tuple[int, int, list[str]]:
    """Returns (attempted cells, failed cells, first few problems)."""
    problems: list[str] = []
    failed = 0
    md = markdown_cells(markdown)
    plot = plotdata_rows(plotdata)
    ref_md = ref_plot = None
    if reference is not None:
        ref_md, ref_plot = reference["markdown"], reference["plotdata"]
    means = {key: float(np.mean(ae)) for key, ae in oracle.items()}
    best = {}
    for (degree, method), mean in means.items():
        if degree not in best or (mean, method) < (means[(degree, best[degree])], best[degree]):
            best[degree] = method
    for key, ae in oracle.items():
        cell = md.get(key)
        ok = cell is not None and cell.replace("**", "").rstrip("†‡") == _fmt_mae(means[key])
        ok = ok and cell.startswith("**") == (best[key[0]] == key[1])
        if ok and ref_md is not None:
            ok = ref_md.get("|".join(key)) == cell
        if not ok:
            failed += 1
            problems.append(f"markdown cell {key}: {cell!r}")
        line = plot.get(key)
        ok = line is not None and _plot_row_ok(line, ae)
        if ok and ref_plot is not None:
            ok = ref_plot.get("|".join(key)) == _row_digest(line)
        if not ok:
            failed += 1
            problems.append(f"plotdata row {key}: {line!r}")
    extra = (len(set(md) - set(oracle)) + len(set(plot) - set(oracle)))
    if extra:
        problems.append(f"{extra} unexpected cell(s)")
    attempted = 2 * len(oracle)
    return attempted, min(attempted, failed + extra), problems[:5]


# ---------------------------------------------------------------------------
# self-test: corrupt outputs on purpose and expect the damage counted
# ---------------------------------------------------------------------------


def self_test(work: Path) -> list[str]:
    """Returns the failures of the checker itself (empty when it works)."""
    errors = []
    expected = expected_records("prior", repetitions=1, rounds=1)
    keys = sorted(expected)
    rng = np.random.default_rng(0)
    rows = []
    for key in keys:
        protocol, degree = expected[key]
        true = float(key[2].split(";")[1][3:])
        est = float(rng.random())
        rows.append([protocol, key[0], str(key[1]), key[2], repr(degree),
                     repr(true), repr(est), repr(abs(true - est))])
    reference = {"estimates": [float(r[6]) for r in rows]}

    def run(mutate, want):
        body = [list(r) for r in rows]
        mutate(body)
        path = work / "selftest-records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerows(body)
        got, _ = check_records(path, expected, reference)
        if got != want:
            errors.append(f"records check counted {got} failure(s) for {mutate.__doc__}, want {want}")

    def clean(body):
        """an intact file"""

    def damage(body):
        """six damaged records"""
        del body[0]                                   # missing
        body.append(list(body[1]))                    # duplicated key
        body[2][6] = "nan"                            # not finite
        body[3][6], body[3][7] = "1.5", "0.5"         # out of range
        est = float(body[4][6])
        body[4][6] = repr(min(1.0, est + 1e-3) if est < 0.5 else est - 1e-3)
        body[4][7] = repr(abs(float(body[4][5]) - float(body[4][6])))  # off the reference
        body[5][7] = repr(float(body[5][7]) + 0.25)   # ae inconsistent

    def extra(body):
        """one unexpected record"""
        body.append(["prior", "XYZ", "0", "pL=0.5;pU=0.5;r=0", "0.0", "0.5", "0.5", "0.0"])

    run(clean, 0)
    run(damage, 6)
    run(extra, 1)

    groups = {("0", "CC"): np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
              ("0", "ACC"): np.array([0.05, 0.1, 0.1, 0.2, 0.9])}
    markdown = "| degree | CC | ACC |\n|---:|---:|---:|\n| 0 | .300 | **.270** |\n"

    def plot_fields(key, shift=0.0):
        v = np.sort(groups[key])
        q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        inside, out = v[(v >= lo) & (v <= hi)], v[(v < lo) | (v > hi)]
        nums = [inside.min(), q1, med + shift, q3, inside.max()]
        return ",".join([key[0], key[1]] + [repr(float(x)) for x in nums]
                        + [";".join(repr(float(x)) for x in out)])

    head = "degree,method,min,q1,median,q3,max,outliers\n"
    cc, acc = ("0", "CC"), ("0", "ACC")
    plotdata = head + plot_fields(cc) + "\n" + plot_fields(acc) + "\n"
    for name, md, pd, want in (
        ("an intact report", markdown, plotdata, 0),
        ("a wrong markdown cell", markdown.replace(".300", ".301"), plotdata, 1),
        ("a lost bold mark", markdown.replace("**.270**", ".270"), plotdata, 1),
        ("a wrong plot row", markdown, head + plot_fields(cc, 0.01) + "\n" + plot_fields(acc) + "\n", 1),
        ("a missing plot row", markdown, head + plot_fields(acc) + "\n", 1),
    ):
        _, got, _ = check_report(md, pd, groups)
        if got != want:
            errors.append(f"report check counted {got} failure(s) for {name}, want {want}")
    return errors
