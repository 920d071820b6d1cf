"""shiftbench benchmark: end-to-end metrics per workload, or the per-layer split.

    python3 perfbench/run.py --workload covariate-jobs2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30 --trace 1   # every workload, both tables
    python3 perfbench/run.py --self-test                    # the output checker catches damage
    python3 perfbench/run.py --write-reference [--workload W]  # re-record stored references

Run from the repository root.  Every program step is one ``shiftbench`` CLI
call in a fresh interpreter (``probe.py``), with the package imported from
``src/`` of this checkout and BLAS pinned to one thread.  The loop is closed:
one call at a time, the next after the previous one ends and its output has
been checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import gen_inputs

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".perfbench-work"
SETUPS = 3              # timed set-ups per run; setup_s is their median
MIN_OPS = 3             # operations per untraced run, whatever --seconds says
MIN_TRACED_OPS = 3      # traced, untraced, traced: two traced ops to compare counts
RUN_LIMIT_S = 170.0     # a run stops its steps this long after it started
REFERENCE_SEEDS = (0, 1)
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str                   # "clusters", "reviews" or "records"
    protocol: str | None = None   # CLI protocol of a run workload
    jobs: int = 1
    flags: tuple = ()
    config: dict = field(default_factory=dict)
    size: int = 0                 # datapoints or reviews generated
    grid: tuple = ()              # (protocol, repetitions, rounds) of the records run writes


# prior-dense is not in BENCHMARK.json: the gated runs need more measured time
# than four workloads leave (README.md, "Steadiness").
WORKLOADS = {w.name: w for w in (
    Workload(
        "prior-dense",
        "prior shift on dense 2-D data: bound by the DyS mixture search, no text path",
        inputs="clusters", protocol="prior", flags=("--desk",), size=30_000,
        grid=("prior", 2, 5)),
    Workload(
        "concept-text",
        "concept shift on synthetic reviews: the only workload on per-draw tf-idf and sparse fits",
        inputs="reviews", protocol="concept", flags=("--desk",), size=8_000,
        config={"train_size": 1000, "test_size": 200, "C": 100.0},
        grid=("concept", 2, 5)),
    Workload(
        "covariate-jobs2",
        "global-covariate shift with two pool workers: most training draws and the process-pool path",
        inputs="clusters", protocol="global-covariate", jobs=2, size=36_000,
        config={"repetitions": 2, "samples_per_config": 1},
        grid=("global_covariate", 2, 1)),
    # its records.csv is prior-dense's output, tiled to the full-scale grid
    Workload(
        "report-full",
        "markdown and plot-data reports of a full-scale prior records.csv: CSV parsing and Wilcoxon tests",
        inputs="records", size=30_000, grid=("prior", 2, 5)),
)}

CLUSTER_SPECS = {"prior-dense": gen_inputs.TWO_GAUSSIANS,
                 "covariate-jobs2": gen_inputs.TWO_CATEGORY_CLUSTERS,
                 "report-full": gen_inputs.TWO_GAUSSIANS}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a step that did not finish)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHIFTBENCH_SEED"}
    env.update(THREAD_PINS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def versions() -> dict:
    """Library versions of this interpreter, which is also the one every probe runs."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def probe(cwd: Path, result: Path, mode: str, args: list[str], deadline: float) -> dict | None:
    """Runs probe.py once, killed at ``deadline``; returns its result plus its spawn
    time, or None if it failed."""
    result.unlink(missing_ok=True)
    spawned = perf_counter()
    with open(cwd / "probe.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(result), mode, *args],
            cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the probe and any stray pool worker
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        tail = (cwd / "probe.log").read_text(errors="replace").splitlines()[-5:]
        print(f"step failed ({mode} {' '.join(args)}): exit {proc.returncode}\n  "
              + "\n  ".join(tail), file=sys.stderr)
        return None
    data = json.loads(result.read_text())
    if not Path(data["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"shiftbench was imported from {data['package']}, not from src/")
    data["spawned"] = spawned
    return data


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(w: Workload, seed: int, inputs: Path, deadline: float) -> float:
    """Writes the workload's dataset and config; returns the set-up time.

    The set-up time is the interpreter start and ``import shiftbench``, plus
    the program's own ``gen-data`` call where the workload has one.  The
    review generator is the benchmark's code, so it is not timed.
    """
    result = inputs / "setup.json"
    if w.inputs == "reviews":
        (inputs / "config.json").write_text(
            json.dumps({"dataset": "reviews.jsonl", "master_seed": seed, **w.config}))
        r = probe(inputs, result, "gen-reviews", ["reviews.jsonl", str(w.size), str(seed)],
                  deadline)
    else:
        (inputs / "spec.json").write_text(json.dumps(CLUSTER_SPECS[w.name]))
        (inputs / "config.json").write_text(
            json.dumps({"dataset": "data.jsonl", "master_seed": seed, **w.config}))
        r = probe(inputs, result, "cli", ["gen-data", "--spec", "spec.json", "--out",
                                          "data.jsonl", "--seed", str(seed), "--n", str(w.size)],
                  deadline)
    if r is None or r["code"] != 0:
        raise BenchError(f"{w.name}: set-up failed")
    program_s = r["left"] - r["entered"] if w.inputs != "reviews" else 0.0
    return (r["imported"] - r["spawned"]) + program_s


def prepare_report_input(w: Workload, seed: int, inputs: Path, deadline: float) -> list[str]:
    """Writes report-full's records.csv and returns the problems of its source.

    The source is the program's own ``run prior --desk`` output on the
    set-up's dataset (prior-dense's run, here with two workers), checked
    like prior-dense's output, then tiled to the full-scale 10 x 50 grid.
    """
    source = inputs / "prior"
    r = probe(inputs, inputs / "prior.json", "cli",
              ["run", "prior", "--config", "config.json", "--out", str(source), "--jobs", "2",
               "--desk"], deadline)
    if r is None or r["code"] != 0:
        raise BenchError(f"{w.name}: the prior run that writes the report input failed")
    _, problems = checks.check_records(source / "records.csv", checks.expected_records(*w.grid),
                                       checks.load_reference("prior-dense", seed))
    try:
        gen_inputs.tile_prior_records(source / "records.csv", inputs / "records.csv")
    except (KeyError, ValueError) as exc:
        raise BenchError(f"{w.name}: cannot tile the prior records: {exc!r}") from exc
    return [f"report input (run prior --desk): {p}" for p in problems]


def op_calls(w: Workload, out: Path) -> list[list[str]]:
    """The CLI calls of one operation."""
    if w.protocol is not None:
        return [["run", w.protocol, "--config", "config.json", "--out", str(out),
                 "--jobs", str(w.jobs), *w.flags]]
    return [["report", "records.csv", "--format", fmt, "--out", str(out / f"report.{fmt}")]
            for fmt in ("markdown", "plotdata")]


# ---------------------------------------------------------------------------
# one operation: its calls, its timings and the check of its output
# ---------------------------------------------------------------------------


@dataclass
class Op:
    traced: bool
    ok: bool = True
    wall_s: float = 0.0          # timed phase: inside shiftbench.cli.main
    process_s: float = 0.0       # probe spawn to the end of the timed phase
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0
    digest: str = ""
    results: list = field(default_factory=list)


class Checker:
    """Checks each operation's output against the workload's oracle."""

    def __init__(self, w: Workload, seed: int, inputs: Path):
        self.w = w
        self.reference = checks.load_reference(w.name, seed)
        if w.protocol is not None:
            self.expected = checks.expected_records(*w.grid)
            self.attempted = len(self.expected)
            self.records = self.attempted
        else:
            self.oracle = checks.report_oracle(inputs / "records.csv")
            self.attempted = 2 * len(self.oracle)
            self.records = sum(len(ae) for ae in self.oracle.values())
        self.problems: list[str] = []

    def __call__(self, out: Path) -> tuple[int, str]:
        """(failed operations, digest of the output bytes)."""
        if self.w.protocol is not None:
            records = out / "records.csv"
            failed, problems = checks.check_records(records, self.expected, self.reference)
            manifest = out / "manifest.json"
            if not manifest.exists() or json.loads(manifest.read_text()).get(
                    "record_count") != self.attempted:
                failed = self.attempted
                problems.append("manifest.json missing or with the wrong record count")
            blob = records.read_bytes() if records.exists() else b""
        else:
            md, plot = out / "report.markdown", out / "report.plotdata"
            md_text = md.read_text(encoding="utf-8") if md.exists() else ""
            plot_text = plot.read_text(encoding="utf-8") if plot.exists() else ""
            _, failed, problems = checks.check_report(md_text, plot_text, self.oracle,
                                                      self.reference)
            blob = (md_text + "\0" + plot_text).encode("utf-8")
        self.problems.extend(problems)
        return failed, hashlib.sha256(blob).hexdigest()


def run_op(w: Workload, inputs: Path, index: int, traced: bool, checker: Checker,
           deadline: float) -> Op:
    op = Op(traced=traced)
    out = inputs.parent / f"out-{index}"
    out.mkdir()
    for i, args in enumerate(op_calls(w, out)):
        mode_args = args
        if traced:
            trace_dir = out / f"trace-{i}"
            trace_dir.mkdir()
            mode_args = [str(trace_dir), *args]
        r = probe(inputs, out / f"result-{i}.json", "cli-trace" if traced else "cli", mode_args,
                  deadline)
        if r is None or r["code"] != 0:
            op.ok = False
            continue
        op.results.append(r)
        op.wall_s += r["left"] - r["entered"]
        op.process_s += r["left"] - r["spawned"]
        op.cpu_s += r["cpu_s"]
        op.peak_rss_mb = max(op.peak_rss_mb, r["peak_rss_mb"])
    op.failed, op.digest = checker(out) if op.ok else (checker.attempted, "")
    shutil.rmtree(out)
    return op


# ---------------------------------------------------------------------------
# per-layer metrics from the traced operations
# ---------------------------------------------------------------------------

BUSY = ("core.sample_at_prevalence", "core.binarise_dataset", "core.split_stratified",
        "datagen.fit_vocabulary", "datagen.vectorise",
        "classifier.train", "classifier.oof_posteriors_kfold", "classifier.predict_proba",
        "quantifiers.fit_evidence",
        *(f"quantifiers.quantify.{m}" for m in checks.METHODS),
        "quantifiers.mixture_fit_alpha", "quantifiers.em",
        "protocols.run_protocol", "protocols.merge_samples",
        "evaluation.write_records_csv", "evaluation.read_records_csv",
        "evaluation.wilcoxon_signed_rank",
        "reporting.render_markdown", "reporting.render_plotdata")
CALLS = ("core.sample_at_prevalence", "classifier.train", "classifier.predict_proba",
         "quantifiers.mixture_fit_alpha", "evaluation.wilcoxon_signed_rank")
COUNTS = ("datagen.vectorise.docs", "classifier.lbfgs.iterations",
          "classifier.lbfgs.nonconverged", "classifier.predict_proba.rows",
          "quantifiers.em.iterations", "quantifiers.em.cap_hits",
          "evaluation.wilcoxon_signed_rank.exact_calls")
LAYERS = ("core", "datagen", "classifier", "quantifiers", "protocols", "evaluation", "reporting")

# metric name -> unit, in output order
PER_LAYER = {
    **{f"{s}.calls": "count" for s in CALLS},
    **{f"{s}.busy_s": "s" for s in BUSY},
    **{c: "count" for c in COUNTS},
    "classifier.scoring_passes_per_sample": "ratio",
    "protocols.worker_busy_s": "s",
    "protocols.worker_unattributed_s": "s",
    "protocols.parallel_efficiency": "ratio",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.worker_self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.count_mismatches": "count",
    "trace.accounting_errors": "count",
}
EXACT_REPEAT = (*(f"{s}.calls" for s in CALLS), *COUNTS, "classifier.scoring_passes_per_sample")


def layer_values(op: Op, w: Workload, records: int) -> tuple[dict, dict, list[str]]:
    """Per-layer values of one traced operation, its spans, and its accounting errors.

    Accounting errors are what the span bookkeeping can get wrong: a pool
    worker whose spans never came back, a worker whose self times exceed its
    lifetime, or a worker that lived outside its probe's traced span.
    """
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    parent_self = dict.fromkeys(("cli",) + LAYERS, 0.0)
    worker_self = dict.fromkeys(LAYERS, 0.0)
    unattributed = worker_life = 0.0
    worker_tasks = 0
    errors: list[str] = []

    def merge(span_map, count_map, self_by_layer):
        for name, (calls, busy, own) in span_map.items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += busy
            agg[2] += own
            self_by_layer[name.split(".")[0]] += own
        for name, n in count_map.items():
            counts[name] = counts.get(name, 0) + n

    for r in op.results:
        t = r["trace"]
        merge(t["spans"], t["counts"], parent_self)
        for dump in t["workers"]:
            merge(dump["spans"], dump["counts"], worker_self)
            life = dump["exited"] - dump["forked"]
            own = sum(span[2] for span in dump["spans"].values())
            worker_life += life
            worker_tasks += dump["spans"].get("protocols.worker", [0])[0]
            if own > life:
                errors.append(f"worker self time {own:.4f} s exceeds its lifetime {life:.4f} s")
            if not r["entered"] <= dump["forked"] <= dump["exited"] <= r["left"]:
                errors.append("a pool worker lived outside the traced CLI call")
        unattributed += r["entered"] - r["spawned"]
    if w.protocol is not None:
        repetitions = w.grid[1]
        tasks = spans.get("protocols.worker", [0])[0]
        if tasks != repetitions:
            errors.append(f"{tasks} repetition span(s) for {repetitions} repetitions")
        if w.jobs > 1 and worker_tasks != repetitions:
            errors.append(f"{worker_tasks} of {repetitions} repetition spans came back "
                          "from the pool workers")
    v = {}
    for s in CALLS:
        v[f"{s}.calls"] = spans.get(s, [0])[0]
    for s in BUSY:
        v[f"{s}.busy_s"] = spans.get(s, [0, 0.0])[1]
    for c in COUNTS:
        v[c] = counts.get(c, 0)
    samples = records / len(checks.METHODS) if w.protocol is not None else 0
    v["classifier.scoring_passes_per_sample"] = (
        counts.get("classifier.predict_proba.in_quantify", 0) / samples if samples else 0.0)
    worker_busy = spans.get("protocols.worker", [0, 0.0])[1]
    v["protocols.worker_busy_s"] = worker_busy
    v["protocols.worker_unattributed_s"] = worker_life - sum(worker_self.values())
    protocol_wall = spans.get("protocols.run_protocol", [0, 0.0])[1]
    v["protocols.parallel_efficiency"] = (
        worker_busy / (w.jobs * protocol_wall) if protocol_wall else 0.0)
    v["cli.self_s"] = parent_self["cli"]
    for layer in LAYERS:
        v[f"{layer}.self_s"] = parent_self[layer]
        v[f"{layer}.worker_self_s"] = worker_self[layer]
    v["trace.unattributed_s"] = unattributed
    return v, spans, errors


def per_layer_metrics(ops: list[Op], w: Workload, records: int) -> tuple[dict, dict, dict]:
    """Medians of the per-layer values over the traced operations, the spans of
    the first, and the tracing figures that are not layer metrics."""
    traced = [op for op in ops if op.traced and op.ok]
    untraced = [op for op in ops if not op.traced and op.ok]
    if not traced:
        return {}, {}, {}
    rows = [layer_values(op, w, records) for op in traced]
    values = {name: statistics.median(r[0][name] for r in rows) for name in rows[0][0]}
    mismatched = [n for n in EXACT_REPEAT if len({r[0][n] for r in rows}) > 1]
    if mismatched:
        print(f"counts that differ between traced operations: {mismatched}", file=sys.stderr)
    values["trace.count_mismatches"] = len(mismatched)
    errors = [e for r in rows for e in r[2]]
    for e in dict.fromkeys(errors):
        print(f"tracing accounting error: {e}", file=sys.stderr)
    values["trace.accounting_errors"] = len(errors)
    missing = {m for op in traced for r in op.results for m in r["trace"]["missing"]}
    if missing:
        print(f"functions not found to trace (reported as 0): {sorted(missing)}", file=sys.stderr)
    tracing = {
        "traced_ops": len(traced),
        "wall_s": statistics.median(op.process_s for op in traced),
        "overhead_s": (statistics.median(op.wall_s for op in traced)
                       - statistics.median(op.wall_s for op in untraced)) if untraced else None,
    }
    return values, rows[0][1], tracing


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        setups = [set_up(w, seed, inputs, deadline) for _ in range(SETUPS)]
        input_problems = (prepare_report_input(w, seed, inputs, deadline)
                          if w.inputs == "records" else [])
        checker = Checker(w, seed, inputs)
        checker.problems.extend(input_problems)

        ops: list[Op] = []
        min_ops = MIN_TRACED_OPS if traced else MIN_OPS
        measure_start = perf_counter()
        while True:
            op_start = perf_counter()
            ops.append(run_op(w, inputs, len(ops), traced and len(ops) % 2 == 0, checker,
                              deadline))
            now = perf_counter()
            if not ops[-1].ok or now + (now - op_start) > deadline:
                break
            if len(ops) >= min_ops and now + (now - op_start) > measure_start + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    good = [op for op in ops if op.ok]
    digests = {op.digest for op in good}
    problems = list(dict.fromkeys(checker.problems))
    if len(digests) > 1:
        problems.append("outputs differ between operations on the same inputs")
    failed = sum(op.failed for op in ops)
    attempted = checker.attempted * len(ops)
    untraced = [op for op in good if not op.traced]
    e2e = {}
    if untraced:
        e2e = {
            "wall_s": statistics.median(op.wall_s for op in untraced),
            "records_per_s": statistics.median(checker.records / op.wall_s for op in untraced),
            "cpu_s": statistics.median(op.cpu_s for op in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in untraced),
        }
    layers, spans, tracing = (per_layer_metrics(ops, w, checker.records) if traced
                              else ({}, {}, {}))
    return {
        "workload": w.name,
        "seed": seed,
        "ops": len(ops),
        "untraced_ops": len(untraced),
        "records_per_op": checker.records,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems and len(good) == len(ops),
        "problems": problems[:10],
        "reference": checker.reference is not None,
        "setups_s": setups,
        "op_walls_s": [(op.traced, op.wall_s, op.cpu_s) for op in good],
        "end_to_end": e2e,
        "per_layer": layers,
        "tracing": tracing,
        "top_spans": sorted(((n, s[2]) for n, s in spans.items()), key=lambda kv: -kv[1])[:6],
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "jobs": w.jobs,
            "thread_pins": THREAD_PINS,
            **versions(),
        },
    }


E2E_UNITS = {"wall_s": "s", "records_per_s": "records/s", "cpu_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def print_summary(res: dict):
    w = WORKLOADS[res["workload"]]
    wall_name = "run_s" if w.protocol is not None else "report_s"
    print(f"{res['workload']}  seed {res['seed']}  {res['ops']} operation(s), "
          f"{res['untraced_ops']} untraced, one CLI call at a time")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, value in res["end_to_end"].items():
        label = f"{wall_name} (wall_s)" if name == "wall_s" else name
        print(f"  {label:24s} {value:14.4f} {E2E_UNITS[name]:10s} median of "
              f"{SETUPS if name == 'setup_s' else res['untraced_ops']}")
    base = "expected records" if w.protocol is not None else "rendered (degree, method) cells"
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':24s} {frac:14.4f} {'ratio':10s} {res['failed']} of "
          f"{res['attempted']} {base}"
          f"{'' if res['reference'] else ' (no stored reference for this seed)'}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    if res["per_layer"]:
        t = res["tracing"]
        overhead = "n/a" if t["overhead_s"] is None else f"{t['overhead_s']:.4f} s"
        print(f"  traced operations {t['traced_ops']}, traced wall {t['wall_s']:.4f} s "
              f"(spawn to the end of the timed phase), tracing overhead {overhead}")
        for name, self_s in res["top_spans"]:
            print(f"  span {name:36s} self {self_s:10.4f} s")


def result_line(res: dict, traced: bool) -> str:
    if traced:
        metrics = {n: {"value": res["per_layer"].get(n, 0), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in res["end_to_end"].items()}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def write_reference(names):
    """Records the reference outputs for REFERENCE_SEEDS from one checked operation each."""
    for w in (WORKLOADS[n] for n in names):
        for seed in REFERENCE_SEEDS:
            work = WORK / f"reference-{w.name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            inputs = work / "inputs"
            inputs.mkdir(parents=True)
            deadline = perf_counter() + RUN_LIMIT_S
            try:
                set_up(w, seed, inputs, deadline)
                if w.inputs == "records":
                    problems = prepare_report_input(w, seed, inputs, deadline)
                    if problems:
                        raise BenchError(f"{w.name} seed {seed}: {problems[:3]}")
                checker = Checker(w, seed, inputs)
                checker.reference = None
                out = work / "out"
                out.mkdir()
                for args in op_calls(w, out):
                    if probe(inputs, work / "result.json", "cli", args, deadline) is None:
                        raise BenchError(f"{w.name}: CLI call failed")
                failed, _ = checker(out)
                if failed:
                    raise BenchError(f"{w.name} seed {seed}: output fails its checks: "
                                     f"{checker.problems[:3]}")
                if w.protocol is not None:
                    data = checks.records_reference(out / "records.csv", checker.expected)
                else:
                    data = checks.report_reference(
                        (out / "report.markdown").read_text(encoding="utf-8"),
                        (out / "report.plotdata").read_text(encoding="utf-8"))
                print(f"wrote {checks.save_reference(w.name, seed, data)}")
            finally:
                shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results as JSON to this file")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.self_test:
        work = WORK / f"self-test-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            errors = checks.self_test(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if not any(WORK.iterdir()):
                WORK.rmdir()
        for e in errors:
            print(f"FAIL {e}")
        print("output checker self-test: " + ("FAIL" if errors else "PASS"))
        return 1 if errors else 0
    if not (ROOT / "src" / "shiftbench" / "cli.py").is_file():
        print(f"error: no shiftbench source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference([args.workload] if args.workload else list(WORKLOADS))
            return 0
        if args.all:
            results = []
            for w in WORKLOADS.values():
                for traced in ((False, True) if args.trace else (False,)):
                    res = run_workload(w, args.seed, args.seconds, traced)
                    print_summary(res)
                    results.append(res)
            if args.out:
                Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
            print(json.dumps({"correct": all(r["correct"] for r in results),
                              "attempted": sum(r["attempted"] for r in results),
                              "failed": sum(r["failed"] for r in results)}))
            return 0
        if args.workload is None:
            parser.error("give --workload, --all, --self-test or --write-reference")
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(res)
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=2) + "\n")
    print(result_line(res, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
