"""Command-line harness: dataset generation, protocol runs, reports, selftest.

Exit codes: 0 success, 1 selftest failure, 2 usage/validation problems and
output paths that cannot be written, 3 pool exhaustion during a run, 141
(128 + SIGPIPE) when standard output is a pipe that its reader closed.  The
environment variable SHIFTBENCH_SEED overrides the config's master seed; the
--seed flag overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .classifier import loss_and_grad
from .core import PoolExhaustionError, StarDataset
from .datagen import generate_mixture, load_cluster_specs, load_dataset, write_dataset
from .evaluation import read_records_csv, write_records_csv
from .protocols import PROTOCOLS, ProtocolConfig, cell_tables, count_records
from .quantifiers import (
    PACC,
    SMM,
    fit_evidence,
    mixture_fit_alpha,
    PosteriorHistogram,
)
from .reporting import render_markdown, render_plotdata, render_table_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_BROKEN_PIPE = 128 + 13  # as a process killed by SIGPIPE

_CLI_PROTOCOLS = {p.replace("_", "-"): p for p in PROTOCOLS}


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_gen_data(args) -> int:
    try:
        specs = load_cluster_specs(args.spec)
        dataset = generate_mixture(specs, args.n, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot generate dataset: {exc}")
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} datapoints to {args.out}")
    for cat in ("A", "B"):
        share = float((dataset.category == cat).mean())
        if share:
            print(f"  category {cat}: {share:.3f}")
    if isinstance(dataset, StarDataset):
        for s in (1, 2, 3, 4, 5):
            print(f"  {s} stars: {float((dataset.stars == s).mean()):.3f}")
    else:
        print(f"  positive prevalence: {dataset.prevalence:.3f}")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg, dataset_file = _effective_config(args)
        try:
            dataset, dataset_sha256 = load_dataset(dataset_file)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"cannot load dataset: {exc}") from None
        # each cell's table is written as it arrives and then let go; the
        # dataset goes once the pools are prepared
        tables = cell_tables(cfg, dataset, jobs=args.jobs)
        del dataset
        records_path, n = _publish_run(Path(args.out), cfg, tables,
                                       {"path": str(dataset_file), "sha256": dataset_sha256})
    except PoolExhaustionError as exc:
        return _fail(str(exc), EXIT_EXHAUSTED)
    except _RecordCountError as exc:
        return _fail(str(exc), EXIT_FAIL)
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))
    print(f"wrote {n} records to {records_path}")
    return EXIT_OK


def _effective_config(args) -> tuple[ProtocolConfig, Path]:
    """The run's config, after the flags and ``SHIFTBENCH_SEED``, and its
    dataset file; a ``ValueError`` says what is wrong with them."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    dataset_path = raw.pop("dataset", None)
    if dataset_path is None:
        raise ValueError("config must name a 'dataset' file")
    if not isinstance(dataset_path, str):
        raise ValueError(f"bad config: dataset: expected a file path, got {dataset_path!r}")
    protocol = _CLI_PROTOCOLS[args.protocol]
    named = raw.get("protocol", protocol)
    if not (isinstance(named, str) and named.replace("-", "_") == protocol):
        raise ValueError(f"bad config: protocol: the config names {named!r}, "
                         f"but the command runs {args.protocol!r}")
    raw["protocol"] = protocol
    if args.desk:
        for field in ("repetitions", "samples_per_config"):  # what ProtocolConfig.desk sets
            if field in raw:
                raise ValueError(f"bad config: {field}: --desk sets it too; drop one of the two")
    if args.methods:
        raw["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        cfg = ProtocolConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from None
    seed = os.environ.get("SHIFTBENCH_SEED")
    if seed:
        try:
            cfg.master_seed = int(seed)
        except ValueError:
            raise ValueError(f"SHIFTBENCH_SEED must be an integer, got {seed!r}") from None
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.desk:
        cfg = cfg.desk()
    return cfg, Path(args.config).parent / dataset_path  # an absolute path stays as it is


class _RecordCountError(Exception):
    """A run wrote another number of records than its config implies."""


def _publish_run(out_dir: Path, cfg: ProtocolConfig, tables, dataset: dict) -> tuple[Path, int]:
    """Stage the records of ``tables`` and the run's manifest (``dataset`` is
    its ``{"path", "sha256"}`` entry) as ``.partial`` files in ``out_dir``, and
    move both into place once the record count is checked and no directory is
    in the way.  On any failure both partial files go, and files an earlier
    run left keep their bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _timestamp()
    records_path, manifest_path = out_dir / "records.csv", out_dir / "manifest.json"
    staged = {path: path.with_name(path.name + ".partial")
              for path in (records_path, manifest_path)}
    try:
        with contextlib.closing(tables):
            n = write_records_csv(tables, staged[records_path])
        expected = count_records(cfg)
        if n != expected:
            raise _RecordCountError(f"internal error: wrote {n} records, expected {expected}")
        digest = hashlib.sha256(json.dumps({**cfg.to_dict(), "dataset": dataset["sha256"]},
                                           sort_keys=True).encode()).hexdigest()
        manifest = {
            "config_hash": digest,
            "master_seed": cfg.master_seed,
            "methods": list(cfg.methods),
            "protocol": cfg.protocol,
            "started": started,
            "finished": _timestamp(),
            "record_count": n,
            "artifacts": {"records": str(records_path)},
            "dataset": dataset,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        staged[manifest_path].write_text(json.dumps(manifest, indent=2) + "\n")
        for final in staged:  # a file moves onto anything but a directory: check both first
            if final.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
        for final, partial in staged.items():
            os.replace(partial, final)
    finally:
        for partial in staged.values():
            partial.unlink(missing_ok=True)
    return records_path, n


def cmd_report(args) -> int:
    try:
        records = read_records_csv(args.records)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read records: {exc}")
    if not records:
        return _fail("records file holds no rows")
    renderers = {
        "markdown": render_markdown,
        "csv": render_table_csv,
        "plotdata": render_plotdata,
    }
    try:
        text = renderers[args.format](records)
    except ValueError as exc:
        return _fail(f"cannot report: {exc}")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _selftest_instance(seed: int):
    """A small fitted evidence stack on noisy two-cluster data."""
    rng = np.random.default_rng(seed)
    n = 400
    labels = (rng.random(n) < 0.5).astype(int)
    x = rng.standard_normal((n, 2)) + np.where(labels[:, None] == 1, 1.0, -1.0)
    evidence = fit_evidence(x, labels, C=10.0, folds=5, seed=seed)
    test = rng.standard_normal((200, 2)) + np.where(
        (rng.random(200) < 0.3)[:, None], 1.0, -1.0
    )
    return evidence, test


def cmd_selftest(args) -> int:
    failures = 0

    # 1. mean matching agrees with the probabilistic adjusted count
    worst = 0.0
    for seed in range(10):
        evidence, test = _selftest_instance(seed)
        pacc = PACC().fit_evidence(evidence)
        smm = SMM().fit_evidence(evidence)
        worst = max(worst, abs(pacc.quantify(test) - smm.quantify(test)))
    ok = worst <= 1e-9
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] mean-matching equals adjusted posterior count "
          f"(max gap {worst:.2e})")

    # 2. hellinger mixture search agrees with a direct fine-grid scan
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        pos = PosteriorHistogram.from_scores(rng.beta(4, 2, 300), 10)
        neg = PosteriorHistogram.from_scores(rng.beta(2, 4, 300), 10)
        true_alpha = rng.uniform(0.1, 0.9)
        mix = true_alpha * pos.masses + (1 - true_alpha) * neg.masses
        test_h = PosteriorHistogram(mix / mix.sum())
        found = mixture_fit_alpha(pos, neg, test_h, "hellinger")
        grid = np.linspace(0, 1, 200001)
        mixes = grid[:, None] * pos.masses + (1 - grid)[:, None] * neg.masses
        direct = grid[
            int(np.argmin(np.sqrt(((np.sqrt(mixes) - np.sqrt(test_h.masses)) ** 2).sum(1)) ))
        ]
        worst = max(worst, abs(found - direct))
    ok = worst <= 1e-4
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] hellinger mixture search matches direct scan "
          f"(max gap {worst:.2e})")

    # 3. analytic gradient agrees with central finite differences
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 4))
    labels = (rng.random(60) < 0.5).astype(float)
    from .classifier import item_weights

    omega = item_weights(labels.astype(int), None)
    worst = 0.0
    for _ in range(10):
        params = rng.standard_normal(5)
        _, grad = loss_and_grad(params, x, labels, 1.0, omega)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(len(params)):
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (
                loss_and_grad(up, x, labels, 1.0, omega)[0]
                - loss_and_grad(down, x, labels, 1.0, omega)[0]
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12))
    ok = worst <= 1e-4
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] analytic gradient matches finite differences "
          f"(max rel err {worst:.2e})")

    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftbench",
        description="Binary quantification benchmark under controlled dataset shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--spec", required=True, help="JSON list of Gaussian cluster specs")
    p.add_argument("--out", required=True, help="output JSONL dataset path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=20000, help="number of datapoints")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="run a shift protocol and write records.csv")
    p.add_argument("protocol", choices=sorted(_CLI_PROTOCOLS))
    p.add_argument("--config", required=True, help="JSON protocol configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="pool workers, at most one per cell")
    p.add_argument("--desk", action="store_true",
                   help="desk-scale preset: 2 repetitions, 5 samples per config "
                        "(a config that sets either exits 2)")
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render tables or plot data from records.csv")
    p.add_argument("records", help="records.csv from a run")
    p.add_argument("--format", choices=("markdown", "csv", "plotdata"),
                   default="markdown")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head -1``): what is left to print goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # an output path that cannot be written, named in the message
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
