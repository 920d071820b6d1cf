"""Command-line harness: dataset generation, protocol runs, reports, selftest.

Exit codes: 0 success, 1 selftest failure, 2 usage/validation problems and
output paths that cannot be written, 3 pool exhaustion during a run.  The
environment variable SHIFTBENCH_SEED overrides the config's master seed; the
--seed flag overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .classifier import loss_and_grad
from .core import BinaryDataset, PoolExhaustionError, StarDataset
from .datagen import (
    filter_reviews,
    generate_mixture,
    load_cluster_specs,
    load_reviews_jsonl,
    reviews_to_dataset,
)
from .evaluation import read_records_csv, write_records_csv
from .protocols import PROTOCOLS, ProtocolConfig, count_records, repetition_tables
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

_CLI_PROTOCOLS = {p.replace("_", "-"): p for p in PROTOCOLS}

#: rows of a dense dataset file whose features are parsed before they become
#: one float array, so a load holds at most this many per-row feature lists
LOAD_BLOCK_ROWS = 1024


@dataclasses.dataclass
class RunManifest:
    """Provenance of one protocol run, written next to records.csv."""

    config_hash: str
    master_seed: int
    methods: list[str]
    protocol: str
    started: str
    finished: str
    record_count: int
    artifacts: dict[str, str]

    def write(self, path: Path):
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n")


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
    _write_datapoints(dataset, args.out)
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


def _write_datapoints(dataset, path):
    """Write ``dataset`` as JSONL, one ``{"features": [...], "label" or
    "stars": ..., "category": ...}`` object per line, the bytes ``json.dumps``
    writes for it.  A dataset's features are finite, so ``repr`` writes each
    as ``json.dumps`` does."""
    if isinstance(dataset, StarDataset):
        key, labels = "stars", dataset.stars.tolist()
    else:
        key, labels = "label", dataset.labels.tolist()
    categories = dataset.category.tolist()
    quoted = {category: json.dumps(category) for category in set(categories)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for features, label, category in zip(dataset.x.tolist(), labels, categories):
            fh.write(f'{{"features": [{", ".join(map(repr, features))}], '
                     f'"{key}": {label}, "category": {quoted[category]}}}\n')


def _load_dataset(path: str):
    """Sniff a JSONL dataset: reviews (text), star vectors, or binary vectors."""
    with open(path, encoding="utf-8") as fh:
        first_no, first = next(((i, line) for i, line in enumerate(fh, 1) if line.strip()), (0, ""))
    if not first:
        raise ValueError(f"{path}: empty dataset")
    try:
        probe = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {first_no}: {_json_problem(exc)}") from None
    if not isinstance(probe, dict):
        raise ValueError(f"{path}: line {first_no}: expected a JSON object")
    if "text" in probe:
        reviews = filter_reviews(load_reviews_jsonl(path))
        if not reviews:
            raise ValueError(f"{path}: every review was filtered out")
        return reviews_to_dataset(reviews)
    label = "stars" if "stars" in probe else "label"
    # each line's label and category are kept and its parsed object dropped;
    # its features wait for a block of LOAD_BLOCK_ROWS rows to become one
    # float array.  np.array refuses ragged rows within a block and
    # np.concatenate across blocks, so a file loads if and only if one
    # np.array of all its rows would.
    blocks, features, labels, categories = [], [], [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    row = json.loads(line)
                    features.append(row["features"])
                    labels.append(row[label])
                    categories.append(row.get("category", "A"))
                    if len(features) == LOAD_BLOCK_ROWS:
                        blocks.append(np.array(features, dtype=float))
                        features = []
        if features:
            blocks.append(np.array(features, dtype=float))
        x = np.concatenate(blocks)
        del features, blocks
        y = np.array(labels)
    except (ValueError, KeyError, TypeError):
        raise ValueError(_first_bad_row(path, label)) from None
    if not np.isfinite(x).all():
        raise ValueError(_first_bad_row(path, label))
    category = np.array(categories)
    if label == "stars":
        return StarDataset(x, y, category)
    return BinaryDataset(x, y, category)


def _json_problem(exc: json.JSONDecodeError) -> str:
    return f"malformed JSON: {exc.msg} at column {exc.colno}"


def _first_bad_row(path: str, label: str) -> str:
    """'<path>: line N: <problem>' for the first row that is not a datapoint.

    Rescans the file, so line numbers cost nothing on a dataset that loads."""
    width = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {line_no}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                return f"{where}: {_json_problem(exc)}"
            for key in ("features", label):
                if not isinstance(row, dict) or key not in row:
                    return f"{where}: missing field {key!r}"
            try:
                features = np.array(row["features"], dtype=float)
            except (TypeError, ValueError):
                features = None
            if features is None or features.ndim != 1:
                return f"{where}: features must be a list of numbers"
            if width is not None and len(features) != width:
                return f"{where}: {len(features)} features, expected {width}"
            width = len(features)
            if not np.isfinite(features).all():
                return f"{where}: non-finite feature value"
    return f"{path}: malformed dataset"


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cmd_run(args) -> int:
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}")
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}")
    if not isinstance(raw, dict):
        return _fail("config must be a JSON object")
    dataset_path = raw.pop("dataset", None)
    if dataset_path is None:
        return _fail("config must name a 'dataset' file")
    if not isinstance(dataset_path, str):
        return _fail(f"bad config: dataset: expected a file path, got {dataset_path!r}")
    protocol = _CLI_PROTOCOLS[args.protocol]
    named = raw.get("protocol", protocol)
    if not (isinstance(named, str) and named.replace("-", "_") == protocol):
        return _fail(f"bad config: protocol: the config names {named!r}, "
                     f"but the command runs {args.protocol!r}")
    raw["protocol"] = protocol
    if args.methods:
        raw["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        cfg = ProtocolConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        return _fail(f"bad config: {exc}")
    if os.environ.get("SHIFTBENCH_SEED"):
        try:
            cfg.master_seed = int(os.environ["SHIFTBENCH_SEED"])
        except ValueError:
            return _fail(
                f"SHIFTBENCH_SEED must be an integer, got {os.environ['SHIFTBENCH_SEED']!r}"
            )
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.desk:
        cfg = cfg.desk()

    dataset_file = Path(dataset_path)
    if not dataset_file.is_absolute():
        dataset_file = Path(args.config).parent / dataset_file
    try:
        dataset = _load_dataset(dataset_file)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot load dataset: {exc}")
    # the bytes just loaded, not whatever the file holds once the run is done
    dataset_sha256 = _file_sha256(dataset_file)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _timestamp()
    records_path, manifest_path = out_dir / "records.csv", out_dir / "manifest.json"
    # both files are written beside their final names and published together
    # once the run is done and its record count checked; a run that fails
    # leaves the out dir as it found it
    staged = {path: path.with_name(path.name + ".partial")
              for path in (records_path, manifest_path)}
    # each repetition's table is written as it arrives and then let go
    tables = repetition_tables(cfg, dataset, jobs=args.jobs)
    try:
        with contextlib.closing(tables):
            n = write_records_csv(tables, staged[records_path])
        expected = count_records(cfg)
        if n != expected:
            return _fail(f"internal error: wrote {n} records, expected {expected}", EXIT_FAIL)
        cfg_digest = hashlib.sha256(
            json.dumps({**cfg.to_dict(), "dataset": dataset_sha256},
                       sort_keys=True).encode()
        ).hexdigest()
        RunManifest(
            config_hash=cfg_digest,
            master_seed=cfg.master_seed,
            methods=list(cfg.methods),
            protocol=cfg.protocol,
            started=started,
            finished=_timestamp(),
            record_count=n,
            artifacts={"records": str(records_path)},
        ).write(staged[manifest_path])
        _publish(staged)
    except PoolExhaustionError as exc:
        return _fail(str(exc), EXIT_EXHAUSTED)
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        for partial in staged.values():
            partial.unlink(missing_ok=True)
    print(f"wrote {n} records to {records_path}")
    return EXIT_OK


def _publish(staged: dict[Path, Path]):
    """Move each staged file onto its final path, all or none.  A file moves
    onto a sibling path unless a directory is in the way, so a directory at
    any final path is refused before anything moves."""
    for final in staged:
        if final.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
    for final, partial in staged.items():
        os.replace(partial, final)


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
                   help="pool workers, at most one per repetition")
    p.add_argument("--desk", action="store_true",
                   help="desk-scale preset: 2 repetitions, 5 samples per config")
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
        return args.func(args)
    except OSError as exc:  # an output path that cannot be written, named in the message
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
