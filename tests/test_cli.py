"""Command-line surface: gen-data, run, report, selftest, exit codes."""

import builtins
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import shiftbench

from shiftbench.classifier import ClassRates
from shiftbench.cli import main
from shiftbench.core import PoolExhaustionError
from shiftbench.evaluation import read_records_csv
from shiftbench.protocols import _run_cell, cell_tables
from shiftbench.quantifiers import PACC
from shiftbench.reporting import boxplot_stats, render_markdown, render_plotdata


@pytest.fixture()
def cluster_spec(tmp_path):
    path = tmp_path / "clusters.json"
    path.write_text(
        json.dumps(
            [
                {"mean": [-1.2, 0.0], "variance": [1, 1], "weight": 0.5,
                 "label": 0, "category": "A"},
                {"mean": [1.2, 0.0], "variance": [1, 1], "weight": 0.5,
                 "label": 1, "category": "A"},
            ]
        )
    )
    return path


@pytest.fixture()
def dataset(tmp_path, cluster_spec):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--spec", str(cluster_spec), "--out", str(out),
                 "--seed", "3", "--n", "4000"]) == 0
    return out


@pytest.fixture()
def run_config(tmp_path, dataset):
    cfg = {
        "dataset": dataset.name,
        "train_size": 300,
        "test_size": 60,
        "repetitions": 1,
        "samples_per_config": 2,
        "master_seed": 5,
        "methods": ["CC", "PCC", "SLD"],
        "folds": 4,
        "C": 100.0,
        "prior_train_prevalences": [0.2, 0.8],
        "prior_test_prevalences": [0.1, 0.5, 0.9],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


#: config_hash of ``run_config`` on the dataset that
#: ``test_config_hash_is_unchanged_for_the_same_inputs`` writes
CONFIG_HASH = "de16ebcef4fba39053773ce448540dce63a4487c05ac19cd38972819da3b5f33"


def assert_one_error_naming(err, path):
    """``err`` is one ``error:`` line, naming ``path``."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err


class TestGenData:
    def test_writes_requested_line_count(self, dataset):
        with open(dataset) as lines:
            assert sum(1 for _ in lines) == 4000

    def test_same_seed_byte_identical(self, tmp_path, cluster_spec):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-data", "--spec", str(cluster_spec), "--out", str(a),
              "--seed", "9", "--n", "500"])
        main(["gen-data", "--spec", str(cluster_spec), "--out", str(b),
              "--seed", "9", "--n", "500"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_weight_sum_exits_2(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(
            json.dumps([{"mean": [0], "variance": [1], "weight": 0.6, "label": 1}])
        )
        assert main(["gen-data", "--spec", str(spec), "--out",
                     str(tmp_path / "x.jsonl")]) == 2

    def test_out_in_a_missing_directory_exits_2(self, tmp_path, cluster_spec, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        assert main(["gen-data", "--spec", str(cluster_spec), "--out", str(out)]) == 2
        assert_one_error_naming(capsys.readouterr().err, out)
        assert not out.parent.exists()


class TestRun:
    def test_row_count_and_manifest(self, tmp_path, run_config):
        out = tmp_path / "out"
        assert main(["run", "prior", "--config", str(run_config),
                     "--out", str(out)]) == 0
        records = read_records_csv(out / "records.csv")
        assert len(records) == 2 * 3 * 2 * 3  # pL x pU x rounds x methods
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["record_count"] == len(records)
        assert manifest["protocol"] == "prior"
        assert manifest["master_seed"] == 5

    def test_rerun_byte_identical(self, tmp_path, run_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "prior", "--config", str(run_config), "--out", str(out1)])
        main(["run", "prior", "--config", str(run_config), "--out", str(out2)])
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_seed_flag_and_env_override(self, tmp_path, run_config, monkeypatch):
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        monkeypatch.setenv("SHIFTBENCH_SEED", "77")
        main(["run", "prior", "--config", str(run_config), "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["master_seed"] == 77
        main(["run", "prior", "--config", str(run_config), "--out", str(out2),
              "--seed", "123"])
        assert json.loads((out2 / "manifest.json").read_text())["master_seed"] == 123
        monkeypatch.delenv("SHIFTBENCH_SEED")
        main(["run", "prior", "--config", str(run_config), "--out", str(out3)])
        assert json.loads((out3 / "manifest.json").read_text())["master_seed"] == 5

    def test_methods_flag_subsets(self, tmp_path, run_config):
        out = tmp_path / "m"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out),
                     "--methods", "CC"]) == 0
        records = read_records_csv(out / "records.csv")
        assert set(records.method.tolist()) == {"CC"}

    def test_methods_flag_takes_registry_spelling(self, tmp_path, run_config):
        out = tmp_path / "m"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out),
                     "--methods", "cc,PCC"]) == 0
        records = read_records_csv(out / "records.csv")
        assert sorted(set(records.method.tolist())) == ["CC", "PCC"]
        assert json.loads((out / "manifest.json").read_text())["methods"] == ["CC", "PCC"]

    @pytest.mark.parametrize("methods", ["CC,CC", "cc,CC"])
    def test_duplicate_methods_exit_2(self, tmp_path, run_config, capsys, methods):
        out = tmp_path / "m"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out),
                     "--methods", methods]) == 2
        assert "duplicate methods" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, tmp_path, run_config, capsys, jobs):
        out = tmp_path / "j"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out),
                     "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_size": 100}))
        assert main(["run", "prior", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "prior", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_config_bytes_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"dataset": "\xff.jsonl"}')
        assert main(["run", "prior", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config: 'utf-8' codec")

    def test_non_finite_feature_exits_2_naming_first_bad_line(
        self, tmp_path, run_config, dataset, capsys
    ):
        lines = dataset.read_text().splitlines(keepends=True)
        for index, value in ((2, float("nan")), (9, float("inf"))):
            row = json.loads(lines[index])
            row["features"][1] = value
            lines[index] = json.dumps(row) + "\n"
        dataset.write_text("".join(lines))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        assert "line 3: non-finite feature value" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_category_outside_a_and_b_exits_2(self, tmp_path, run_config, dataset, capsys):
        lines = dataset.read_text().splitlines(keepends=True)
        for index in range(0, len(lines), 3):
            row = json.loads(lines[index])
            row["category"] = "ABC"[index % 9 // 3]
            lines[index] = json.dumps(row) + "\n"
        dataset.write_text("".join(lines))
        out = tmp_path / "o"
        assert main(["run", "global-covariate", "--config", str(run_config),
                     "--out", str(out)]) == 2
        assert "categories must be in ('A', 'B')" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "line_no, text, message",
        [
            (2, '{"features": [0.5, 1.0] "label": 1}',
             "line 2: malformed JSON: Expecting ',' delimiter at column 25"),
            (4, '{"features": [0.5, 1.0], "category": "A"}', "line 4: missing field 'label'"),
            (3, '{"features": [0.5, 1.0, 2.0], "label": 0}', "line 3: 3 features, expected 2"),
            (6, '{"features": ["1.5", 2], "label": 1}',
             "line 6: features must be a list of numbers"),
            (6, '{"features": [true, 2], "label": 0}', "line 6: features must be a list of numbers"),
            (5, '{"features": [0.5, 1%s], "label": 1}' % ("0" * 400),
             "line 5: non-finite feature value"),
            (7, '{"features": [0.5, 1.0], "label": 1, "category": "C"}',
             "line 7: categories must be in ('A', 'B')"),
        ],
        ids=["malformed-json", "missing-label", "ragged-features", "string-feature", "boolean-feature", "401-digit-feature", "category-c"],
    )
    def test_bad_row_exits_2_naming_its_line(
        self, tmp_path, run_config, dataset, capsys, line_no, text, message
    ):
        lines = dataset.read_text().splitlines(keepends=True)
        lines[line_no - 1] = text + "\n"
        dataset.write_text("".join(lines))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, dataset)
        assert err == f"error: cannot load dataset: {dataset}: {message}\n"
        assert not (out / "records.csv").exists()

    def test_nested_features_exit_2_naming_the_first_line(
        self, tmp_path, run_config, dataset, capsys
    ):
        """Rows of one-number lists all share one shape, so only the row
        rule stops them becoming a three-dimensional payload."""
        rows = map(json.loads, dataset.read_text().splitlines())
        dataset.write_text("".join(
            json.dumps({**row, "features": [[v] for v in row["features"]]}) + "\n"
            for row in rows))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, dataset)
        assert err.endswith(f"{dataset}: line 1: features must be a list of numbers\n")
        assert not out.exists()

    def test_config_hash_follows_dataset_bytes_not_path(self, tmp_path, run_config, dataset):
        def config_hash(dataset_path, name):
            raw = json.loads(run_config.read_text())
            raw["dataset"] = str(dataset_path)
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(raw))
            assert main(["run", "prior", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            return json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"]

        copy = tmp_path / "elsewhere" / "copy.jsonl"
        copy.parent.mkdir()
        copy.write_bytes(dataset.read_bytes())
        original = config_hash(dataset, "original")
        assert config_hash(copy, "copy") == original
        text = copy.read_text()
        at = text.rindex('"category": "A"') + len('"category": "')
        copy.write_text(text[:at] + "B" + text[at + 1:])  # one byte changed
        assert config_hash(copy, "changed") != original

    def test_config_hash_is_unchanged_for_the_same_inputs(self, tmp_path, run_config, dataset):
        """The hash written for this config and these dataset bytes before the
        dataset reader moved into ``datagen``."""
        lines = []
        for i in range(4000):
            label = i % 2
            features = [(i * 37 % 101) / 25 - 2 + (1.2 if label else -1.2), (i * 53 % 89) / 22 - 2]
            lines.append(json.dumps({"features": features, "label": label, "category": "A"}))
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == CONFIG_HASH

    def test_manifest_names_the_dataset_bytes_and_versions(self, tmp_path, run_config, dataset):
        out = tmp_path / "out"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset"] == {
            "path": str(dataset), "sha256": hashlib.sha256(dataset.read_bytes()).hexdigest()}
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__, "scipy": scipy.__version__}

    def test_run_opens_its_dataset_once(self, tmp_path, run_config, dataset, monkeypatch):
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == dataset.resolve():
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        out = tmp_path / "out"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
        assert len(opened) == 1

    def test_each_output_is_renamed_once(self, tmp_path, run_config, monkeypatch):
        renames = []
        real_replace = os.replace

        def spy(src, dst, *args, **kwargs):
            renames.append((str(src), str(dst)))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", spy)
        out = tmp_path / "out"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
        assert renames == [(f"{out / name}.partial", str(out / name))
                           for name in ("records.csv", "manifest.json")]
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "records.csv"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_bytes_not_utf8_exit_2_naming_their_line(
        self, tmp_path, run_config, dataset, capsys, newline
    ):
        """The message names the line of the first bad byte, here well past
        the first block of bytes the decoder is given."""
        lines = dataset.read_bytes().splitlines()
        lines[300] = lines[300].replace(b'"category"', b'"\xffcategory"')
        dataset.write_bytes(newline.encode().join(lines) + newline.encode())
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, dataset)
        assert f"{dataset}: line 301: not UTF-8: invalid start byte" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [12345, ["a long review " * 20]], ids=["int", "list"])
    def test_review_text_that_is_not_a_string_exits_2_naming_its_line(
        self, tmp_path, capsys, text
    ):
        good = {"text": "a long review " * 20, "stars": 4, "category": "A", "useful_votes": 2}
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text(json.dumps(good) + "\n" + json.dumps({**good, "text": text}) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": reviews.name}))
        out = tmp_path / "o"
        assert main(["run", "concept", "--desk", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, f"{reviews}:2: malformed review record: ")
        assert f"review text must be a string, got {type(text).__name__}" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("stars", True), ("stars", 4.5), ("stars", "4"), ("stars", None),
        ("useful_votes", 1.7), ("useful_votes", False), ("useful_votes", "2"),
        ("useful_votes", None),
    ])
    def test_review_integer_field_that_is_not_one_exits_2_naming_its_line(
        self, tmp_path, capsys, field, value
    ):
        good = {"text": "a long review " * 20, "stars": 4, "category": "A", "useful_votes": 2}
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": reviews.name}))
        out = tmp_path / "o"
        assert main(["run", "concept", "--desk", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, f"{reviews}:2: malformed review record: ")
        assert f"{field} must be an integer, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("votes", [2, 0], ids=["kept", "filtered-out"])
    @pytest.mark.parametrize("category", ["C", "a", None])
    def test_review_category_outside_a_and_b_exits_2_naming_its_line(
        self, tmp_path, capsys, category, votes
    ):
        """Refused by its line whether or not the filter would keep it."""
        good = {"text": "a long review " * 20, "stars": 4, "category": "A", "useful_votes": 2}
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text(json.dumps(good) + "\n" + json.dumps(good) + "\n"
                           + json.dumps({**good, "category": category, "useful_votes": votes}) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": reviews.name}))
        out = tmp_path / "o"
        assert main(["run", "concept", "--desk", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, f"{reviews}:3: malformed review record: ")
        assert f"category must be in ('A', 'B'), got {category!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.5, 1.0, None, True, 2, "1"])
    def test_dense_label_that_is_not_0_or_1_exits_2_naming_its_line(
        self, tmp_path, run_config, dataset, capsys, value
    ):
        lines = dataset.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        lines[2] = json.dumps({**row, "label": value}) + "\n"
        dataset.write_text("".join(lines))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_naming(err, dataset)
        assert f"{dataset}: line 3: label must be 0 or 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("protocol, field, value, message", [
        ("prior", "prior_train_prevalences", [0.2, 1.5], "1.5 is outside (0, 1)"),
        ("prior", "prior_train_prevalences", [0.5, 0.0], "0.0 is outside (0, 1)"),
        ("prior", "prior_test_prevalences", [-0.1, 0.5], "-0.1 is outside [0, 1]"),
        ("prior", "prior_test_prevalences", ["0.5"], "'0.5' is outside [0, 1]"),
        ("prior", "prior_test_prevalences", 0.5, "expected a list of numbers, got 0.5"),
        ("global-covariate", "covariate_class_prevalences", [0.5, 1.01],
         "1.01 is outside (0, 1)"),
        ("global-covariate", "covariate_class_prevalences", [1.0, 0.5], "1.0 is outside (0, 1)"),
        ("global-covariate", "covariate_mixtures", [-0.5], "-0.5 is outside [0, 1]"),
        ("local-covariate", "local_test_prevalences", [0.5, 1.0], "1.0 is outside [0, 1)"),
        ("concept", "concept_cut_points", [2.5, 5.0], "5.0 is outside (1, 5)"),
        ("prior", "cut_point", 1.0, "1.0 is outside (1, 5)"),
        ("concept", "concept_force_prevalence", [0.5, 1.5], "1.5 is outside [0, 1]"),
        ("concept", "concept_force_prevalence", [0.5], "expected (p_L, p_U), got (0.5,)"),
        ("concept", "concept_force_prevalence", [0.0, 1.0], "p_L 0.0 is outside (0, 1)"),
        ("prior", "split_fraction", 1.5, "1.5 is outside (0, 1)"),
        ("prior", "C", "big", "'big' is outside (0, inf)"),
        ("prior", "C", True, "True is outside (0, inf)"),
        ("prior", "C", 0, "0 is outside (0, inf)"),
        ("prior", "grid_search", "no", "expected true or false, got 'no'"),
        ("prior", "methods", "CC", "expected a list of method names, got 'CC'"),
        ("prior", "class_weight", "weird", "expected null or 'balanced', got 'weird'"),
        ("local-covariate", "test_size", 2, "must be at least 3 for local-covariate shift, got 2"),
        ("local-covariate", "train_size", 301, "must be even for local-covariate shift, got 301"),
        ("prior", "prior_train_prevalences", [], "must hold at least one value"),
        ("prior", "prior_test_prevalences", [], "must hold at least one value"),
        ("global-covariate", "covariate_class_prevalences", [], "must hold at least one value"),
        ("global-covariate", "covariate_mixtures", [], "must hold at least one value"),
        ("local-covariate", "local_test_prevalences", [], "must hold at least one value"),
        ("concept", "concept_cut_points", [], "must hold at least one value"),
        ("concept", "concept_force_prevalence", [], "must hold at least one value"),
    ])
    def test_out_of_range_field_exits_2_before_running(
        self, tmp_path, run_config, capsys, monkeypatch, protocol, field, value, message
    ):
        runs = []
        monkeypatch.setattr("shiftbench.cli.cell_tables", lambda *a, **k: runs.append(a))
        raw = json.loads(run_config.read_text())
        raw[field] = value
        cfg = run_config.parent / "range.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "r"
        assert main(["run", protocol, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: bad config: {field}: {message}" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("protocol, field, value, message", [
        ("prior", "master_seed", 5.7, "expected an integer, got 5.7"),
        ("global-covariate", "train_size", 1000.0, "expected an integer, got 1000.0"),
        ("prior", "test_size", "60", "expected an integer, got '60'"),
        ("prior", "repetitions", True, "expected an integer, got True"),
        ("prior", "samples_per_config", 0, "must be at least 1, got 0"),
        ("prior", "folds", 1, "must be at least 2, got 1"),
        ("prior", "bins", 1, "must be at least 2, got 1"),
        ("local-covariate", "local_control_draws", -1, "must be at least 0, got -1"),
        ("local-covariate", "local_control_draws", 2.0, "expected an integer, got 2.0"),
    ])
    def test_bad_integer_field_exits_2_before_any_split(
        self, tmp_path, run_config, capsys, monkeypatch, protocol, field, value, message
    ):
        splits = []
        monkeypatch.setattr("shiftbench.protocols._prepare_pools",
                            lambda *a: splits.append(a))
        raw = json.loads(run_config.read_text())
        raw[field] = value
        cfg = run_config.parent / "integer.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "i"
        assert main(["run", protocol, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: bad config: {field}: {message}" in capsys.readouterr().err
        assert splits == [] and not out.exists()

    @pytest.mark.parametrize("field", ["repetitions", "samples_per_config"])
    def test_desk_with_a_config_setting_what_it_sets_exits_2(
        self, tmp_path, run_config, capsys, monkeypatch, field
    ):
        """--desk would replace the config's own value; the run is refused
        instead, naming the field."""
        runs = []
        monkeypatch.setattr("shiftbench.cli.cell_tables", lambda *a, **k: runs.append(a))
        raw = json.loads(run_config.read_text())
        del raw["repetitions"], raw["samples_per_config"]
        raw[field] = 1
        cfg = run_config.parent / "desk.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "k"
        assert main(["run", "prior", "--desk", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad config: {field}: --desk sets it too; drop one of the two\n"
        assert runs == [] and not out.exists()

    def test_non_string_dataset_exits_2_naming_it(self, tmp_path, run_config, capsys):
        raw = json.loads(run_config.read_text())
        raw["dataset"] = 5
        cfg = run_config.parent / "dataset.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "d"
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: bad config: dataset: expected a file path, got 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("named", ["concept", "global-covariate", "PRIOR", 5])
    def test_config_naming_another_protocol_exits_2(
        self, tmp_path, run_config, capsys, monkeypatch, named
    ):
        runs = []
        monkeypatch.setattr("shiftbench.cli.cell_tables", lambda *a, **k: runs.append(a))
        raw = json.loads(run_config.read_text())
        raw["protocol"] = named
        cfg = run_config.parent / "other.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "p"
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"error: bad config: protocol: the config names {named!r}, "
                f"but the command runs 'prior'") in capsys.readouterr().err
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("protocol, named", [
        ("prior", "prior"),
        ("global-covariate", "global_covariate"),
        ("global-covariate", "global-covariate"),
    ])
    def test_config_naming_its_own_protocol_runs(self, tmp_path, capsys, protocol, named):
        spec = tmp_path / "ab.json"
        spec.write_text(json.dumps([
            {"mean": [-1.2, 0.0], "variance": [1, 1], "weight": 0.25, "label": 0, "category": c}
            for c in "AB"
        ] + [
            {"mean": [1.2, 0.0], "variance": [1, 1], "weight": 0.25, "label": 1, "category": c}
            for c in "AB"
        ]))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "ab.jsonl"),
                     "--n", "3000"]) == 0
        cfg = tmp_path / "own.json"
        cfg.write_text(json.dumps({
            "dataset": "ab.jsonl", "protocol": named, "train_size": 300, "test_size": 60,
            "repetitions": 1, "samples_per_config": 1, "methods": ["CC"], "folds": 3,
            "prior_train_prevalences": [0.5], "prior_test_prevalences": [0.5],
            "covariate_class_prevalences": [0.5], "covariate_mixtures": [0.5],
        }))
        out = tmp_path / "own"
        assert main(["run", protocol, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["protocol"] == named.replace(
            "-", "_")

    def test_out_naming_a_file_exits_2(self, tmp_path, run_config, capsys):
        out = tmp_path / "taken"
        out.write_text("an earlier file\n")
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        assert_one_error_naming(capsys.readouterr().err, out)
        assert out.read_text() == "an earlier file\n"

    def test_records_path_holding_a_directory_exits_2(self, tmp_path, run_config, capsys):
        """The finished records cannot be moved onto a directory; the run
        exits 2 and the out dir keeps what an earlier run left."""
        out = tmp_path / "o"
        (out / "records.csv").mkdir(parents=True)
        (out / "records.csv" / "kept.txt").write_text("kept\n")
        (out / "manifest.json").write_text("{}\n")
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        assert_one_error_naming(capsys.readouterr().err, out / "records.csv")
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "records.csv"]
        assert [path.name for path in (out / "records.csv").iterdir()] == ["kept.txt"]
        assert (out / "records.csv" / "kept.txt").read_text() == "kept\n"
        assert (out / "manifest.json").read_text() == "{}\n"

    def test_manifest_path_holding_a_directory_publishes_nothing(
        self, tmp_path, run_config, capsys
    ):
        """The manifest cannot be published, so neither are the new records:
        an earlier records.csv keeps its bytes and no .partial file is left."""
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        (out / "records.csv").write_text("an earlier run\n")
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 2
        assert_one_error_naming(capsys.readouterr().err, out / "manifest.json")
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "records.csv"]
        assert list((out / "manifest.json").iterdir()) == []
        assert (out / "records.csv").read_text() == "an earlier run\n"

    def test_record_count_mismatch_publishes_nothing(
        self, tmp_path, run_config, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr("shiftbench.cli.count_records", lambda cfg: 1)
        assert main(["run", "prior", "--config", str(run_config), "--out", str(out),
                     "--seed", "6"]) == 1
        assert capsys.readouterr().err.startswith("error: internal error: wrote ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_config_hash_is_of_the_dataset_bytes_loaded(
        self, tmp_path, run_config, dataset, monkeypatch
    ):
        """A dataset rewritten while the run is going is not credited to it."""
        def config_hash(out):
            assert main(["run", "prior", "--config", str(run_config), "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        original = dataset.read_bytes()
        expected = config_hash(tmp_path / "before")

        def rewrite_mid_run(*args, **kwargs):
            for table in cell_tables(*args, **kwargs):
                dataset.write_bytes(original.replace(b'"category": "A"', b'"category": "B"', 1))
                yield table

        monkeypatch.setattr("shiftbench.cli.cell_tables", rewrite_mid_run)
        assert config_hash(tmp_path / "during") == expected
        assert dataset.read_bytes() != original

    def test_unknown_protocol_exits_2(self, tmp_path, run_config):
        with pytest.raises(SystemExit) as exc:
            main(["run", "bogus", "--config", str(run_config),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_pool_exhaustion_exits_3(self, tmp_path, run_config, capsys, jobs=1):
        raw = json.loads(run_config.read_text())
        raw["train_size"] = 3000  # far beyond what 4000 points split in half allow
        raw["repetitions"] = 2
        cfg = run_config.parent / "big.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == 3
        assert "error: pool exhausted: need 2400 negative" in capsys.readouterr().err
        assert not (out / "records.csv").exists()
        assert list(out.iterdir()) == []

    def test_pool_exhaustion_in_a_pool_worker_exits_3(self, tmp_path, run_config, capsys):
        """The error crosses back from the worker process whole, with its message."""
        self.test_pool_exhaustion_exits_3(tmp_path, run_config, capsys, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_in_a_later_repetition_leaves_nothing(
        self, tmp_path, run_config, capsys, monkeypatch, jobs
    ):
        """Repetition 0's cells are written before the first cell of
        repetition 1 fails; the run exits 3 and leaves neither records.csv
        nor its temporary file."""
        raw = json.loads(run_config.read_text())
        raw["repetitions"] = 2
        cfg = run_config.parent / "two.json"
        cfg.write_text(json.dumps(raw))
        monkeypatch.setattr("shiftbench.protocols._run_cell", fail_in_repetition_1)
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == 3
        assert "error: pool exhausted: need 9 injected items" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_keeps_an_earlier_records_file(
        self, tmp_path, run_config, monkeypatch, jobs
    ):
        raw = json.loads(run_config.read_text())
        raw["repetitions"] = 2
        cfg = run_config.parent / "two.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr("shiftbench.protocols._run_cell", fail_in_repetition_1)
        assert main(["run", "prior", "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def fail_in_repetition_1(cfg, pools, rep, cell, tests):
    """``_run_cell``, but the first cell of repetition 1 runs its pool dry."""
    if cell.fit_coords == (cfg.protocol, 1, "fit", 0):
        raise PoolExhaustionError("injected", 9, 0)
    return _run_cell(cfg, pools, rep, cell, tests)


def drop_first_pcc_row(rows):
    """PCC then lacks one sample that CC and SLD have."""
    first = next(i for i, row in enumerate(rows) if row.startswith("prior,PCC,"))
    return rows[:first] + rows[first + 1:]


def true_prev_of_first_row_to_1_5(rows):
    fields = rows[1].split(",")
    fields[5] = "1.5"
    return rows[:1] + [",".join(fields)] + rows[2:]


class TestReport:
    def make_records(self, tmp_path, run_config, methods=None):
        out = tmp_path / "rep"
        argv = ["run", "prior", "--config", str(run_config), "--out", str(out)]
        if methods:
            argv += ["--methods", methods]
        assert main(argv) == 0
        return out / "records.csv"

    def test_markdown_contains_method_columns_and_bold(self, tmp_path, run_config, capsys):
        records = self.make_records(tmp_path, run_config)
        assert main(["report", str(records), "--format", "markdown"]) == 0
        text = capsys.readouterr().out
        assert "| degree | CC | PCC | SLD |" in text
        assert "**" in text

    def test_single_method_has_no_marks(self, tmp_path, run_config, capsys):
        records = self.make_records(tmp_path, run_config, methods="CC")
        main(["report", str(records), "--format", "markdown"])
        text = capsys.readouterr().out
        assert "†" not in text and "‡" not in text and "**" not in text

    def test_duplicated_method_marks_twin_as_very_similar(self, tmp_path, run_config):
        records_path = self.make_records(tmp_path, run_config, methods="CC")
        text = records_path.read_text()
        clone = text + "".join(
            line.replace("prior,CC,", "prior,CCCLONE,", 1) + "\n"
            for line in text.splitlines()[1:]
        )
        twin = records_path.parent / "twin.csv"
        twin.write_text(clone)
        out = render_markdown(read_records_csv(twin))
        # one of the pair is best (bold), the other is marked "very similar"
        assert "**" in out and "‡" in out

    def test_plotdata_quantiles(self):
        stats = boxplot_stats([1, 2, 3, 4, 5])
        assert stats["q1"] == 2 and stats["median"] == 3 and stats["q3"] == 4
        assert stats["min"] == 1 and stats["max"] == 5 and stats["outliers"] == []

    def test_plotdata_flags_outliers(self):
        stats = boxplot_stats([1, 2, 3, 4, 5, 40])
        assert 40 in stats["outliers"]
        assert stats["max"] < 40

    def test_plotdata_renders(self, tmp_path, run_config, capsys):
        records = self.make_records(tmp_path, run_config)
        capsys.readouterr()  # drop the run command's own output
        assert main(["report", str(records), "--format", "plotdata"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "degree,method,min,q1,median,q3,max,outliers"

    def test_out_in_a_missing_directory_exits_2(self, tmp_path, run_config, capsys):
        records = self.make_records(tmp_path, run_config)
        capsys.readouterr()
        out = tmp_path / "missing" / "r.md"
        assert main(["report", str(records), "--out", str(out)]) == 2
        assert_one_error_naming(capsys.readouterr().err, out)
        assert not out.parent.exists()

    def test_empty_records_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("protocol,method,repetition,config,degree,true_prev,est_prev,ae\n")
        assert main(["report", str(empty)]) == 2

    @pytest.mark.parametrize(
        "damage, message",
        [
            (drop_first_pcc_row, "misaligned records"),
            (lambda rows: rows + rows[1:2], "duplicate record"),
            (true_prev_of_first_row_to_1_5, "line 2: true prevalence out of [0, 1]: 1.5"),
            (lambda rows: rows[:1] + [rows[1].rsplit(",", 3)[0] + "\n"] + rows[2:],
             "line 2: expected 8 fields, got 5"),
        ],
        ids=["misaligned", "duplicate", "out-of-range", "short-row"],
    )
    def test_bad_records_exit_2(self, tmp_path, run_config, capsys, damage, message):
        records = self.make_records(tmp_path, run_config)
        rows = records.read_text().splitlines(keepends=True)
        records.write_text("".join(damage(rows)))
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (7, "0.9", "line 2: ae 0.9 is not |true_prev - est_prev|"),
            (4, "nan", "line 2: non-finite degree: nan"),
            (4, "inf", "line 2: non-finite degree: inf"),
        ],
        ids=["ae-mismatch", "nan-degree", "inf-degree"],
    )
    def test_bad_values_exit_2(self, tmp_path, run_config, capsys, field, value, message):
        records = self.make_records(tmp_path, run_config)
        rows = records.read_text().splitlines(keepends=True)
        fields = rows[1].rstrip("\n").split(",")
        assert fields[field] != value
        fields[field] = value
        records.write_text("".join(rows[:1] + [",".join(fields) + "\n"] + rows[2:]))
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert message in capsys.readouterr().err

    def test_blank_line_exits_2(self, tmp_path, run_config, capsys):
        records = self.make_records(tmp_path, run_config)
        rows = records.read_text().splitlines(keepends=True)
        records.write_text("".join(rows[:2] + ["\n"] + rows[2:]))
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert "line 3: expected 8 fields, got 0" in capsys.readouterr().err

    def test_mixed_protocols_exit_2(self, capsys):
        golden = Path(__file__).with_name("golden_records.csv")
        assert main(["report", str(golden)]) == 2
        assert ("records mix protocols: concept, global_covariate, local_covariate, prior"
                in capsys.readouterr().err)

    def test_report_idempotent(self, tmp_path, run_config):
        records = read_records_csv(self.make_records(tmp_path, run_config))
        assert render_markdown(records) == render_markdown(records)
        assert render_plotdata(records) == render_plotdata(records)


class TestConceptViaCli:
    def test_star_dataset_runs_concept_protocol(self, tmp_path):
        spec = tmp_path / "stars.json"
        spec.write_text(
            json.dumps(
                [
                    {"mean": [float(s) - 3.0, 0.0], "variance": [1, 1],
                     "weight": 0.2, "stars": s, "category": "A" if s % 2 else "B"}
                    for s in (1, 2, 3, 4, 5)
                ]
            )
        )
        data = tmp_path / "stars.jsonl"
        assert main(["gen-data", "--spec", str(spec), "--out", str(data),
                     "--seed", "2", "--n", "5000"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": "stars.jsonl",
                    "train_size": 300,
                    "test_size": 100,
                    "repetitions": 1,
                    "samples_per_config": 1,
                    "methods": ["CC", "SLD"],
                    "folds": 4,
                    "C": 100.0,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["run", "concept", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_records_csv(out / "records.csv")
        assert len(records) == 4 * 4 * 2
        assert set(records.protocol.tolist()) == {"concept"}


class TestSelftest:
    def test_healthy_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        for needle in ("mean-matching", "hellinger", "gradient"):
            assert needle in out

    def test_fault_injection_fails(self, capsys, monkeypatch):
        prepare = PACC._prepare

        def swap_rates(self, evidence):
            prepare(self, evidence)
            self.rates_ = ClassRates(self.rates_.fpr, self.rates_.tpr)

        monkeypatch.setattr(PACC, "_prepare", swap_rates)
        assert main(["selftest"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


def shiftbench_process(*argv, unbuffered):
    """``shiftbench *argv`` in a fresh interpreter, its stdout a pipe."""
    paths = [str(Path(shiftbench.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "PYTHONUNBUFFERED": "1" if unbuffered else ""}
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from shiftbench.cli import main; sys.exit(main())",
         *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


class TestClosedStdout:
    """A reader that stops early (``| head -1``) ends the command as SIGPIPE
    would: exit 141 with nothing on stderr, and files already written keep
    their bytes."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_gen_data_exits_141_quietly(self, tmp_path, cluster_spec, dataset, unbuffered):
        out = tmp_path / "piped.jsonl"
        proc = shiftbench_process("gen-data", "--spec", str(cluster_spec), "--out", str(out),
                                  "--seed", "3", "--n", "4000", unbuffered=unbuffered)
        proc.stdout.close()  # the reader is gone before the first line is printed
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")
        assert out.read_bytes() == dataset.read_bytes()

    def test_selftest_exits_141_quietly(self):
        proc = shiftbench_process("selftest", unbuffered=True)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")
