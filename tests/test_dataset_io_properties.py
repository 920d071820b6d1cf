"""Dataset files: ``gen-data`` writes and ``run`` loads the bytes and arrays
the earlier row-by-row code did.

``oracle_write`` is the earlier ``gen-data`` body, one ``json.dumps`` of a
dict per row, and ``_write_datapoints`` must write its bytes for binary and
star datasets with any finite features.  ``oracle_load`` is the earlier
``_load_dataset``, which parsed every line into a dict before building any
array; ``_load_dataset`` must give equal arrays of equal dtypes, or the same
error message, on files with malformed JSON, missing fields, ragged or
non-numeric features, rows shorter or longer than the first, non-finite
values and blank lines.  Some files are loaded with ``LOAD_BLOCK_ROWS``
set to a few rows, so that their bad rows fall in a later block than the
first.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftbench import cli
from shiftbench.cli import _first_bad_row, _json_problem, _load_dataset, _write_datapoints
from shiftbench.core import BinaryDataset, StarDataset
from shiftbench.datagen import filter_reviews, load_reviews_jsonl, reviews_to_dataset

property_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def oracle_write(dataset, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(dataset)):
            row = {"features": [float(v) for v in dataset.x[i]]}
            if isinstance(dataset, StarDataset):
                row["stars"] = int(dataset.stars[i])
            else:
                row["label"] = int(dataset.labels[i])
            row["category"] = str(dataset.category[i])
            fh.write(json.dumps(row) + "\n")


def oracle_load(path: str):
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
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        x = np.array([r["features"] for r in rows], dtype=float)
        y = np.array([r[label] for r in rows])
    except (ValueError, KeyError, TypeError):
        raise ValueError(_first_bad_row(path, label)) from None
    if not np.isfinite(x).all():
        raise ValueError(_first_bad_row(path, label))
    category = np.array([r.get("category", "A") for r in rows])
    if label == "stars":
        return StarDataset(x, y, category)
    return BinaryDataset(x, y, category)


SUBNORMALS = (5e-324, 2.2250738585072009e-308, 1e-310)
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from((0.0, -0.0, 1 / 3, 1e300, -1e-300, 0.1, *SUBNORMALS)))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 4))
    x = np.array(draw(st.lists(st.lists(finite, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float).reshape(n, d)
    category = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
    if draw(st.booleans()):
        return StarDataset(x, draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                           category)
    return BinaryDataset(x, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                         category)


@property_settings
@given(dataset=datasets())
def test_written_datapoints_match_one_dumps_per_row(tmp_path, dataset):
    ours, oracle = tmp_path / "ours.jsonl", tmp_path / "oracle.jsonl"
    _write_datapoints(dataset, ours)
    oracle_write(dataset, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


def good_row(width, label):
    return st.fixed_dictionaries(
        {"features": st.lists(finite, min_size=width, max_size=width),
         label: st.integers(0, 1) if label == "label" else st.integers(1, 5)},
        optional={"category": st.sampled_from("AB")},
    ).map(json.dumps)


def bad_line(width, label):
    """One line that no loader accepts as a datapoint, or a blank one."""
    # fewer features than the first row: a one-feature row is what filling
    # rows into a preallocated array would silently broadcast
    short = [st.lists(finite, min_size=1, max_size=width - 1).map(
        lambda f: json.dumps({"features": f, label: 1, "category": "B"}))] if width > 1 else []
    return st.one_of(
        st.sampled_from(["", "   ", "\t", "{", '{"features": [1.0] "label": 1}', "[1, 2]",
                         '"row"', "7", "nul", f'{{"{label}": 1}}', '{"features": [1.0, 2.0]}',
                         '{"features": "1.0", "label": 0, "stars": 3}',
                         '{"features": [[1.0]], "label": 1, "stars": 2}',
                         '{"features": [1.0, null], "label": 1, "stars": 2}']),
        st.lists(finite, min_size=width + 1, max_size=width + 2).map(
            lambda f: json.dumps({"features": f, label: 1, "category": "A"})),
        *short,
        st.tuples(st.lists(finite, min_size=width, max_size=width),
                  st.integers(0, max(width - 1, 0)),
                  st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])).map(
            lambda t: _with_non_finite(t[0], t[1], t[2], label)),
    )


def _with_non_finite(features, at, token, label):
    text = [repr(v) for v in features] or ["0.0"]
    text[min(at, len(text) - 1)] = token
    return f'{{"features": [{", ".join(text)}], "{label}": 1}}'


@st.composite
def dataset_files(draw):
    width = draw(st.integers(1, 3))
    label = draw(st.sampled_from(["label", "stars"]))
    lines = draw(st.lists(good_row(width, label), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(bad_line(width, label)))
    end = draw(st.sampled_from(["\n", "", "\n\n"]))
    return "\n".join(lines) + end


@property_settings
@given(text=dataset_files(), block_rows=st.sampled_from([1, 2, 3, cli.LOAD_BLOCK_ROWS]))
def test_loader_matches_parse_everything_first(tmp_path, monkeypatch, text, block_rows):
    monkeypatch.setattr(cli, "LOAD_BLOCK_ROWS", block_rows)
    path = tmp_path / "data.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        want = oracle_load(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _load_dataset(path)
        assert str(got.value) == str(exc)
        return
    got = _load_dataset(path)
    assert type(got) is type(want)
    labels = "stars" if isinstance(want, StarDataset) else "labels"
    for name in ("x", labels, "category"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name
        assert ours.tobytes() == theirs.tobytes(), name  # -0.0 keeps its sign
