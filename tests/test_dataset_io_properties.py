"""Dataset files: ``gen-data`` writes and ``run`` loads the bytes and arrays
the earlier row-by-row code did.

``oracle_write`` is the earlier ``gen-data`` body, one ``json.dumps`` of a
dict per row, and ``write_dataset`` must write its bytes for binary and
star datasets with any finite features.  ``oracle_load`` is the earlier
loader: it sniffed the first line in one pass, then parsed every dense line
into a dict before building any array, or read reviews with
``oracle_load_reviews_jsonl`` and filtered them, in another.
``load_dataset`` reads the file once; it must give equal arrays of equal
dtypes, or raise the same exception type with the same message, and its
digest must be the sha256 of the file's bytes.  The files are dense, star
and review corpora with malformed JSON, missing fields, ragged or
non-numeric features, rows shorter or longer than the first, non-finite
values, bad review fields, blank and indented lines, LF, CRLF and CR line
endings, and bytes that are not UTF-8, some after a blank line long enough
to put them in a later decoded chunk.  Where the oracle meets bytes that are
not UTF-8, ``load_dataset`` must instead raise a ``ValueError`` naming the
path and the line of the first such byte, counting LF, CRLF and CR breaks.  Some files are loaded with ``LOAD_BLOCK_ROWS``
set to a few rows, so that their bad rows fall in a later block than the
first.
"""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shiftbench import datagen
from shiftbench.core import BinaryDataset, StarDataset
from shiftbench.datagen import (
    RawReview,
    _first_bad_row,
    filter_reviews,
    load_dataset,
    reviews_to_dataset,
    write_dataset,
)

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


def _json_problem(exc: json.JSONDecodeError) -> str:
    return f"malformed JSON: {exc.msg} at column {exc.colno}"


def oracle_load_reviews_jsonl(path):
    reviews = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                reviews.append(
                    RawReview(
                        text=d["text"],
                        stars=int(d["stars"]),
                        category=d["category"],
                        useful_votes=int(d["useful_votes"]),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed review record: {exc}")
    return reviews


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
        reviews = filter_reviews(oracle_load_reviews_jsonl(path))
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
    write_dataset(dataset, ours)
    oracle_write(dataset, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


def good_row(width, label):
    return st.fixed_dictionaries(
        {"features": st.lists(finite, min_size=width, max_size=width),
         label: st.integers(0, 1) if label == "label" else st.integers(1, 5)},
        optional={"category": st.sampled_from("AB")},
    ).map(json.dumps)


#: a blank line that ends past the first chunk the UTF-8 decoder is given
LONG_BLANK = " " * 8200
BLANK = ["", "   ", "\t", "\x85"]


def bad_line(width, label):
    """One line that no loader accepts as a datapoint, or a blank one."""
    # fewer features than the first row: a one-feature row is what filling
    # rows into a preallocated array would silently broadcast
    short = [st.lists(finite, min_size=1, max_size=width - 1).map(
        lambda f: json.dumps({"features": f, label: 1, "category": "B"}))] if width > 1 else []
    return st.one_of(
        st.sampled_from([*BLANK, "{", '{"features": [1.0] "label": 1}', "[1, 2]",
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
def dense_lines(draw):
    width = draw(st.integers(1, 3))
    label = draw(st.sampled_from(["label", "stars"]))
    lines = draw(st.lists(good_row(width, label), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_line(width, label)))
    return lines


def review_text():
    # filter_reviews keeps texts of at least 200 characters
    return st.builds(lambda head, n: head + "ab " * n, st.text(max_size=6), st.integers(64, 69))


@st.composite
def review_lines(draw):
    """Review rows, most of them well formed, some of them filtered out."""
    ensure_ascii = draw(st.booleans())
    review = st.fixed_dictionaries({
        "text": review_text(),
        "stars": st.one_of(st.integers(1, 5), st.sampled_from([0, 6, "4", 2.5, "x", None])),
        "category": st.sampled_from(["A", "A", "B", "C"]),
        "useful_votes": st.one_of(st.integers(0, 3), st.sampled_from([-1, "2", "many"])),
    }).map(lambda d: json.dumps(d, ensure_ascii=ensure_ascii))
    good = st.builds(
        lambda text, stars, category, votes: json.dumps(
            {"text": text, "stars": stars, "category": category, "useful_votes": votes},
            ensure_ascii=ensure_ascii),
        review_text(), st.integers(1, 5), st.sampled_from("AB"), st.integers(0, 2))
    lines = draw(st.lists(good, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
            review,
            st.sampled_from([*BLANK, "{", "[1, 2]", '"row"', '{"text": "", "stars": 3}',
                             '{"stars": 3, "category": "A", "useful_votes": 1}',
                             '{"features": [1.0], "label": 1}']))))
    return lines


@st.composite
def dataset_files(draw):
    """The bytes of a dense, star or review file, with indented lines, mixed
    line endings and perhaps one byte sequence that is not UTF-8."""
    lines = draw(st.one_of(dense_lines(), review_lines()))
    indents = draw(st.lists(st.sampled_from(["", " ", "\t "]),
                            min_size=len(lines), max_size=len(lines)))
    lines = [indent + line for indent, line in zip(indents, lines)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), LONG_BLANK)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    endings[-1] = draw(st.sampled_from(["", endings[-1], endings[-1] * 2]))
    data = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def assert_same_dataset(got, want):
    assert type(got) is type(want)
    labels = "stars" if isinstance(want, StarDataset) else "labels"
    for name in ("x", labels, "category"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        if ours.dtype == object:  # review texts
            assert ours.tolist() == theirs.tolist(), name
            continue
        assert np.array_equal(ours, theirs), name
        assert ours.tobytes() == theirs.tobytes(), name  # -0.0 keeps its sign


def undecodable_line(data: bytes) -> int:
    """The line, counted as universal newlines do, of the first byte of
    ``data`` that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return 1 + len(re.findall(r"\r\n|\r|\n", data[:exc.start].decode("utf-8")))
    raise AssertionError("data is UTF-8")


REVIEW = json.dumps({"text": "ab " * 70, "stars": 4, "category": "B", "useful_votes": 1})
DENSE = json.dumps({"features": [1.5, -2.0], "label": 1, "category": "A"})


@property_settings
@given(data=dataset_files(), block_rows=st.sampled_from([1, 2, 3, datagen.LOAD_BLOCK_ROWS]))
@example(data=f"{REVIEW}\n{LONG_BLANK}\n{REVIEW}\xff\n".encode("latin-1"), block_rows=2)
@example(data=f"{REVIEW}\r\n  {{\r\n".encode(), block_rows=2)
@example(data=f"{DENSE}\r\n{LONG_BLANK}\r\n\xc3{DENSE}\r\n".encode("latin-1"), block_rows=1)
@example(data=f'{DENSE}\n{{"features": [3.0], "label": 0}}\n{LONG_BLANK}\n\xff\n'.encode(
    "latin-1"), block_rows=datagen.LOAD_BLOCK_ROWS)
def test_loader_matches_parse_everything_first(tmp_path, monkeypatch, data, block_rows):
    monkeypatch.setattr(datagen, "LOAD_BLOCK_ROWS", block_rows)
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    try:
        want = oracle_load(path)
    except UnicodeDecodeError:
        with pytest.raises(ValueError) as got:
            load_dataset(path)
        assert type(got.value) is ValueError
        assert str(got.value).startswith(f"{path}: line {undecodable_line(data)}: not UTF-8: ")
        return
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            load_dataset(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    got, digest = load_dataset(path)
    assert_same_dataset(got, want)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
