"""Dataset files: ``gen-data`` writes and ``run`` loads the bytes and arrays
the earlier row-by-row code did.

``oracle_write`` is the earlier ``gen-data`` body, one ``json.dumps`` of a
dict per row, and ``write_dataset`` must write its bytes for binary and
star datasets with any finite features.  ``oracle_load`` reads the file's
lines with ``oracle_lines``, which refuses the first line holding bytes that
are not UTF-8 when it reaches it.  It sniffs the first line in one pass,
then, in another, reads reviews with ``oracle_load_reviews_jsonl``, filters
them, and counts the terms of the list of texts kept, or parses each dense
line into a dict, checks it with ``oracle_row_problem`` as it is read, and
builds the arrays from every row at the end.  ``oracle_row_problem`` holds
its own copy of the row rules: the earlier loader's, then a dense label
that is not a JSON integer in range, features that are not a flat list of
JSON numbers (nested lists, strings, booleans, null), an integer feature
too large for a float, and a category other than A or B.  Reviews are
refused for a JSON boolean, a string, null or a fraction in an integer
field, and for a category other than A or B, whether or not the filter
would keep them.  ``load_dataset`` reads the file
once; it must give equal arrays of equal dtypes, or raise the same exception
type with the same message, and its digest must be the sha256 of the file's
bytes.  The files are dense, star and review corpora with malformed JSON,
missing fields, ragged, nested or non-numeric features, rows shorter or
longer than the first, non-finite values, 401-digit integers, bad labels,
bad categories, bad review fields, blank and indented lines, LF, CRLF and
CR line endings, and bytes that are not UTF-8, some after a blank line long
enough to put them in a later batch of lines than the first.  So the first
bad line in file order is named, whether it is a bad row or a line that is
not UTF-8, with its number counting LF, CRLF and CR breaks alike.
"""

import builtins
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shiftbench.core import BinaryDataset, StarDataset, TermCounts
from shiftbench.datagen import RawReview, _text_lines, count_terms, load_dataset, write_dataset

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


def oracle_integer(d, key):
    value = d[key]
    if type(value) not in (int, float) or isinstance(value, float) and not value % 1 == 0:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def oracle_lines(path):
    """(number, line) of each non-blank line of ``path``, read in text mode;
    the first line holding bytes that are not UTF-8 raises as it is read."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: not UTF-8: {exc.reason}") from None
            if line.strip():
                yield line_no, line


def oracle_load_reviews_jsonl(path):
    reviews = []
    for line_no, line in oracle_lines(path):
        try:
            d = json.loads(line.strip())
            reviews.append(
                RawReview(
                    text=d["text"],
                    stars=oracle_integer(d, "stars"),
                    category=d["category"],
                    useful_votes=oracle_integer(d, "useful_votes"),
                )
            )
            if d["category"] not in ("A", "B"):
                raise ValueError(f"category must be in ('A', 'B'), got {d['category']!r}")
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{line_no}: malformed review record: {exc}")
    return reviews


def oracle_load(path: str):
    first_no, first = next(oracle_lines(path), (0, ""))
    if not first:
        raise ValueError(f"{path}: empty dataset")
    try:
        probe = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {first_no}: {_json_problem(exc)}") from None
    if not isinstance(probe, dict):
        raise ValueError(f"{path}: line {first_no}: expected a JSON object")
    if "text" in probe:
        reviews = [r for r in oracle_load_reviews_jsonl(path)
                   if len(r.text) >= 200 and r.useful_votes >= 1]
        if not reviews:
            raise ValueError(f"{path}: every review was filtered out")
        return StarDataset(count_terms([r.text for r in reviews]),
                           [r.stars for r in reviews], [r.category for r in reviews])
    label = "stars" if "stars" in probe else "label"
    rows = []
    for line_no, line in oracle_lines(path):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {line_no}: {_json_problem(exc)}") from None
        problem = oracle_row_problem(row, label, len(rows[0]["features"]) if rows else None)
        if problem:
            raise ValueError(f"{path}: line {line_no}: {problem}")
        rows.append(row)
    x = np.array([r["features"] for r in rows], dtype=float)
    y = np.array([r[label] for r in rows])
    category = np.array([r.get("category", "A") for r in rows])
    if label == "stars":
        return StarDataset(x, y, category)
    return BinaryDataset(x, y, category)


def oracle_row_problem(row, label, width):
    """The first problem of a dense row, in the loader's order, or None."""
    for key in ("features", label):
        if not isinstance(row, dict) or key not in row:
            return f"missing field {key!r}"
    features = row["features"]
    if not isinstance(features, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in features):
        return "features must be a list of numbers"
    if width is not None and len(features) != width:
        return f"{len(features)} features, expected {width}"
    try:
        values = [float(v) for v in features]
    except OverflowError:
        return "non-finite feature value"
    if any(math.isnan(v) or math.isinf(v) for v in values):
        return "non-finite feature value"
    allowed = (1, 2, 3, 4, 5) if label == "stars" else (0, 1)
    if type(row[label]) is not int or row[label] not in allowed:
        return "stars must be an integer in 1..5" if label == "stars" else "label must be 0 or 1"
    if row.get("category", "A") not in ("A", "B"):
        return "categories must be in ('A', 'B')"
    return None


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


#: a feature as a dense file may write it: a float, or a JSON integer that a float holds
feature = st.one_of(finite, st.integers(-10**20, 10**20),
                    st.sampled_from([10**308, -(2**1023), 2**64 + 1]))
#: a JSON integer of 401 digits, more than any float holds
HUGE = "1" + "0" * 400


def good_row(width, label):
    return st.fixed_dictionaries(
        {"features": st.lists(feature, min_size=width, max_size=width),
         label: st.integers(0, 1) if label == "label" else st.integers(1, 5)},
        optional={"category": st.sampled_from("AB")},
    ).map(json.dumps)


#: a blank line that ends past the first batch of lines the loader reads
LONG_BLANK = " " * 70_000
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
        # a label that is not a JSON integer, or is one outside 0..1 or 1..5
        st.tuples(st.lists(finite, min_size=width, max_size=width),
                  st.sampled_from([1.5, 1.0, 3.0, None, True, False, "1", -1, 7, 10**30])).map(
            lambda t: json.dumps({"features": t[0], label: t[1]})),
        st.tuples(st.lists(finite, min_size=width, max_size=width),
                  st.integers(0, max(width - 1, 0)),
                  st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", HUGE, f"-{HUGE}",
                                   '"1.5"', '"x"', "true", "false", "null", "[1.0]", "[]",
                                   "{}"])).map(
            lambda t: _with_token(t[0], t[1], t[2], label)),
        # every feature nested in a list of its own, as a whole file of them would be
        st.lists(finite, min_size=width, max_size=width).map(
            lambda f: json.dumps({"features": [[v] for v in f], label: 1})),
        # a category other than A or B
        st.tuples(st.lists(finite, min_size=width, max_size=width),
                  st.sampled_from(["C", "a", "", "AB", None, 1, ["A"]])).map(
            lambda t: json.dumps({"features": t[0], label: 1, "category": t[1]})),
    )


def _with_token(features, at, token, label):
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
        "stars": st.one_of(st.integers(1, 5), st.sampled_from(
            [0, 6, "4", 2.5, 4.0, True, float("nan"), float("inf"), "x", None, 10**400])),
        "category": st.sampled_from(["A", "A", "B", "C", "a", None]),
        "useful_votes": st.one_of(st.integers(0, 3), st.sampled_from(
            [-1, "2", "many", 1.7, 2.0, True, False])),
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
    pairs = [(name, getattr(got, name), getattr(want, name)) for name in ("x", labels, "category")]
    if isinstance(want.x, TermCounts):  # review term counts: compare their CSR arrays
        assert isinstance(got.x, TermCounts) and got.x.terms == want.x.terms
        assert got.x.shape == want.x.shape
        pairs[:1] = [(part, getattr(got.x.counts, part), getattr(want.x.counts, part))
                     for part in ("data", "indices", "indptr")]
    for name, ours, theirs in pairs:
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name
        assert ours.tobytes() == theirs.tobytes(), name  # -0.0 keeps its sign


def review_with(**fields):
    return json.dumps({"text": "ab " * 70, "stars": 4, "category": "B", "useful_votes": 1,
                       **fields})


REVIEW = review_with()
READ = 1 << 16  # the loader's read size
DENSE = json.dumps({"features": [1.5, -2.0], "label": 1, "category": "A"})


@property_settings
@given(data=dataset_files())
@example(data=f"{REVIEW}\n{LONG_BLANK}\n{REVIEW}\xff\n".encode("latin-1"))
@example(data=f"{REVIEW}\r\n  {{\r\n".encode())
@example(data=f"{DENSE}\r\n{LONG_BLANK}\r\n\xc3{DENSE}\r\n".encode("latin-1"))
@example(data=f'{DENSE}\n{{"features": [3.0], "label": 0}}\n{LONG_BLANK}\n\xff\n'.encode(
    "latin-1"))
@example(data=f"{REVIEW}\n{review_with(stars='4')}\n".encode())
@example(data=f"{REVIEW}\n{review_with(useful_votes='2')}\n".encode())
@example(data=f"{REVIEW}\n{review_with(category='C', useful_votes=0)}\n".encode())
@example(data=b'{"features": [[0.3], [1.2]], "label": 1}\n' * 3)
@example(data=f'{DENSE}\n{{"features": [1.5, {HUGE}], "label": 0}}\n'.encode())
@example(data=f'{DENSE}\n{{"features": [1.5, 2.0], "label": 0, "category": "C"}}\n'.encode())
@example(data=f'{DENSE}\n{{"features": [1.5, 2.0], "label": 7}}\n{LONG_BLANK}\n\xff\n'.encode(
    "latin-1"))
# a malformed line is named before a byte that is not UTF-8 on the next line,
# or in a later batch, and after one on an earlier line
@example(data=f"{{\n\xff{DENSE}\n".encode("latin-1"))
@example(data=f"{DENSE}\n{{\n{LONG_BLANK}\n\xff\n".encode("latin-1"))
@example(data=f"{DENSE}\n\xe2\x82\n{{\n".encode("latin-1"))
# one line longer than a batch, then a bad line
@example(data=f"{DENSE}\r\n{LONG_BLANK}{DENSE}\r\n{DENSE}\xff\r\n".encode("latin-1"))
@example(data=f"{DENSE}\n{LONG_BLANK}{DENSE}\n[1, 2]\n".encode())
# CR-only line endings
@example(data=f"{DENSE}\r{DENSE}\r{{\r\xff\r".encode("latin-1"))
@example(data=f"{REVIEW}\r\r{REVIEW}\r\xc3{REVIEW}\r".encode("latin-1"))
# a CR LF pair whose CR ends the first read, then a bad line
@example(data=f"{DENSE}{' ' * (READ - 1 - len(DENSE))}\r\n{{\r\n".encode())
# two-byte characters across the ends of reads of a CR-only file
@example(data=f"{review_with(text='é ' * 70)}\r".encode() * 500 + b"{\r")
def test_loader_matches_the_row_by_row_oracle(tmp_path, data):
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    try:
        want = oracle_load(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            load_dataset(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    got, digest = load_dataset(path)
    assert_same_dataset(got, want)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bad", [False, True], ids=["loads", "not-utf8"])
def test_loader_opens_its_file_once(tmp_path, monkeypatch, bad):
    path = tmp_path / "data.jsonl"
    path.write_bytes(f"{DENSE}\n{DENSE}\n".encode() + b"\xff\n" * bad)
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    if bad:
        with pytest.raises(ValueError, match=r": line 3: not UTF-8: invalid start byte$"):
            load_dataset(path)
    else:
        load_dataset(path)
    assert len(opened) == 1


def test_cr_only_file_yields_lines_before_it_is_read_whole(tmp_path):
    """A file with no LF is still read a batch at a time: its first line
    comes back while most of the file is unread."""
    path = tmp_path / "data.jsonl"
    path.write_bytes(f"{DENSE}\r".encode() * (4 * READ // len(DENSE)))
    with open(path, "rb") as fh:
        lines = _text_lines(path, fh, hashlib.sha256())
        assert next(lines) == f"{DENSE}\n"
        assert fh.tell() <= READ < path.stat().st_size // 2


@pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["CR", "CRLF"])
def test_line_endings_load_bit_identically(tmp_path, ending):
    """Several reads' worth of rows load to the same arrays whatever their
    line endings."""
    lf = tmp_path / "lf.jsonl"
    rng = np.random.default_rng(0)
    n = 3000
    write_dataset(BinaryDataset(rng.standard_normal((n, 3)), rng.integers(0, 2, n),
                                rng.choice(np.array(["A", "B"]), n)), lf)
    other = tmp_path / "other.jsonl"
    other.write_bytes(lf.read_bytes().replace(b"\n", ending.encode()))
    assert other.stat().st_size > 3 * READ
    (want, _), (got, digest) = load_dataset(lf), load_dataset(other)
    assert_same_dataset(got, want)
    assert digest == hashlib.sha256(other.read_bytes()).hexdigest()
