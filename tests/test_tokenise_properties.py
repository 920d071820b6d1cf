"""The byte-table tokeniser and the block-wise term counts against oracles.

The tokeniser oracle is the regular-expression split the program used
before: lowercase, then split on runs of characters outside ``[0-9a-z]``.
The counting oracle tallies each document's tokens with a ``Counter``.
"""

import json
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.datagen import COUNT_BLOCK, count_terms, load_dataset, tokenise

property_settings = settings(max_examples=500, deadline=None)

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def oracle_tokenise(text):
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def oracle_count_terms(texts):
    """(sorted terms, one {column: count} dict per document)."""
    tallies = [Counter(oracle_tokenise(text)) for text in texts]
    terms = sorted(set().union(*tallies))
    column = {t: i for i, t in enumerate(terms)}
    return terms, [{column[t]: c for t, c in tally.items()} for tally in tallies]


# characters whose lowercase form is ASCII, is longer than the character,
# is non-ASCII, or looks like a digit or letter without being one
tricky = [
    "\u212a",  # KELVIN SIGN, lowercases to ASCII "k"
    "\u0130",  # I WITH DOT ABOVE, lowercases to "i" plus a combining dot
    "\u00df", "\u1e9e", "\u03c2", "\u03a3",  # sharp s, capital sharp s, final and capital sigma
    "\u00b2", "\u0663", "\uff21", "\uff41",  # superscript two, Arabic-Indic three, full-width A and a
    "\ufb01", "\u01c5", "\u00e9", "e\u0301",  # fi ligature, title-case DZ, composed and decomposed e-acute
    "\u00a0", "\u0085", "\u2028", "\u3000", "\u00ad", "\u200b",  # NBSP, NEL, separators, soft hyphen
    "\x00", "\x01", "\x1f", "\x7f", "\t", "\n", "\r", "\x0b", "\x0c",
    "\ud800",  # a lone surrogate
]
characters = st.one_of(
    st.sampled_from(tricky),
    st.sampled_from(list("azAZ09_-'. ")),
    st.characters(),
)
texts = st.lists(characters, max_size=40).map("".join)


@property_settings
@given(text=texts)
def test_tokenise_equals_the_regex_split(text):
    assert tokenise(text) == oracle_tokenise(text)


def test_tokenise_on_named_cases():
    assert tokenise("Hello, WORLD!  x2") == ["hello", "world", "x2"]
    assert tokenise("\u212aelvin stra\u00dfe \u0130s x\u00b2 \uff21b") == [
        "kelvin", "stra", "e", "i", "s", "x", "b"]
    assert tokenise("a\u00a0b\u0085c\x00d\ud800e") == ["a", "b", "c", "d", "e"]
    assert tokenise("") == tokenise(" \u3000\n") == []


def assert_counts_equal_oracle(docs):
    got = count_terms(docs)
    terms, rows = oracle_count_terms(docs)
    m = got.counts
    assert list(got.terms) == terms
    assert m.shape == (len(docs), len(terms))
    assert m.data.dtype == m.indices.dtype == np.int32
    for i, want in enumerate(rows):
        row = slice(m.indptr[i], m.indptr[i + 1])
        assert m.indices[row].tolist() == sorted(want)
        assert m.data[row].tolist() == [want[c] for c in sorted(want)]


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(
    st.lists(st.sampled_from(["a", "B", "ab", "z9", "\u212a", "\u00df", " ", ", ", "\u00a0"]),
             max_size=12).map("".join),
    min_size=COUNT_BLOCK + 1, max_size=3 * COUNT_BLOCK))
def test_count_terms_across_blocks_equals_per_document_counters(docs):
    assert_counts_equal_oracle(docs)


def test_count_terms_on_block_edges_and_no_documents():
    words = ["w%d" % i for i in range(50)]
    docs = [" ".join(words[: i % 50]) for i in range(2 * COUNT_BLOCK + 1)]
    docs[COUNT_BLOCK] = "fresh term only in the second block"
    assert_counts_equal_oracle(docs)
    empty = count_terms([])
    assert empty.counts.shape == (0, 0) and empty.terms == ()


@pytest.fixture(scope="module")
def benchmark_reviews(tmp_path_factory):
    """The benchmark's 8,000-review corpus, written as a dataset file."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import gen_inputs
    finally:
        sys.path.pop(0)
    path = tmp_path_factory.mktemp("reviews") / "reviews.jsonl"
    gen_inputs.write_reviews(path, 8000, 0)
    return path


@pytest.mark.parametrize("source", ["texts", "file"])
def test_count_terms_memory_stays_near_the_counts(benchmark_reviews, source):
    # tokenising every document into one flat list first peaked at about 21
    # times the returned arrays.  Loading the file counts each kept review's
    # text as it is read, so no text outlives its block: what the load still
    # holds is the counts and little besides, where holding every text would
    # add about half as much again
    if source == "texts":
        with open(benchmark_reviews, encoding="utf-8") as fh:
            docs = [json.loads(line)["text"] for line in fh]
    tracemalloc.start()
    try:
        if source == "texts":
            counts = count_terms(docs).counts
        else:
            dataset, _ = load_dataset(benchmark_reviews)
            counts = dataset.x.counts
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = counts.data.nbytes + counts.indices.nbytes + counts.indptr.nbytes
    assert peak < 2.5 * returned, (peak, returned)
    if source == "file":
        assert len(dataset) == 7632
        assert held < 1.25 * returned, (held, returned)
