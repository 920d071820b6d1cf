"""tf-idf from term counts equals tf-idf from per-document token loops.

The oracle is the featuriser that tokenised every document on each call:
``oracle_fit_vocabulary`` and ``oracle_vectorise`` below.  The program
tokenises each document once into a term-count matrix and derives every
vocabulary and every tf-idf matrix from its rows; the CSR arrays must
equal the oracle's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from shiftbench.core import EmptyDatasetError
from shiftbench.datagen import count_terms, fit_vocabulary, vectorise
from test_tokenise_properties import oracle_tokenise as tokenise

property_settings = settings(max_examples=300, deadline=None)


def oracle_fit_vocabulary(texts, min_count=3):
    """(term -> index, document frequencies, document count), by token loops."""
    if len(texts) == 0:
        raise EmptyDatasetError("cannot fit a vocabulary on an empty corpus")
    totals = {}
    doc_sets = []
    for text in texts:
        tokens = tokenise(text)
        doc_sets.append(set(tokens))
        for t in tokens:
            totals[t] = totals.get(t, 0) + 1
    kept = sorted(t for t, c in totals.items() if c >= min_count)
    if not kept:
        raise EmptyDatasetError(
            f"no term occurs at least {min_count} times in the training corpus"
        )
    index = {t: i for i, t in enumerate(kept)}
    doc_freq = np.zeros(len(kept), dtype=int)
    for doc in doc_sets:
        for t in doc:
            i = index.get(t)
            if i is not None:
                doc_freq[i] += 1
    return index, doc_freq, len(texts)


def oracle_vectorise(texts, vocab):
    index, doc_freq, n_docs = vocab
    idf = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
    data, col_indices, indptr = [], [], [0]
    for text in texts:
        counts = {}
        for t in tokenise(text):
            i = index.get(t)
            if i is not None:
                counts[i] = counts.get(i, 0) + 1
        cols = sorted(counts)
        row = np.array([counts[c] * idf[c] for c in cols], dtype=float)
        norm = np.linalg.norm(row)
        if norm > 0:
            row /= norm
        data.extend(row)
        col_indices.extend(cols)
        indptr.append(len(col_indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(col_indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(len(texts), len(index)),
    )


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# a small alphabet: training terms, terms only test documents use, separators
train_words = st.sampled_from(["a", "b", "ab", "ba", "c", "A", "B1", "cc"])
test_only_words = st.sampled_from(["z", "zz", "q9"])
separators = st.sampled_from([" ", "  ", ", ", "!", "-", "\n"])


def documents(words):
    return st.lists(st.tuples(words, separators), max_size=12).map(
        lambda pairs: "".join(w + sep for w, sep in pairs)
    )


@st.composite
def corpora(draw):
    """(training documents, test documents, min_count).

    Training documents may be empty or separators only; test documents mix
    repeats of training documents, documents with only out-of-vocabulary
    terms, and documents over both word sets.
    """
    train = draw(st.lists(documents(train_words) | separators, max_size=10))
    fresh = documents(train_words | test_only_words) | documents(test_only_words)
    repeats = st.sampled_from(train) if train else fresh
    test = draw(st.lists(fresh | repeats, max_size=10))
    return train, test, draw(st.integers(1, 4))


@property_settings
@given(corpus=corpora())
def test_counts_path_equals_token_loops(corpus):
    train, test, min_count = corpus
    counts = count_terms(train + test)
    train_rows = counts[np.arange(len(train))]
    test_rows = counts[np.arange(len(train), len(train) + len(test))]
    try:
        want = oracle_fit_vocabulary(train, min_count)
    except EmptyDatasetError:
        with pytest.raises(EmptyDatasetError):
            fit_vocabulary(train_rows, min_count)
        return
    vocab = fit_vocabulary(train_rows, min_count)
    assert list(vocab.terms) == list(want[0])
    assert np.array_equal(vocab.doc_freq, want[1]) and vocab.n_docs == want[2]
    assert_same_csr(vectorise(train_rows, vocab), oracle_vectorise(train, want))
    assert_same_csr(vectorise(test_rows, vocab), oracle_vectorise(test, want))


def test_wide_rows_equal_token_loops():
    # rows of up to ~150 distinct terms, where a norm sums many values
    rng = np.random.default_rng(2)
    texts = [
        " ".join(f"w{i}" for i in rng.zipf(1.3, size=n) % 400)
        for n in rng.integers(1, 400, size=300)
    ]
    texts[5] = "zzz unseen"  # out of vocabulary
    counts = count_terms(texts)
    train_rows = counts[np.arange(0, 300, 2)]
    test_rows = counts[np.arange(1, 300, 2)]
    want = oracle_fit_vocabulary(texts[0::2])
    vocab = fit_vocabulary(train_rows)
    assert max(np.diff(vectorise(test_rows, vocab).indptr)) > 100
    assert_same_csr(vectorise(train_rows, vocab), oracle_vectorise(texts[0::2], want))
    assert_same_csr(vectorise(test_rows, vocab), oracle_vectorise(texts[1::2], want))
