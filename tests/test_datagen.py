"""Gaussian mixture generation, review filtering, and tf-idf featurisation."""

import json
import math

import numpy as np
import pytest

from shiftbench.classifier import predict_proba, train
from shiftbench.core import BinaryDataset, EmptyDatasetError, StarDataset
from shiftbench.datagen import (
    ClusterSpec,
    RawReview,
    count_terms,
    filter_reviews,
    fit_vocabulary,
    generate_mixture,
    load_cluster_specs,
    load_dataset,
    tokenise,
    vectorise,
)


def two_clusters(w1=0.5, labels=(0, 1)):
    return [
        ClusterSpec(mean=[-5.0, 0.0], variance=[1.0, 1.0], weight=w1, label=labels[0]),
        ClusterSpec(mean=[5.0, 0.0], variance=[1.0, 1.0], weight=1 - w1, label=labels[1]),
    ]


class TestGenerateMixture:
    def test_single_cluster_uniform_label(self):
        spec = [ClusterSpec(mean=[0.0, 0.0], variance=[1.0, 1.0], weight=1.0, label=1)]
        data = generate_mixture(spec, 4, seed=0)
        assert isinstance(data, BinaryDataset)
        assert list(data.labels) == [1, 1, 1, 1]

    def test_cluster_shares_within_binomial_bound(self):
        data = generate_mixture(two_clusters(), 10_000, seed=1)
        share = data.labels.mean()
        se = math.sqrt(0.25 / 10_000)
        assert abs(share - 0.5) <= 3 * se

    def test_well_separated_clusters_are_learnable(self):
        # means +-5 at unit variance: the Bayes error is Phi(-5) ~ 2.9e-7,
        # so a linear classifier must exceed 99% training accuracy
        data = generate_mixture(two_clusters(), 4000, seed=2)
        clf = train(data.x, data.labels, C=100.0)
        accuracy = ((predict_proba(clf, data.x) >= 0.5) == data.labels).mean()
        assert accuracy >= 0.99

    def test_bit_reproducible(self):
        a = generate_mixture(two_clusters(), 500, seed=33)
        b = generate_mixture(two_clusters(), 500, seed=33)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)

    def test_star_mode(self):
        specs = [
            ClusterSpec(mean=[float(s)], variance=[1.0], weight=0.2, stars=s)
            for s in (1, 2, 3, 4, 5)
        ]
        data = generate_mixture(specs, 200, seed=0)
        assert isinstance(data, StarDataset)
        assert set(np.unique(data.stars)) <= {1, 2, 3, 4, 5}

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(mean=[0.0], variance=[0.0], weight=1.0, label=1)
        with pytest.raises(ValueError, match="sum to 1"):
            generate_mixture(two_clusters(w1=0.7)[:1], 10, seed=0)
        with pytest.raises(ValueError):
            ClusterSpec(mean=[0.0], variance=[1.0], weight=1.0)  # no label, no stars


class TestFilterReviews:
    def make(self, chars, votes):
        return RawReview(text="x" * chars, stars=3, category="A", useful_votes=votes)

    def test_short_review_removed(self):
        assert filter_reviews([self.make(150, 3)]) == []

    def test_voteless_review_removed(self):
        assert filter_reviews([self.make(250, 0)]) == []

    def test_qualifying_review_kept(self):
        assert len(filter_reviews([self.make(250, 1)])) == 1

    def test_exact_length_boundary_kept(self):
        assert len(filter_reviews([self.make(200, 1)])) == 1


def counted(*corpora):
    """Each corpus as rows of one term-count matrix, as a run's draws are."""
    counts = count_terms([text for corpus in corpora for text in corpus])
    bounds = np.cumsum([0] + [len(corpus) for corpus in corpora])
    return [counts[np.arange(a, b)] for a, b in zip(bounds[:-1], bounds[1:])]


class TestVocabulary:
    def test_total_count_threshold(self):
        (docs,) = counted(["a a a", "b"])
        vocab = fit_vocabulary(docs, min_count=3)
        assert set(vocab.terms) == {"a"}

    def test_ubiquitous_term_idf(self):
        # term in every document: idf = ln((1+N)/(1+N)) + 1 = 1 exactly
        (docs,) = counted(["cat dog", "cat bird", "cat cat"])
        vocab = fit_vocabulary(docs, min_count=1)
        assert vocab.idf[vocab.terms.index("cat")] == pytest.approx(1.0, abs=1e-15)
        # "dog" appears in 1 of 3 documents
        expected = math.log((1 + 3) / (1 + 1)) + 1
        assert vocab.idf[vocab.terms.index("dog")] == pytest.approx(expected, abs=1e-15)

    def test_refit_is_deterministic(self):
        (corpus,) = counted(["red green blue", "green blue", "blue red red"])
        v1 = fit_vocabulary(corpus, min_count=1)
        v2 = fit_vocabulary(corpus, min_count=1)
        assert v1.terms == v2.terms
        assert np.array_equal(v1.doc_freq, v2.doc_freq)

    def test_empty_vocabulary_raises(self):
        (docs,) = counted(["a b", "c d"])
        with pytest.raises(EmptyDatasetError):
            fit_vocabulary(docs, min_count=5)

    def test_tokenise_lowercase_nonalnum(self):
        assert tokenise("Hello, WORLD!  x2") == ["hello", "world", "x2"]


class TestVectorise:
    def test_out_of_vocabulary_document_is_zero(self):
        train, test = counted(["apple apple apple"], ["banana pear"])
        vocab = fit_vocabulary(train, min_count=3)
        row = vectorise(test, vocab).toarray()[0]
        assert np.all(row == 0)

    def test_identical_documents_identical_rows(self):
        train, test = counted(["a a b b c c"], ["a b c", "a b c"])
        vocab = fit_vocabulary(train, min_count=1)
        m = vectorise(test, vocab).toarray()
        assert np.array_equal(m[0], m[1])

    def test_single_term_document_is_unit_one_hot(self):
        train, test = counted(["a a a b b b"], ["a a"])
        vocab = fit_vocabulary(train, min_count=3)
        row = vectorise(test, vocab).toarray()[0]
        expected = np.zeros(2)
        expected[vocab.terms.index("a")] = 1.0  # any positive tf*idf normalises to 1
        assert np.allclose(row, expected)

    def test_rows_unit_norm_or_zero(self):
        corpus, unseen = counted(["u v w", "v w", "w w w u", "q"], ["zzz unseen"])
        vocab = fit_vocabulary(corpus, min_count=1)
        m = np.vstack([vectorise(x, vocab).toarray() for x in (corpus, unseen)])
        norms = np.linalg.norm(m, axis=1)
        assert np.all((np.abs(norms - 1) <= 1e-9) | (norms == 0))

    def test_vocabulary_untouched_by_test_texts(self):
        train_corpus, test_corpus = counted(
            ["alpha beta beta", "beta gamma alpha"], ["delta epsilon alpha"] * 5
        )
        vocab = fit_vocabulary(train_corpus, min_count=1)
        before = vocab.terms, vocab.doc_freq.copy(), vocab.n_docs
        vectorise(test_corpus, vocab)
        refit = fit_vocabulary(train_corpus, min_count=1)
        assert before[0] == refit.terms
        assert np.array_equal(before[1], refit.doc_freq)
        assert before[2] == refit.n_docs

    def test_counts_over_other_terms_rejected(self):
        (train,) = counted(["a a b"])
        (other,) = counted(["a b c"])
        with pytest.raises(ValueError, match="different terms"):
            vectorise(other, fit_vocabulary(train, min_count=1))


class TestIngestion:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        rows = [
            {"text": "great " * 50, "stars": 5, "category": "A", "useful_votes": 2},
            {"text": "bad " * 60, "stars": 1, "category": "B", "useful_votes": 1},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        data, _ = load_dataset(path)
        assert list(data.stars) == [5, 1]
        assert list(data.category) == ["A", "B"]
        assert data.x.terms == ("bad", "great")
        assert data.x.counts.toarray().tolist() == [[0, 50], [60, 0]]

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "stars": 5, "category": "A"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_dataset(path)

    def test_cluster_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                [{"mean": [0, 0], "variance": [1, 1], "weight": 1.0, "label": 1}]
            )
        )
        specs = load_cluster_specs(path)
        assert len(specs) == 1 and specs[0].label == 1
