"""Dataset types, binarisation, stratified splitting and controlled sampling."""

import re

import numpy as np
import pytest

from shiftbench.core import (
    BinaryDataset,
    EmptyDatasetError,
    Pool,
    PoolExhaustionError,
    Sample,
    StarDataset,
    StratificationError,
    binarise_dataset,
    TermCounts,
    round_half_up,
    sample_at_prevalence,
    split_stratified,
)
from scipy import sparse


def star_dataset(stars, categories=None):
    stars = np.asarray(stars)
    x = np.arange(len(stars), dtype=float).reshape(-1, 1)
    cat = np.array(categories) if categories is not None else np.full(len(stars), "A")
    return StarDataset(x, stars, cat)


def binary_dataset(labels):
    labels = np.asarray(labels)
    return BinaryDataset(np.arange(len(labels), dtype=float).reshape(-1, 1), labels)


class TestRoundHalfUp:
    def test_halves_go_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3

    def test_float_grid_noise(self):
        # products of grid fractions whose true value is integral
        assert round_half_up(0.3 * 5) == 2  # true value 1.5
        assert round_half_up(2 / 3 * 2500) == 1667
        assert round_half_up(1 / 3 * 2500) == 833
        assert round_half_up(250 / 3) == 83


class TestNonFiniteFeatures:
    """A numeric payload holding NaN or inf fails when the dataset is built,
    naming its first such row, not later as a fit or an estimate."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_dense_names_first_bad_row(self, bad, as_list):
        x = np.ones((200, 3))
        x[49::50, 1] = bad  # rows 49, 99, 149 and 199
        payload = x.tolist() if as_list else x
        with pytest.raises(ValueError, match=r"^x: row 49 holds a non-finite feature value$"):
            BinaryDataset(payload, np.arange(200) % 2)
        with pytest.raises(ValueError, match=r"^x: row 49 holds"):
            StarDataset(payload, np.arange(200) % 5 + 1, np.full(200, "A"))

    def test_one_dimensional_payload(self):
        with pytest.raises(ValueError, match=r"^x: row 2 holds"):
            BinaryDataset(np.array([0.0, 1.0, np.nan, np.nan]), [0, 1, 0, 1])

    def test_sparse_names_first_bad_row(self):
        x = sparse.lil_matrix((6, 4))
        x[1, 0], x[3, 2], x[5, 1] = 1.0, np.inf, np.nan
        with pytest.raises(ValueError, match=r"^x: row 3 holds"):
            BinaryDataset(x.tocsc(), [0, 1, 0, 1, 0, 1])

    def test_finite_and_text_payloads_pass(self):
        BinaryDataset(np.zeros((3, 2)), [0, 1, 0])
        BinaryDataset(sparse.csr_matrix((3, 2)), [0, 1, 0])
        counts = TermCounts(sparse.csr_matrix(np.array([[1.0, np.nan], [0.0, 2.0]])), ("a", "b"))
        assert BinaryDataset(counts, [0, 1]).x is counts

    @pytest.mark.parametrize("payload, dtype", [
        (np.array(["nan", "inf", np.nan], dtype=object), "object"),
        (np.array(["0.5", "1.0", "2.0"]), "<U3"),
        (np.array([b"a", b"b", b"c"]), "|S1"),
        (["a review", "another", "a third"], "<U8"),
    ])
    def test_string_and_object_payloads_are_refused(self, payload, dtype):
        message = f"x: a payload must hold numbers, not dtype {dtype}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BinaryDataset(payload, [0, 1, 0])
        with pytest.raises(ValueError, match=r"^x: a payload must hold numbers"):
            StarDataset(payload, [1, 3, 5], ["A", "B", "A"])


class TestBinarise:
    def test_integer_cut_drops_boundary(self):
        out = binarise_dataset(star_dataset([1, 2, 3, 4, 5]), 3)
        assert list(out.labels) == [0, 0, 1, 1]
        assert len(out) == 4

    def test_half_cut_keeps_everything(self):
        out = binarise_dataset(star_dataset([1, 2, 3, 4, 5]), 2.5)
        assert list(out.labels) == [0, 0, 1, 1, 1]

    def test_all_above_threshold(self):
        out = binarise_dataset(star_dataset([5, 5]), 4.5)
        assert list(out.labels) == [1, 1]

    def test_all_removed_raises(self):
        with pytest.raises(EmptyDatasetError):
            binarise_dataset(star_dataset([3, 3, 3]), 3)

    def test_size_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            stars = rng.integers(1, 6, size=50)
            cut = rng.choice([1.5, 2.5, 3, 3.5, 4.5])
            out = binarise_dataset(star_dataset(stars), cut)
            assert len(out) == 50 - int((stars == cut).sum())

    def test_category_and_features_preserved(self):
        data = star_dataset([1, 3, 5], categories=["A", "B", "B"])
        out = binarise_dataset(data, 3)
        assert list(out.category) == ["A", "B"]
        assert out.x[0, 0] == 0.0 and out.x[1, 0] == 2.0


class TestSplitStratified:
    def test_exact_divisibility(self):
        labels = np.array([1] * 40 + [0] * 60)
        first, second = split_stratified(binary_dataset(labels), 0.5, seed=1)
        assert len(first) == len(second) == 50
        assert first.n_positive == second.n_positive == 20

    def test_integer_allocation_oracle(self):
        # 101 points, 50 positives: allocation 25/26 per class by enumeration
        labels = np.array([1] * 50 + [0] * 51)
        first, second = split_stratified(binary_dataset(labels), 0.5, seed=7)
        target = 50 / 101
        assert first.n_positive == 25 and second.n_positive == 25
        assert {len(first), len(second)} == {50, 51}
        for pool in (first, second):
            assert abs(pool.prevalence - target) <= 1 / 50

    def test_deterministic(self):
        labels = (np.random.default_rng(3).random(80) < 0.5).astype(int)
        data = binary_dataset(labels)
        a1, b1 = split_stratified(data, 0.3, seed=42)
        a2, b2 = split_stratified(data, 0.3, seed=42)
        assert np.array_equal(a1.dataset.x[a1.index], a2.dataset.x[a2.index])
        assert np.array_equal(b1.dataset.x[b1.index], b2.dataset.x[b2.index])

    def test_disjoint_and_exhaustive(self):
        labels = (np.random.default_rng(4).random(77) < 0.4).astype(int)
        a, b = split_stratified(binary_dataset(labels), 0.5, seed=0)
        ids = np.concatenate([a.dataset.x[a.index, 0], b.dataset.x[b.index, 0]])
        assert len(a) + len(b) == 77
        assert len(np.unique(ids)) == 77

    def test_tiny_class_raises(self):
        with pytest.raises(StratificationError,
                           match=r"^class 1 has 1 member\(s\); need at least 2 to stratify$"):
            split_stratified(binary_dataset([0, 0, 0, 1]), 0.5, seed=0)


class TestSampleAtPrevalence:
    def make_pool(self, n_pos=300, n_neg=300):
        return Pool(binary_dataset([1] * n_pos + [0] * n_neg))

    def test_boundary_prevalences(self):
        pool = self.make_pool(500, 500)
        s = sample_at_prevalence(pool, 0.0, 500, seed=0)
        assert s.labels.sum() == 0 and len(s) == 500
        s = sample_at_prevalence(pool, 0.5, 500, seed=0)
        assert s.labels.sum() == 250

    def test_deterministic_members(self):
        pool = self.make_pool()
        s1 = sample_at_prevalence(pool, 0.25, 200, seed=99)
        s2 = sample_at_prevalence(pool, 0.25, 200, seed=99)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.labels, s2.labels)

    def test_prevalence_within_half_over_size(self):
        pool = self.make_pool()
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, n = rng.random(), int(rng.integers(1, 250))
            if round_half_up(p * n) > 300 or n - round_half_up(p * n) > 300:
                continue
            s = sample_at_prevalence(pool, p, n, seed=int(rng.integers(1 << 30)))
            assert abs(s.true_prevalence - p) <= 0.5 / n + 1e-12

    def test_exhaustion_names_class(self):
        pool = self.make_pool(5, 300)
        with pytest.raises(PoolExhaustionError, match="positive"):
            sample_at_prevalence(pool, 0.9, 100, seed=0)
        with pytest.raises(PoolExhaustionError, match="negative"):
            sample_at_prevalence(Pool(binary_dataset([1] * 50 + [0] * 2)), 0.1, 40, seed=0)


class TestSampleInvariants:
    def test_true_prevalence_recomputes_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            labels = (rng.random(rng.integers(1, 60)) < rng.random()).astype(int)
            s = Sample(np.zeros((len(labels), 1)), labels)
            assert s.true_prevalence == labels.sum() / len(labels)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyDatasetError):
            Sample(np.zeros((0, 1)), np.array([], dtype=int))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            binary_dataset([0, 1, 2])
        with pytest.raises(ValueError):
            star_dataset([0, 3])
