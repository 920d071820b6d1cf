"""Error measures, degree aggregation, Wilcoxon test, significance marking."""

import itertools

import numpy as np
import pytest
from scipy.stats import rankdata

from shiftbench.evaluation import (
    RecordTable,
    SignificanceMark,
    mark_significance,
    read_records_csv,
    wilcoxon_signed_rank,
    write_records_csv,
)
from shiftbench.reporting import render_table_csv
from test_protocols import same_records


def brute_force_wilcoxon(a, b):
    """Reference p-value by explicit enumeration of every sign assignment."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    w_values = [
        sum(r for r, sign in zip(ranks, signs) if sign)
        for signs in itertools.product([False, True], repeat=n)
    ]
    w_values = np.array(w_values)
    p_low = (w_values <= w_obs + 1e-9).mean()
    p_high = (w_values >= w_obs - 1e-9).mean()
    return min(1.0, 2.0 * min(p_low, p_high))


def records(method="CC", degree=0.0, true=0.5, est=0.4, rep=0, config="r=0"):
    """A prior-protocol table; each argument is one value for every row or a
    list of per-row values."""
    columns = dict(method=method, degree=degree, true_prev=true, estimate=est,
                   repetition=rep, config=config)
    n = max((len(v) for v in columns.values() if isinstance(v, list)), default=1)
    columns = {k: v if isinstance(v, list) else [v] * n for k, v in columns.items()}
    return RecordTable.from_estimates(protocol=["prior"] * n, **columns)


class TestAbsoluteError:
    def test_basic_values(self):
        ae = records(true=[0.5, 0.0, 0.25], est=[0.5, 1.0, 0.40]).ae
        assert ae[0] == 0.0
        assert ae[1] == 1.0
        assert ae[2] == pytest.approx(0.15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^true prevalence out of \[0, 1\]: -0.1$"):
            records(true=-0.1, est=0.5)
        with pytest.raises(ValueError, match=r"^estimate out of \[0, 1\]: 1.2$"):
            records(true=0.5, est=1.2)


def mae_by_degree(table):
    """Mean AE by (degree, method), read from the report table."""
    mae = {}
    for line in render_table_csv(table).splitlines()[1:]:
        degree, method, value, _ = line.split(",")
        mae.setdefault(float(degree), {})[method] = float(value)
    return mae


class TestMaeByDegree:
    def test_single_record(self):
        mae = mae_by_degree(records(est=0.3))
        assert mae == {0.0: {"CC": pytest.approx(0.2)}}

    def test_two_records_average(self):
        table = records(est=[0.4, 0.2], config=["r=0", "r=1"])  # AEs 0.1 and 0.3
        assert mae_by_degree(table)[0.0]["CC"] == pytest.approx(0.2)

    def test_degrees_never_mix(self):
        mae = mae_by_degree(records(degree=[0.1, 0.2], est=[0.4, 0.1]))
        assert set(mae) == {0.1, 0.2}

    def test_group_mean_bounded_by_extremes(self):
        rng = np.random.default_rng(0)
        table = records(est=rng.uniform(0, 1, 50).tolist(), config=[f"r={i}" for i in range(50)])
        value = mae_by_degree(table)[0.0]["CC"]
        assert table.ae.min() <= value <= table.ae.max()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae_by_degree(records(est=[]))


class TestWilcoxon:
    def test_identical_vectors(self):
        assert wilcoxon_signed_rank([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0

    def test_six_positive_differences_exact(self):
        # all six differences positive: W+ is maximal, reached by exactly one
        # of the 64 assignments in each tail, so p = 2/64
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert wilcoxon_signed_rank(a, b) == pytest.approx(2 / 64)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=12)
            b = rng.normal(size=12)
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                wilcoxon_signed_rank(b, a)
            )

    def test_exact_branch_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(5, 11))
            a = rng.normal(size=n)
            # integer-ish offsets provoke ties in |differences|
            b = a - rng.choice([-2, -1, -0.5, 0.5, 1, 2], size=n)
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                brute_force_wilcoxon(a, b), abs=1e-12
            )

    def test_exact_and_normal_agree_at_boundary(self):
        rng = np.random.default_rng(3)
        from shiftbench.evaluation import _exact_p, _normal_p

        for _ in range(100):
            d = rng.normal(size=25)
            d = d[d != 0]
            ranks = rankdata(np.abs(d))
            w = float(ranks[d > 0].sum())
            assert abs(_exact_p(ranks, w) - _normal_p(ranks, w, len(d))) <= 0.01

    def test_p_in_half_open_unit_interval(self):
        rng = np.random.default_rng(4)
        for n in (6, 20, 40, 80):
            a, b = rng.normal(size=n), rng.normal(size=n)
            p = wilcoxon_signed_rank(a, b)
            assert 0 < p <= 1

    def test_large_n_uses_normal_branch(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=60)
        p = wilcoxon_signed_rank(a, a + rng.uniform(0.5, 1.5, size=60))
        assert p < 0.001

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1, 2, 3])

    def test_too_few_nonzero_differences_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2, 3, 4], [1, 2, 3, 5])


class TestMarkSignificance:
    def test_self_comparison_gets_ddagger(self):
        v = [0.1, 0.2, 0.3, 0.2, 0.1, 0.4]
        marks = mark_significance({"A": v, "B": list(v)})
        assert marks["A"] is SignificanceMark.BEST  # lexicographic tie-break
        assert marks["B"] is SignificanceMark.DDAGGER

    def test_disjoint_distributions_get_none(self):
        marks = mark_significance({"good": [0.0] * 50, "bad": [0.5] * 50})
        assert marks["good"] is SignificanceMark.BEST
        assert marks["bad"] is SignificanceMark.NONE

    def test_exactly_one_best_among_three(self):
        rng = np.random.default_rng(6)
        vectors = {m: list(rng.uniform(0, 1, 30)) for m in ("m1", "m2", "m3")}
        marks = mark_significance(vectors)
        assert sum(m is SignificanceMark.BEST for m in marks.values()) == 1

    def test_dagger_band(self):
        # nine consistently positive differences: exact p = 2/512 ~ 0.004,
        # inside the (0.001, 0.05) band
        rng = np.random.default_rng(8)
        base = rng.uniform(0.1, 0.3, 9)
        other = base + 0.02
        marks = mark_significance({"best": list(base), "close": list(other)})
        assert marks["close"] is SignificanceMark.DAGGER

    def test_misaligned_vectors_rejected(self):
        with pytest.raises(ValueError):
            mark_significance({"A": [0.1] * 5, "B": [0.1] * 6})

    def test_single_method_rejected(self):
        with pytest.raises(ValueError):
            mark_significance({"A": [0.1] * 5})


class TestRecords:
    def test_ae_is_exact_absolute_difference(self):
        assert records(true=0.7, est=0.2).ae[0] == abs(0.7 - 0.2)

    def test_estimate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^estimate out of \[0, 1\]: 1.5$"):
            records(est=1.5)

    def test_csv_round_trip(self, tmp_path):
        table = records(method=["CC", "CC", "SLD", "SLD"], degree=[0.0, -0.5] * 2,
                        est=[0.25, 1 / 3] * 2, rep=[0, 1] * 2,
                        config=["pL=0.5;r=0", "pL=0.5;r=1"] * 2)
        path = tmp_path / "records.csv"
        assert write_records_csv(table, path) == len(table) == 4
        assert same_records(read_records_csv(path), table)

    def test_csv_round_trip_of_quoted_configs(self, tmp_path):
        table = records(config=['pL=0.5,"x"', "a\nb", ' spaced, "#" '], rep=[0, 1, 2])
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        assert same_records(read_records_csv(path), table)

    def test_csv_names_the_file_line_of_a_bad_row_after_quoted_line_breaks(self, tmp_path):
        """Row 0's config spans file lines 2-4, so row 2 sits on line 6."""
        table = records(config=["a\nb\nc", "r=1", "r=2"], rep=[0, 1, 2])
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
        fields = last.split(",")
        fields[5] = "1.5"
        path.write_text(head + "\n" + ",".join(fields) + "\n")
        with pytest.raises(ValueError, match=r": line 6: true prevalence out of \[0, 1\]: 1.5$"):
            read_records_csv(path)

    @pytest.mark.parametrize("field, value, problem", [
        (2, "1_0", "could not convert string to a number: '1_0'"),
        (2, "1" * 23, f"repetition outside int64: '{'1' * 23}'"),
        (6, "0.2_5", "could not convert string to a number: '0.2_5'"),
        (6, "0.\u0662\u0665", "could not convert string to a number: '0.\u0662\u0665'"),
    ], ids=["separator-repetition", "long-repetition", "separator-estimate", "arabic-digits"])
    def test_csv_names_the_file_line_of_a_number_only_python_reads(
        self, tmp_path, field, value, problem
    ):
        """``int`` and ``float`` read these, ``np.loadtxt`` does not."""
        path = tmp_path / "records.csv"
        write_records_csv(records(rep=[0, 1, 2], est=0.25), path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[field] = value
        lines[2] = ",".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as got:
            read_records_csv(path)
        assert str(got.value) == f"{path}: line 3: {problem}"

    def test_table_columns_are_read_only(self):
        table = records(method=["CC", "SLD"], rep=[0, 1], est=[0.1, 0.9])
        assert len(table) == 2
        assert table.ae.tolist() == [abs(0.5 - 0.1), abs(0.5 - 0.9)]
        for name in RecordTable.COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = getattr(table, name)[1]

    def test_concat_keeps_row_order(self):
        both = records(method=["CC", "SLD"], rep=[0, 1], est=[0.1, 0.9])
        tables = [records(method="CC", rep=0, est=0.1), records(method="SLD", rep=1, est=0.9)]
        assert same_records(RecordTable.concat(tables), both)
        empty = RecordTable.concat([])
        assert len(empty) == 0 and empty.repetition.dtype == np.int64

    def test_from_estimates_computes_ae(self):
        table = RecordTable.from_estimates(
            protocol=["prior"] * 2, method=["CC", "SLD"], repetition=[0, 0],
            config=["r=0"] * 2, degree=[0.5, 0.5], true_prev=[0.7, 0.7], estimate=[0.2, 1.0],
        )
        assert table.ae.tolist() == [abs(0.7 - 0.2), abs(0.7 - 1.0)]
        with pytest.raises(ValueError, match=r"estimate out of \[0, 1\]: 1.5"):
            RecordTable.from_estimates(
                protocol=["prior"], method=["CC"], repetition=[0], config=["r=0"],
                degree=[0.0], true_prev=[0.5], estimate=[1.5],
            )

    def test_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records_csv(path)
