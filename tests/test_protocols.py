"""Protocol loop structure, degree conventions, draw arithmetic, determinism."""

import multiprocessing

import numpy as np
import pytest

from shiftbench import protocols
from shiftbench.core import Pool, PoolExhaustionError
from shiftbench.datagen import ClusterSpec, generate_mixture
from shiftbench.evaluation import RecordTable
from shiftbench.protocols import (
    _PLANS,
    CONCEPT,
    GLOBAL_COVARIATE,
    LOCAL_COVARIATE,
    PRIOR,
    ProtocolConfig,
    _local_positive_count,
    _Test,
    count_records,
    count_records_per_method,
    exact_ceil,
    run_protocol,
)
from shiftbench.quantifiers import MLPE, quantifier_factory


def config_field(table, name):
    """Each row's value of ``name`` in its config, e.g. "pU" of "pL=0.5;pU=0.25;r=0"."""
    return np.array([float(dict(kv.split("=") for kv in config.split(";"))[name])
                     for config in table.config.tolist()])


def same_records(a, b):
    """Whether two tables hold the same rows in the same order, column by column."""
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in RecordTable.COLUMNS
    )


def binary_ab_dataset(n=6000, seed=0):
    specs = [
        ClusterSpec(mean=[-2.0, 1.0], variance=[1.0, 1.0], weight=0.25, label=1, category="A"),
        ClusterSpec(mean=[-2.0, -1.0], variance=[1.0, 1.0], weight=0.25, label=0, category="A"),
        ClusterSpec(mean=[2.0, 1.0], variance=[1.0, 1.0], weight=0.25, label=1, category="B"),
        ClusterSpec(mean=[2.0, -1.0], variance=[1.0, 1.0], weight=0.25, label=0, category="B"),
    ]
    return generate_mixture(specs, n, seed=seed)


def star_dataset(n=8000, seed=0):
    specs = [
        ClusterSpec(
            mean=[float(s) - 3.0, 0.0],
            variance=[1.0, 1.0],
            weight=0.2,
            stars=s,
            category="A" if s % 2 else "B",
        )
        for s in (1, 2, 3, 4, 5)
    ]
    return generate_mixture(specs, n, seed=seed)


def tiny_config(protocol, **overrides):
    defaults = dict(
        protocol=protocol,
        train_size=300,
        test_size=60,
        repetitions=1,
        samples_per_config=2,
        master_seed=7,
        methods=("MLPE", "CC", "PCC"),
        folds=4,
        C=100.0,
        prior_train_prevalences=(0.2, 0.6),
        prior_test_prevalences=(0.1, 0.5, 0.9),
        covariate_class_prevalences=(0.25, 0.5),
        covariate_mixtures=(0.0, 0.5, 1.0),
        local_test_prevalences=(0.25, 0.5, 0.75),
        local_control_draws=2,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def plan_tests(cfg):
    """The test samples of every repetition's plan, walked without drawing."""
    return [
        step
        for rep in range(cfg.repetitions)
        for step in _PLANS[cfg.protocol](cfg, rep)
        if isinstance(step, _Test)
    ]


class TestCountIdentities:
    def test_full_scale_closed_forms(self):
        expected = {
            PRIOR: 60_500,
            GLOBAL_COVARIATE: 544_500,
            LOCAL_COVARIATE: 60_500,
            CONCEPT: 8_000,
        }
        for protocol, n in expected.items():
            cfg = ProtocolConfig(protocol=protocol, methods=("CC",))
            assert count_records_per_method(cfg) == n

    def test_plan_walk_matches_closed_form_any_config(self):
        for protocol in (PRIOR, GLOBAL_COVARIATE, LOCAL_COVARIATE, CONCEPT):
            cfg = tiny_config(protocol)
            assert len(plan_tests(cfg)) == count_records_per_method(cfg)
            assert sum(1 for _ in protocols._cells(cfg)) == (
                protocols._plan_shape(cfg)[0] * cfg.repetitions)

    def test_desk_preset_scales_counts(self):
        cfg = ProtocolConfig(protocol=PRIOR, methods=("CC",)).desk()
        assert cfg.repetitions == 2 and cfg.samples_per_config == 5
        assert count_records_per_method(cfg) == 11 * 11 * 5 * 2  # 1210

    def test_real_run_matches_closed_form(self):
        cfg = tiny_config(PRIOR)
        records = run_protocol(cfg, binary_ab_dataset())
        assert len(records) == count_records(cfg)
        methods, counts = np.unique(records.method, return_counts=True)
        assert methods.tolist() == sorted(cfg.methods)
        assert set(counts.tolist()) == {count_records_per_method(cfg)}

    def test_rows_follow_plan_order_with_methods_innermost(self):
        cfg = tiny_config(LOCAL_COVARIATE)
        records = run_protocol(cfg, binary_ab_dataset())
        tests = plan_tests(cfg)
        k = len(cfg.methods)
        assert records.method.tolist() == list(cfg.methods) * len(tests)
        assert records.config.tolist() == [t.config for t in tests for _ in range(k)]
        assert records.degree.tolist() == [t.degree for t in tests for _ in range(k)]
        assert (records.ae == np.abs(records.true_prev - records.estimate)).all()


class TestDegreeConventions:
    def test_prior_degree_rounded_one_decimal(self):
        cfg = tiny_config(PRIOR, prior_train_prevalences=(0.02, 0.5),
                          prior_test_prevalences=(0.0, 0.5, 1.0))
        degrees = {t.degree for t in plan_tests(cfg)}
        # 0.0-0.02 rounds to -0.0 which must normalise to +0.0
        assert degrees == {-0.5, 0.0, 0.5, 1.0}
        assert all(str(d) != "-0.0" for d in degrees)

    def test_covariate_degree_is_train_minus_test_mixture(self):
        cfg = tiny_config(GLOBAL_COVARIATE, covariate_mixtures=(0.0, 1.0))
        by_cfg = {t.config: t.degree for t in plan_tests(cfg)}
        assert by_cfg["pL=0.25;aL=1;pU=0.25;aU=0;r=0"] == 1.0
        assert by_cfg["pL=0.25;aL=0;pU=0.25;aU=1;r=0"] == -1.0

    def test_local_degree_two_decimals(self):
        cfg = tiny_config(LOCAL_COVARIATE,
                          local_test_prevalences=(0.25, 0.35, 0.75))
        assert {t.degree for t in plan_tests(cfg)} == {-0.25, -0.15, 0.25}

    def test_concept_degree_integer_valued(self):
        cfg = tiny_config(CONCEPT)
        degrees = {t.degree for t in plan_tests(cfg)}
        assert degrees == {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}


class TestDrawArithmetic:
    def test_exact_ceil_of_grid_fractions(self):
        assert exact_ceil(0.3, 5000) == 1500
        assert exact_ceil(0.0, 5000) == 0
        assert exact_ceil(1.0, 500) == 500
        # ceil/floor complementarity across the whole grid
        for k in range(11):
            a = k / 10
            assert exact_ceil(a, 5000) + (5000 - exact_ceil(a, 5000)) == 5000
            assert exact_ceil(a, 5000) == -((-k * 5000) // 10)

    def test_local_positive_counts(self):
        cfg = tiny_config(LOCAL_COVARIATE, test_size=500)
        assert _local_positive_count(cfg, 0.25) == 0
        assert _local_positive_count(cfg, 0.5) == 167  # 500/3 rounded half up
        assert _local_positive_count(cfg, 0.75) == 667

    def test_local_sample_sizes_and_prevalences(self):
        cfg = tiny_config(
            LOCAL_COVARIATE,
            test_size=500,
            train_size=1200,
            local_test_prevalences=(0.25, 0.5),
            samples_per_config=1,
            local_control_draws=1,
            methods=("MLPE",),
        )
        records = run_protocol(cfg, binary_ab_dataset(n=12000))
        by_cfg = dict(zip(records.config.tolist(), records.true_prev.tolist()))
        base = 83 + 250
        shift_50 = by_cfg["pU=0.5;arm=shift;r=0"]
        assert abs(shift_50 - 0.5) <= 0.5 / (base + 167) + 1e-12
        control_50 = by_cfg["pU=0.5;arm=control;r=0;d=0"]
        assert abs(control_50 - 0.5) <= 0.5 / (base + 167) + 1e-12
        shift_25 = by_cfg["pU=0.25;arm=shift;r=0"]
        assert abs(shift_25 - 0.25) <= 0.5 / base + 2e-3

    def test_concept_uniform_stars_give_grid_prevalences(self):
        cfg = tiny_config(
            CONCEPT, train_size=300, test_size=100, methods=("MLPE",),
            samples_per_config=1,
        )
        records = run_protocol(cfg, star_dataset())
        # test draws are star-stratified, so binarised prevalence is exact
        expected = (np.arange(1, 6) > config_field(records, "cU")[:, None]).sum(axis=1) / 5
        assert np.abs(records.true_prev - expected).max() <= 1e-12

    def test_concept_forced_prevalence(self):
        cfg = tiny_config(
            CONCEPT,
            train_size=300,
            test_size=100,
            methods=("MLPE",),
            samples_per_config=1,
            concept_force_prevalence=(0.5, 0.75),
        )
        records = run_protocol(cfg, star_dataset())
        assert np.abs(records.true_prev - 0.75).max() <= 1e-12
        assert np.abs(records.estimate - 0.5).max() <= 0.02  # MLPE returns p_L


class TestDeterminismAndParallelism:
    def test_same_seed_same_records(self):
        cfg = tiny_config(PRIOR)
        data = binary_ab_dataset()
        assert same_records(run_protocol(cfg, data), run_protocol(cfg, data))

    def test_different_seed_different_records(self):
        data = binary_ab_dataset()
        a = run_protocol(tiny_config(PRIOR), data)
        b = run_protocol(tiny_config(PRIOR, master_seed=8), data)
        assert not same_records(a, b)

    def test_worker_count_does_not_change_stream(self):
        cfg = tiny_config(PRIOR, repetitions=2)
        data = binary_ab_dataset()
        assert same_records(run_protocol(cfg, data, jobs=1), run_protocol(cfg, data, jobs=2))

    @pytest.mark.parametrize("protocol, jobs, repetitions, workers", [
        (PRIOR, 8, 2, 4),  # two cells per repetition
        (PRIOR, 3, 1, 2),
        (PRIOR, 4, 3, 4),  # more workers than repetitions
        (PRIOR, 1, 3, None),
        (LOCAL_COVARIATE, 8, 2, 2),  # one cell per repetition
        (LOCAL_COVARIATE, 8, 1, None),
    ])
    def test_pool_has_at_most_one_worker_per_cell(
        self, monkeypatch, protocol, jobs, repetitions, workers
    ):
        started = []
        monkeypatch.setattr(protocols, "ProcessPoolExecutor", deferred_pool(started, []))
        monkeypatch.setattr(protocols, "_served", None)
        cfg = tiny_config(protocol, repetitions=repetitions, prior_train_prevalences=(0.2, 0.6),
                          prior_test_prevalences=(0.5,), local_test_prevalences=(0.5,),
                          local_control_draws=0, samples_per_config=1)
        records = run_protocol(cfg, binary_ab_dataset(), jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(records) == count_records(cfg)

    def test_pool_tasks_are_cells_in_plan_order(self, monkeypatch):
        """The config and pools go to the initializer; each task the executor
        receives names one cell by (repetition, index), in plan order, and
        the tables are the serial ones."""
        log = []
        monkeypatch.setattr(protocols, "ProcessPoolExecutor", deferred_pool([], log))
        monkeypatch.setattr(protocols, "_served", None)
        cfg = tiny_config(PRIOR, repetitions=3)
        data = binary_ab_dataset()
        pooled = list(protocols.cell_tables(cfg, data, jobs=2))
        tasks = [args for event, args in log if event == "submit"]
        assert tasks == [(rep, i) for rep in range(3) for i in range(2)]
        assert len(pooled) == 6 and all(len(t) == 3 * 2 * len(cfg.methods) for t in pooled)
        assert same_records(RecordTable.concat(pooled), run_protocol(cfg, data, jobs=1))
        assert log[-1] == ("shutdown", True)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_at_most_cells_per_worker_are_in_flight(self, monkeypatch, jobs):
        """The parent submits a cell only when fewer than CELLS_PER_WORKER
        cells per worker are submitted and not yet taken."""
        log = []
        monkeypatch.setattr(protocols, "ProcessPoolExecutor", deferred_pool([], log))
        monkeypatch.setattr(protocols, "_served", None)
        cfg = tiny_config(GLOBAL_COVARIATE, samples_per_config=1, covariate_mixtures=(0.5,),
                          covariate_class_prevalences=(0.25, 0.5, 0.75), repetitions=3)
        assert len(list(protocols.cell_tables(cfg, binary_ab_dataset(), jobs=jobs))) == 9
        in_flight = np.cumsum([{"submit": 1, "run": -1}.get(event, 0) for event, _ in log])
        assert in_flight.max() == protocols.CELLS_PER_WORKER * jobs
        assert in_flight[-1] == 0

    def test_closing_early_runs_no_further_cell(self, monkeypatch):
        log = []
        monkeypatch.setattr(protocols, "ProcessPoolExecutor", deferred_pool([], log))
        monkeypatch.setattr(protocols, "_served", None)
        cfg = tiny_config(PRIOR, repetitions=3)
        tables = protocols.cell_tables(cfg, binary_ab_dataset(), jobs=2)
        next(tables)
        tables.close()
        events = [event for event, _ in log]
        assert events.count("run") == 1 and events[-1] == "shutdown" and log[-1][1] is True
        assert events.count("submit") == protocols.CELLS_PER_WORKER * 2

    def test_a_failing_cell_runs_no_further_cell(self, monkeypatch):
        log = []
        monkeypatch.setattr(protocols, "ProcessPoolExecutor", deferred_pool([], log))
        monkeypatch.setattr(protocols, "_served", None)
        run_cell = protocols._run_cell

        def fail_at_rep_1(cfg, pools, rep, cell, tests):
            if rep == 1:
                raise PoolExhaustionError("injected", 9, 0)
            return run_cell(cfg, pools, rep, cell, tests)

        monkeypatch.setattr(protocols, "_run_cell", fail_at_rep_1)
        cfg = tiny_config(PRIOR, repetitions=3)
        tables = protocols.cell_tables(cfg, binary_ab_dataset(), jobs=2)
        assert len(next(tables)) == len(next(tables)) == 3 * 2 * len(cfg.methods)
        with pytest.raises(PoolExhaustionError, match="injected"):
            next(tables)
        events = [event for event, _ in log]
        assert events.count("run") == 3 and log[-1] == ("shutdown", True)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the pools only under fork")
    def test_forked_workers_inherit_the_pools_unpickled(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a pool was pickled")

        monkeypatch.setattr(Pool, "__reduce__", refuse, raising=False)
        cfg = tiny_config(PRIOR, repetitions=2)
        data = binary_ab_dataset()
        assert same_records(run_protocol(cfg, data, jobs=2), run_protocol(cfg, data, jobs=1))


def deferred_pool(started, log):
    """A ``ProcessPoolExecutor`` stand-in that records the worker count it is
    asked for and runs the initializer.  A submitted task runs in-process
    only when its result is read.  ``log`` gets ("submit", args) per task,
    ("run", args) when it runs, and ("shutdown", cancel_futures)."""

    class Deferred:
        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def result(self):
            log.append(("run", self.args))
            return self.fn(*self.args)

    class DeferredPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def submit(self, fn, *args):
            log.append(("submit", args))
            return Deferred(fn, args)

        def shutdown(self, wait=True, *, cancel_futures=False):
            log.append(("shutdown", cancel_futures))

    return DeferredPool


class TestValidationAndErrors:
    def test_unknown_method_rejected_at_config_time(self):
        with pytest.raises(ValueError) as from_config:
            tiny_config(PRIOR, methods=("CC", "BOGUS"))
        # one registry lookup: the config and the factory say the same
        with pytest.raises(ValueError) as from_factory:
            quantifier_factory("BOGUS")
        assert str(from_config.value) == str(from_factory.value)
        assert "unknown quantification method 'BOGUS'" in str(from_config.value)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="sideways")

    def test_run_needs_a_dataset(self):
        with pytest.raises(TypeError, match="dataset"):
            run_protocol(tiny_config(PRIOR), None)

    def test_method_names_take_registry_spelling(self):
        cfg = tiny_config(PRIOR, methods=("cc", "pcc", "dys", "Sld"))
        assert cfg.methods == ("CC", "PCC", "DyS", "SLD")

    @pytest.mark.parametrize("methods", [("CC", "CC"), ("cc", "CC"), ("PCC", "SLD", "pcc")])
    def test_duplicate_methods_rejected(self, methods):
        with pytest.raises(ValueError, match="duplicate methods"):
            tiny_config(PRIOR, methods=methods)

    def test_estimate_outside_unit_interval_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(MLPE, "aggregate_many",
                            lambda self, posteriors: [float("nan")] * len(posteriors))
        with pytest.raises(ValueError, match="estimate out of \\[0, 1\\]: nan"):
            run_protocol(tiny_config(PRIOR, methods=("MLPE",)), binary_ab_dataset())

    def test_exhaustion_error_names_configuration(self):
        cfg = tiny_config(PRIOR, train_size=280, prior_train_prevalences=(0.98,))
        small = binary_ab_dataset(n=700)
        with pytest.raises(PoolExhaustionError, match=r"prior rep=0 pL=0.98"):
            run_protocol(cfg, small)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("protocol, overrides, message", [
        # test contexts name the training point, then the test point and round
        (GLOBAL_COVARIATE,
         dict(test_size=400, covariate_class_prevalences=(0.75,), covariate_mixtures=(1.0,)),
         r"^pool exhausted: need 300 positive \[global_covariate rep=0 pL=0\.75 aL=1 "
         r"pU=0\.75 aU=1 round=0\] items, only 254 available$"),
        # 800 added positives of category A reach p_U = 0.75
        (LOCAL_COVARIATE, dict(test_size=600, local_test_prevalences=(0.75,)),
         r"^pool exhausted: need 800 positive \[local_covariate rep=0 round=0 pU=0\.75\] "
         r"items, only 254 available$"),
        (CONCEPT, dict(test_size=600, concept_cut_points=(2.5,)),
         r"^pool exhausted: need 120 1-star \[concept rep=0 cL=2\.5 cU=2\.5 round=0\] "
         r"items, only 90 available$"),
        # a later cell: the first training point is served, the second is not
        (PRIOR, dict(train_size=800, prior_train_prevalences=(0.5, 0.9)),
         r"^pool exhausted: need 720 positive \[prior rep=0 pL=0\.9\] items, only 495 available$"),
    ])
    def test_exhaustion_error_names_each_protocols_draw(self, protocol, overrides, message,
                                                        jobs):
        """Two repetitions, so that at ``jobs`` 2 every case runs in a pool
        whose workers build the cells' tests."""
        cfg = tiny_config(protocol, **{"train_size": 100, "methods": ("MLPE",), "repetitions": 2,
                                       **overrides})
        data = star_dataset(n=1000) if protocol == CONCEPT else binary_ab_dataset(n=2000)
        with pytest.raises(PoolExhaustionError, match=message):
            run_protocol(cfg, data, jobs=jobs)

    def test_a_worker_task_builds_a_later_cell_of_a_later_repetition(self, monkeypatch):
        """A pool task names cell (1, 1) by its address alone: the worker
        builds it, and its draw that runs dry names repetition 1 and the
        second training point."""
        monkeypatch.setattr(protocols, "_served", None)
        cfg = tiny_config(PRIOR, repetitions=2, train_size=800, methods=("MLPE",),
                          prior_train_prevalences=(0.5, 0.9))
        data = binary_ab_dataset(n=2000)
        protocols._serve(cfg, protocols._prepare_pools(cfg, data))
        assert len(protocols._served_cell(1, 0)) == cfg.samples_per_config * 3
        with pytest.raises(PoolExhaustionError, match=r"^pool exhausted: need 720 positive "
                           r"\[prior rep=1 pL=0\.9\] items, only 495 available$"):
            protocols._served_cell(1, 1)

    def test_covariate_requires_categories(self):
        data = binary_ab_dataset(n=2000)
        stripped = type(data)(data.x, data.labels, None)
        with pytest.raises(ValueError, match="category"):
            run_protocol(tiny_config(GLOBAL_COVARIATE), stripped)

    def test_concept_requires_stars(self):
        with pytest.raises(TypeError, match="star"):
            run_protocol(tiny_config(CONCEPT), binary_ab_dataset(n=2000))

    def test_config_round_trip(self):
        cfg = tiny_config(GLOBAL_COVARIATE)
        clone = ProtocolConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_config_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ProtocolConfig.from_dict({"protocol": PRIOR, "grid": [1]})


class TestSampleIntegrity:
    def test_realized_prevalence_close_to_nominal(self):
        cfg = tiny_config(PRIOR, methods=("MLPE",))
        records = run_protocol(cfg, binary_ab_dataset())
        nominal = config_field(records, "pU")
        assert np.abs(records.true_prev - nominal).max() <= 0.5 / cfg.test_size + 1e-12

    def test_train_and_test_pools_disjoint(self):
        # identical draws from train and test pools can never overlap, because
        # the stratified split partitions the dataset; verify via feature ids
        data = binary_ab_dataset(n=4000)
        ids = np.arange(len(data), dtype=float)
        tagged = type(data)(
            np.column_stack([data.x, ids]), data.labels, data.category
        )
        from shiftbench.core import split_stratified

        train_pool, test_pool = split_stratified(tagged, 0.5, seed=3)
        train_ids = set(train_pool.dataset.x[train_pool.index, -1])
        test_ids = set(test_pool.dataset.x[test_pool.index, -1])
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == len(data)
