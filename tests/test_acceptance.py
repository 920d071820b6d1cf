"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The qualitative criteria run desk-scale protocols (2 repetitions,
5 samples per configuration) on synthetic Gaussian data.  Their time bounds
count the test's own CPU time (``time.process_time``), so another process
on the machine cannot fail them.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from shiftbench.classifier import ClassRates, item_weights, loss_and_grad
from shiftbench.core import sample_at_prevalence, split_stratified
from shiftbench.datagen import ClusterSpec, generate_mixture
from shiftbench.evaluation import _exact_p, _normal_p, wilcoxon_signed_rank
from shiftbench.protocols import (
    CONCEPT,
    GLOBAL_COVARIATE,
    LOCAL_COVARIATE,
    PRIOR,
    ProtocolConfig,
    _plan,
    _Test,
    run_protocol,
)
from shiftbench.quantifiers import (
    METHOD_NAMES,
    PosteriorHistogram,
    adjust_prevalence,
    expectation_maximisation_prevalence,
    fit_evidence,
    mean_matching_prevalence,
    mixture_fit_alpha,
    quantifier_factory,
)
from test_protocols import config_field


def check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def two_gaussians(n, seed, shift=1.0):
    specs = [
        ClusterSpec(mean=[-shift, 0.0], variance=[1.0, 1.0], weight=0.5, label=0),
        ClusterSpec(mean=[shift, 0.0], variance=[1.0, 1.0], weight=0.5, label=1),
    ]
    return generate_mixture(specs, n, seed=seed)


def two_category_clusters(n, seed):
    """Category A (easy) and B (hard) share the decision surface y > 0."""
    specs = [
        ClusterSpec(mean=[-2.0, 1.25], variance=[1, 1], weight=0.25, label=1, category="A"),
        ClusterSpec(mean=[-2.0, -1.25], variance=[1, 1], weight=0.25, label=0, category="A"),
        ClusterSpec(mean=[2.0, 0.75], variance=[1, 1], weight=0.25, label=1, category="B"),
        ClusterSpec(mean=[2.0, -0.75], variance=[1, 1], weight=0.25, label=0, category="B"),
    ]
    return generate_mixture(specs, n, seed=seed)


def five_star_mixture(n, seed):
    """One cluster per star rating, with mean s - 3 on the first axis."""
    specs = [
        ClusterSpec(mean=[s - 3.0, 0.0], variance=[1.0, 1.0], weight=0.2, stars=s,
                    category="A" if s % 2 else "B")
        for s in (1, 2, 3, 4, 5)
    ]
    return generate_mixture(specs, n, seed=seed)


def fitted_instance(seed, n_train=160, n_test=120, folds=4):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n_train) < rng.uniform(0.25, 0.75)).astype(int)
    x = rng.standard_normal((n_train, 2)) + np.where(labels[:, None] == 1, 1.0, -1.0)
    evidence = fit_evidence(x, labels, C=10.0, folds=folds, seed=seed)
    xt = rng.standard_normal((n_test, 2)) + np.where(
        (rng.random(n_test) < rng.uniform(0.05, 0.95))[:, None], 1.0, -1.0
    )
    return evidence, x, labels, xt


@pytest.fixture(scope="module")
def covariate_records():
    """One desk-scale global-covariate run shared by criteria 6 and 7."""
    data = two_category_clusters(36_000, seed=17)
    cfg = ProtocolConfig(protocol=GLOBAL_COVARIATE, master_seed=5).desk()
    return run_protocol(cfg, data)


def test_criterion_01_mean_matching_equals_adjusted_posterior_count():
    start = time.process_time()
    worst = 0.0
    for seed in range(200):
        evidence, _, _, xt = fitted_instance(seed)
        pacc = quantifier_factory("PACC").fit_evidence(evidence)
        smm = quantifier_factory("SMM").fit_evidence(evidence)
        worst = max(worst, abs(pacc.quantify(xt) - smm.quantify(xt)))
    elapsed = time.process_time() - start
    check(
        "criterion 1: SMM equals PACC on 200 random instances",
        worst <= 1e-9 and elapsed < 10.0,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def _independent_hdy(h_pos, h_neg, h_test):
    """Direct Hellinger mixture search: coarse grid then a fine local scan."""

    def hellinger(mix):
        return np.sqrt(((np.sqrt(mix) - np.sqrt(h_test)) ** 2).sum(-1)) / np.sqrt(2)

    coarse = np.linspace(0.0, 1.0, 1001)
    values = hellinger(coarse[:, None] * h_pos + (1 - coarse)[:, None] * h_neg)
    centre = coarse[int(np.argmin(values))]
    lo, hi = max(0.0, centre - 2e-3), min(1.0, centre + 2e-3)
    fine = np.arange(lo, hi + 1e-7 / 2, 1e-7)
    values = hellinger(fine[:, None] * h_pos + (1 - fine)[:, None] * h_neg)
    return float(fine[int(np.argmin(values))])


def test_criterion_02_hellinger_mixture_matches_independent_search():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        pos = PosteriorHistogram.from_scores(rng.beta(5, 2, 400), 10)
        neg = PosteriorHistogram.from_scores(rng.beta(2, 5, 400), 10)
        alpha = rng.uniform(0.02, 0.98)
        target = PosteriorHistogram(alpha * pos.masses + (1 - alpha) * neg.masses)
        mine = mixture_fit_alpha(pos, neg, target, "hellinger")
        oracle = _independent_hdy(pos.masses, neg.masses, target.masses)
        worst = max(worst, abs(mine - oracle))
    check(
        "criterion 2: hellinger mixture equals independently coded search "
        "on 100 instances",
        worst <= 1e-6,
        f"max gap {worst:.2e}",
    )


def test_criterion_03_identity_suite_and_output_range():
    rng = np.random.default_rng(0)

    # perfect rates make the adjusted estimators collapse onto the raw counts
    perfect = ClassRates(1.0, 0.0)
    identity_ok = all(
        adjust_prevalence(p, perfect) == p for p in rng.uniform(0, 1, 200)
    )
    evidence, x, labels, xt = fitted_instance(5)
    acc = quantifier_factory("ACC").fit_evidence(evidence)
    cc = quantifier_factory("CC").fit_evidence(evidence)
    acc.rates_ = perfect
    identity_ok &= acc.quantify(xt) == cc.quantify(xt)
    pacc = quantifier_factory("PACC").fit_evidence(evidence)
    pcc = quantifier_factory("PCC").fit_evidence(evidence)
    pacc.rates_ = perfect
    identity_ok &= pacc.quantify(xt) == pcc.quantify(xt)

    mlpe = quantifier_factory("MLPE").fit(x, labels)
    constant_ok = (
        mlpe.quantify(xt) == mlpe.quantify(xt[:11]) == labels.sum() / len(labels)
    )

    # 1,000 fuzzed instances through the formula layer stay inside [0, 1]
    range_ok = True
    for _ in range(1000):
        base = rng.uniform(-0.2, 1.2)  # deliberately out-of-range raw counts
        tpr, fpr = sorted(rng.uniform(0, 1, 2))[::-1]
        range_ok &= 0 <= adjust_prevalence(base, ClassRates(tpr, fpr)) <= 1
        range_ok &= 0 <= mean_matching_prevalence(
            rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)
        ) <= 1
        p, _, _ = expectation_maximisation_prevalence(
            rng.beta(2, 2, 40), rng.uniform(0.05, 0.95)
        )
        range_ok &= 0 <= p <= 1

    # and so do all fitted methods on fresh random samples
    evidences = [fitted_instance(seed)[0] for seed in (20, 21, 22)]
    fitted = []
    for ev in evidences:
        for name in METHOD_NAMES:
            q = quantifier_factory(name, folds=4)
            if name == "MLPE":
                continue
            fitted.append(q.fit_evidence(ev))
    for i in range(120):
        sample = rng.standard_normal((30, 2)) * rng.uniform(0.5, 3) + rng.uniform(
            -2, 2, size=2
        )
        for q in fitted:
            value = q.quantify(sample)
            range_ok &= 0.0 <= value <= 1.0

    check(
        "criterion 3: identity suite (ACC=CC, PACC=PCC at perfect rates; "
        "MLPE constant; fuzzed outputs in [0,1])",
        bool(identity_ok and constant_ok and range_ok),
    )


def test_criterion_04_adjusted_count_error_shrinks_with_sample_size():
    start = time.process_time()
    data = two_gaussians(64_000, seed=101, shift=1.5)
    train_pool, test_pool = split_stratified(data, 0.5, seed=11)
    train = sample_at_prevalence(train_pool, 0.5, 5000, seed=1)
    evidence = fit_evidence(train.x, train.labels, C=1000.0, folds=10, seed=1)
    acc = quantifier_factory("ACC").fit_evidence(evidence)

    sizes = (100, 1000, 10_000)
    errors = {s: [] for s in sizes}
    for trial in range(20):
        for i, size in enumerate(sizes):
            sample = sample_at_prevalence(
                test_pool, 0.3, size, seed=5000 + trial * 10 + i
            )
            errors[size].append(abs(acc.quantify(sample.x) - sample.true_prevalence))
    medians = [float(np.median(errors[s])) for s in sizes]
    elapsed = time.process_time() - start
    check(
        "criterion 4: median adjusted-count error strictly decreases over "
        "test sizes 100/1k/10k",
        medians[0] > medians[1] > medians[2] and elapsed < 120.0,
        f"medians {[round(m, 4) for m in medians]}, {elapsed:.1f}s",
    )


def _mae_by_method(table, rows):
    """MAE of each method over the selected rows, methods in record order."""
    return {m: float(np.mean(table.ae[rows & (table.method == m)]))
            for m in dict.fromkeys(table.method[rows].tolist())}


def test_criterion_05_prior_shift_method_ordering_at_desk_scale():
    start = time.process_time()
    data = two_gaussians(30_000, seed=11)
    cfg = ProtocolConfig(protocol=PRIOR, master_seed=5).desk()
    records = run_protocol(cfg, data)
    elapsed = time.process_time() - start

    high = _mae_by_method(records, np.abs(records.degree) >= 0.5)
    zero = _mae_by_method(records, records.degree == 0.0)

    adjusting_beat_counting = all(
        high[a] < high[c]
        for a in ("SLD", "PACC", "DyS")
        for c in ("CC", "PCC")
    )
    all_good_at_zero = max(zero.values()) <= 0.05
    check(
        "criterion 5: prior-shift desk run reproduces the method ordering",
        adjusting_beat_counting and all_good_at_zero and elapsed < 300.0,
        f"|degree|>=0.5 {dict((m, round(v, 3)) for m, v in sorted(high.items()))}; "
        f"degree 0 max {max(zero.values()):.3f}; {elapsed:.0f}s",
    )


def test_criterion_06_pure_covariate_shift_favours_mean_posterior(covariate_records):
    table = covariate_records
    pure = config_field(table, "pL") == config_field(table, "pU")
    mae = _mae_by_method(table, pure & (np.abs(table.degree) == 1.0))
    best = min(mae.values())
    check(
        "criterion 6: PCC is (near-)best under maximal pure covariate shift",
        mae["PCC"] <= best + 0.01,
        f"{dict((m, round(v, 3)) for m, v in sorted(mae.items()))}",
    )


def test_criterion_07_mixed_covariate_shift_favours_prior_adjustment(covariate_records):
    table = covariate_records
    mae = _mae_by_method(table, config_field(table, "pL") != config_field(table, "pU"))
    check(
        "criterion 7: SLD beats PCC when covariate shift carries a prior change",
        mae["SLD"] < mae["PCC"],
        f"SLD {mae['SLD']:.3f} vs PCC {mae['PCC']:.3f}",
    )


def test_criterion_08_record_count_identities_by_plan_walk():
    """Each test sample of the plan gives one record per method; the plans are
    walked without drawing or fitting."""
    start = time.process_time()
    expected = {
        PRIOR: 60_500,
        GLOBAL_COVARIATE: 544_500,
        LOCAL_COVARIATE: 60_500,
        CONCEPT: 8_000,
    }
    counts = {}
    for protocol, want in expected.items():
        cfg = ProtocolConfig(protocol=protocol, methods=("MLPE",))
        tests = sum(
            isinstance(step, _Test)
            for rep in range(cfg.repetitions)
            for step in _plan(cfg, rep)
        )
        counts[protocol] = tests * len(cfg.methods)
    elapsed = time.process_time() - start
    check(
        "criterion 8: full-scale per-method record counts are "
        "60500/544500/60500/8000",
        counts == expected and elapsed < 30.0,
        f"{counts}, {elapsed:.1f}s",
    )


def _brute_force_wilcoxon(a, b):
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    w_values = np.array(
        [
            sum(r for r, s in zip(ranks, signs) if s)
            for signs in itertools.product([False, True], repeat=len(d))
        ]
    )
    p_low = (w_values <= w_obs + 1e-9).mean()
    p_high = (w_values >= w_obs - 1e-9).mean()
    return min(1.0, 2.0 * min(p_low, p_high))


def test_criterion_09_wilcoxon_exact_branch_and_approximation():
    rng = np.random.default_rng(12)
    exact_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 11))
        a = rng.normal(size=n)
        b = a - rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
        p_mine = wilcoxon_signed_rank(a, b)
        p_brute = _brute_force_wilcoxon(a, b)
        exact_ok &= abs(p_mine - p_brute) <= 1e-12

    worst = 0.0
    for _ in range(100):
        d = rng.normal(size=25)
        ranks = rankdata(np.abs(d))
        w = float(ranks[d > 0].sum())
        worst = max(worst, abs(_exact_p(ranks, w) - _normal_p(ranks, w, 25)))
    check(
        "criterion 9: exact Wilcoxon equals full enumeration (n<=10) and the "
        "normal branch agrees within 0.01 at n=25",
        exact_ok and worst <= 0.01,
        f"max exact-vs-normal gap {worst:.4f}",
    )


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((90, 5))
    labels = (rng.random(90) < 0.45).astype(float)
    omega = item_weights(labels.astype(int), "balanced")
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        params = rng.standard_normal(6) * 1.5
        _, grad = loss_and_grad(params, x, labels, 3.0, omega)
        fd = np.empty_like(grad)
        for j in range(len(params)):
            up, dn = params.copy(), params.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                loss_and_grad(up, x, labels, 3.0, omega)[0]
                - loss_and_grad(dn, x, labels, 3.0, omega)[0]
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(grad))
    check(
        "criterion 10: analytic gradient matches central differences",
        worst <= 1e-4,
        f"max relative error {worst:.2e}",
    )


def test_criterion_11_end_to_end_desk_runs_are_byte_identical(tmp_path):
    from shiftbench.cli import main

    spec = tmp_path / "clusters.json"
    spec.write_text(
        json.dumps(
            [
                {"mean": [-1.0, 0.0], "variance": [1, 1], "weight": 0.5,
                 "label": 0, "category": "A"},
                {"mean": [1.0, 0.0], "variance": [1, 1], "weight": 0.5,
                 "label": 1, "category": "A"},
            ]
        )
    )
    data = tmp_path / "data.jsonl"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data),
                 "--seed", "11", "--n", "30000"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": "data.jsonl", "master_seed": 5}))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", "prior", "--config", str(cfg), "--out", str(out1),
                 "--desk"]) == 0
    assert main(["run", "prior", "--config", str(cfg), "--out", str(out2),
                 "--desk"]) == 0
    identical = (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    check("criterion 11: desk reruns produce byte-identical records.csv", identical)


def test_criterion_12_prior_robust_methods_lose_under_local_covariate_shift():
    """The paper's first finding: methods robust to prior shift are not robust
    to other shifts.  Under local covariate shift the prior-adjusting methods
    err at least twice as much on the shift arm as on its control arm, which
    has the same prevalences but no covariate shift."""
    start = time.process_time()
    data = two_category_clusters(36_000, seed=17)
    table = run_protocol(ProtocolConfig(protocol=LOCAL_COVARIATE, master_seed=5).desk(), data)
    elapsed = time.process_time() - start
    arm = np.array([config.split(";")[1] for config in table.config.tolist()])
    far = np.abs(table.degree) >= 0.2
    ratios = {}
    for method in ("PACC", "DyS", "SLD"):
        rows = far & (table.method == method)
        shift = table.ae[rows & (arm == "arm=shift")].mean()
        control = table.ae[rows & (arm == "arm=control")].mean()
        ratios[method] = float(shift / control)
    check(
        "criterion 12: PACC, DyS and SLD err at least twice as much under local "
        "covariate shift as on its control arm at |degree| >= 0.2",
        min(ratios.values()) >= 2.0 and elapsed < 60.0,
        f"shift/control MAE {dict((m, round(r, 2)) for m, r in ratios.items())}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_13_no_method_is_robust_to_concept_shift():
    """The paper's second finding: no method is robust to every shift.  Under
    concept shift every method's error grows with the shift of the cut point."""
    start = time.process_time()
    data = five_star_mixture(40_000, seed=3)
    cfg = ProtocolConfig(protocol=CONCEPT, master_seed=5, methods=METHOD_NAMES).desk()
    table = run_protocol(cfg, data)
    elapsed = time.process_time() - start
    magnitude = np.abs(table.degree)
    mae = {
        method: [float(table.ae[(table.method == method) & (magnitude == d)].mean())
                 for d in (0.0, 1.0, 2.0, 3.0)]
        for method in cfg.methods
    }
    rising = all(a < b for curve in mae.values() for a, b in zip(curve, curve[1:]))
    worst_at_3 = min(curve[-1] for curve in mae.values())
    check(
        "criterion 13: every method's MAE rises over |degree| 0-3 under concept "
        "shift and exceeds 0.4 at 3",
        rising and worst_at_3 > 0.4 and elapsed < 60.0,
        f"MAE at |degree| 0..3 {dict((m, [round(v, 3) for v in c]) for m, c in mae.items())}, "
        f"{elapsed:.1f}s",
    )
