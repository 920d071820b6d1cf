"""Model selection runs once per training cell, for every method together.

``_select_settings`` makes one split, one set of validation draws and one
``_fitted`` call, so one classifier, per ``DEFAULT_GRID`` point, whatever the
number of methods.  The split, the draws and the fits depend only on the
cell's fit seed, so each method of a set picks the setting it picks when it
runs alone, on dense and on text cells alike.
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench import protocols
from shiftbench.classifier import DEFAULT_GRID
from shiftbench.protocols import (
    PRIOR,
    ProtocolConfig,
    _cell,
    _draw,
    _featurise_train,
    _prepare_pools,
    _select_settings,
)
from shiftbench.quantifiers import METHOD_NAMES
from shiftbench.seeds import derive_seed
from test_cell_path_properties import dataset


def training_cell(kind, cfg):
    """The featurised training draw of cell 0 and its fit seed, as
    ``_run_cell`` makes them."""
    cell = _cell(cfg, 0, 0)[0]
    train = _draw(cell.parts, cfg.master_seed, _prepare_pools(cfg, dataset(kind, PRIOR)))
    return _featurise_train(train.x)[0], train.labels, derive_seed(cfg.master_seed,
                                                                   *cell.fit_coords)


def counted(monkeypatch, name, calls):
    real = getattr(protocols, name)

    def spy(*args, **kwargs):
        calls.append((name, args))
        return real(*args, **kwargs)

    monkeypatch.setattr(protocols, name, spy)


@pytest.mark.parametrize("methods", [("CC",), METHOD_NAMES], ids=["one", "all"])
def test_one_split_one_draw_set_and_one_fit_per_grid_point(monkeypatch, methods):
    cfg = ProtocolConfig(PRIOR, methods=methods, grid_search=True, train_size=80, test_size=10,
                         folds=2, prior_train_prevalences=(0.5,), master_seed=3)
    x, labels, fit_seed = training_cell("dense", cfg)
    calls = []
    for name in ("split_stratified", "_validation_parts", "_fitted", "fit_evidence"):
        counted(monkeypatch, name, calls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # EM caps on tiny draws
        chosen = _select_settings(cfg, x, labels, fit_seed)
    names = [name for name, _ in calls]
    assert names.count("split_stratified") == names.count("_validation_parts") == 1
    fits = [args[3] for name, args in calls if name == "_fitted"]
    assert fits == [dict.fromkeys(methods, (p["C"], p["class_weight"])) for p in DEFAULT_GRID]
    assert names.count("fit_evidence") == len(DEFAULT_GRID)  # one classifier per point
    assert set(chosen) == set(methods)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(("dense", "text")),
       methods=st.lists(st.sampled_from(METHOD_NAMES), min_size=2, max_size=4, unique=True),
       train_size=st.integers(50, 90), test_size=st.integers(5, 30),
       prevalence=st.sampled_from((0.3, 0.5, 0.7)), folds=st.integers(2, 3),
       master_seed=st.integers(0, 2**32 - 1))
def test_each_method_selects_as_it_does_alone(kind, methods, train_size, test_size, prevalence,
                                              folds, master_seed):
    cfg = ProtocolConfig(PRIOR, methods=tuple(methods), grid_search=True,
                         train_size=train_size, test_size=test_size, folds=folds,
                         prior_train_prevalences=(prevalence,), master_seed=master_seed)
    x, labels, fit_seed = training_cell(kind, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # EM caps and unconverged fits on tiny draws
        together = _select_settings(cfg, x, labels, fit_seed)
        for name in methods:
            alone = dataclasses.replace(cfg, methods=(name,))
            assert _select_settings(alone, x, labels, fit_seed) == {name: together[name]}
