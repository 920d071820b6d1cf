"""``evaluation.rankdata`` equals ``scipy.stats.rankdata``, bit for bit.

The package ranks Wilcoxon differences in numpy so that importing it does not
load ``scipy.stats``; these tests keep ``scipy.stats`` as the oracle and check
that a fresh ``import shiftbench.cli`` leaves it out of ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbench
from shiftbench.evaluation import rankdata

property_settings = settings(max_examples=300, deadline=None)


def assert_same_bits(ours, oracle):
    assert ours.dtype == oracle.dtype == np.float64
    assert ours.shape == oracle.shape
    assert ours.tobytes() == oracle.tobytes()


@property_settings
@given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=200))
def test_equals_scipy_on_any_floats(values):
    values = np.array(values)
    assert_same_bits(rankdata(values), scipy.stats.rankdata(values))


@property_settings
@given(
    codes=st.lists(st.integers(0, 5), min_size=1, max_size=200),
    scale=st.sampled_from([1.0, 0.1, 1e-300, -3.0]),
)
def test_equals_scipy_with_heavy_ties(codes, scale):
    # at most six distinct values, so almost every value is tied
    values = np.array(codes, dtype=float) * scale
    assert_same_bits(rankdata(values), scipy.stats.rankdata(values))


@property_settings
@given(codes=st.lists(st.integers(0, 1000), min_size=1, max_size=200))
def test_equals_scipy_on_tiled_input(codes):
    # a records.csv tiled 50 times repeats each AE difference 50 times
    values = np.tile(np.abs(np.array(codes, dtype=float) / 1000.0 - 0.5), 50)
    assert_same_bits(rankdata(values), scipy.stats.rankdata(values))


def test_signed_zeros_tie_and_empty_input():
    assert_same_bits(rankdata([0.0, -0.0, 1.0]), scipy.stats.rankdata([0.0, -0.0, 1.0]))
    assert_same_bits(rankdata([]), scipy.stats.rankdata([]))


def test_import_leaves_scipy_stats_unloaded():
    paths = [str(Path(shiftbench.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import shiftbench.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, check=False)
    assert result.returncode == 0, "import shiftbench.cli loaded scipy.stats"
