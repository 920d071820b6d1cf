"""``classifier.sigmoid`` equals the two-pass masked form it replaced, bit for bit.

The oracle, ``oracle_sigmoid``, is the earlier implementation copied
verbatim: it evaluates 1/(1+e^-z) on z >= 0 and e^z/(1+e^z) elsewhere, one
masked exponential each.  Posteriors and gradients, and so records.csv,
depend on these bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftbench.classifier import sigmoid

property_settings = settings(max_examples=300, deadline=None)


def oracle_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_same_bits(ours, oracle):
    assert ours.dtype == oracle.dtype == np.float64
    assert ours.tobytes() == oracle.tobytes()


@property_settings
@given(z=arrays(np.float64, st.integers(0, 300), elements=st.floats(allow_nan=False)))
def test_equals_masked_sigmoid_on_any_floats(z):
    # includes +-0, +-inf and magnitudes up to the largest float
    assert_same_bits(sigmoid(z), oracle_sigmoid(z))


@property_settings
@given(
    z=arrays(np.float64, st.integers(0, 300), elements=st.floats(-50.0, 50.0)),
    scale=st.sampled_from([1e-6, 1.0, 30.0, 1e6]),
)
def test_equals_masked_sigmoid_on_decision_scores(z, scale):
    # decision scores from near zero, where both branches meet, to saturation
    z = z * scale
    assert_same_bits(sigmoid(z), oracle_sigmoid(z))


def test_special_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 745.2, -745.2])
    assert_same_bits(sigmoid(z), oracle_sigmoid(z))
