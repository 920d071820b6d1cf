"""``reporting._ranks`` equals the first-seen factorisation it replaced.

The oracle numbers values in order of first appearance with a ``setdefault``
generator, then renumbers them in sort order.  The reports group rows by
these codes, so the codes must match exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbench.reporting import _ranks


def oracle_ranks(values):
    first = {}
    codes = np.fromiter((first.setdefault(v, len(first)) for v in values), np.int64,
                        count=len(values))
    distinct = sorted(first)
    rank = np.empty(len(distinct), np.int64)
    rank[[first[v] for v in distinct]] = np.arange(len(distinct))
    return distinct, rank[codes]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from(["CC", "ACC", "SLD", "pL=0.1;pU=0.5;r=0", "", "\u00e9"])
                       | st.text(max_size=4), max_size=60))
def test_ranks_equal_first_seen_oracle(values):
    array = np.array(values, dtype=object)
    distinct, codes = _ranks(array)
    want_distinct, want_codes = oracle_ranks(array)
    assert distinct == want_distinct
    assert codes.dtype == want_codes.dtype == np.int64
    assert codes.tolist() == want_codes.tolist()
