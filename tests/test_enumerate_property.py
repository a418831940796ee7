"""The numbered enumeration stream equals the brute-force oracle's list,
order included, on random small balanced profiles."""

from __future__ import annotations

import pytest

from propcalc.canonical import enumerate_graphs

from _oracles import brute_force_graphs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def balanced_profiles(draw):
    """At most 4 vertices of arity and coarity at most 2, a boundary of at
    most 2 on each side, and at most 7 source ports."""
    arities = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            max_size=4))
    sa = sum(a for a, _ in arities)
    sb = sum(b for _, b in arities)
    # m inputs and sb out-ports feed n outputs and sa in-ports
    low, high = max(0, sa - sb), min(2, 2 + sa - sb, 7 - sb)
    hypothesis.assume(low <= high)
    m = draw(st.integers(low, high))
    return arities, m, m + sb - sa


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(balanced_profiles())
def test_enumerate_is_the_brute_force_list(profile):
    arities, m, n = profile
    ours = [ng.graph for ng in enumerate_graphs(arities, m, n)]
    assert ours == brute_force_graphs(arities, m, n)
