"""Exhaustive collapse equals the brute-force oracle, irreducible forms
and merge sequences, on random small mixed graphs over the witness
menu."""

from __future__ import annotations

import functools

import pytest

from propcalc.canonical import enumerate_graphs
from propcalc.freeprop import Signature, corolla, pelem_vcompose
from propcalc.rewrite import MixedGraph, _exhaustive

from _oracles import brute_force_collapse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MENU = ((0, 2), (2, 0), (0, 0), (1, 1), (2, 1), (1, 2))
ATOMS = Signature([(f"p{a}x{b}", a, b) for a, b in MENU])
MSIG = Signature([(f"m{a}x{b}", a, b) for a, b in MENU])


@functools.cache
def _hosts(profile: tuple, m: int, n: int) -> tuple:
    return tuple(ng.graph for ng in enumerate_graphs(list(profile), m, n))


@st.composite
def mixed_graphs(draw):
    """2-4 vertices from the menu, a boundary of at most 1 input and 2
    outputs, and at least two composite vertices, each labeled by its
    atom or, for a unary one, sometimes by two atoms in a row."""
    profile = tuple(draw(st.lists(st.sampled_from(MENU), min_size=2,
                                  max_size=4)))
    m = draw(st.integers(0, 1))
    n = m + sum(b for _, b in profile) - sum(a for a, _ in profile)
    hypothesis.assume(0 <= n <= 2)
    hosts = _hosts(profile, m, n)
    hypothesis.assume(hosts)
    graph = draw(st.sampled_from(hosts))
    composite = draw(st.sets(st.sampled_from(graph.vertex_ids), min_size=2))
    p_labels = {}
    for v in graph.vertices:
        if v.id in composite:
            e = corolla(ATOMS, f"p{v.n_in}x{v.n_out}")
            if (v.n_in, v.n_out) == (1, 1) and draw(st.booleans()):
                e = pelem_vcompose(e, e)
            p_labels[v.id] = e
    m_labels = {v.id: f"m{v.n_in}x{v.n_out}" for v in graph.vertices
                if v.id not in composite}
    return MixedGraph.build(graph, ATOMS, MSIG, p_labels, m_labels)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(mixed_graphs())
def test_exhaustive_collapse_is_the_brute_force_search(g):
    forms, seqs = _exhaustive(g)
    want_forms, want_seqs = brute_force_collapse(g)
    assert [f.key for f in forms] == [f.key for f in want_forms]
    assert seqs == want_seqs
