"""Exhaustive collapse equals the brute-force oracle, irreducible forms
and merge sequences, and every spliced merge state equals the one built
from its graph, on random small mixed graphs over the witness menu."""

from __future__ import annotations

import copy
import functools

import pytest

from propcalc import rewrite
from propcalc.canonical import enumerate_graphs
from propcalc.freeprop import Signature, corolla, pelem_vcompose
from propcalc.graphs import port_map
from propcalc.rewrite import MixedGraph, _exhaustive, merge

from _oracles import brute_force_collapse, merge_by_edges

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


def _splices(g: MixedGraph):
    """(state, u, v, child) for every mergeable pair u, v of every state
    the splice reaches from g, each state once per key."""
    root = rewrite._state(g)
    seen = {root.key}
    stack = [root]
    while stack:
        s = stack.pop()
        for u, v in rewrite._pairs(s):
            fusion = rewrite._fusion(s.ports, u, v)
            label = rewrite._fused_label(s.p_labels, u, v, fusion)
            before = copy.deepcopy((s.ports, s.texts, s.succ, s.reach))
            child = rewrite._splice(g, s, u, v, fusion, label)
            # the parent keeps every list, dict and set as it was
            assert (s.ports, s.texts, s.succ, s.reach) == before
            yield s, u, v, child
            if child.key not in seen:
                seen.add(child.key)
                stack.append(child)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(mixed_graphs())
def test_spliced_states_are_the_states_of_their_graphs(g):
    for s, u, v, child in _splices(g):
        built = rewrite._mixed(g, child)
        boundary, ins, outs = port_map(built.graph)
        assert child.ports[0] == boundary
        assert list(child.ports[1].items()) == list(ins.items())
        assert list(child.ports[2].items()) == list(outs.items())
        assert child.texts == rewrite._label_text(child.p_labels,
                                                  g.m_labels)
        assert (child.succ, child.reach) == \
            rewrite._reachability(built.graph)
        # the public merge of the parent's mixed graph, against the
        # edge-list merge; the spliced child is that merge
        parent = rewrite._mixed(g, s)
        got, want = merge(parent, u, v), merge_by_edges(parent, u, v)
        assert got.graph == want.graph == built.graph
        assert got.key == want.key == built.key
        # a search state is keyed by the graph part of its mixed graph's
        # key alone: the alphabets are the same throughout one search
        assert child.key == built.key[0]
        assert got.order == want.order == child.order
        assert got.p_labels == want.p_labels
        assert got.m_labels == want.m_labels
