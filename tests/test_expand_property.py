"""Substitution keys its port map as the edge-list reference keys a built
graph: `_expand` and `_oracles.expand_by_edges` agree in key, graph and
labels on random hosts, with through-wires, empty inner elements, hosts
numbered out of order, and inner elements that are substitutions
themselves."""

from __future__ import annotations

import pytest

from propcalc.freeprop import PropElement, _expand
from propcalc.graphs import Edge, Graph, Vertex, relabel_vertices

from _oracles import expand_by_edges

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None,
                               deadline=None, max_examples=150)
LABELS = st.text("ab", min_size=1, max_size=2)


@st.composite
def elements(draw, m: int, n: int) -> PropElement:
    """An (m, n)-element of at most 4 vertices of arity and coarity at
    most 2, labeled over "ab".  Vertices are placed one at a time, each
    taking its in-ports from the sources still free, so every edge runs
    forward; a last sink takes the surplus of free sources, or a last
    source makes up their shortfall, and the free sources feed the outputs
    in a drawn order.  An input that no vertex takes is a through-wire,
    and an (m, m)-element may have no vertex at all."""
    free = draw(st.permutations([("input", i) for i in range(1, m + 1)]))
    vertices, edges = [], []

    def place(a: int, b: int) -> None:
        v = len(vertices) + 1
        vertices.append(Vertex(v, a, b))
        edges.extend(Edge(free.pop(), ("vin", v, k)) for k in range(1, a + 1))
        free.extend(("vout", v, k) for k in range(1, b + 1))

    for _ in range(draw(st.integers(0, 3))):
        place(draw(st.integers(0, min(2, len(free)))), draw(st.integers(0, 2)))
        free[:] = draw(st.permutations(free))
    if len(free) > n:
        place(len(free) - n, 0)
    elif len(free) < n:
        place(0, n - len(free))
        free[:] = draw(st.permutations(free))
    edges += [Edge(src, ("output", j)) for j, src in enumerate(free, 1)]
    graph = Graph(m, n, tuple(vertices), tuple(edges))
    return PropElement.build(graph, {v.id: draw(LABELS) for v in vertices})


@st.composite
def substitutions(draw, m: int, n: int, depth: int) -> tuple:
    """(host, inner): an (m, n)-host graph with its vertices renumbered
    by drawn ids, and per vertex an element of its arity or, while depth
    lasts, a substitution of that arity to flatten first."""
    host = draw(elements(m, n)).graph
    r = len(host.vertices)
    ids = draw(st.lists(st.integers(1, 30), min_size=r, max_size=r,
                        unique=True))
    host = relabel_vertices(host, dict(zip(host.vertex_ids, ids)))
    inner = {}
    for v in host.vertices:
        if depth and draw(st.booleans()):
            inner[v.id] = draw(substitutions(v.n_in, v.n_out, depth - 1))
        else:
            inner[v.id] = draw(elements(v.n_in, v.n_out))
    return host, inner


def flatten_both(sub: tuple) -> PropElement:
    """Flatten a substitution, inner ones first, by `_expand` and by the
    reference, checking that they agree at every level."""
    host, inner = sub
    flat = {vid: flatten_both(e) if isinstance(e, tuple) else e
            for vid, e in inner.items()}
    ours = _expand(host.m, host.n, host.vertices, host.edges, flat)
    want = expand_by_edges(host, flat)
    assert ours.key == want.key
    assert ours.graph == want.graph
    assert ours.labels == want.labels
    assert (ours.m, ours.n) == (want.m, want.n) == (host.m, host.n)
    return ours


@SETTINGS
@hypothesis.given(st.data())
def test_expand_keys_its_port_map_as_the_reference_keys_its_graph(data):
    m, n = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    flatten_both(data.draw(substitutions(m, n, depth=2)))
