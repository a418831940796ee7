"""Canonical keys do not see vertex numbering, a key lists its graph's
renamed edges sorted, a canonical graph is numbered in its canonical
order, the output-path order is the input-path order of the mirrored
graph, renumbering is the per-port oracle's, and hashes are equal exactly
where keys are, on random small graphs of all three canonical routes."""

from __future__ import annotations

import pytest

from propcalc.canonical import (UnreachableVertexError, canonical_key,
                                canonical_order, canonicalize, graph_hash,
                                _path_order)
from propcalc.graphs import (Edge, Graph, GraphError, Vertex, hcompose,
                             port_map, relabel_vertices, validate)

from _oracles import mirror, relabel_by_edges

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None,
                               deadline=None, max_examples=200)
LABELS = st.text("ab", min_size=2, max_size=2)


def input_path_order(g: Graph) -> list[int]:
    return _path_order(port_map(g), g.m, "input")


def output_path_order(g: Graph) -> list[int]:
    return _path_order(port_map(g), g.m, "output")


def route_of(g: Graph) -> str:
    if all(v.n_in for v in g.vertices):
        return "input"
    if all(v.n_out for v in g.vertices):
        return "output"
    return "traversal"


@st.composite
def port_graphs(draw, route: str):
    """A valid graph for the given route: at most 7 vertices of arity and
    coarity at most 2, a boundary of at most 3 on each side.  Vertices are
    placed one at a time, each taking its in-ports from the sources
    (inputs and out-ports) still free, so every edge runs forward; the
    sources left at the end feed the outputs in a drawn order.  An
    output-route graph is the mirror of an input-route one.  A "closed"
    graph is a traversal-route graph with no boundary: its free sources
    feed sinks, two at a time, so every component is closed and the
    traversal roots each at its smallest colour class."""
    if route == "output":
        return mirror(draw(port_graphs("input")))
    closed = route == "closed"
    m = 0 if closed else draw(st.integers(1 if route == "input" else 0, 3))
    free = draw(st.permutations([("input", i) for i in range(1, m + 1)]))
    vertices, edges = [], []

    def place(a: int, b: int) -> None:
        v = len(vertices) + 1
        vertices.append(Vertex(v, a, b))
        edges.extend(Edge(free.pop(), ("vin", v, k)) for k in range(1, a + 1))
        free.extend(("vout", v, k) for k in range(1, b + 1))

    least_in = 1 if route == "input" else 0
    for _ in range(draw(st.integers(0, 7))):
        if len(free) < least_in:
            break  # the input route has run out of sources
        a = draw(st.integers(least_in, min(2, len(free))))
        # isolated vertices say nothing new about closed components
        place(a, draw(st.integers(1 if closed and not a else 0, 2)))
        free[:] = draw(st.permutations(free))
    while closed and free:
        place(min(2, len(free)), 0)
    hypothesis.assume(len(vertices) <= 7 and len(free) <= 3)
    edges += [Edge(src, ("output", j)) for j, src in enumerate(free, 1)]
    g = Graph(m, len(free), tuple(vertices), tuple(edges))
    if route == "traversal":
        hypothesis.assume(route_of(g) == "traversal")
    return g


def any_route_graphs():
    return st.sampled_from(["input", "output", "traversal", "closed"]
                           ).flatmap(port_graphs)


@SETTINGS
@hypothesis.given(st.data())
def test_canonical_key_ignores_the_numbering(data):
    g = data.draw(any_route_graphs())
    assert validate(g) == []
    labels = {vid: data.draw(LABELS) for vid in g.vertex_ids}
    r = len(g.vertices)
    ids = data.draw(st.lists(st.integers(1, 50), min_size=r, max_size=r,
                             unique=True))
    # a drawn renumbering, and the reversal of the placement order
    for new_ids in (ids, range(r, 0, -1)):
        rename = dict(zip(g.vertex_ids, new_ids))
        h = relabel_vertices(g, rename)
        assert canonical_key(h) == canonical_key(g)
        moved = {rename[vid]: lab for vid, lab in labels.items()}
        assert canonical_key(h, moved) == canonical_key(g, labels)


@SETTINGS
@hypothesis.given(st.data())
def test_a_key_lists_the_renamed_edges_sorted(data):
    # the serializer writes the edge part from the port map in key order
    # and never sorts; each source port has one edge, so that order must
    # be the sorted one
    g = data.draw(any_route_graphs())
    labels = {vid: data.draw(LABELS) for vid in g.vertex_ids}
    twice = hcompose(g, g)
    shift = max(g.vertex_ids, default=0)
    labels_twice = labels | {vid + shift: lab for vid, lab in labels.items()}
    for graph, lab in ((g, None), (g, labels), (twice, labels_twice)):
        cf = canonicalize(graph, lab)
        rank = {vid: i for i, vid in enumerate(cf.order, start=1)}

        def renamed(port):
            if port[0] in ("vin", "vout"):
                return (port[0], rank[port[1]], port[2])
            return port

        assert cf.key[3] == tuple(sorted((renamed(e.src), renamed(e.dst))
                                         for e in graph.edges))


@SETTINGS
@hypothesis.given(st.data())
def test_a_canonical_graph_is_numbered_in_its_canonical_order(data):
    # `evaluate` relies on this: on an element, the topological order that
    # breaks ties by vertex id is the one that breaks them canonically
    g = data.draw(any_route_graphs())
    labels = {vid: data.draw(LABELS) for vid in g.vertex_ids}
    # g beside itself has two isomorphic copies of each component
    twice = hcompose(g, g)
    shift = max(g.vertex_ids, default=0)
    labels_twice = labels | {vid + shift: lab for vid, lab in labels.items()}
    for graph, lab in ((g, None), (g, labels), (twice, None),
                       (twice, labels_twice)):
        cf = canonicalize(graph, lab)
        r = len(graph.vertices)
        assert canonical_order(cf.graph, cf.labels) == list(range(1, r + 1))


@SETTINGS
@hypothesis.given(any_route_graphs())
def test_output_path_order_is_the_mirrored_input_path_order(g):
    try:
        want = input_path_order(mirror(g))
    except UnreachableVertexError as err:
        assert route_of(g) != "output"
        with pytest.raises(UnreachableVertexError) as ours:
            output_path_order(g)
        assert ours.value.vertices == err.vertices
        assert str(ours.value) == str(err).replace("inputs", "outputs")
    else:
        assert output_path_order(g) == want


@SETTINGS
@hypothesis.given(st.data())
def test_relabel_vertices_is_the_per_port_renaming(data):
    g = data.draw(any_route_graphs())
    ids = g.vertex_ids
    r = len(ids)
    new = data.draw(st.lists(st.integers(1, 12), min_size=r, max_size=r,
                             unique=True))
    moved = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    total = dict(zip(ids, new))
    # a partial mapping onto fresh ids, and one that may send a vertex
    # onto the id of a vertex it leaves in place
    partial = {vid: 20 + x for vid, x, k in zip(ids, new, moved) if k}
    clashing = {vid: x for vid, x, k in zip(ids, new, moved) if k}
    for mapping in (total, partial, clashing, {}):
        try:
            want = relabel_by_edges(g, mapping)
        except GraphError as err:
            assert mapping is clashing
            with pytest.raises(GraphError) as ours:
                relabel_vertices(g, mapping)
            assert str(ours.value) == str(err)
            continue
        got = relabel_vertices(g, mapping)
        assert type(got) is Graph
        assert (got.m, got.n) == (want.m, want.n)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert got == want and hash(got) == hash(want)
        assert all(type(v) is Vertex for v in got.vertices)
        assert all(type(e) is Edge for e in got.edges)


@SETTINGS
@hypothesis.given(st.lists(any_route_graphs(), min_size=1, max_size=5),
                  st.data())
def test_graph_hash_is_equal_exactly_where_the_key_is(gs, data):
    # each graph, with and without labels, beside a renumbered copy, so
    # that equal keys occur among distinct ones
    pool = []
    for g in gs:
        labels = {vid: data.draw(LABELS) for vid in g.vertex_ids}
        rename = dict(zip(g.vertex_ids, reversed(g.vertex_ids)))
        h = relabel_vertices(g, rename)
        moved = {rename[vid]: lab for vid, lab in labels.items()}
        pool += [(g, None), (h, None), (g, labels), (h, moved)]
    keys = [canonical_key(g, lab) for g, lab in pool]
    hashes = [graph_hash(g, lab) for g, lab in pool]
    for i in range(len(pool)):
        for j in range(i):
            assert (hashes[i] == hashes[j]) == (keys[i] == keys[j])
