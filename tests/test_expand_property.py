"""Substitution keys its port map as the edge-list reference keys a built
graph: `_expand` and `_oracles.expand_by_edges` agree in key, graph and
labels on random hosts, with through-wires, empty inner elements, hosts
numbered out of order, and inner elements that are substitutions
themselves.  The element operations, which substitute their operands
into boxes, agree with the references that canonicalize a composite of
the operands' graphs, and fail with the same messages."""

from __future__ import annotations

import itertools

import pytest

from propcalc.freeprop import (PropElement, Signature, _expand, corolla,
                               identity_element, pelem_hcompose,
                               pelem_permute_inputs, pelem_permute_outputs,
                               pelem_vcompose)
from propcalc.graphs import (Edge, Graph, GraphError, Vertex, identity,
                             permute_outputs, relabel_vertices)

from _oracles import (expand_by_edges, hcompose_by_graphs, identity_by_graph,
                      permute_inputs_by_graph, permute_outputs_by_graph,
                      vcompose_by_graphs)

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


# ---------------------------------------------------------------------------
# element operations

@st.composite
def wires(draw, k: int) -> PropElement:
    """A (k, k)-element of through-wires only, in a drawn order."""
    w = tuple(draw(st.permutations(range(1, k + 1))))
    return PropElement.build(permute_outputs(identity(k), w), {})


def operands(m: int, n: int):
    return st.one_of(elements(m, n), wires(m)) if m == n else elements(m, n)


def same(ours, reference, *args) -> None:
    """`ours(*args)` is the reference's element, or fails with the
    reference's GraphError text."""
    try:
        want = reference(*args)
    except GraphError as err:
        with pytest.raises(GraphError) as caught:
            ours(*args)
        assert str(caught.value) == str(err)
        return
    got = ours(*args)
    assert got.key == want.key
    assert got.labels == want.labels
    assert (got.m, got.n) == (want.m, want.n)


def same_operations(a: PropElement, b: PropElement, w: tuple) -> None:
    """Both compositions of a and b (which need not fit vertically), a
    under every permutation of its inputs and of its outputs, and a under
    w, which need not be a permutation of either."""
    same(pelem_hcompose, hcompose_by_graphs, a, b)
    same(pelem_vcompose, vcompose_by_graphs, a, b)
    for v in itertools.permutations(range(1, a.m + 1)):
        same(pelem_permute_inputs, permute_inputs_by_graph, a, v)
    for v in itertools.permutations(range(1, a.n + 1)):
        same(pelem_permute_outputs, permute_outputs_by_graph, a, v)
    same(pelem_permute_inputs, permute_inputs_by_graph, a, w)
    same(pelem_permute_outputs, permute_outputs_by_graph, a, w)


@SETTINGS
@hypothesis.given(st.data())
def test_element_operations_substitute_as_the_reference_composes(data):
    m, n, p, q = (data.draw(st.integers(0, 3)) for _ in range(4))
    a = data.draw(operands(m, n))
    w = tuple(data.draw(st.lists(st.integers(0, 4), max_size=4)))
    same_operations(a, data.draw(operands(p, q)), w)
    same(pelem_vcompose, vcompose_by_graphs, a, data.draw(operands(n, q)))


def test_element_operations_on_units_and_closed_elements():
    sig = Signature([("z", 0, 0), ("x", 2, 1)])
    menu = [identity_element(k) for k in range(4)] + [
        corolla(sig, "z"), corolla(sig, "x"),
        pelem_permute_outputs(identity_element(3), (2, 3, 1))]
    for k in range(4):
        same(identity_element, identity_by_graph, k)
    for a, b in itertools.product(menu, repeat=2):
        same_operations(a, b, (1, 1))
