"""Three routes to an element's matrix agree on random elements of up to 8
vertices at d = 2, and of up to 5 at d = 3, through wires and closed
components included: the default-order contraction (its plan kept on the
element), a contraction in a random topological order (planned on the
call), and the layer-slicing `TensorOps` target reached through
`extend_morphism`."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from propcalc.freeprop import PropElement, Signature, extend_morphism
from propcalc.graphs import Edge, Graph, Vertex, vertex_successors
from propcalc.tensor import AlgebraAssignment, RatTensor, TensorOps, evaluate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# cups and caps close components; the boundary-free pairs u;v and w;x are
# closed components on their own
SIG = Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2), ("s", 2, 2),
                 ("u", 0, 1), ("v", 1, 0), ("w", 0, 2), ("x", 2, 0)])


def _matrix(rng: random.Random, rows: int, cols: int) -> RatTensor:
    return RatTensor([[F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(cols)] for _ in range(rows)])


def _routes(d: int, rng: random.Random):
    """An assignment at dimension d and its `TensorOps` morphism."""
    A = AlgebraAssignment.build(
        d, {g.name: _matrix(rng, d ** g.n, d ** g.m) for g in SIG}, SIG)
    ops = TensorOps(d)
    return A, extend_morphism(SIG, ops.of_assignment(A, SIG), ops)


_RNG = random.Random(20)
A, PHI = _routes(2, _RNG)
A3, PHI3 = _routes(3, _RNG)


@st.composite
def elements(draw, max_vertices: int = 8):
    """Vertices placed one by one, each in-port fed by a drawn open source
    (an input, or an earlier out-port); a new input opens when none is
    left, and the sources still open at the end become the outputs in a
    drawn order.  An input nobody consumes is a through wire."""
    names = draw(st.lists(st.sampled_from(SIG.names),
                          max_size=max_vertices))
    m = draw(st.integers(0, 2))
    sources = [("input", i) for i in range(1, m + 1)]
    vertices, edges = [], []
    for vid, name in enumerate(names, start=1):
        n_in, n_out = SIG.arity(name)
        for k in range(1, n_in + 1):
            if not sources:
                m += 1
                sources.append(("input", m))
            src = sources.pop(draw(st.integers(0, len(sources) - 1)))
            edges.append(Edge(src, ("vin", vid, k)))
        sources += [("vout", vid, k) for k in range(1, n_out + 1)]
        vertices.append(Vertex(vid, n_in, n_out))
    # the default max_axes bounds the boundary
    hypothesis.assume(m + len(sources) <= 6)
    sources = draw(st.permutations(sources))
    edges += [Edge(src, ("output", j))
              for j, src in enumerate(sources, start=1)]
    graph = Graph(m, len(sources), tuple(vertices), tuple(edges))
    labels = {vid: name for vid, name in enumerate(names, start=1)}
    return PropElement.build(graph, labels, SIG)


def random_topological_order(graph: Graph, rng: random.Random) -> list[int]:
    succ = vertex_successors(graph)
    indeg = {v: 0 for v in succ}
    for u in succ:
        for w in succ[u]:
            indeg[w] += 1
    ready = [v for v in succ if indeg[v] == 0]
    order = []
    while ready:
        u = ready.pop(rng.randrange(len(ready)))
        order.append(u)
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order


def _agree(e, rng, A, phi):
    want = evaluate(e, A)
    assert evaluate(e, A) == want  # the kept plan, run again
    order = random_topological_order(e.graph, rng)
    assert evaluate(e, A, order=order) == want
    assert phi(e).tensor == want


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(elements(), st.randoms(use_true_random=False))
def test_planned_contraction_agrees_with_every_route(e, rng):
    _agree(e, rng, A, PHI)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(elements(max_vertices=5), st.randoms(use_true_random=False))
def test_planned_contraction_agrees_with_every_route_at_d3(e, rng):
    # the steps' reshapes and the through wires' identities depend on d
    _agree(e, rng, A3, PHI3)
