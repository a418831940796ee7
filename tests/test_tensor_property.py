"""Three routes to an element's matrix agree on random elements of up to 8
vertices at d = 2, and of up to 5 at d = 3, through wires and closed
components included: the default-order contraction (its plan kept on the
element), a contraction in a random topological order (planned on the
call), and the layer-slicing `TensorOps` target reached through
`extend_morphism`.  Every tensor these routes and the products make is in
normal form, with a top that bounds its entries."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from propcalc.freeprop import PropElement, Signature, extend_morphism
from propcalc.graphs import Edge, Graph, Vertex, vertex_successors
from propcalc.tensor import (AlgebraAssignment, RatTensor, TensorOps,
                             evaluate, kron_power, rt_dot, rt_kron)

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


def assert_normal(t: RatTensor) -> None:
    """Lowest terms, a zero tensor over 1, int64 numerators iff the true
    maximum is below 2**63, and `_top` at or above that maximum."""
    entries = t._num.ravel().tolist()
    top = max(map(abs, entries), default=0)
    assert t._top >= top
    assert math.gcd(t._den, *entries) == 1
    assert top != 0 or t._den == 1
    assert t._num.dtype == (np.int64 if top < 2 ** 63 else object)


def _agree(e, rng, A, phi):
    want = evaluate(e, A)
    assert evaluate(e, A) == want  # the kept plan, run again
    order = random_topological_order(e.graph, rng)
    in_order, sliced = evaluate(e, A, order=order), phi(e).tensor
    assert in_order == want and sliced == want
    for t in (want, in_order, sliced):
        assert_normal(t)


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


# numerators and denominators from small to past 2**63, zeros included
_ENTRIES = st.builds(
    F, st.one_of(st.integers(-3, 3),
                 st.sampled_from([2 ** 31, -2 ** 62, 2 ** 63 - 1, 2 ** 70])),
    st.one_of(st.integers(1, 3), st.sampled_from([2 ** 31, 2 ** 70])))


def matrices(rows: int, cols: int):
    return st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(RatTensor)


@st.composite
def factor_pairs(draw):
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(factor_pairs())
def test_products_keep_the_normal_form_and_bound_their_entries(pair):
    a, b = pair
    for t in (a, b, rt_dot(a, b), rt_kron(a, b),
              *(kron_power(a, k) for k in range(4))):
        assert_normal(t)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
@hypothesis.given(st.lists(st.sampled_from(
    [RatTensor(m) for m in ([[0, -1], [1, 0]], [[1, 0], [0, -1]],
                            [["1/2", 0], [0, 2]], [[1, 1], [0, 1]])]),
    min_size=1, max_size=90))
def test_a_chain_of_products_bounds_its_entries(factors):
    # each rt_dot multiplies the carried top by at least 2, so a long
    # chain of small factors passes 2**63 on the bound alone
    t = factors[0]
    for f in factors[1:]:
        t = rt_dot(t, f)
        assert_normal(t)


def test_the_named_edge_cases_keep_the_normal_form():
    # a zero product over a den past 2**63 must not divide by gcd 0
    zero = rt_dot(RatTensor([[F(1, 2 ** 70)]]), RatTensor([[0]]))
    assert zero == RatTensor.zeros((1, 1)) and zero._den == 1
    a = RatTensor([["2/3", "-1/2"]])
    assert kron_power(a, 1) is a
    power = kron_power(RatTensor([["2/3"]]), 70)
    assert power == RatTensor([[F(2, 3) ** 70]])
    assert power._num.dtype == object
    for t in (zero, power, kron_power(a, 0), RatTensor.identity(3),
              RatTensor.zeros((2, 2))):
        assert_normal(t)
