"""contract: exact tensor evaluation and the intertwiner identity.

Set-up enumerates and builds every distinct element with at most 3
vertices and at most 2 inputs and 2 outputs over criterion 07's
signature {a: 1->1, b: 2->1, c: 1->2}, and keeps every STRIDE-th in
enumeration order, the same elements for every seed.  Per seed, B is a
random rational assignment at d = 2, 3, 4 (a fixed multiset of entries
in seeded positions).  The transport f is a unimodular integer matrix
per d, fixed (drawn once from TRANSPORT_SEED, not tuned) because the
size of A's entries, and so the cost, follows f: with f redrawn per
seed, one seed in five ran 35 % faster.  A is the transport of B along f
(conjugate_assignment), so f intertwines A and B.

Most operations are one element: evaluate it under A and B at every d
and assert f^(x)n . A(e) = B(e) . f^(x)m exactly.  A seeded sample of
the elements, the same share of each vertex count, is also cross-checked
through the TensorOps (layer-slicing) route at d = 2.  TRANSPORT_OPS
operations recompute A (conjugate_assignment: rt_inverse, kron_power)
and check morphism_prop_membership on every generator.

The evaluated matrices are pinned.  Enumeration runs only in set-up, so a
faster enumerator moves setup_s here, not ops_per_s.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from propcalc import canonical, freeprop, tensor

from . import Op, require

TAIL_PCT = 97.0
DIMS = (2, 3, 4)
MAX_VERTICES, MAX_BOUNDARY, STRIDE = 3, 2, 6
TRANSPORT_OPS, TENSOROPS_SHARE = 6, 0.25
TRANSPORT_SEED = "propcalc transports"

SIG = freeprop.Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2)])


def elements(max_vertices: int, max_boundary: int) -> list:
    """Distinct elements, each in its first enumerated numbering (an order
    that does not depend on how canonical keys are written)."""
    found = {}
    for r in range(max_vertices + 1):
        for profile in itertools.product(SIG.names, repeat=r):
            arities = [SIG.arity(x) for x in profile]
            delta = sum(a for a, _ in arities) - sum(b for _, b in arities)
            labels = {i: profile[i - 1] for i in range(1, r + 1)}
            for m in range(max_boundary + 1):
                n = m - delta
                if not 0 <= n <= max_boundary:
                    continue
                for ng in canonical.enumerate_graphs(arities, m, n):
                    e = freeprop.PropElement.build(ng.graph, labels, SIG)
                    found.setdefault(e.key, e)
    return list(found.values())


def _rational_matrix(rng, rows: int, cols: int):
    """Entries cycle through k/q for k in -3..3 and q in 1..3, in seeded
    positions: every seed gets the same multiset of entries, so the cost
    of exact arithmetic does not depend on the seed."""
    values = [Fraction(k, q) for k in range(-3, 4) for q in range(1, 4)]
    flat = [values[i % len(values)] for i in range(rows * cols)]
    rng.shuffle(flat)
    return tensor.RatTensor([flat[r * cols:(r + 1) * cols]
                             for r in range(rows)])


def _unimodular(rng, d: int):
    """L.U with unit triangular factors: integer, determinant 1."""
    low = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
            for j in range(d)] for i in range(d)]
    up = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0)
           for j in range(d)] for i in range(d)]
    return tensor.RatTensor([[Fraction(sum(low[i][k] * up[k][j]
                                           for k in range(d)))
                              for j in range(d)] for i in range(d)])


def _element_op(index, e, assign, transports, phi2) -> Op:
    def run():
        out = []
        for d in DIMS:
            A, B = assign[d]
            f = transports[d]
            ea, eb = tensor.evaluate(e, A), tensor.evaluate(e, B)
            require(tensor.rt_dot(tensor.kron_power(f, e.n), ea)
                    == tensor.rt_dot(eb, tensor.kron_power(f, e.m)),
                    f"f does not intertwine A(e) and B(e) at d={d}")
            if phi2 is not None and d == 2:
                require(phi2(e).tensor == eb,
                        "TensorOps route disagrees with evaluate")
            out += [ea, eb]
        return out

    return Op("element", f"element {index:04d}", run)


def _transport_op(index, d, assign, transports) -> Op:
    A, B = assign[d]
    f = transports[d]

    def run():
        again = tensor.conjugate_assignment(B, f)
        require(again.matrices == A.matrices,
                "conjugate_assignment is not deterministic")
        require(all(tensor.morphism_prop_membership(f, again, B, g)
                    for g in SIG.names), "f does not intertwine a generator")
        return True

    return Op("transport", f"transport {index} d{d}", run)


def setup(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    pool = elements(2 if tiny else MAX_VERTICES, MAX_BOUNDARY)[::STRIDE]
    transport_rng = random.Random(TRANSPORT_SEED)
    assign, transports = {}, {}
    for d in DIMS:
        B = tensor.AlgebraAssignment.build(
            d, {g.name: _rational_matrix(rng, d ** g.n, d ** g.m)
                for g in SIG}, SIG)
        f = _unimodular(transport_rng, d)
        transports[d] = f
        assign[d] = (tensor.conjugate_assignment(B, f), B)
    ops2 = tensor.TensorOps(2)
    phi2 = freeprop.extend_morphism(SIG, ops2.of_assignment(assign[2][1],
                                                            SIG), ops2)
    by_size: dict[int, list[int]] = {}
    for i, e in enumerate(pool):
        by_size.setdefault(len(e.graph.vertices), []).append(i)
    cross = {i for group in by_size.values() for i in rng.sample(
        group, round(len(group) * TENSOROPS_SHARE))}
    ops = [_element_op(i, e, assign, transports,
                       phi2 if i in cross else None)
           for i, e in enumerate(pool)]
    ops += [_transport_op(k, DIMS[k % len(DIMS)], assign, transports)
            for k in range(TRANSPORT_OPS)]
    rng.shuffle(ops)
    return ops
