"""Exact tensor evaluation: contraction, homomorphism laws, intertwiners."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from _oracles import (cup_cap_ring, mat_kron, mat_mul, permutation_matrix,
                      wire_permutation)
from propcalc.canonical import enumerate_graphs
from propcalc.freeprop import (PropElement, Signature, corolla,
                               element_to_dict, expand,
                               extend_morphism, identity_element,
                               pelem_hcompose, pelem_permute_inputs,
                               pelem_permute_outputs, pelem_vcompose)
from propcalc import tensor
from propcalc.graphs import (FormatError, GraphError, LimitError,
                             relabel_vertices, to_json_text,
                             topological_order)
from propcalc.tensor import (AlgebraAssignment, RatTensor, TensorOps,
                             algebra_from_dict, algebra_to_dict,
                             conjugate_assignment, evaluate, format_rational,
                             kron_power, matrix_from_json,
                             morphism_prop_membership, parse_rational,
                             rt_dot, rt_inverse, rt_kron)

SIG = Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2)])


def rand_matrix(rng: random.Random, r: int, c: int) -> RatTensor:
    return RatTensor([[F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(c)] for _ in range(r)])


def rand_assignment(rng: random.Random, d: int,
                    sig: Signature = SIG) -> AlgebraAssignment:
    mats = {g.name: rand_matrix(rng, d ** g.n, d ** g.m) for g in sig}
    return AlgebraAssignment.build(d, mats, sig)


def big_matrix(rng: random.Random, r: int, c: int) -> RatTensor:
    # numerators and denominators near 2^40: products pass 2^63
    return RatTensor([[F(rng.randint(-2 ** 40, 2 ** 40),
                         rng.randint(1, 2 ** 40))
                       for _ in range(c)] for _ in range(r)])


_ENUM_CACHE: dict[tuple, list] = {}


def rand_element(rng: random.Random, m: int, n: int,
                 sig: Signature = SIG, max_r: int = 3) -> PropElement:
    names = list(sig.names)
    while True:
        r = rng.randint(0, max_r)
        profile = tuple(rng.choice(names) for _ in range(r))
        key = (sig.names, profile, m, n)
        if key not in _ENUM_CACHE:
            _ENUM_CACHE[key] = list(enumerate_graphs(
                [sig.arity(x) for x in profile], m, n))
        graphs = _ENUM_CACHE[key]
        if graphs:
            labels = {i: profile[i - 1] for i in range(1, r + 1)}
            return PropElement.build(rng.choice(graphs).graph, labels, sig)


# ---------------------------------------------------------------------------
# rationals and tensors

def test_rational_round_trip():
    for text, want in [("3/4", F(3, 4)), ("-7/2", F(-7, 2)),
                       ("5", F(5)), (-2, F(-2))]:
        assert parse_rational(text) == want
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-6, 3)) == "-2"
    for bad in ["1/0", "x", 1.5, None, "3.5/2x", True]:
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_a_bad_rational_names_its_reason_and_quotes_a_bounded_head():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    for text, message in [
            ("1/0", "bad rational '1/0': zero denominator"),
            ("x", "bad rational 'x': not p/q, an integer or a decimal"),
            ("x" * 10_000, "bad rational '" + "x" * 79
             + "...: not p/q, an integer or a decimal"),
            ("7" * (limit + 1), "bad rational '" + "7" * 79
             + f"...: a digit string past the {limit}-digit limit")]:
        with pytest.raises(FormatError) as caught:
            parse_rational(text)
        assert str(caught.value) == message
    with pytest.raises(GraphError, match=r"^entry \[0, 0, .*\.\.\. is not"):
        tensor._entry([0] * 1000)


def test_a_decimal_exponent_stops_at_the_digit_limit():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert parse_rational("-1.5e2") == F(-150)
    assert parse_rational(f"2E-{limit}") == F(2, 10 ** limit)
    assert parse_rational(f"1e+{limit:0>10}") == F(10 ** limit)
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e100000000",
                 "1e-1_000_000_000_000"):
        with pytest.raises(FormatError, match=(
                rf"^bad rational '{text}': exponent past the "
                rf"{limit}-digit limit$")):
            parse_rational(text)


def test_rattensor_construction_and_equality():
    t = RatTensor([["1/2", 1], [0, "3"]])
    assert t.shape == (2, 2)
    assert t == RatTensor([[F(1, 2), F(1)], [F(0), F(3)]])
    assert hash(t) == hash(RatTensor([["1/2", "1"], ["0", "3"]]))
    assert t != RatTensor([[F(1, 2)]])
    assert t.rows() == [["1/2", "1"], ["0", "3"]]
    with pytest.raises(GraphError):
        RatTensor([[0.5]])
    with pytest.raises(GraphError):
        RatTensor([[True]])
    with pytest.raises(ValueError):
        t.array[0, 0] = F(9)


def test_zeros_identity_and_rows():
    assert RatTensor.zeros((2, 3)) == RatTensor([[0, 0, 0], [0, 0, 0]])
    assert RatTensor.identity(3).rows() == \
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(GraphError):
        RatTensor([1, 2, 3]).rows()


def test_matrix_algebra_matches_the_oracles():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_matrix(rng, a.shape[1], rng.randint(1, 3))
        c = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert rt_dot(a, b).rows() == RatTensor(
            mat_mul([list(r) for r in a.array],
                    [list(r) for r in b.array])).rows()
        assert rt_kron(a, c) == RatTensor(
            mat_kron([list(r) for r in a.array],
                     [list(r) for r in c.array]))
    with pytest.raises(GraphError):
        rt_dot(rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3))


def test_equal_values_share_one_representation():
    halves = [RatTensor([["1/2"]]), RatTensor([[F(2, 4)]]),
              rt_dot(RatTensor([["1/4"]]), RatTensor([[2]])),
              rt_dot(RatTensor([["3/5", "1/10"]]), RatTensor([["1/3"], [3]]))]
    zeros = [RatTensor.zeros((1, 1)), RatTensor([[0]]),
             rt_dot(RatTensor([["1/3", "1/3"]]), RatTensor([[1], [-1]])),
             rt_kron(RatTensor([["1/7"]]), RatTensor([["0/5"]])),
             rt_dot(RatTensor([[F(1, 2 ** 70)]]), RatTensor([[0]]))]
    # numerators past 2^63 that the gcd reduces to small ones, and small
    # numerators whose product stays past 2^63
    small = [RatTensor([[3, "3/2"]]),
             rt_dot(RatTensor([[F(1, 2 ** 70)]]),
                    RatTensor([[3 * 2 ** 70, 3 * 2 ** 69]])),
             rt_kron(RatTensor([[F(3, 2 ** 66)]]),
                     RatTensor([[2 ** 66, 2 ** 65]]))]
    big = [RatTensor([[2 ** 70, F(1, 2)]]),
           rt_kron(RatTensor([[2 ** 35]]),
                   RatTensor([[2 ** 35, F(1, 2 ** 36)]])),
           rt_dot(RatTensor([[2 ** 35]]),
                  RatTensor([[2 ** 35, F(1, 2 ** 36)]]))]
    # kron powers, inside int64 and past it
    powers = [RatTensor([["4/9", "8/9", "8/9", "16/9"]]),
              kron_power(RatTensor([["2/3", "4/3"]]), 2)]
    big_powers = [RatTensor([[F(2 ** 70, 3 ** 70)]]),
                  kron_power(RatTensor([["2/3"]]), 70)]
    for same in (halves, zeros, small, big, powers, big_powers):
        assert all(t == same[0] and hash(t) == hash(same[0])
                   and t._num.dtype == same[0]._num.dtype for t in same)
    assert halves[0] != zeros[0] and halves[0] != RatTensor([["1/3"]])
    # a nilpotent generator squares to zero through the contraction
    nil = AlgebraAssignment.build(2, {"a": RatTensor([[0, "1/3"], [0, 0]])})
    chain = pelem_vcompose(corolla(SIG, "a"), corolla(SIG, "a"))
    got = evaluate(chain, nil)
    assert got == RatTensor.zeros((2, 2))
    assert hash(got) == hash(RatTensor.zeros((2, 2)))


def int_matrix(rng: random.Random, r: int, c: int, low: int,
               high: int) -> RatTensor:
    return RatTensor([[rng.randint(low, high) for _ in range(c)]
                      for _ in range(r)])


def test_products_past_64_bits_match_the_oracles():
    rng = random.Random(9)

    def rows(t):
        return [list(r) for r in t.array]

    def assignment(make):
        return AlgebraAssignment.build(
            2, {g.name: make(2 ** g.n, 2 ** g.m) for g in SIG}, SIG)

    def chain(A):
        # a, then c, then b: the contractions sum 1, 2 and 4 terms
        a, b, c = (rows(A.matrices[x]) for x in "abc")
        return (evaluate(pelem_vcompose(pelem_vcompose(corolla(SIG, "a"),
                                                       corolla(SIG, "c")),
                                        corolla(SIG, "b")), A),
                mat_mul(mat_mul(b, c), a))

    # rationals near 2^40: products pass 2^63 from the first one
    A = assignment(lambda r, c: big_matrix(rng, r, c))
    a, b, c = (rows(A.matrices[x]) for x in "abc")
    cases = [
        (rt_dot(A.matrices["b"], A.matrices["c"]), mat_mul(b, c)),
        (rt_kron(A.matrices["a"], A.matrices["b"]), mat_kron(a, b)),
        (kron_power(A.matrices["a"], 3), mat_kron(mat_kron(a, a), a)),
        (evaluate(pelem_vcompose(corolla(SIG, "c"), corolla(SIG, "b")), A),
         mat_mul(b, c)),
        (evaluate(pelem_hcompose(corolla(SIG, "a"), corolla(SIG, "b")), A),
         mat_kron(a, b)),
        chain(A),
    ]
    # integers near 2^30: the third factor of a kron power or of the chain
    # is the first product past 2^63
    A = assignment(lambda r, c: int_matrix(rng, r, c, 2 ** 30 - 2 ** 20,
                                           2 ** 30))
    a = rows(A.matrices["a"])
    cases += [(kron_power(A.matrices["a"], 3), mat_kron(mat_kron(a, a), a)),
              chain(A)]
    # integers just below sqrt(2^63): each product fits in int64 but a sum
    # of two does not, so only the count of summed terms shows the overflow
    edge = math.isqrt(2 ** 63 - 1)
    A = assignment(lambda r, c: int_matrix(rng, r, c, edge - 2 ** 10, edge))
    b, c = (rows(A.matrices[x]) for x in "bc")
    cases += [
        (rt_dot(A.matrices["b"], A.matrices["c"]), mat_mul(b, c)),
        (evaluate(pelem_vcompose(corolla(SIG, "c"), corolla(SIG, "b")), A),
         mat_mul(b, c)),
        chain(A),
    ]
    # integers near 2^20: each chain entry sums 8 triple products and a
    # sum of 4 would fit in int64, so the chain's bound must count the
    # terms of every contraction, not of the last one alone
    A = assignment(lambda r, c: int_matrix(rng, r, c, 1_100_000, 1_300_000))
    cases.append(chain(A))
    for got, want in cases:
        assert got == RatTensor(want)
        assert max(max(abs(x.numerator), x.denominator)
                   for x in got.array.flat) > 2 ** 63


def test_a_deep_chain_reads_its_bound_from_the_entries(monkeypatch):
    # at d = 2 every grafted wire doubles evaluate's carried bound, so a
    # chain of 200 signed permutations passes 2^63 on the bound alone; the
    # entries stay in {-1, 0, 1} and so must every product's dtype
    sig = Signature([("r", 1, 1), ("j", 1, 1)])
    mats = {"r": RatTensor([[0, -1], [1, 0]]), "j": RatTensor([[1, 1], [1, 1]])}
    A = AlgebraAssignment.build(2, mats, sig)

    def chain(names):
        elem, want = corolla(sig, names[0]), [list(r) for r in
                                              mats[names[0]].array]
        for name in names[1:]:
            elem = pelem_vcompose(elem, corolla(sig, name))
            want = mat_mul([list(r) for r in mats[name].array], want)
        return evaluate(elem, A), RatTensor(want)

    dtypes = set()

    def spy(*args):
        out = operands(*args)
        dtypes.update(x.dtype for x in out[:2])
        return out

    operands = tensor._operands
    monkeypatch.setattr(tensor, "_operands", spy)
    got, want = chain(["r"] * 200)
    assert got == want and dtypes == {np.dtype(np.int64)}
    # j^k = 2^(k-1) j: after the bound was read from the entries, the
    # true entries pass 2^63 and the chain must still leave int64 in time
    got, want = chain(["r"] * 100 + ["j"] * 70)
    assert got == want and max(got.array.flat) == 2 ** 69


def test_small_products_read_no_entry_maximum(monkeypatch):
    # a product's top is carried from its operands' tops, so small
    # entries never make it read the entries; only a tripped bound does
    reads = []

    def spy(num):
        reads.append(num.shape)
        return true_top(num)

    true_top = tensor._true_top
    monkeypatch.setattr(tensor, "_true_top", spy)
    rng = random.Random(29)
    A = rand_assignment(rng, 2)
    f = rand_matrix(rng, 2, 2)
    elem = pelem_vcompose(pelem_vcompose(corolla(SIG, "c"),
                                         corolla(SIG, "b")),
                          corolla(SIG, "a"))
    for k in range(4):
        kron_power(f, k)
    rt_dot(kron_power(f, 2), rand_matrix(rng, 4, 3))
    evaluate(elem, A)
    evaluate(elem, A, order=topological_order(elem.graph))
    assert reads == []
    sig = Signature([("r", 1, 1)])
    r = AlgebraAssignment.build(2, {"r": RatTensor([[0, -1], [1, 0]])}, sig)
    chain = corolla(sig, "r")
    for _ in range(199):
        chain = pelem_vcompose(chain, corolla(sig, "r"))
    assert evaluate(chain, r) == RatTensor([[1, 0], [0, 1]])
    assert len(reads) >= 1


def test_kron_power_unit():
    rng = random.Random(5)
    f = rand_matrix(rng, 2, 2)
    assert kron_power(f, 0) == RatTensor([[1]])
    assert kron_power(f, 1) == f
    assert kron_power(f, 2) == rt_kron(f, f)
    with pytest.raises(GraphError):
        kron_power(f, -1)


def test_exact_inverse():
    rng = random.Random(7)
    found = 0
    while found < 40:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n) if found % 2 else big_matrix(rng, n, n)
        try:
            inv = rt_inverse(m)
        except GraphError:
            continue
        assert rt_dot(m, inv) == RatTensor.identity(n)
        assert rt_dot(inv, m) == RatTensor.identity(n)
        found += 1
    with pytest.raises(GraphError):
        rt_inverse(RatTensor([[1, 1], [1, 1]]))
    # third row = first + second; the first pivot needs a row swap
    with pytest.raises(GraphError):
        rt_inverse(RatTensor([[0, "1/3", 1], [2, 0, "1/5"],
                              [2, "1/3", "6/5"]]))
    with pytest.raises(GraphError):
        rt_inverse(RatTensor([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# assignments

def test_assignment_build_validates():
    rng = random.Random(11)
    with pytest.raises(LimitError,
                       match=r"dimension 5, cap is 4 \(max_dim, --max-dim\)"):
        rand_assignment(rng, 5)
    with pytest.raises(GraphError):
        AlgebraAssignment.build(0, {})
    good = rand_assignment(rng, 2)
    with pytest.raises(GraphError):
        AlgebraAssignment.build(2, {"a": rand_matrix(rng, 2, 4)}, SIG)
    assert AlgebraAssignment.build(5, {}, max_dim=5).dim == 5
    assert good.sig == SIG


def test_assignment_arity_inference():
    rng = random.Random(13)
    bare = AlgebraAssignment.build(
        2, {"b": rand_matrix(rng, 2, 4), "c": rand_matrix(rng, 4, 2)})
    assert bare.arity("b") == (2, 1)
    assert bare.arity("c") == (1, 2)
    with pytest.raises(GraphError):
        bare.arity("zz")
    with pytest.raises(GraphError):
        AlgebraAssignment.build(2, {"x": rand_matrix(rng, 3, 1)}).arity("x")
    one = AlgebraAssignment.build(1, {"a": rand_matrix(rng, 1, 1)})
    with pytest.raises(GraphError):
        one.arity("a")


def test_assignment_json_round_trip():
    rng = random.Random(17)
    a = rand_assignment(rng, 2)
    d = json.loads(to_json_text(algebra_to_dict(a)))
    back = algebra_from_dict(d, SIG)
    assert back.dim == a.dim and back.matrices == a.matrices
    shape = r"matrix for 'a': matrix JSON must be a rectangular array"
    for bad, match in [({}, "assignment JSON"),
                       ({"dim": "2", "matrices": {}}, "assignment JSON"),
                       ({"dim": True, "matrices": {"a": [[1]]}},
                        "assignment JSON"),
                       ({"dim": 1, "matrices": {"a": [[True]]}},
                        "matrix for 'a': bad rational True"),
                       ({"dim": 2, "matrices": {"a": [[1], [1, 2]]}}, shape),
                       ({"dim": 2, "matrices": {"a": [["x"]]}},
                        "matrix for 'a': bad rational 'x'"),
                       ({"dim": 2, "matrices": {"a": []}}, shape)]:
        with pytest.raises(FormatError, match=match):
            algebra_from_dict(bad)
    with pytest.raises(FormatError):
        algebra_from_dict({"dim": 2, "matrices": {"a": [[1, 2], [3, 4]]}},
                          SIG)
    assert matrix_from_json([["1/2", 0]]) == RatTensor([[F(1, 2), F(0)]])
    with pytest.raises(FormatError):
        matrix_from_json([[1], [2, 3]])
    with pytest.raises(FormatError):
        matrix_from_json([[True, 0]])


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_identity_and_corolla():
    rng = random.Random(19)
    A = rand_assignment(rng, 2)
    assert evaluate(identity_element(2), A) == RatTensor.identity(4)
    assert evaluate(identity_element(0), A) == RatTensor([[1]])
    for name in SIG.names:
        assert evaluate(corolla(SIG, name), A) == A.matrices[name]


def test_evaluate_grafted_corollas_is_the_matrix_product():
    rng = random.Random(23)
    A = rand_assignment(rng, 2)
    e = pelem_vcompose(corolla(SIG, "c"), corolla(SIG, "b"))
    want = mat_mul([list(r) for r in A.matrices["b"].array],
                   [list(r) for r in A.matrices["c"].array])
    assert evaluate(e, A) == RatTensor(want)


def test_evaluate_order_independence():
    rng = random.Random(31)
    A = rand_assignment(rng, 3)
    for _ in range(10):
        e = rand_element(rng, 2, 1)
        base = evaluate(e, A)
        ids = sorted(e.graph.vertex_ids)
        for order in itertools.permutations(ids):
            try:
                got = evaluate(e, A, order=list(order))
            except GraphError:
                continue  # not a topological order
            assert got == base


def test_evaluate_handles_through_wires():
    rng = random.Random(37)
    A = rand_assignment(rng, 2)
    crossed = pelem_permute_outputs(identity_element(2), (2, 1))
    assert evaluate(crossed, A) == \
        RatTensor(permutation_matrix([2, 1], 2))
    # a vertex beside a crossing wire
    e = pelem_hcompose(corolla(SIG, "a"), identity_element(1))
    e = pelem_permute_outputs(e, (2, 1))
    got = evaluate(e, A)
    swap = RatTensor(permutation_matrix([2, 1], 2))
    want = rt_dot(swap, rt_kron(A.matrices["a"], RatTensor.identity(2)))
    assert got == want


def test_evaluate_rejects_bad_input():
    rng = random.Random(41)
    A = rand_assignment(rng, 2)
    e = corolla(SIG, "b")
    with pytest.raises(GraphError, match="no matrix assigned to 'zz'"):
        evaluate(PropElement.build(e.graph, {1: "zz"}), A)
    wrong = AlgebraAssignment.build(2, {"b": rand_matrix(rng, 2, 2)})
    with pytest.raises(GraphError):
        evaluate(e, wrong)
    with pytest.raises(LimitError,
                       match=r"boundary 4\+4 axes, cap is 6 "
                       r"\(max_axes, --max-axes\)"):
        evaluate(identity_element(4), A)
    assert evaluate(identity_element(4), A, max_axes=8) == \
        RatTensor.identity(16)
    chain = pelem_vcompose(corolla(SIG, "a"), corolla(SIG, "a"))
    bottom_first = sorted(chain.graph.vertex_ids, reverse=True)
    with pytest.raises(GraphError):
        evaluate(chain, A, order=bottom_first)
    with pytest.raises(GraphError):
        evaluate(chain, A, order=[1])


def test_a_cached_plan_skips_no_check():
    rng = random.Random(42)
    A = rand_assignment(rng, 2)
    e = pelem_vcompose(corolla(SIG, "c"), corolla(SIG, "b"))
    want = evaluate(e, A)
    missing = AlgebraAssignment.build(2, {"c": A.matrices["c"]})
    wrong = AlgebraAssignment.build(2, dict(A.matrices,
                                            b=rand_matrix(rng, 2, 2)))
    order = list(e.graph.vertex_ids)
    for kwargs in ({}, {"order": order}):
        with pytest.raises(GraphError, match="no matrix assigned to 'b'"):
            evaluate(e, missing, **kwargs)
        with pytest.raises(GraphError, match=(
                r"matrix for 'b' has shape \(2, 2\), vertex \d needs "
                r"\(2, 4\)")):
            evaluate(e, wrong, **kwargs)
        assert evaluate(e, A, **kwargs) == want


def test_one_plan_per_element_at_every_dimension(monkeypatch):
    # the benchmark's pattern: each element under A and B at d = 2, 3, 4
    rng = random.Random(44)
    calls = []
    compile_plan = tensor._compile

    def counted(*args):
        calls.append(args)
        return compile_plan(*args)

    monkeypatch.setattr(tensor, "_compile", counted)
    programs = []
    build_program = tensor._program

    def counted_program(plan, d):
        programs.append(d)
        return build_program(plan, d)

    monkeypatch.setattr(tensor, "_program", counted_program)
    elements = [rand_element(rng, m, n) for m, n in
                ((1, 1), (2, 1), (1, 2), (2, 2), (0, 0))]
    assigns = {d: (rand_assignment(rng, d), rand_assignment(rng, d))
               for d in (2, 3, 4)}
    for sweep in range(2):
        for e in elements:
            for A, B in assigns.values():
                evaluate(e, A)
                evaluate(e, B)
        # one program per element and dimension, none rebuilt
        assert sorted(programs) == sorted([2, 3, 4] * len(elements)), sweep
    assert len(calls) == len(elements)
    for e in elements:
        assert sorted(vars(e)["_plan"].programs) == [2, 3, 4]
    # an explicit order is planned apart, on every call, with its program
    e = elements[0]
    for _ in range(2):
        evaluate(e, assigns[2][0], order=list(e.graph.vertex_ids))
    assert len(calls) == len(elements) + 2
    assert len(programs) == 3 * len(elements) + 2


def test_the_first_vertex_starts_the_state_exactly():
    # the state starts as the first vertex's tensor, with its den and
    # bound, and not as that tensor times 1: an object first matrix, an
    # element with no vertex and one with through wires each agree with
    # the layer-slicing route, with programs at each d used in turn
    rng = random.Random(45)
    crossed = pelem_permute_outputs(identity_element(2), (2, 1))
    beside = pelem_permute_outputs(
        pelem_hcompose(corolla(SIG, "a"), identity_element(1)), (2, 1))
    through = pelem_hcompose(identity_element(1), corolla(SIG, "b"))
    chain = pelem_vcompose(pelem_vcompose(corolla(SIG, "a"),
                                          corolla(SIG, "c")),
                           corolla(SIG, "b"))
    elements = [corolla(SIG, "a"), chain, beside, through, crossed,
                identity_element(0), identity_element(2)]
    assert all(tensor._default_plan(e).steps[0][1] == "a"
               for e in (elements[0], chain, beside))
    cases = {}
    for d in (2, 3, 4):
        small = rand_assignment(rng, d)
        # numerators past 2**63 in the first vertex's matrix
        huge = RatTensor([[F(2 ** 70 + rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(d)] for _ in range(d)])
        big = AlgebraAssignment.build(d, dict(small.matrices, a=huge), SIG)
        assert huge._num.dtype == object
        ops = TensorOps(d)
        cases[d] = [(A, extend_morphism(SIG, ops.of_assignment(A, SIG), ops))
                    for A in (small, big)]
    for d in (2, 3, 4, 3, 2, 4):
        for A, phi in cases[d]:
            for e in elements:
                assert evaluate(e, A) == phi(e).tensor, (d, e)
            got = evaluate(elements[0], A)
            assert got == A.matrices["a"]
            assert got._num.dtype == A.matrices["a"]._num.dtype
            assert evaluate(crossed, A) == \
                RatTensor(permutation_matrix([2, 1], d))


class CountingOps(TensorOps):
    """TensorOps that counts the calls made on it."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self.calls: dict[str, int] = {}

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def identity(self, n):
        self._count("identity")
        return super().identity(n)

    def hcompose(self, a, b):
        self._count("hcompose")
        return super().hcompose(a, b)

    def vcompose(self, top, bottom):
        self._count("vcompose")
        return super().vcompose(top, bottom)

    def permute_outputs(self, a, w):
        self._count("permute_outputs")
        return super().permute_outputs(a, w)


def test_routing_permutes_outputs_without_a_grafted_layer():
    rng = random.Random(57)
    A = rand_assignment(rng, 2)
    ops = CountingOps(2)
    phi = extend_morphism(SIG, ops.of_assignment(A, SIG), ops)
    # the vertex's inputs cross: routed before it
    crossed_in = pelem_permute_inputs(corolla(SIG, "b"), (2, 1))
    # a vertex beside a wire, outputs crossed: routed after it
    beside = pelem_permute_outputs(
        pelem_hcompose(corolla(SIG, "a"), identity_element(1)), (2, 1))
    crossed = pelem_permute_outputs(identity_element(2), (2, 1))
    for e, want in (
            (crossed_in, {"identity": 1, "permute_outputs": 1,
                          "vcompose": 1}),
            (beside, {"identity": 2, "hcompose": 1, "vcompose": 1,
                      "permute_outputs": 1}),
            (crossed, {"identity": 1, "permute_outputs": 1})):
        ops.calls.clear()
        assert phi(e).tensor == evaluate(e, A)
        assert ops.calls == want
    # in general: one vcompose per vertex, and an identity only to start
    # and beside a vertex
    for _ in range(30):
        m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (0, 0)])
        e = rand_element(rng, m, n)
        ops.calls.clear()
        assert phi(e).tensor == evaluate(e, A)
        assert ops.calls.get("vcompose", 0) == len(e.graph.vertices)
        assert ops.calls["identity"] == 1 + ops.calls.get("hcompose", 0)


def test_equal_elements_built_apart_evaluate_equal():
    rng = random.Random(46)
    first = pelem_vcompose(corolla(SIG, "c"), corolla(SIG, "b"))
    # the same element from a renumbered graph, with a plan of its own
    rename = {1: 7, 2: 3}
    second = PropElement.build(
        relabel_vertices(first.graph, rename),
        {rename[v]: lab for v, lab in first.labels.items()}, SIG)
    assert first == second and first is not second
    for d in (2, 3, 2):
        A = rand_assignment(rng, d)
        assert evaluate(first, A) == evaluate(second, A)


def test_the_plan_stays_out_of_equality_hash_repr_and_json():
    rng = random.Random(48)
    A = rand_assignment(rng, 2)
    e = rand_element(rng, 2, 1)
    twin = PropElement.build(e.graph, dict(e.labels), SIG)
    evaluate(e, A)
    assert "_plan" in vars(e) and "_plan" not in vars(twin)
    assert e == twin and hash(e) == hash(twin)
    assert repr(e) == repr(twin)
    assert element_to_dict(e) == element_to_dict(twin)


RING_SIG = Signature([("cup", 0, 2), ("cap", 2, 0)])


def ring_element(k: int) -> tuple[PropElement, AlgebraAssignment]:
    """The k-cup ring with the identity's cup and cap at d = 2: one loop,
    so it evaluates to the trace of the identity, 2."""
    labels = {v: "cup" if v <= k else "cap" for v in range(1, 2 * k + 1)}
    e = PropElement.build(cup_cap_ring(k), labels, RING_SIG)
    A = AlgebraAssignment.build(2, {"cup": RatTensor([[1], [0], [0], [1]]),
                                    "cap": RatTensor([[1, 0, 0, 1]])},
                                RING_SIG)
    return e, A


def test_a_closed_ring_evaluates_in_the_default_order():
    e, A = ring_element(16)
    # the default order holds at most 4 wires: 2**4 entries
    assert evaluate(e, A, max_entries=2 ** 4) == RatTensor([[2]])
    with pytest.raises(LimitError, match=(
            r"contraction peaks at 2\*\*4 entries, cap is 15 "
            r"\(max_entries, --max-entries\)")):
        evaluate(e, A, max_entries=15)


_CUPS_FIRST = """
import sys
from propcalc.graphs import LimitError
from propcalc.tensor import evaluate
from test_tensor import ring_element

e, A = ring_element(16)
cups = sorted(v for v, name in e.labels.items() if name == "cup")
caps = sorted(v for v, name in e.labels.items() if name == "cap")
try:
    evaluate(e, A, order=cups + caps)
except LimitError as err:
    print(err)
    sys.exit(1)
"""


def _cap_address_space() -> None:
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_a_cups_first_ring_fails_on_the_cap_under_a_memory_cap():
    # all 32 wires open at once would be 2**32 int64 entries (32 GiB)
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _CUPS_FIRST], capture_output=True, text=True,
        timeout=120, preexec_fn=_cap_address_space,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ("contraction peaks at 2**32 entries, cap is "
                           "4194304 (max_entries, --max-entries)\n")
    assert proc.stderr == ""


def test_evaluate_makes_no_tensordot_call(monkeypatch):
    # each step is one transpose and one np.dot, on int64 numerators and
    # on the object arrays past 2^63 alike
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate called np.tensordot")

    monkeypatch.setattr(np, "tensordot", refuse)
    rng = random.Random(50)
    crossed = pelem_permute_outputs(identity_element(2), (2, 1))
    beside = pelem_permute_outputs(
        pelem_hcompose(corolla(SIG, "a"), identity_element(1)), (2, 1))
    chain = pelem_vcompose(pelem_vcompose(corolla(SIG, "a"),
                                          corolla(SIG, "c")),
                           corolla(SIG, "b"))
    ring, _ = ring_element(16)
    for d in (2, 3, 4):
        ops = TensorOps(d)
        small = rand_assignment(rng, d)
        # rationals near 2^40: the chain's products pass 2^63 at once
        big = AlgebraAssignment.build(
            d, {g.name: big_matrix(rng, d ** g.n, d ** g.m) for g in SIG},
            SIG)
        for A in (small, big):
            phi = extend_morphism(SIG, ops.of_assignment(A, SIG), ops)
            for e in (crossed, beside, chain):
                assert evaluate(e, A) == phi(e).tensor
        assert evaluate(crossed, small) == \
            RatTensor(permutation_matrix([2, 1], d))
        got = evaluate(chain, big)
        assert max(max(abs(x.numerator), x.denominator)
                   for x in got.array.flat) > 2 ** 63
        # the identity's cup and cap: one loop, the trace of the identity
        cup = [[int(i == j)] for i in range(d) for j in range(d)]
        loop = AlgebraAssignment.build(
            d, {"cup": RatTensor(cup), "cap": RatTensor([sum(cup, [])])},
            RING_SIG)
        assert evaluate(ring, loop) == RatTensor([[d]])


def test_direct_contraction_agrees_with_layer_slicing():
    # the two evaluation routes share no code: network contraction, one
    # matrix product per vertex, on one side, permutation layers and kron
    # blocks on the other
    for d, seed in ((2, 43), (3, 47)):
        rng = random.Random(seed)
        A = rand_assignment(rng, d)
        ops = TensorOps(d)
        phi = extend_morphism(SIG, ops.of_assignment(A, SIG), ops)
        for _ in range(25):
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (0, 0)])
            e = rand_element(rng, m, n)
            assert evaluate(e, A) == phi(e).tensor


HOST_SIG = Signature([("P", 1, 1), ("Q", 2, 2), ("R", 1, 2), ("S", 2, 1)])


def rand_inner(rng: random.Random, m: int, n: int) -> PropElement:
    # an element over SIG of arity (m, n), often a bare wiring
    if m == n and rng.random() < 0.4:
        e = identity_element(m)
    else:
        e = rand_element(rng, m, n, max_r=2)
    if n == 2 and rng.random() < 0.5:
        e = pelem_permute_outputs(e, (2, 1))
    if m == 2 and rng.random() < 0.5:
        e = pelem_permute_inputs(e, (2, 1))
    return e


def test_evaluate_of_expand_is_evaluate_of_the_host():
    # substitution then evaluation equals evaluating the host with each
    # vertex's matrix taken from its inner element
    rng = random.Random(53)
    A = rand_assignment(rng, 2)
    for trial in range(600):
        m, n = rng.choice([(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
        host = rand_element(rng, m, n, HOST_SIG, max_r=3).graph
        inner = {v.id: rand_inner(rng, v.n_in, v.n_out)
                 for v in host.vertices}
        B = AlgebraAssignment.build(2, {f"x{vid}": evaluate(e, A)
                                        for vid, e in inner.items()})
        names = {vid: f"x{vid}" for vid in inner}
        assert evaluate(expand(host, inner), A) == \
            evaluate(PropElement.build(host, names), B), trial


def test_tensorops_permutation_matches_oracle():
    ops = TensorOps(2)
    for n in (2, 3):
        for w in itertools.permutations(range(1, n + 1)):
            got = ops.permute_outputs(ops.identity(n), w).tensor
            sigma = [w.index(j) + 1 for j in range(1, n + 1)]
            assert got == RatTensor(permutation_matrix(sigma, 2))


def test_all_identity_assignment_traces_wires():
    rng = random.Random(59)
    sig = Signature([("u", 1, 1), ("s", 2, 2)])
    d = 3
    A = AlgebraAssignment.build(
        d, {"u": RatTensor.identity(d), "s": RatTensor.identity(d * d)},
        sig)
    checked = 0
    for _ in range(20):
        e = rand_element(rng, 2, 2, sig=sig, max_r=3)
        want = permutation_matrix(wire_permutation(e.graph), d)
        assert evaluate(e, A) == RatTensor(want)
        checked += 1
    assert checked == 20


# ---------------------------------------------------------------------------
# intertwiners

def test_identity_intertwines_everything():
    rng = random.Random(61)
    A = rand_assignment(rng, 2)
    f = RatTensor.identity(2)
    assert all(morphism_prop_membership(f, A, A, g) for g in SIG.names)


def test_transported_assignment_intertwines():
    rng = random.Random(67)
    B = rand_assignment(rng, 2)
    f = RatTensor([[1, 1], [0, 1]])
    A = conjugate_assignment(B, f)
    # re-check the square independently of the transport formula
    for name in SIG.names:
        m, n = SIG.arity(name)
        left = rt_dot(kron_power(f, n), A.matrices[name])
        right = rt_dot(B.matrices[name], kron_power(f, m))
        assert left == right
        assert morphism_prop_membership(f, A, B, name)


def test_random_pair_fails_with_explicit_counterexample():
    rng = random.Random(71)
    A = rand_assignment(rng, 2)
    B = rand_assignment(rng, 2)
    f = RatTensor([[1, 1], [0, 1]])
    failing = [g for g in SIG.names
               if not morphism_prop_membership(f, A, B, g)]
    assert failing
    name = failing[0]
    m, n = SIG.arity(name)
    left = rt_dot(kron_power(f, n), A.matrices[name])
    right = rt_dot(B.matrices[name], kron_power(f, m))
    diffs = [(i, j) for i in range(left.shape[0])
             for j in range(left.shape[1])
             if left.array[i, j] != right.array[i, j]]
    assert diffs


def test_membership_rejects_bad_shapes():
    rng = random.Random(73)
    A = rand_assignment(rng, 2)
    B = rand_assignment(rng, 3)
    with pytest.raises(GraphError):
        morphism_prop_membership(RatTensor.identity(2), A, B, "a")
    other = AlgebraAssignment.build(
        2, {"a": rand_matrix(rng, 4, 2)},
        Signature([("a", 1, 2)]))
    with pytest.raises(GraphError):
        morphism_prop_membership(RatTensor.identity(2), A, other, "a")


def test_membership_on_generators_propagates_to_small_elements():
    rng = random.Random(79)
    B = rand_assignment(rng, 2)
    f = RatTensor([[2, 1], [1, 1]])
    A = conjugate_assignment(B, f)
    assert all(morphism_prop_membership(f, A, B, g) for g in SIG.names)
    checked = 0
    for r in range(4):
        for profile in itertools.product(SIG.names, repeat=r):
            arities = [SIG.arity(x) for x in profile]
            delta = sum(a for a, _ in arities) - sum(b for _, b in arities)
            for m in range(0, 4):
                n = m - delta
                if not 0 <= n <= 3 or m + n > 4:
                    continue
                labels = {i: profile[i - 1] for i in range(1, r + 1)}
                for ng in enumerate_graphs(arities, m, n):
                    e = PropElement.build(ng.graph, labels, SIG)
                    left = rt_dot(kron_power(f, n), evaluate(e, A))
                    right = rt_dot(evaluate(e, B), kron_power(f, m))
                    assert left == right
                    checked += 1
    assert checked > 200


def test_broken_generator_breaks_a_small_element():
    rng = random.Random(83)
    B = rand_assignment(rng, 2)
    f = RatTensor([[2, 1], [1, 1]])
    A = conjugate_assignment(B, f)
    tweaked = dict(A.matrices)
    bad = [[x + F(1) for x in row] for row in tweaked["a"].array]
    tweaked["a"] = RatTensor(bad)
    A2 = AlgebraAssignment.build(2, tweaked, SIG)
    assert not morphism_prop_membership(f, A2, B, "a")
    e = corolla(SIG, "a")
    left = rt_dot(kron_power(f, 1), evaluate(e, A2))
    right = rt_dot(evaluate(e, B), kron_power(f, 1))
    assert left != right


# ---------------------------------------------------------------------------
# a chain of intertwiners

def test_chain_diagram_with_composite_arrow():
    rng = random.Random(101)
    A = rand_assignment(rng, 2)
    f = RatTensor([[1, 1], [0, 1]])
    g = RatTensor([[2, 0], [1, 1]])
    B = conjugate_assignment(A, f)
    C = conjugate_assignment(B, g)
    comp = rt_dot(f, g)

    def chain_holds(Y, name):
        # the arrows g: C -> Y, f: Y -> A and their composite fg: C -> A
        return all(morphism_prop_membership(h, src, dst, name)
                   for h, src, dst in ((g, C, Y), (f, Y, A), (comp, C, A)))

    assert all(chain_holds(B, name) for name in SIG.names)
    # breaking one square breaks exactly the generators it touches
    broken = dict(B.matrices)
    broken["a"] = rt_dot(broken["a"], RatTensor([[2, 0], [0, 2]]))
    B2 = AlgebraAssignment.build(2, broken, SIG)
    assert not chain_holds(B2, "a")
    assert chain_holds(B2, "b") and chain_holds(B2, "c")
