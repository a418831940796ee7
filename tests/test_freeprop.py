"""Free elements: substitution, universal property, counting, filtration."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from propcalc.canonical import enumerate_graphs
from propcalc.freeprop import (FREE_OPS, Generator, PartialLabeledGraph,
                               PropElement, Signature, combine_signatures,
                               corolla, count_basis, element_from_dict,
                               element_to_dict, expand, expand_element,
                               extend_morphism, filtration_degree,
                               identity_element, partial_from_dict,
                               partial_to_dict, pelem_hcompose,
                               pelem_permute_inputs, pelem_permute_outputs,
                               pelem_vcompose, signature_from_dict,
                               signature_to_dict)
from propcalc.graphs import (FormatError, GraphError, make_graph,
                             relabel_vertices, to_json_text,
                             topological_order)

from _fixtures import fixture_dict, fixture_graph
from _oracles import topo_latest_first


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def random_element(rng: random.Random, sig: Signature, m: int, n: int,
                   max_r: int = 3) -> PropElement:
    names = list(sig.names)
    for _ in range(60):
        r = rng.randint(0, max_r)
        profile = [rng.choice(names) for _ in range(r)]
        arities = [sig.arity(x) for x in profile]
        graphs = list(enumerate_graphs(arities, m, n))
        if graphs:
            ng = rng.choice(graphs)
            labels = {i: profile[i - 1] for i in range(1, r + 1)}
            return PropElement.build(ng.graph, labels, sig)
    raise AssertionError(f"no element found for ({m},{n}) over {sig}")


BASE_SIG = Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2)])
FIG2_SIG = Signature([("p", 1, 2), ("q", 1, 1), ("r", 3, 1),
                      ("s", 1, 2), ("t", 2, 2)])


def fig4_parts():
    f4 = fixture_dict("fig4")
    sig = signature_from_dict(f4["sig"])
    inner1 = element_from_dict(f4["inner"]["1"], sig)
    inner2 = element_from_dict(f4["inner"]["2"], sig)
    flat = element_from_dict(f4["flat"], sig)
    return fixture_graph("fig4", "outer"), sig, inner1, inner2, flat


# ---------------------------------------------------------------------------
# signatures

def test_signature_basics():
    sig = Signature([("p", 2, 1), Generator("q", 0, 3)])
    assert sig.arity("p") == (2, 1)
    assert "q" in sig and "z" not in sig
    assert len(sig) == 2
    assert sig.restrict(["p"]).names == ("p",)
    with pytest.raises(GraphError):
        Signature([("p", 1, 1), ("p", 2, 2)])
    with pytest.raises(GraphError):
        Signature([("p", -1, 0)])
    with pytest.raises(GraphError):
        sig.arity("nope")


def test_signature_messages_quote_a_name_up_to_80_characters_whole():
    # a name whose repr fits in 80 characters reads as it did with `!r`;
    # a longer one is cut after 80
    for name, quoted in [("n" * 78, repr("n" * 78)),
                         ("n" * 79, "'" + "n" * 79 + "...")]:
        with pytest.raises(GraphError) as caught:
            Signature([(name, -1, 0)])
        assert str(caught.value) == f"generator {quoted} has negative arity"
        with pytest.raises(GraphError) as caught:
            Signature([]).arity(name)
        assert str(caught.value) == f"unknown generator {quoted}"


def test_combine_signatures_requires_disjoint_names():
    a = Signature([("p", 1, 1)])
    b = Signature([("q", 2, 1)])
    assert combine_signatures(a, b).names == ("p", "q")
    with pytest.raises(GraphError):
        combine_signatures(a, Signature([("p", 1, 2)]))


def test_signature_json_round_trip():
    sig = FIG2_SIG
    d = json.loads(to_json_text(signature_to_dict(sig)))
    assert signature_from_dict(d) == sig
    for bad in [{}, {"generators": {}}, {"generators": [{"name": "x"}]},
                {"generators": [{"name": "x", "m": "1", "n": 2}]},
                {"generators": [{"name": "x", "m": True, "n": 1}]},
                {"generators": [{"name": "x", "m": 1, "n": False}]},
                {"generators": [{"name": "x", "m": 1, "n": 1},
                                {"name": "x", "m": 2, "n": 2}]}]:
        with pytest.raises(FormatError):
            signature_from_dict(bad)


# ---------------------------------------------------------------------------
# elements and their compositions

def test_corolla_shape():
    e = corolla(Signature([("g", 2, 1)]), "g")
    assert (e.m, e.n) == (2, 1)
    assert len(e.graph.vertices) == 1
    assert e.labels == {1: "g"}
    with pytest.raises(GraphError):
        corolla(BASE_SIG, "nope")


def test_element_equality_ignores_vertex_ids():
    rng = random.Random(7)
    for _ in range(10):
        e = random_element(rng, BASE_SIG, 1, 1)
        shuffled_ids = list(e.graph.vertex_ids)
        rng.shuffle(shuffled_ids)
        mapping = dict(zip(e.graph.vertex_ids, shuffled_ids))
        from propcalc.graphs import relabel_vertices
        moved = PropElement.build(
            relabel_vertices(e.graph, mapping),
            {mapping[v]: lab for v, lab in e.labels.items()})
        assert moved == e
        assert hash(moved) == hash(e)


def test_element_build_validates():
    g = corolla(BASE_SIG, "b").graph
    with pytest.raises(GraphError):
        PropElement.build(g, {})
    with pytest.raises(GraphError):
        PropElement.build(g, {1: "a"}, BASE_SIG)


def test_vertical_composite_figure_with_labels():
    top = PropElement.build(fixture_graph("fig2v", "top"),
                            {1: "s", 2: "t"}, FIG2_SIG)
    bottom = PropElement.build(fixture_graph("fig2v", "bottom"),
                               {1: "p", 2: "q", 3: "r"}, FIG2_SIG)
    want = PropElement.build(fixture_graph("fig2v", "result"),
                             {1: "s", 2: "t", 3: "p", 4: "q", 5: "r"},
                             FIG2_SIG)
    assert pelem_vcompose(top, bottom) == want


def test_hcompose_with_empty_element_is_unit():
    rng = random.Random(11)
    empty = identity_element(0)
    for _ in range(5):
        e = random_element(rng, BASE_SIG, 2, 1)
        assert pelem_hcompose(e, empty) == e
        assert pelem_hcompose(empty, e) == e


def test_element_interchange_random():
    rng = random.Random(13)
    for _ in range(25):
        g1 = random_element(rng, BASE_SIG, 1, 1, max_r=2)
        g2 = random_element(rng, BASE_SIG, 2, 1, max_r=2)
        h1 = random_element(rng, BASE_SIG, 1, 2, max_r=2)
        h2 = random_element(rng, BASE_SIG, 1, 1, max_r=2)
        lhs = pelem_vcompose(pelem_hcompose(g1, g2),
                             pelem_hcompose(h1, h2))
        rhs = pelem_hcompose(pelem_vcompose(g1, h1),
                             pelem_vcompose(g2, h2))
        assert lhs == rhs


def test_element_permutation_equivariance():
    rng = random.Random(17)
    for _ in range(10):
        top = random_element(rng, BASE_SIG, 1, 2, max_r=2)
        bottom = random_element(rng, BASE_SIG, 2, 1, max_r=2)
        base = pelem_vcompose(top, bottom)
        for w in itertools.permutations((1, 2)):
            inv = tuple(sorted(range(1, 3), key=lambda i: w[i - 1]))
            assert pelem_vcompose(pelem_permute_outputs(top, w),
                                  pelem_permute_inputs(bottom, inv)) == base


# ---------------------------------------------------------------------------
# substitution

def test_expand_reproduces_substitution_figure():
    outer, sig, inner1, inner2, flat = fig4_parts()
    assert expand(outer, {1: inner1, 2: inner2}) == flat


def test_expand_left_unit():
    _, sig, inner1, _, flat = fig4_parts()
    for e in (inner1, flat, identity_element(2)):
        host = corolla(Signature([("E", e.m, e.n)]), "E")
        assert expand(host.graph, {vid: e for vid in host.graph.vertex_ids}) \
            == e


def test_expand_right_unit():
    rng = random.Random(19)
    for _ in range(10):
        e = random_element(rng, BASE_SIG, 1, 2)
        inner = {vid: corolla(BASE_SIG, name)
                 for vid, name in e.labels.items()}
        assert expand(e.graph, inner) == e


def test_expand_checks_arities():
    outer, sig, inner1, inner2, _ = fig4_parts()
    with pytest.raises(GraphError):
        expand(outer, {1: inner2, 2: inner1})
    with pytest.raises(GraphError):
        expand(outer, {1: inner1})


def test_expand_checks_the_host_graph():
    a = corolla(BASE_SIG, "a")
    cycle = make_graph(0, 0, [(1, 1, 1), (2, 1, 1)],
                       [(("vout", 1, 1), ("vin", 2, 1)),
                        (("vout", 2, 1), ("vin", 1, 1))])
    dangling = make_graph(1, 1, [(1, 1, 1)],
                          [(("input", 1), ("vin", 1, 1)),
                           (("vout", 1, 1), ("vin", 2, 1))])
    for outer in (cycle, dangling):
        with pytest.raises(GraphError, match="invalid graph"):
            expand(outer, {1: a, 2: a})


def test_permuted_elements_need_permutations():
    e = pelem_hcompose(corolla(BASE_SIG, "b"), corolla(BASE_SIG, "a"))
    for bad in ((1, 1, 2), (1, 2), (0, 1, 2)):
        with pytest.raises(GraphError, match="not a permutation"):
            pelem_permute_inputs(e, bad)
    for bad in ((2, 2), (1,), (1, 3)):
        with pytest.raises(GraphError, match="not a permutation"):
            pelem_permute_outputs(e, bad)


def test_element_operations_read_no_operand_graph():
    # the four operations substitute their operands' keys into boxes, so
    # neither the operands nor the result build their graphs
    f, g = corolla(BASE_SIG, "b"), corolla(BASE_SIG, "c")
    for a, b in ((f, g), (g, f)):
        results = [pelem_hcompose(a, b), pelem_vcompose(a, b),
                   pelem_permute_inputs(a, tuple(range(a.m, 0, -1))),
                   pelem_permute_outputs(b, tuple(range(b.n, 0, -1)))]
        for e in (f, g, *results):
            assert "graph" not in vars(e)


def _same_as_checked(e: PropElement, sig: Signature) -> None:
    # an element is made from its key alone, and its graph, built when
    # read, is the one the checked path gives: check, the label and
    # arity checks, canonicalize
    assert repr(e) == f"PropElement(({e.m},{e.n}), {len(e.labels)} vertices)"
    assert "graph" not in vars(e)
    again = PropElement.build(e.graph, e.labels, sig)
    assert (again.key, again.graph, again.labels) == \
        (e.key, e.graph, e.labels)


def test_internal_results_match_the_checked_path():
    # composites, permutations, expansions and corollas skip `build`'s
    # checks
    rng = random.Random(61)
    mid_names = [("A", 1, 1), ("B", 2, 1), ("C", 1, 2)]
    midsig = Signature(mid_names)
    for _ in range(20):
        top = random_element(rng, BASE_SIG, 1, 2, max_r=2)
        bottom = random_element(rng, BASE_SIG, 2, 1, max_r=2)
        side = random_element(rng, BASE_SIG, 1, 1, max_r=2)
        mid = {name: random_element(rng, BASE_SIG, m, n, max_r=2)
               for name, m, n in mid_names}
        outer = random_element(rng, midsig, 1, 2, max_r=3)
        for e in (pelem_vcompose(top, bottom), pelem_hcompose(top, side),
                  pelem_hcompose(identity_element(1), bottom),
                  pelem_permute_outputs(top, (2, 1)),
                  pelem_permute_inputs(bottom, (2, 1)),
                  expand_element(outer, mid),
                  expand(outer.graph, {vid: mid[name] for vid, name
                                       in outer.labels.items()}),
                  corolla(BASE_SIG, "b")):
            _same_as_checked(e, BASE_SIG)


def test_expand_associativity_three_levels():
    rng = random.Random(23)
    mid_names = [("A", 1, 1), ("B", 2, 1), ("C", 1, 2)]
    midsig = Signature(mid_names)
    for trial in range(30):
        mid = {name: random_element(rng, BASE_SIG, m, n, max_r=2)
               for name, m, n in mid_names}
        top_elems = {"X": random_element(rng, midsig, 1, 1, max_r=2),
                     "Y": random_element(rng, midsig, 1, 2, max_r=2)}
        topsig = Signature([("X", 1, 1), ("Y", 1, 2)])
        outer = random_element(rng, topsig, 1, 2, max_r=2)

        inner_first = expand_element(
            outer, {t: expand_element(e, mid) for t, e in top_elems.items()})
        outer_first = expand_element(expand_element(outer, top_elems), mid)
        assert inner_first == outer_first, trial


def test_expand_keeps_wires_spliced():
    # a host vertex replaced by a pure wire element disappears entirely
    wire = identity_element(1)
    host = corolla(Signature([("W", 1, 1)]), "W")
    spliced = expand(host.graph, {1: wire})
    assert spliced == identity_element(1)
    assert spliced.graph.vertices == ()


def test_expand_walks_a_chain_of_crossings():
    # three crossings in series compose to one crossing; each through-wire
    # must continue from the host out-port it feeds, not the one beside
    # its host in-port
    host = make_graph(2, 2, [(1, 2, 2), (2, 2, 2), (3, 2, 2)],
                      [(("input", 1), ("vin", 1, 1)),
                       (("input", 2), ("vin", 1, 2)),
                       (("vout", 1, 1), ("vin", 2, 1)),
                       (("vout", 1, 2), ("vin", 2, 2)),
                       (("vout", 2, 1), ("vin", 3, 1)),
                       (("vout", 2, 2), ("vin", 3, 2)),
                       (("vout", 3, 1), ("output", 1)),
                       (("vout", 3, 2), ("output", 2))])
    crossing = pelem_permute_outputs(identity_element(2), (2, 1))
    assert expand(host, {1: crossing, 2: crossing, 3: crossing}) == crossing


# ---------------------------------------------------------------------------
# the universal property

def test_extension_restricts_to_assignment():
    assignment = {name: corolla(BASE_SIG, name) for name in BASE_SIG.names}
    phi = extend_morphism(BASE_SIG, assignment, FREE_OPS)
    for name in BASE_SIG.names:
        assert phi(corolla(BASE_SIG, name)) == assignment[name]


def test_extension_is_identity_for_corolla_assignment():
    rng = random.Random(29)
    phi = extend_morphism(
        BASE_SIG, {name: corolla(BASE_SIG, name) for name in BASE_SIG.names},
        FREE_OPS)
    for _ in range(40):
        m, n = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (0, 0)])
        e = random_element(rng, BASE_SIG, m, n)
        assert phi(e) == e


def test_extension_agrees_with_substitution():
    # two independent routes: frontier slicing vs direct graph splicing
    rng = random.Random(31)
    mid_names = [("A", 1, 1), ("B", 2, 1), ("C", 1, 2)]
    midsig = Signature(mid_names)
    for _ in range(25):
        assignment = {name: random_element(rng, BASE_SIG, m, n, max_r=2)
                      for name, m, n in mid_names}
        phi = extend_morphism(midsig, assignment, FREE_OPS)
        e = random_element(rng, midsig, 1, 1)
        assert phi(e) == expand_element(e, assignment)


def test_extension_commutes_with_operations():
    rng = random.Random(37)
    assignment = {"a": random_element(rng, BASE_SIG, 1, 1, max_r=2),
                  "b": random_element(rng, BASE_SIG, 2, 1, max_r=2),
                  "c": random_element(rng, BASE_SIG, 1, 2, max_r=2)}
    phi = extend_morphism(BASE_SIG, assignment, FREE_OPS)
    for _ in range(15):
        x = random_element(rng, BASE_SIG, 1, 2, max_r=2)
        y = random_element(rng, BASE_SIG, 2, 1, max_r=2)
        assert phi(pelem_hcompose(x, y)) == \
            pelem_hcompose(phi(x), phi(y))
        assert phi(pelem_vcompose(x, y)) == \
            pelem_vcompose(phi(x), phi(y))
        assert phi(pelem_permute_outputs(x, (2, 1))) == \
            pelem_permute_outputs(phi(x), (2, 1))
        assert phi(identity_element(3)) == identity_element(3)


def latest_first(e: PropElement) -> PropElement:
    """e with its vertex ids reversed: the same element, whose graph an
    extension, taking the smallest ready id first, walks in the order of
    `topo_latest_first` on e's graph."""
    flip = {vid: len(e.graph.vertices) + 1 - vid for vid in e.graph.vertex_ids}
    graph = relabel_vertices(e.graph, flip)
    f = PropElement(e.m, e.n, graph,
                    {flip[vid]: lab for vid, lab in e.labels.items()}, e.key)
    assert f.graph is graph  # the constructor keeps the graph it is given
    assert [flip[vid] for vid in topological_order(f.graph)] == \
        topo_latest_first(e.graph)
    return f


def test_extension_is_order_independent():
    rng = random.Random(41)
    assignment = {name: corolla(BASE_SIG, name) for name in BASE_SIG.names}
    phi = extend_morphism(BASE_SIG, assignment, FREE_OPS)
    for _ in range(20):
        e = random_element(rng, BASE_SIG, 2, 2)
        assert phi(e) == phi(latest_first(e))


def test_extension_validates_assignment():
    with pytest.raises(GraphError):
        extend_morphism(BASE_SIG, {"a": corolla(BASE_SIG, "a")}, FREE_OPS)
    bad = {"a": corolla(BASE_SIG, "b"),
           "b": corolla(BASE_SIG, "b"),
           "c": corolla(BASE_SIG, "c")}
    with pytest.raises(GraphError):
        extend_morphism(BASE_SIG, bad, FREE_OPS)


def test_two_extensions_agreeing_on_corollas_agree_everywhere():
    assignment = {name: corolla(BASE_SIG, name) for name in BASE_SIG.names}
    phi = extend_morphism(BASE_SIG, assignment, FREE_OPS)
    profiles = [("a", "b", "c"), ("c", "b"), ("a", "a", "a"), ("c", "c")]
    for profile in profiles:
        arities = [BASE_SIG.arity(x) for x in profile]
        for mn in [(1, 1), (2, 1), (1, 2)]:
            for ng in enumerate_graphs(arities, *mn):
                labels = {i: profile[i - 1]
                          for i in range(1, len(profile) + 1)}
                e = PropElement.build(ng.graph, labels, BASE_SIG)
                assert phi(e) == phi(latest_first(e))


# ---------------------------------------------------------------------------
# counting

def test_count_basis_single_unary_generator():
    sig = Signature([("u", 1, 1)])
    table = count_basis(sig, 1, 1, 3)
    assert table["iso"] == [1, 1, 1, 1]
    assert table["numbered"] == [1, 1, 2, 6]


def test_count_basis_closed_generator():
    sig = Signature([("c", 0, 0)])
    table = count_basis(sig, 0, 0, 3)
    assert table["iso"] == [1, 1, 1, 1]


def test_count_basis_two_generators_matches_brute_force():
    from _oracles import brute_force_graphs
    sig = Signature([("j", 2, 1), ("s", 1, 2)])
    table = count_basis(sig, 1, 1, 2)
    total = 0
    for profile in itertools.product(sig.names, repeat=2):
        arities = [sig.arity(x) for x in profile]
        total += len(brute_force_graphs(arities, 1, 1))
    assert table["numbered"][2] == total
    assert table["numbered"][0] == 1 and table["numbered"][1] == 0


def test_count_basis_free_action_factorial():
    for sig in (Signature([("u", 1, 1)]),
                Signature([("j", 2, 1), ("s", 1, 2)])):
        assert all(g.m >= 1 for g in sig)
        table = count_basis(sig, 1, 1, 3)
        for r, (num, iso) in enumerate(zip(table["numbered"],
                                           table["iso"])):
            assert num == iso * _factorial(r), (sig, r)


def test_count_basis_without_a_free_action_matches_the_product_loop():
    from _oracles import product_count_basis
    closed = Signature([("c", 0, 1), ("k", 1, 0), ("u", 1, 1)])
    table = count_basis(closed, 0, 0, 4)
    assert table == {"numbered": [1, 0, 2, 6, 36], "iso": [1, 0, 1, 1, 2]}
    assert table == product_count_basis(closed, 0, 0, 4)
    mixed = Signature([("u", 1, 1), ("j", 2, 1), ("s", 1, 2),
                       ("c", 0, 1), ("k", 1, 0)])
    assert count_basis(mixed, 1, 1, 4) == product_count_basis(mixed, 1, 1, 4)


# ---------------------------------------------------------------------------
# partial labelings

def test_partial_labeling_fixture_degree():
    assert filtration_degree(partial_from_dict(fixture_dict("fig8"))) == 3


def test_fully_slotted_graph_has_degree_zero():
    g = fixture_graph("nonacyclic-p2")
    slots = {vid: i for i, vid in enumerate(sorted(g.vertex_ids), start=1)}
    assert filtration_degree(PartialLabeledGraph(g, {}, slots)) == 0


def test_partial_labeling_partition_enforced():
    g = fixture_graph("nonacyclic-p2")
    with pytest.raises(GraphError):
        PartialLabeledGraph(g, {1: "x"}, {1: 1, 2: 2, 3: 3, 4: 4})
    with pytest.raises(GraphError):
        PartialLabeledGraph(g, {1: "x"}, {2: 1, 3: 2})
    with pytest.raises(GraphError):
        PartialLabeledGraph(g, {1: "x"}, {2: 2, 3: 3, 4: 4})


def test_partial_labelings_of_three_vertex_graph():
    chain = None
    for ng in enumerate_graphs([(1, 1)] * 3, 1, 1):
        chain = ng.graph
        break
    assert chain is not None
    parts = []
    ids = sorted(chain.vertex_ids)
    for k in range(4):
        for subset in itertools.combinations(ids, k):
            labels = {vid: "x" for vid in subset}
            rest = [vid for vid in ids if vid not in subset]
            slots = {vid: i for i, vid in enumerate(rest, start=1)}
            parts.append(PartialLabeledGraph(chain, labels, slots))
    assert len(parts) == 8
    degrees = sorted(filtration_degree(p) for p in parts)
    assert degrees == [0, 1, 1, 1, 2, 2, 2, 3]


# ---------------------------------------------------------------------------
# JSON forms

def test_element_json_round_trip():
    _, sig, inner1, _, flat = fig4_parts()
    for e in (inner1, flat, identity_element(2)):
        d = json.loads(to_json_text(element_to_dict(e)))
        assert element_from_dict(d, sig) == e


def test_element_json_requires_labels():
    d = element_to_dict(corolla(BASE_SIG, "a"))
    del d["vertices"][0]["label"]
    with pytest.raises(FormatError):
        element_from_dict(d)


def test_partial_json_round_trip():
    p = partial_from_dict(fixture_dict("fig8"))
    d = json.loads(to_json_text(partial_to_dict(p)))
    assert partial_from_dict(d) == p
    bad = partial_to_dict(p)
    bad["vertices"][0].pop("slot", None)
    bad["vertices"][0].pop("label", None)
    with pytest.raises(FormatError):
        partial_from_dict(bad)
    # a JSON boolean is not a slot number, even where 1 would be
    booly = partial_to_dict(p)
    slotted = next(v for v in booly["vertices"] if v.get("slot") == 1)
    slotted["slot"] = True
    with pytest.raises(FormatError):
        partial_from_dict(booly)
