"""Core graph structure: validation, composition, boundary actions, JSON."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from propcalc.freeprop import partial_from_dict
from propcalc.graphs import (Edge, FormatError, Graph, GraphError, Vertex,
                             check, graph_from_dict, graph_to_dict, hcompose,
                             identity, invert_permutation, make_graph,
                             permute_inputs, permute_outputs,
                             relabel_vertices, to_json_text,
                             topological_order, validate, vcompose,
                             vertex_successors)

from _fixtures import fixture_dict, fixture_graph
from _oracles import compose_permutations, unary_chain, wire_permutation


def conditions(violations):
    return {v["condition"] for v in violations}


# ---------------------------------------------------------------------------
# validation

def test_identity_graphs_validate():
    assert validate(identity(0)) == []
    assert validate(identity(3)) == []
    assert identity(0).edges == ()
    assert identity(3).m == identity(3).n == 3


def test_running_example_validates():
    assert validate(fixture_graph("fig1")) == []


def test_all_fixtures_validate():
    for name in ("fig1", "fig7", "nonacyclic-p2"):
        assert validate(fixture_graph(name)) == [], name
    for key in ("left", "right", "result"):
        assert validate(fixture_graph("fig2h", key)) == []
    for key in ("top", "bottom", "result"):
        assert validate(fixture_graph("fig2v", key)) == []
    for keys in (("outer",), ("inner", "1"), ("inner", "2"), ("flat",)):
        assert validate(fixture_graph("fig4", *keys)) == []
    assert validate(fixture_graph("fig8")) == []
    assert validate(fixture_graph("remark-witness")) == []


def test_validate_flags_unknown_vertex():
    g = make_graph(1, 1, [(1, 1, 1)],
                   [(("input", 1), ("vin", 1, 1)),
                    (("vout", 9, 1), ("output", 1))])
    assert "reference" in conditions(validate(g))


def test_validate_flags_port_out_of_range():
    g = make_graph(1, 1, [(1, 1, 1)],
                   [(("input", 1), ("vin", 1, 2)),
                    (("vout", 1, 1), ("output", 1))])
    assert "reference" in conditions(validate(g))
    # an index between two ports names neither
    g = Graph(1, 1, (), (Edge(("input", 1.5), ("output", 1)),))
    assert conditions(validate(g)) == {"reference"}


def test_validate_flags_unused_and_doubled_ports():
    base = fixture_graph("fig1")
    dropped = Graph(base.m, base.n, base.vertices, base.edges[1:])
    conds = conditions(validate(dropped))
    assert "source-port" in conds or "target-port" in conds

    doubled = Graph(base.m, base.n, base.vertices,
                    base.edges + (Edge(base.edges[0].src,
                                       base.edges[1].dst),))
    conds = conditions(validate(doubled))
    assert "source-port" in conds and "target-port" in conds


def test_validate_lists_port_faults_in_order_then_counts_the_rest():
    # output 1 is fed twice, outputs 2..25 not at all, input 3 feeds nothing
    g = make_graph(3, 25, [], [(("input", 1), ("output", 1)),
                               (("input", 2), ("output", 1))])
    violations = validate(g)
    assert violations[0] == {
        "condition": "source-port",
        "detail": "port ('input', 3) feeds 0 edges (want 1)"}
    details = [v["detail"] for v in violations[1:]]
    assert details[:2] == ["port ('output', 1) receives 2 edges (want 1)",
                           "port ('output', 2) receives 0 edges (want 1)"]
    assert details[19] == "port ('output', 20) receives 0 edges (want 1)"
    assert violations[21] == {
        "condition": "target-port", "count": 5,
        "detail": "5 more target ports with a number of edges other than 1"}
    assert len(violations) == 22
    with pytest.raises(GraphError, match=r"\(\+25 more\)$"):
        check(g)


def test_validate_flags_cycle():
    g = make_graph(0, 0, [(1, 1, 1), (2, 1, 1)],
                   [(("vout", 1, 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("vin", 1, 1))])
    conds = conditions(validate(g))
    assert conds == {"acyclic"}
    with pytest.raises(GraphError):
        check(g)
    # a cycle 2 -> 3 -> 4 -> 2 fed by vertex 1 and feeding vertex 5
    g = make_graph(1, 1, [(1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 1, 1),
                          (5, 1, 1)],
                   [(("input", 1), ("vin", 1, 1)),
                    (("vout", 1, 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("vin", 3, 1)),
                    (("vout", 3, 1), ("vin", 4, 1)),
                    (("vout", 3, 2), ("vin", 5, 1)),
                    (("vout", 4, 1), ("vin", 2, 2)),
                    (("vout", 5, 1), ("output", 1))])
    [violation] = validate(g)
    prefix = "directed cycle through vertices "
    assert violation["detail"].startswith(prefix)
    cycle = json.loads(violation["detail"][len(prefix):])
    succ = vertex_successors(g)
    assert cycle[0] == cycle[-1]
    assert len(set(cycle[:-1])) == len(cycle) - 1
    assert all(b in succ[a] for a, b in zip(cycle, cycle[1:]))


def test_topological_order_breaks_ties_by_id():
    # 1 and 3 are ready at once; 2 waits for 1
    g = make_graph(2, 2, [(1, 1, 1), (2, 1, 1), (3, 1, 1)],
                   [(("input", 1), ("vin", 1, 1)),
                    (("input", 2), ("vin", 3, 1)),
                    (("vout", 1, 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("output", 1)),
                    (("vout", 3, 1), ("output", 2))])
    assert topological_order(g) == [1, 2, 3]
    # renumbered, the lone vertex has the smaller id and goes first
    h = relabel_vertices(g, {1: 6, 2: 5, 3: 4})
    assert topological_order(h) == [4, 6, 5]


def test_relabel_vertices_refuses_a_mapping_that_is_not_injective():
    g = make_graph(1, 1, [(1, 1, 1), (2, 1, 1)],
                   [(("input", 1), ("vin", 1, 1)),
                    (("vout", 1, 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("output", 1))])
    # two ids sent to one, and one id sent onto an id the mapping keeps
    for mapping in ({1: 3, 2: 3}, {1: 2}, {2: 1}):
        with pytest.raises(GraphError,
                           match="vertex relabeling is not injective"):
            relabel_vertices(g, mapping)
    assert relabel_vertices(g, {1: 2, 2: 1}).vertex_ids == (1, 2)


def test_graph_construction_is_unchanged():
    # the constructor sorts both parts and sets the fields in one step;
    # the result is the graph `_sorted` makes from the sorted tuples
    g = fixture_graph("fig1")
    rng = random.Random(5)
    for _ in range(5):
        vertices, edges = list(g.vertices), list(g.edges)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        for h in (Graph(g.m, g.n, vertices, edges),
                  Graph(g.m, g.n, tuple(vertices), tuple(edges)),
                  Graph(m=g.m, n=g.n, vertices=vertices, edges=edges)):
            want = Graph._sorted(g.m, g.n, tuple(sorted(g.vertices)),
                                 tuple(sorted(g.edges)))
            assert h == want and hash(h) == hash(want)
            assert repr(h) == repr(want)
            assert type(h.vertices) is tuple and type(h.edges) is tuple
    assert [(f.name, f.type) for f in dataclasses.fields(Graph)] == [
        ("m", "int"), ("n", "int"), ("vertices", "tuple[Vertex, ...]"),
        ("edges", "tuple[Edge, ...]")]
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.m = 3


def test_deep_chain_validates():
    g = unary_chain(3000)
    assert check(g) is g
    assert topological_order(g) == list(range(1, 3001))


def test_check_returns_graph_unchanged():
    g = fixture_graph("fig1")
    assert check(g) is g


# ---------------------------------------------------------------------------
# composition

def test_hcompose_matches_figure():
    left, right, result = (fixture_graph("fig2h", key)
                           for key in ("left", "right", "result"))
    assert hcompose(left, right) == result


def test_vcompose_matches_figure():
    top, bottom, result = (fixture_graph("fig2v", key)
                           for key in ("top", "bottom", "result"))
    assert vcompose(top, bottom) == result


def test_hcompose_unit():
    g = fixture_graph("fig1")
    assert hcompose(g, identity(0)) == g
    assert hcompose(identity(0), g) == g


def test_vcompose_units():
    g = fixture_graph("fig1")
    assert vcompose(identity(g.m), g) == g
    assert vcompose(g, identity(g.n)) == g


def test_vcompose_boundary_mismatch():
    with pytest.raises(GraphError):
        vcompose(identity(2), identity(3))


def test_hcompose_associative():
    a, b = fixture_graph("fig2h", "left"), fixture_graph("fig2h", "right")
    c = fixture_graph("fig1")
    assert hcompose(hcompose(a, b), c) == hcompose(a, hcompose(b, c))


def test_vcompose_associative():
    top = fixture_graph("fig2h", "right")
    mid = fixture_graph("fig2h", "left")
    bot = fixture_graph("nonacyclic-p2")
    assert vcompose(vcompose(top, mid), bot) == vcompose(top, vcompose(mid, bot))


def test_interchange():
    g1 = fixture_graph("fig2h", "right")
    h1 = fixture_graph("fig2h", "left")
    g2 = identity(1)
    h2 = identity(1)
    lhs = vcompose(hcompose(g1, g2), hcompose(h1, h2))
    rhs = hcompose(vcompose(g1, h1), vcompose(g2, h2))
    assert lhs == rhs


def test_composites_stay_valid():
    assert validate(hcompose(fixture_graph("fig2h", "left"),
                             fixture_graph("fig2h", "right"))) == []
    assert validate(vcompose(fixture_graph("fig2v", "top"),
                             fixture_graph("fig2v", "bottom"))) == []


# ---------------------------------------------------------------------------
# permutation actions

def test_permutation_helpers():
    assert invert_permutation((2, 3, 1)) == (3, 1, 2)
    assert compose_permutations((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    with pytest.raises(GraphError):
        permute_inputs(identity(3), (1, 1, 2))


def test_stacked_input_permutations_compose():
    sigma, tau = (2, 3, 1), (3, 1, 2)
    top = permute_inputs(identity(3), sigma)
    bottom = permute_inputs(identity(3), tau)
    combined = compose_permutations(tau, sigma)
    assert vcompose(top, bottom) == permute_inputs(identity(3), combined)


def test_output_action_is_left_action():
    g = hcompose(fixture_graph("fig2h", "left"),
                 fixture_graph("fig2h", "right"))
    for w1 in itertools.permutations(range(1, 4)):
        for w2 in itertools.permutations(range(1, 4)):
            lhs = permute_outputs(permute_outputs(g, w1), w2)
            rhs = permute_outputs(g, compose_permutations(w2, w1))
            assert lhs == rhs


def test_input_action_is_right_action():
    g = hcompose(fixture_graph("fig2h", "left"),
                 fixture_graph("fig2h", "right"))
    for w1 in itertools.permutations(range(1, 4)):
        for w2 in itertools.permutations(range(1, 4)):
            lhs = permute_inputs(permute_inputs(g, w1), w2)
            rhs = permute_inputs(g, compose_permutations(w1, w2))
            assert lhs == rhs


def test_vcompose_equivariance():
    pairs = [(fixture_graph("fig2v", "top"), fixture_graph("fig2v", "bottom"))]
    g33 = hcompose(fixture_graph("fig2h", "left"),
                   fixture_graph("fig2h", "right"))
    pairs.append((g33, g33))
    for top, bottom in pairs:
        base = vcompose(top, bottom)
        for w in itertools.permutations(range(1, top.n + 1)):
            twisted = vcompose(permute_outputs(top, w),
                               permute_inputs(bottom, invert_permutation(w)))
            assert twisted == base


def test_permuted_identity_traces_inverse():
    for w in itertools.permutations(range(1, 4)):
        g = permute_outputs(identity(3), w)
        assert wire_permutation(g) == list(invert_permutation(w))
        h = permute_inputs(identity(3), w)
        assert wire_permutation(h) == list(invert_permutation(w))


def test_permutation_actions_keep_graphs_valid():
    g = hcompose(fixture_graph("fig2h", "left"),
                 fixture_graph("fig2h", "right"))
    for w in itertools.permutations(range(1, 4)):
        assert validate(permute_outputs(g, w)) == []
        assert validate(permute_inputs(g, w)) == []


# ---------------------------------------------------------------------------
# JSON interchange

def test_json_round_trip_plain():
    g = fixture_graph("fig1")
    text = to_json_text(graph_to_dict(g))
    parsed, extras = graph_from_dict(json.loads(text))
    assert parsed == g
    assert extras == {}
    assert to_json_text(graph_to_dict(parsed)) == text


def test_json_round_trip_labels_and_extras():
    f8 = partial_from_dict(fixture_dict("fig8"))
    extras_in = {vid: {"slot": s} for vid, s in f8.slots.items()}
    d = graph_to_dict(f8.graph, labels=f8.labels, vertex_extras=extras_in)
    parsed, extras = graph_from_dict(json.loads(to_json_text(d)))
    assert parsed == f8.graph
    assert {vid: e["label"] for vid, e in extras.items() if "label" in e} \
        == f8.labels
    assert {vid: e["slot"] for vid, e in extras.items() if "slot" in e} \
        == f8.slots


def test_json_rejects_malformed():
    good = graph_to_dict(fixture_graph("fig1"))
    for mutate in [
        lambda d: d.pop("m"),
        lambda d: d.update(m="4"),
        lambda d: d.update(vertices={}),
        lambda d: d["vertices"][0].pop("id"),
        lambda d: d["edges"][0].update(src=["sideways", 1]),
        lambda d: d["edges"][0].update(src=["input", "1"]),
        lambda d: d["edges"][0].update(dst=["vin", 1]),
        lambda d: d["edges"].append({"src": ["input", 1]}),
        lambda d: d.update(m=True),
        lambda d: d["vertices"][0].update(out=False),
        lambda d: d["edges"][0].update(src=["input", True]),
    ]:
        d = json.loads(to_json_text(good))
        mutate(d)
        with pytest.raises(FormatError):
            graph_from_dict(d)
    with pytest.raises(FormatError):
        graph_from_dict([1, 2, 3])


def test_make_graph_rejects_booleans():
    # True == 1, so a graph holding True would share its int twin's
    # canonical key while its hash, taken of the key's text, differs
    edges = [(("input", 1), ("vin", 1, 1)), (("vout", 1, 1), ("output", 1))]
    make_graph(1, 1, [(1, 1, 1)], edges)
    for m, vertices, edges_ in [
        (True, [(1, 1, 1)], edges),
        (1, [(1, True, 1)], edges),
        (1, [Vertex(1, 1, True)], edges),
        (1, [(1, 1, 1)], [(("input", True), ("vin", 1, 1)), edges[1]]),
        (1, [(1, 1, 1)], [edges[0], (("vout", 1, True), ("output", 1))]),
    ]:
        with pytest.raises(GraphError, match="must be integers"):
            make_graph(m, 1, vertices, edges_)


def test_vertex_free_graph_round_trip():
    g = permute_outputs(identity(4), (2, 4, 1, 3))
    parsed, _ = graph_from_dict(json.loads(to_json_text(graph_to_dict(g))))
    assert parsed == g
