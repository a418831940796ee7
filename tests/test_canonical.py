"""Canonical order, isomorphism, hashing, enumeration, free renumbering."""

from __future__ import annotations

import gc
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from propcalc.canonical import (CanonicalForm, NumberedGraph,
                                UnreachableVertexError, canonical_key,
                                canonical_order, canonicalize,
                                count_graphs, distinct, enumerate_graphs,
                                graph_hash, is_isomorphic, skeletons,
                                _key_hash, _path_order, _render)
from propcalc.freeprop import partial_from_dict
from propcalc.graphs import (Edge, GraphError, LimitError, Vertex,
                             graph_from_dict, identity, make_graph,
                             permute_inputs, port_map, relabel_vertices)

from _fixtures import FIXDIR, fixture_dict, fixture_graph, fixture_path
from _oracles import (brute_force_graphs, brute_force_isomorphic,
                      brute_force_nontrivial_automorphism, free_action_check,
                      input_path_labels, unary_chain)

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# path labels and orders

def input_path_order(g):
    return _path_order(port_map(g), g.m, "input")


def output_path_order(g):
    return _path_order(port_map(g), g.m, "output")


def test_path_labels_running_example():
    labels = input_path_labels(fixture_graph("fig7"))
    assert labels == {
        1: (1, 1),
        4: (1, 1, 1, 1),
        2: (2, 1),
        5: (2, 1, 3, 1),
        3: (2, 1, 4, 1),
    }


def test_canonical_order_running_example():
    assert input_path_order(fixture_graph("fig7")) == [1, 4, 2, 5, 3]
    assert canonical_order(fixture_graph("fig7")) == [1, 4, 2, 5, 3]


def test_identity_has_empty_order():
    assert input_path_order(identity(3)) == []
    assert canonical_order(identity(0)) == []


def test_zero_input_vertex_is_unreachable():
    g = make_graph(0, 1, [(1, 0, 1)], [(("vout", 1, 1), ("output", 1))])
    with pytest.raises(UnreachableVertexError):
        input_path_order(g)
    # the mirrored order still applies: the vertex reaches the output
    assert output_path_order(g) == [1]
    assert canonical_order(g) == [1]


def test_order_is_relabel_invariant():
    g = fixture_graph("fig7")
    mapping = {1: 30, 2: 10, 3: 50, 4: 20, 5: 40}
    h = relabel_vertices(g, mapping)
    assert input_path_order(h) == [mapping[v] for v in input_path_order(g)]


def test_order_is_the_minimal_path_label_order():
    # every vertex has an input, so every vertex is reachable; a vertex
    # with two unseen children below a root first occurs at r = 4
    windows = [([(1, 1), (1, 2), (2, 1), (2, 2), (1, 0), (2, 0)],
                range(4), (1, 2)),
               ([(1, 1), (1, 2), (2, 1), (1, 0)], (4,), (1,))]
    checked = 0
    for menu, sizes, inputs in windows:
        for r in sizes:
            for profile in itertools.combinations_with_replacement(menu, r):
                for m in inputs:
                    n = m + sum(b for _, b in profile) \
                        - sum(a for a, _ in profile)
                    if n < 0:
                        continue
                    for ng in enumerate_graphs(list(profile), m, n):
                        labels = input_path_labels(ng.graph)
                        assert input_path_order(ng.graph) == \
                            sorted(labels, key=labels.__getitem__)
                        checked += 1
    assert checked == 73032


def test_order_of_a_deep_chain():
    r = 3000
    assert input_path_order(unary_chain(r)) == list(range(1, r + 1))


def test_unreachable_vertices_are_listed_sorted():
    # 9 -> 4 hangs off no input; 2 is fed by input 1
    g = make_graph(1, 2, [(9, 0, 1), (4, 1, 1), (2, 1, 1)],
                   [(("input", 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("output", 1)),
                    (("vout", 9, 1), ("vin", 4, 1)),
                    (("vout", 4, 1), ("output", 2))])
    with pytest.raises(UnreachableVertexError) as by_labels:
        input_path_labels(g)
    with pytest.raises(UnreachableVertexError) as by_order:
        input_path_order(g)
    assert by_order.value.vertices == by_labels.value.vertices == [4, 9]


def test_vertices_that_reach_no_output_are_listed_sorted():
    # input 2 -> 4 -> 9 ends in a vertex with no output; 2 feeds output 1
    g = make_graph(2, 1, [(9, 1, 0), (4, 1, 1), (2, 1, 1)],
                   [(("input", 1), ("vin", 2, 1)),
                    (("vout", 2, 1), ("output", 1)),
                    (("input", 2), ("vin", 4, 1)),
                    (("vout", 4, 1), ("vin", 9, 1))])
    with pytest.raises(UnreachableVertexError) as err:
        output_path_order(g)
    assert err.value.vertices == [4, 9]
    assert str(err.value) == "vertices unreachable from graph outputs: [4, 9]"


# ---------------------------------------------------------------------------
# canonical forms

def test_canonicalize_idempotent():
    cf = canonicalize(fixture_graph("fig1"))
    again = canonicalize(cf.graph, cf.labels)
    assert again == cf
    assert again.order == tuple(range(1, len(cf.graph.vertices) + 1))


def test_relabel_gives_same_form():
    g = fixture_graph("fig1")
    h = relabel_vertices(g, {1: 7, 2: 3, 3: 11, 4: 2, 5: 9})
    assert canonicalize(g) == canonicalize(h)
    assert is_isomorphic(g, h)
    assert graph_hash(g) == graph_hash(h)
    assert canonicalize(g).graph == canonicalize(h).graph


def test_chain_and_parallel_pair_differ():
    chain = make_graph(2, 2, [(1, 1, 1), (2, 1, 1)],
                       [(("input", 1), ("vin", 1, 1)),
                        (("vout", 1, 1), ("vin", 2, 1)),
                        (("vout", 2, 1), ("output", 1)),
                        (("input", 2), ("output", 2))])
    parallel = make_graph(2, 2, [(1, 1, 1), (2, 1, 1)],
                          [(("input", 1), ("vin", 1, 1)),
                           (("vout", 1, 1), ("output", 1)),
                           (("input", 2), ("vin", 2, 1)),
                           (("vout", 2, 1), ("output", 2))])
    assert not is_isomorphic(chain, parallel)
    assert not brute_force_isomorphic(chain, parallel)
    assert graph_hash(chain) != graph_hash(parallel)


def test_iso_fixes_boundary_labels():
    g = fixture_graph("fig1")
    twisted = permute_inputs(g, (2, 1, 3, 4))
    assert is_isomorphic(g, g)
    assert not is_isomorphic(g, twisted)
    assert not brute_force_isomorphic(g, twisted)


def test_labels_participate_in_isomorphism():
    f8 = partial_from_dict(fixture_dict("fig8"))
    g, labels = f8.graph, f8.labels
    changed = dict(labels)
    changed[2] = "other"
    assert is_isomorphic(g, g, labels, labels)
    assert not is_isomorphic(g, g, labels, changed)
    assert not is_isomorphic(g, g, labels, None)
    assert brute_force_isomorphic(g, g, labels, labels)
    assert not brute_force_isomorphic(g, g, labels, changed)


def test_fallback_handles_boundaryless_graphs():
    # neither boundary reaches these, so the serialization search kicks in
    loops = make_graph(0, 0, [(1, 0, 1), (2, 1, 0), (3, 0, 1), (4, 1, 0)],
                       [(("vout", 1, 1), ("vin", 2, 1)),
                        (("vout", 3, 1), ("vin", 4, 1))])
    relabeled = relabel_vertices(loops, {1: 3, 2: 4, 3: 1, 4: 2})
    assert is_isomorphic(loops, relabeled)
    assert brute_force_isomorphic(loops, relabeled)

    straight = make_graph(0, 0, [(1, 0, 2), (2, 2, 0)],
                          [(("vout", 1, 1), ("vin", 2, 1)),
                           (("vout", 1, 2), ("vin", 2, 2))])
    crossed = make_graph(0, 0, [(1, 0, 2), (2, 2, 0)],
                         [(("vout", 1, 1), ("vin", 2, 2)),
                          (("vout", 1, 2), ("vin", 2, 1))])
    assert is_isomorphic(straight, straight)
    assert not is_isomorphic(straight, crossed)
    assert not brute_force_isomorphic(straight, crossed)


def test_traversal_handles_ten_isolated_vertices():
    # ten vertices in one colour class: beyond any search over orders
    g = make_graph(0, 0, [(i, 0, 0) for i in range(1, 11)], [])
    h = relabel_vertices(g, {i: 11 - i for i in range(1, 11)})
    assert canonicalize(g) == canonicalize(h)
    assert graph_hash(g) == graph_hash(h)


def test_traversal_handles_ten_closed_pairs():
    pairs = make_graph(0, 0,
                       [(2 * i - 1, 0, 1) for i in range(1, 11)]
                       + [(2 * i, 1, 0) for i in range(1, 11)],
                       [(("vout", 2 * i - 1, 1), ("vin", 2 * i, 1))
                        for i in range(1, 11)])
    shuffled = list(range(1, 21))
    shuffled = shuffled[7:] + shuffled[:7]
    h = relabel_vertices(pairs, dict(zip(range(1, 21), shuffled)))
    assert canonicalize(pairs) == canonicalize(h)
    assert graph_hash(pairs) == graph_hash(h)
    assert canonicalize(pairs).graph == canonicalize(h).graph


def test_closed_components_are_sorted_by_key():
    # a (0,1)->(1,0) pair and a (0,2)=>(2,0) pair, numbered both ways
    single = [(("vout", 1, 1), ("vin", 2, 1))]
    double = [(("vout", 3, 1), ("vin", 4, 1)), (("vout", 3, 2), ("vin", 4, 2))]
    g = make_graph(0, 0, [(1, 0, 1), (2, 1, 0), (3, 0, 2), (4, 2, 0)],
                   single + double)
    h = relabel_vertices(g, {1: 3, 2: 4, 3: 1, 4: 2})
    assert canonicalize(g).key == canonicalize(h).key
    assert canonicalize(g).graph == canonicalize(h).graph
    assert brute_force_isomorphic(g, h)


def test_library_iso_agrees_with_brute_force():
    profiles = [
        ([(1, 1), (1, 1)], 1, 1),
        ([(1, 2), (2, 1)], 1, 1),
        ([(1, 2), (1, 1)], 1, 2),
        ([(2, 1), (1, 2)], 2, 2),
    ]
    for arities, m, n in profiles:
        graphs = [ng.graph for ng in enumerate_graphs(arities, m, n)]
        assert graphs, (arities, m, n)
        for g, h in itertools.combinations(graphs[:12], 2):
            assert is_isomorphic(g, h) == brute_force_isomorphic(g, h)


def test_hash_has_no_collisions_on_small_families():
    seen: dict[int, tuple] = {}
    profiles = [
        ([(1, 1)], 1, 1),
        ([(1, 1), (1, 1)], 1, 1),
        ([(1, 1), (1, 1)], 2, 2),
        ([(1, 2), (2, 1)], 1, 1),
        ([(1, 2), (1, 1), (1, 1), (2, 1)], 1, 1),
        ([(2, 2), (1, 1)], 2, 2),
    ]
    for arities, m, n in profiles:
        for ng in enumerate_graphs(arities, m, n):
            cf = canonicalize(ng.graph)
            digest = graph_hash(ng.graph)
            if digest in seen:
                assert seen[digest] == cf.key
            seen[digest] = cf.key
    assert len(seen) > 10


# graph_hash of the fig7 fixture; the digest is fixed-width and little-endian,
# so it holds in every process and on every machine
FIG7_HASH = 6483979142243912551


def test_graph_hash_is_pinned_across_processes():
    assert graph_hash(fixture_graph("fig7")) == FIG7_HASH
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import json, sys\n"
              "from propcalc.canonical import graph_hash\n"
              "from propcalc.graphs import graph_from_dict\n"
              "with open(sys.argv[1], encoding='utf-8') as f:\n"
              "    print(graph_hash(graph_from_dict(json.load(f))[0]))\n")
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, "-c", script,
                               str(fixture_path("fig7"))], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == FIG7_HASH, seed


def _fixture_graphs(d: dict):
    """(graph, labels or None) for every graph object in a fixture."""
    if "vertices" in d:
        graph, extras = graph_from_dict(d)
        labels = {vid: ex["label"] for vid, ex in extras.items()
                  if "label" in ex}
        yield graph, labels or None
        return
    for sub in d.values():
        if isinstance(sub, dict):
            yield from _fixture_graphs(sub)


def test_form_digest_is_the_graph_hash_on_every_fixture():
    count = 0
    for name in sorted(p.stem for p in FIXDIR.glob("*.json")):
        for graph, labels in _fixture_graphs(fixture_dict(name)):
            for lab in (None, labels) if labels else (None,):
                cf = canonicalize(graph, lab)
                assert cf.digest == graph_hash(graph, lab), name
                count += 1
    assert count >= 15


def test_key_hash_encoding_is_injective_on_near_misses():
    def key(texts, edges=()):
        return (0, 0, tuple((0, 0, text) for text in texts), tuple(edges))

    # where a text boundary falls
    assert _key_hash(key(["ab", "c"])) != _key_hash(key(["a", "bc"]))
    assert _key_hash(key(["a", ""])) != _key_hash(key(["", "a"]))
    # an edge end's port kind, with the same indices
    for one, other in ((("input", 1), ("output", 1)),
                       (("vout", 1, 1), ("vin", 1, 1))):
        assert _key_hash(key([], [(one, ("vin", 1, 1))])) \
            != _key_hash(key([], [(other, ("vin", 1, 1))]))
    # an integer past int64 cannot come from a valid graph
    with pytest.raises(GraphError, match="int64"):
        _key_hash((2 ** 63, 0, (), ()))


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_single_unary_vertex():
    found = list(enumerate_graphs([(1, 1)], 1, 1))
    assert len(found) == 1
    g = found[0].graph
    assert g == make_graph(1, 1, [(1, 1, 1)],
                           [(("input", 1), ("vin", 1, 1)),
                            (("vout", 1, 1), ("output", 1))])


def test_enumerate_two_unary_vertices():
    numbered = list(enumerate_graphs([(1, 1), (1, 1)], 1, 1))
    assert len(numbered) == 2
    assert is_isomorphic(numbered[0].graph, numbered[1].graph)
    reduced = list(enumerate_graphs([(1, 1), (1, 1)], 1, 1, upto_iso=True))
    assert len(reduced) == 1


def test_distinct_classes_are_the_first_seen_keys_of_the_numbered_stream():
    # path routes and the traversal, with repeated and distinct labels
    cases = [
        ([(1, 1), (1, 1), (1, 2), (2, 1)], 1, 1, "absj"),
        ([(1, 1), (1, 1), (1, 1)], 1, 1, "aab"),
        ([(0, 1), (1, 0), (1, 1), (1, 1)], 0, 0, "ckuu"),
        ([(0, 1), (2, 1), (1, 0), (1, 2)], 1, 1, "cjks"),
    ]
    for arities, m, n, names in cases:
        for labels in (None, dict(enumerate(names, start=1))):
            first: dict = {}
            for ng in enumerate_graphs(arities, m, n):
                first.setdefault(canonical_key(ng.graph, labels), ng.graph)
            got = [(key, sk.graph) for key, sk
                   in distinct(skeletons(arities, m, n), labels)]
            assert got == list(first.items()), (arities, labels)
            if labels is None:
                reps = [ng.graph for ng in enumerate_graphs(
                    arities, m, n, upto_iso=True)]
                assert reps == list(first.values()), arities


def test_skeleton_keys_match_canonical_keys_on_every_route():
    # each menu takes one route; every graph of it, under no labels and
    # under every labeling by two letters, keys as canonical_key does.
    # On the traversal route only graphs with a closed component have no
    # label-free order, and the menus hold graphs of both kinds.
    routes = {
        "input": [([(1, 1), (1, 1), (1, 2), (2, 1)], 1, 1),
                  ([(1, 1), (1, 1), (1, 1)], 1, 1)],
        "output": [([(0, 1), (0, 1), (2, 1)], 0, 1),
                   ([(0, 2), (1, 1), (1, 1)], 0, 2),
                   ([(0, 1), (1, 2), (2, 1)], 1, 2)],
        "traversal": [([(0, 1), (1, 0), (1, 1), (1, 1)], 0, 0),
                      ([(0, 1), (2, 1), (1, 0), (1, 2)], 1, 1)],
    }
    for route, menus in routes.items():
        free_orders = set()
        for arities, m, n in menus:
            stream = list(skeletons(arities, m, n))
            graphs = [ng.graph for ng in enumerate_graphs(arities, m, n)]
            assert graphs and [sk.graph for sk in stream] == graphs
            free_orders |= {sk.order is not None for sk in stream}
            labelings = [None] + [
                dict(enumerate(letters, start=1))
                for letters in itertools.product("xy", repeat=len(arities))]
            for labels in labelings:
                keys = [canonical_key(g, labels) for g in graphs]
                texts = _render(labels)
                assert [sk._texts_key(texts) for sk in stream] == keys
                first: dict = {}
                for key, g in zip(keys, graphs):
                    first.setdefault(key, g)
                got = [(key, sk.graph)
                       for key, sk in distinct(stream, labels)]
                assert got == list(first.items()), (arities, labels)
        assert free_orders == ({True, False} if route == "traversal"
                               else {True}), route


def test_enumerate_finds_the_diamond():
    target = fixture_graph("nonacyclic-p2")
    stream = enumerate_graphs([(1, 2), (1, 1), (1, 1), (2, 1)], 1, 1)
    assert any(ng.graph == target for ng in stream)


def test_enumerate_matches_brute_force():
    profiles = [
        ([(1, 1)], 1, 1),
        ([(1, 1), (1, 1)], 1, 1),
        ([(2, 4)], 2, 4),
        ([(1, 2), (2, 1)], 1, 1),
        ([(1, 2), (1, 1)], 1, 2),
        # every vertex has an input, so most prefixes are dead ends
        ([(1, 2), (2, 1), (1, 2), (1, 1), (1, 1)], 1, 2),
        ([(2, 1), (1, 1), (1, 2)], 2, 2),
        ([(1, 1), (1, 1)], 2, 2),
        # closed: no input to start from, so no graph at all
        ([(1, 2), (2, 1)], 0, 0),
        ([(1, 1), (1, 1), (1, 1)], 0, 0),
        # (0,k) and (k,0) vertices side by side
        ([(0, 2), (1, 1), (2, 0), (0, 1), (1, 0)], 1, 1),
        ([(0, 2), (2, 0), (1, 1), (0, 1), (1, 0)], 0, 0),
    ]
    for arities, m, n in profiles:
        ours = [ng.graph for ng in enumerate_graphs(arities, m, n)]
        assert ours == brute_force_graphs(arities, m, n), (arities, m, n)
    assert list(enumerate_graphs([(1, 2), (2, 1)], 0, 0)) == []


def test_enumerate_leaves_no_cyclic_garbage():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        next(enumerate_graphs([(1, 2), (2, 1), (1, 1)], 1, 1))
        assert len(list(enumerate_graphs([(1, 1), (1, 1)], 1, 1))) == 2
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumerate_unbalanced_profile_is_empty():
    assert list(enumerate_graphs([(1, 1)], 1, 2)) == []
    assert list(enumerate_graphs([(2, 1)], 1, 1)) == []
    # no graph exists, so the caps do not apply
    assert list(enumerate_graphs([(1, 13)] * 2, 0, 0)) == []
    assert list(enumerate_graphs([(1, 1)] * 3, 0, 1, max_vertices=2)) == []


def test_enumerate_is_deterministic():
    a = list(enumerate_graphs([(1, 2), (2, 1)], 1, 1))
    b = list(enumerate_graphs([(1, 2), (2, 1)], 1, 1))
    assert a == b


def test_enumerate_rejects_cyclic_matchings():
    # two unary vertices feeding each other is the only invalid matching
    for ng in enumerate_graphs([(1, 1), (1, 1)], 1, 1):
        boundary = port_map(ng.graph)[0]
        assert boundary[0][0] == "vin"  # the far end of input 1


def test_enumerate_caps():
    with pytest.raises(LimitError,
                       match=r"3 vertices, cap is 2 "
                       r"\(max_vertices, --max-vertices\)$"):
        list(enumerate_graphs([(1, 1)] * 3, 1, 1, max_vertices=2))
    with pytest.raises(LimitError,
                       match=r"4 edges, cap is 3 \(max_edges, --max-edges\)"):
        list(enumerate_graphs([(1, 1)] * 3, 1, 1, max_edges=3))
    assert count_graphs([(1, 1)] * 3, 1, 1, max_vertices=3) == 6


# ---------------------------------------------------------------------------
# free renumbering action

def test_free_action_running_example():
    assert free_action_check(fixture_graph("fig7"))


def test_free_action_single_vertex():
    g = make_graph(2, 4, [(1, 2, 4)],
                   [(("input", 1), ("vin", 1, 1)),
                    (("input", 2), ("vin", 1, 2))]
                   + [(("vout", 1, k), ("output", k)) for k in (1, 2, 3, 4)])
    assert free_action_check(g)


def test_free_action_requires_inputs_everywhere():
    g = fixture_graph("remark-witness")
    with pytest.raises(GraphError):
        free_action_check(g)


def test_renumber_is_right_action():
    # renumbering by w through relabel_vertices: number i goes to the
    # vertex that carried number w(i)
    def renumber(g, w):
        return relabel_vertices(g, {old: new for new, old
                                    in enumerate(w, start=1)})

    g = fixture_graph("fig7")
    w1, w2 = (2, 3, 1, 5, 4), (5, 4, 3, 2, 1)
    combined = tuple(w1[w2[i] - 1] for i in range(5))
    assert renumber(renumber(g, w1), w2) == renumber(g, combined)
    assert renumber(g, w1) != g
    assert renumber(g, (1, 2, 3, 4, 5)) == g
    with pytest.raises(GraphError, match="vertex relabeling is not injective"):
        renumber(g, (1, 1, 2, 3, 4))


def test_numbered_graph_checks_its_numbering():
    # a numbered graph is numbered by its vertex ids, 1..r in enumeration;
    # the enumeration builds its graphs unchecked, and they pass the checks
    # of make_graph
    for upto_iso in (False, True):
        for ng in enumerate_graphs([(1, 2), (2, 1), (1, 1)], 1, 1,
                                   upto_iso=upto_iso):
            assert ng == NumberedGraph(ng.graph)
            assert ng.graph.vertex_ids == (1, 2, 3)
            assert ng.graph == make_graph(ng.graph.m, ng.graph.n,
                                          ng.graph.vertices, ng.graph.edges)


def test_enumeration_and_canonicalize_build_what_their_constructors_do():
    # both are built field by field, bypassing the constructor; each
    # must be the object the constructor would give
    for ng in enumerate_graphs([(1, 2), (2, 1), (0, 1), (1, 0)], 1, 1):
        assert type(ng) is NumberedGraph
        assert ng.__dict__ == NumberedGraph(ng.graph).__dict__
        assert repr(ng) == repr(NumberedGraph(ng.graph))
        assert all(type(v) is Vertex for v in ng.graph.vertices)
        assert all(type(e) is Edge for e in ng.graph.edges)
        for labels in (None, {vid: f"x{vid % 2}"
                              for vid in ng.graph.vertex_ids}):
            cf = canonicalize(ng.graph, labels)
            built = CanonicalForm(cf.labels, cf.order, cf.key)
            assert type(cf) is CanonicalForm
            assert cf.__dict__ == built.__dict__
            assert cf == built and hash(cf) == hash(built)
            assert repr(cf) == repr(built)


def test_renumbering_moves_every_small_graph():
    profiles = [
        ([(1, 1), (1, 1)], 1, 1),
        ([(1, 2), (2, 1)], 1, 1),
        ([(1, 2), (1, 1), (2, 1)], 1, 1),
    ]
    for arities, m, n in profiles:
        for ng in enumerate_graphs(arities, m, n):
            assert free_action_check(ng.graph)
            assert not brute_force_nontrivial_automorphism(ng.graph)


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_numbered_count_counts_profile_stabilizer_orbits():
    # within one ordered profile, only permutations fixing the arity
    # sequence act, so the factor is the product of multiplicity factorials
    for arities, m, n in [
        ([(1, 1), (1, 1)], 1, 1),
        ([(1, 2), (1, 1), (1, 1), (2, 1)], 1, 1),
    ]:
        total = count_graphs(arities, m, n)
        classes = count_graphs(arities, m, n, upto_iso=True)
        factor = 1
        for arity in set(arities):
            factor *= _factorial(arities.count(arity))
        assert total == classes * factor


def test_numbered_count_over_multiset_is_factorial_times_classes():
    # summing over all distinct orderings of the arity multiset restores
    # the full r! factor
    multiset = [(1, 2), (1, 1), (1, 1), (2, 1)]
    orderings = sorted(set(itertools.permutations(multiset)))
    total = sum(count_graphs(list(p), 1, 1) for p in orderings)
    classes = count_graphs(multiset, 1, 1, upto_iso=True)
    assert total == _factorial(len(multiset)) * classes
