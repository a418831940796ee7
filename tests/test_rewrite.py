"""Merge rewriting on mixed graphs: soundness, irreducibility, and the
failure of confluence."""

from __future__ import annotations

import json
import random
import sys

import pytest

from propcalc import rewrite
from propcalc.canonical import (canonical_key, canonical_order, canonicalize,
                                enumerate_graphs)
from propcalc.freeprop import (PropElement, Signature, combine_signatures,
                               corolla, pelem_hcompose, pelem_permute_inputs,
                               pelem_permute_outputs, pelem_vcompose)
from propcalc.graphs import (FormatError, GraphError, LimitError,
                             graph_from_dict, to_json_text)
from propcalc.rewrite import (MixedGraph, _exhaustive, collapse, expand_all,
                              merge, mergeable, mergeable_pairs,
                              mixed_from_dict, mixed_to_dict,
                              non_confluence_witness)

from _fixtures import fixture_dict, fixture_graph
from _oracles import brute_force_collapse, unary_chain


def the_remark() -> MixedGraph:
    return mixed_from_dict(fixture_dict("remark-witness"))


def remark_labels() -> dict[int, str]:
    """The name on each vertex of the remark fixture, atoms included."""
    _, extras = graph_from_dict(fixture_dict("remark-witness"))
    return {vid: ex["label"] for vid, ex in extras.items()}


# ---------------------------------------------------------------------------
# construction and validation

def test_mixed_build_validates():
    g = the_remark()
    with pytest.raises(GraphError):
        MixedGraph.build(g.graph, g.atoms, g.msig, g.p_labels, {})
    with pytest.raises(GraphError):
        MixedGraph.build(g.graph, g.atoms, g.msig,
                         g.p_labels | {1: corolla(g.atoms, "p")},
                         g.m_labels)
    clash = Signature([("p", 1, 1)])
    with pytest.raises(GraphError):
        MixedGraph.build(g.graph, g.atoms, clash, g.p_labels, g.m_labels)
    wide = pelem_hcompose(corolla(g.atoms, "p"), corolla(g.atoms, "q1"))
    with pytest.raises(GraphError):
        MixedGraph.build(g.graph, g.atoms, g.msig,
                         g.p_labels | {2: wide}, g.m_labels)
    foreign = corolla(Signature([("z", 1, 1)]), "z")
    with pytest.raises(GraphError):
        MixedGraph.build(g.graph, g.atoms, g.msig,
                         g.p_labels | {2: foreign}, g.m_labels)


def test_alphabet_lookup():
    g = the_remark()
    side = {v["id"]: v["alphabet"] for v in mixed_to_dict(g)["vertices"]}
    assert side[3] == "P" and side[4] == "M"
    assert set(side) == set(g.graph.vertex_ids)


def test_mixed_equality_is_isomorphism_invariant():
    g = the_remark()
    mapping = {1: 10, 2: 20, 3: 30, 4: 40, 5: 50, 6: 60}
    from propcalc.graphs import relabel_vertices
    moved = MixedGraph.build(
        relabel_vertices(fixture_graph("remark-witness"), mapping),
        g.atoms, g.msig,
        {mapping[v]: e for v, e in g.p_labels.items()},
        {mapping[v]: s for v, s in g.m_labels.items()})
    assert moved == g and hash(moved) == hash(g)


# ---------------------------------------------------------------------------
# mergeability on the ready-made fixture

def test_remark_initial_mergeable_pairs():
    g = the_remark()
    assert mergeable(g, 3, 5)
    assert mergeable(g, 3, 2)
    assert not mergeable(g, 2, 5)
    assert {frozenset(p) for p in mergeable_pairs(g)} == \
        {frozenset({3, 2}), frozenset({3, 5})}


def test_mergeable_rejects_plain_and_repeated_vertices():
    g = the_remark()
    with pytest.raises(GraphError):
        mergeable(g, 3, 4)
    with pytest.raises(GraphError):
        mergeable(g, 1, 2)
    with pytest.raises(GraphError):
        mergeable(g, 3, 3)
    with pytest.raises(GraphError):
        merge(g, 2, 5)


def test_mergeable_on_a_chain_deeper_than_the_recursion_limit():
    r = sys.getrecursionlimit() + 100
    atoms = Signature([("p", 1, 1)])
    msig = Signature([("a", 1, 1)])
    g = MixedGraph.build(unary_chain(r), atoms, msig,
                         {1: corolla(atoms, "p"), 2: corolla(atoms, "p"),
                          3: corolla(atoms, "p")},
                         {vid: "a" for vid in range(4, r + 1)})
    assert mergeable(g, 1, 2)
    assert not mergeable(g, 1, 3)


def test_remark_merge_labels_and_blocking():
    g = the_remark()
    after_q2 = merge(g, 3, 5)
    after_q1 = merge(g, 3, 2)
    w2 = max(after_q2.graph.vertex_ids)
    w1 = max(after_q1.graph.vertex_ids)
    assert after_q2.p_labels[w2] == \
        pelem_hcompose(corolla(g.atoms, "p"), corolla(g.atoms, "q2"))
    assert after_q1.p_labels[w1] == \
        pelem_hcompose(corolla(g.atoms, "p"), corolla(g.atoms, "q1"))
    # the one merge eats the other: a path through a plain vertex appears
    assert mergeable_pairs(after_q2) == []
    assert mergeable_pairs(after_q1) == []
    assert after_q2 != after_q1


def test_merge_argument_order_is_a_boundary_permutation():
    # swapping the arguments lists v's ports first; the two results carry
    # swap-related labels and the same expansion
    g = the_remark()
    a = merge(g, 3, 5)
    b = merge(g, 5, 3)
    wa, wb = max(a.graph.vertex_ids), max(b.graph.vertex_ids)
    swapped = pelem_permute_inputs(
        pelem_permute_outputs(a.p_labels[wa], (2, 1)), (2, 1))
    assert b.p_labels[wb] == swapped
    assert a.p_labels[wa] != b.p_labels[wb]
    assert expand_all(a) == expand_all(b)


# ---------------------------------------------------------------------------
# collapse

def test_remark_has_exactly_two_irreducible_forms():
    g = the_remark()
    forms = collapse(g, "exhaustive")
    assert len(forms) == 2
    assert forms[0] != forms[1]
    assert expand_all(forms[0]) == expand_all(forms[1]) == expand_all(g)
    assert collapse(g) in forms


def test_all_plain_graph_is_already_irreducible():
    atoms = Signature([])
    msig = Signature([("x0", 0, 2), ("q1", 1, 1), ("p", 1, 1),
                      ("x1", 1, 1), ("q2", 1, 1), ("x2", 2, 0)])
    g = MixedGraph.build(fixture_graph("remark-witness"), atoms, msig, {},
                         remark_labels())
    assert collapse(g) == g
    assert collapse(g, "exhaustive") == [g]


def test_exhaustive_collapse_stops_at_the_state_cap():
    g = the_remark()
    with pytest.raises(LimitError,
                       match=r"exceeded the cap of 1 states "
                       r"\(max_states, --max-states\)"):
        collapse(g, "exhaustive", max_states=1)
    # the start state and its two children fit under a cap of 3
    assert len(collapse(g, "exhaustive", max_states=3)) == 2


def test_collapse_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        collapse(the_remark(), "fastest")


def test_three_chain_collapses_the_same_under_every_order():
    atoms = Signature([("a", 1, 1)])
    ng = next(iter(enumerate_graphs([(1, 1)] * 3, 1, 1)))
    g = MixedGraph.build(ng.graph, atoms, Signature([]),
                         {vid: corolla(atoms, "a")
                          for vid in ng.graph.vertex_ids}, {})
    forms = collapse(g, "exhaustive")
    assert len(forms) == 1
    only = forms[0]
    assert len(only.graph.vertices) == 1
    assert collapse(g) == only
    # replay both two-step merge orders by hand
    pairs = mergeable_pairs(g)
    finals = set()
    for first in pairs:
        step = merge(g, *first)
        nxt = mergeable_pairs(step)
        assert len(nxt) == 1
        finals.add(merge(step, *nxt[0]))
    assert finals == {only}


def _random_tree(rng: random.Random, atoms: Signature,
                 budget: int) -> PropElement:
    # a (0,1)-shaped composite: leaves are sources, nodes fan two
    # subtrees into a joiner, with optional unary passes
    if budget <= 1 or rng.random() < 0.3:
        t = corolla(atoms, "leaf")
    else:
        left = _random_tree(rng, atoms, budget // 2)
        right = _random_tree(rng, atoms, budget // 2)
        t = pelem_vcompose(pelem_hcompose(left, right),
                           corolla(atoms, "join"))
    if rng.random() < 0.3:
        t = pelem_vcompose(t, corolla(atoms, "pass"))
    return t


def test_tree_like_composites_collapse_uniquely():
    atoms = Signature([("leaf", 0, 1), ("join", 2, 1), ("pass", 1, 1)])
    rng = random.Random(43)
    seen_nontrivial = 0
    for _ in range(25):
        t = _random_tree(rng, atoms, 5)
        while len(t.graph.vertices) > 7:
            t = _random_tree(rng, atoms, 5)
        g = MixedGraph.build(t.graph, atoms, Signature([]),
                             {vid: corolla(atoms, name)
                              for vid, name in t.labels.items()}, {})
        forms = collapse(g, "exhaustive")
        assert len(forms) == 1
        only = forms[0]
        assert len(only.graph.vertices) == 1
        root = only.graph.vertex_ids[0]
        assert only.p_labels[root] == t
        if len(t.graph.vertices) >= 3:
            seen_nontrivial += 1
    assert seen_nontrivial >= 5


# ---------------------------------------------------------------------------
# soundness of the rewrite

MENU = [(1, 1), (2, 1), (1, 2), (0, 1), (1, 0)]
ATOMS = Signature([(f"a{a}x{b}", a, b) for a, b in MENU])
MSIG = Signature([(f"g{a}x{b}", a, b) for a, b in MENU])


def _random_mixed(rng: random.Random, cache: dict) -> MixedGraph | None:
    r = rng.randint(2, 4)
    profile = tuple(rng.choice(MENU) for _ in range(r))
    m, n = rng.choice([(0, 0), (1, 1), (0, 1)])
    if m + sum(b for _, b in profile) != n + sum(a for a, _ in profile):
        return None
    key = (profile, m, n)
    if key not in cache:
        cache[key] = list(enumerate_graphs(list(profile), m, n))
    if not cache[key]:
        return None
    graph = rng.choice(cache[key]).graph
    k = rng.randint(2, r)
    subset = set(rng.sample(range(1, r + 1), k))
    p_labels = {}
    for vid in subset:
        a, b = profile[vid - 1]
        e = corolla(ATOMS, f"a{a}x{b}")
        if (a, b) == (1, 1) and rng.random() < 0.25:
            e = pelem_vcompose(corolla(ATOMS, "a1x1"), e)
        p_labels[vid] = e
    m_labels = {vid: f"g{profile[vid - 1][0]}x{profile[vid - 1][1]}"
                for vid in range(1, r + 1) if vid not in subset}
    return MixedGraph.build(graph, ATOMS, MSIG, p_labels, m_labels)


def test_merge_preserves_the_expansion_500_cases():
    rng = random.Random(47)
    cache: dict = {}
    merged = 0
    attempts = 0
    while merged < 500:
        attempts += 1
        assert attempts < 20000
        g = _random_mixed(rng, cache)
        if g is None:
            continue
        pairs = mergeable_pairs(g)
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        assert expand_all(merge(g, u, v)) == expand_all(g)
        merged += 1


def test_collapse_outputs_are_irreducible_and_sound():
    rng = random.Random(53)
    cache: dict = {}
    done = 0
    while done < 40:
        g = _random_mixed(rng, cache)
        if g is None or not mergeable_pairs(g):
            continue
        want = expand_all(g)
        for form in collapse(g, "exhaustive"):
            assert mergeable_pairs(form) == []
            assert expand_all(form) == want
        assert mergeable_pairs(collapse(g)) == []
        done += 1


def _same_as_the_oracle(g: MixedGraph) -> None:
    forms, seqs = brute_force_collapse(g)
    assert [f.key for f in collapse(g, "exhaustive")] == \
        [f.key for f in forms]
    got_forms, got_seqs = _exhaustive(g)
    assert [f.key for f in got_forms] == [f.key for f in forms]
    assert got_seqs == seqs


def test_exhaustive_collapse_matches_the_oracle():
    _same_as_the_oracle(the_remark())
    rng = random.Random(59)
    cache: dict = {}
    done = 0
    while done < 40:
        g = _random_mixed(rng, cache)
        if g is None or not mergeable_pairs(g):
            continue
        _same_as_the_oracle(g)
        done += 1


def test_port_free_blocks_match_the_oracle():
    # blocks that keep no port differ only in the vertices they hold
    atoms = Signature([("o", 0, 0), ("cup", 0, 2), ("cap", 2, 0)])
    names = {(0, 0): "o", (0, 2): "cup", (2, 0): "cap"}
    hosts = [ng.graph for profile in ([(0, 0)] * 3,
                                      [(0, 2), (2, 0)] * 2,
                                      [(0, 2), (2, 0), (0, 0)])
             for ng in enumerate_graphs(profile, 0, 0, upto_iso=True)]
    for host in hosts:
        g = MixedGraph.build(host, atoms, Signature([]),
                             {v.id: corolla(atoms, names[(v.n_in, v.n_out)])
                              for v in host.vertices}, {})
        _same_as_the_oracle(g)
        assert len(collapse(g, "exhaustive")) == 1


@pytest.mark.parametrize("r, merges", [(3, 3), (4, 7)])
def test_commuting_merges_are_built_once(monkeypatch, r, merges):
    # on a chain, merging disjoint pairs in either order meets in one
    # state, which is built only the first time
    atoms = Signature([("a", 1, 1)])
    g = MixedGraph.build(unary_chain(r), atoms, Signature([]),
                         {v: corolla(atoms, "a") for v in range(1, r + 1)},
                         {})
    calls = []
    real = rewrite._splice

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rewrite, "_splice", counting)
    assert len(collapse(g, "exhaustive")) == 1
    assert len(calls) == merges


def test_exhaustive_collapse_builds_graphs_only_for_its_forms(monkeypatch):
    # search states stay port maps and merged labels are expanded from
    # host parts: the only graphs built are the returned forms
    atoms = Signature([("a", 1, 1)])
    chain = MixedGraph.build(unary_chain(4), atoms, Signature([]),
                             {v: corolla(atoms, "a") for v in range(1, 5)},
                             {})
    built, hosts = [], []
    real_graph, real_label = rewrite.Graph, rewrite._fused_label

    def counting_graph(*args):
        built.append(real_graph(*args))
        return built[-1]

    def counting_label(*args):
        hosts.append(args)
        return real_label(*args)

    monkeypatch.setattr(rewrite, "Graph", counting_graph)
    monkeypatch.setattr(rewrite, "_fused_label", counting_label)
    for g in (chain, the_remark()):
        built.clear()
        hosts.clear()
        forms = collapse(g, "exhaustive")
        assert hosts
        assert len(built) == len(forms)
        assert all(any(f.graph is x for x in built) for f in forms)


def test_merged_labels_and_expansions_build_no_graph():
    # merged labels and expansions are made from their keys alone, and
    # a graph read later is the graph of a fresh canonical form
    rng = random.Random(59)
    cache: dict = {}
    hosts = [the_remark()]
    while len(hosts) < 31:
        g = _random_mixed(rng, cache)
        if g is not None and mergeable_pairs(g):
            hosts.append(g)
    for g in hosts:
        forms = collapse(g, "exhaustive")
        made = [expand_all(f) for f in forms]
        made += [e for f in forms for vid, e in f.p_labels.items()
                 if vid not in g.p_labels]
        assert len(made) > len(forms)
        assert not any("graph" in vars(e) for e in made)
        for e in made:
            cf = canonicalize(e.graph, e.labels)
            assert (e.graph, e.labels, e.key) == (cf.graph, cf.labels, cf.key)


def _merge_states(g: MixedGraph, monkeypatch) -> list[MixedGraph]:
    """Every state the exhaustive search builds, as it builds them:
    through `_splice`, with its label memo and its shape test, each made
    a `MixedGraph` from its spliced port map."""
    states = {g.key[0]: g}
    real = rewrite._splice

    def recording(*args):
        child = real(*args)
        states.setdefault(child.key, rewrite._mixed(g, child))
        return child

    monkeypatch.setattr(rewrite, "_splice", recording)
    _exhaustive(g)
    monkeypatch.undo()
    return list(states.values())


def _same_as_checked(state: MixedGraph) -> None:
    # the labels as the canonical layer would render them itself
    raw = {vid: ("P", e.key) for vid, e in state.p_labels.items()}
    raw.update((vid, ("M", name)) for vid, name in state.m_labels.items())
    order = canonical_order(state.graph, raw)
    assert list(state.order) == order
    assert state.key[0] == canonical_key(state.graph, raw)
    pos = {vid: i for i, vid in enumerate(order)}
    pairs = mergeable_pairs(state)
    assert all(pos[a] < pos[b] for a, b in pairs)
    assert pairs == sorted(pairs, key=lambda p: (pos[p[0]], pos[p[1]]))
    # the checked path: check, the label checks, the key
    again = MixedGraph.build(state.graph, state.atoms, state.msig,
                             state.p_labels, state.m_labels)
    assert again.key == state.key
    for e in state.p_labels.values():
        assert PropElement.build(e.graph, e.labels, state.atoms).key == e.key
    whole = expand_all(state)
    sig = combine_signatures(state.atoms, state.msig)
    assert PropElement.build(whole.graph, whole.labels, sig).key == whole.key


def test_merge_states_match_the_checked_path(monkeypatch):
    # merged states, merged labels and expansions skip the checks
    for state in _merge_states(the_remark(), monkeypatch):
        _same_as_checked(state)
    rng = random.Random(61)
    cache: dict = {}
    done = 0
    while done < 60:
        g = _random_mixed(rng, cache)
        if g is None or not mergeable_pairs(g):
            continue
        for state in _merge_states(g, monkeypatch):
            _same_as_checked(state)
        done += 1


def test_expand_all_of_plain_graph_is_the_element_itself():
    graph, labels = fixture_graph("remark-witness"), remark_labels()
    msig = Signature([("x0", 0, 2), ("q1", 1, 1), ("p", 1, 1),
                      ("x1", 1, 1), ("q2", 1, 1), ("x2", 2, 0)])
    g = MixedGraph.build(graph, Signature([]), msig, {}, labels)
    assert expand_all(g) == PropElement.build(graph, labels)


# ---------------------------------------------------------------------------
# the witness search

def test_witness_search_finds_a_small_example():
    hit = non_confluence_witness(max_vertices=6)
    assert hit is not None
    g = hit["graph"]
    assert len(g.graph.vertices) <= 6
    forms, seqs = hit["forms"], hit["sequences"]
    assert len(forms) >= 2
    assert len({f.key for f in forms}) == len(forms)
    assert len({expand_all(f) for f in forms}) == 1
    # the reported merge orders really reach the first two forms
    for seq, want in zip(seqs, forms[:2]):
        cur = g
        for u, v in seq:
            cur = merge(cur, u, v)
        assert cur == want


def test_witness_search_needs_three_composites():
    assert non_confluence_witness(max_vertices=6, max_p=2) is None


# ---------------------------------------------------------------------------
# JSON form

def test_mixed_json_round_trip():
    g = the_remark()
    merged = merge(g, 3, 5)  # nested composite label in the JSON
    for mg in (g, merged):
        d = json.loads(to_json_text(mixed_to_dict(mg)))
        assert mixed_from_dict(d) == mg


def test_mixed_json_rejects_malformed_input():
    base = mixed_to_dict(the_remark())
    missing = dict(base)
    del missing["atoms"]
    bad_alpha = json.loads(json.dumps(base))
    bad_alpha["vertices"][0]["alphabet"] = "Q"
    no_alpha = json.loads(json.dumps(base))
    del no_alpha["vertices"][0]["alphabet"]
    bad_gen = json.loads(json.dumps(base))
    for v in bad_gen["vertices"]:
        if v["alphabet"] == "M":
            v["label"] = "nope"
            break
    bad_atom = json.loads(json.dumps(base))
    for v in bad_atom["vertices"]:
        if v["alphabet"] == "P":
            v["label"] = "nope"
            break
    for d in (missing, bad_alpha, no_alpha, bad_gen, bad_atom, []):
        with pytest.raises(FormatError):
            mixed_from_dict(d)
