"""Finite-set colimits: punctured cubes, the binary decomposition of the
multifold map, reflexive-coequalizer presentations, and the filtration
square audit over envelope classes."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from propcalc import canonical
from propcalc.canonical import DEFAULT_MAX_EDGES
from propcalc.freeprop import Signature
from propcalc.graphs import GraphError, LimitError
from propcalc.pushouts import (DEFAULT_MAX_CLASSES, CubeDiagram,
                               FiniteSetMap, _envelope, _slot_roles,
                               faces_commute, filtration_square_check,
                               inclusion_map, iterated_identity_check,
                               punctured_colimit, pushout_sets,
                               quotient_classes)

from _oracles import (chain_label_count, coequalizer_sets,
                      per_combination_env_keys,
                      presentation_matches_pushout, reflexive_presentation,
                      union_formula)


def one_in_two() -> FiniteSetMap:
    return inclusion_map({"a"}, {"a", "b"})


def all_maps(src_size: int, tgt_size: int):
    """Every total function between canonical sets of the given sizes."""
    src = [f"s{i}" for i in range(src_size)]
    tgt = [f"t{j}" for j in range(tgt_size)]
    if src and not tgt:
        return
    for values in itertools.product(tgt, repeat=len(src)):
        yield FiniteSetMap.build(src, tgt, dict(zip(src, values)))


def merge_closure(items, pairs) -> list[frozenset]:
    """Naive equivalence closure: keep fusing overlapping blocks until
    stable.  Slow on purpose, independent of the union-find route."""
    blocks = [{x} for x in items]
    for a, b in pairs:
        blocks.append({a, b})
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] and blocks[j] and blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    blocks[j] = set()
                    changed = True
    return [frozenset(b) for b in blocks if b]


def random_map(rng: random.Random, tag: str) -> FiniteSetMap:
    src = [f"{tag}s{i}" for i in range(rng.randint(0, 4))]
    tgt = [f"{tag}t{j}" for j in range(rng.randint(1, 4))]
    return FiniteSetMap.build(src, tgt,
                              {x: rng.choice(tgt) for x in src})


# ---------------------------------------------------------------------------
# finite set maps

def test_map_build_validates():
    with pytest.raises(GraphError):
        FiniteSetMap.build({1, 2}, {3}, {1: 3})
    with pytest.raises(GraphError):
        FiniteSetMap.build({1}, {3}, {1: 3, 2: 3})
    with pytest.raises(GraphError):
        FiniteSetMap.build({1}, {3}, {1: 4})
    with pytest.raises(GraphError):
        inclusion_map({1, 2}, {1})


def test_map_basics():
    f = FiniteSetMap.build({1, 2}, {"x", "y"}, {1: "x", 2: "x"})
    assert f(1) == "x" and f(2) == "x"
    assert not f.is_injective()
    assert f.image() == frozenset({"x"})
    with pytest.raises(GraphError):
        f(3)
    inc = one_in_two()
    assert inc.is_injective() and inc.image() == frozenset({"a"})
    g = FiniteSetMap.build({"x", "y"}, {0}, {"x": 0, "y": 0})
    assert g.compose(f)(1) == 0
    with pytest.raises(GraphError):
        f.compose(g)


# ---------------------------------------------------------------------------
# generic quotients

def test_quotient_rejects_unknown_items():
    with pytest.raises(GraphError):
        quotient_classes([1, 2], [(1, 99)])


def test_quotient_matches_naive_closure():
    rng = random.Random(11)
    for _ in range(40):
        items = list(range(rng.randint(1, 9)))
        pairs = [(rng.choice(items), rng.choice(items))
                 for _ in range(rng.randint(0, 10))]
        got = set(quotient_classes(items, pairs))
        assert got == set(merge_closure(items, pairs))


def test_pushout_along_injection_counts():
    rng = random.Random(13)
    for _ in range(60):
        s_size = rng.randint(0, 4)
        a_size = rng.randint(s_size, s_size + 3)
        src = [f"s{i}" for i in range(s_size)]
        a_pool = [f"a{i}" for i in range(a_size)]
        t_pool = [f"t{i}" for i in range(rng.randint(1, 4))]
        u = FiniteSetMap.build(src, a_pool,
                               dict(zip(src, rng.sample(a_pool, s_size))))
        s = FiniteSetMap.build(src, t_pool,
                               {x: rng.choice(t_pool) for x in src})
        assert u.is_injective()
        classes = pushout_sets(u, s)
        assert len(classes) == a_size + len(t_pool) - s_size


def test_pushout_and_coequalizer_validate():
    u = FiniteSetMap.build({1}, {2}, {1: 2})
    s = FiniteSetMap.build({9}, {3}, {9: 3})
    with pytest.raises(GraphError):
        pushout_sets(u, s)
    with pytest.raises(GraphError):
        coequalizer_sets(u, s)


def test_reflexive_presentation_equals_pushout():
    rng = random.Random(17)
    for trial in range(50):
        src = [f"s{i}" for i in range(rng.randint(0, 4))]
        a_pool = [f"a{i}" for i in range(rng.randint(1, 4))]
        t_pool = [f"t{i}" for i in range(rng.randint(1, 4))]
        u = FiniteSetMap.build(src, a_pool,
                               {x: rng.choice(a_pool) for x in src})
        s = FiniteSetMap.build(src, t_pool,
                               {x: rng.choice(t_pool) for x in src})
        d0, d1, s0 = reflexive_presentation(u, s)
        for x in s0.source:
            assert d0(s0(x)) == x and d1(s0(x)) == x
        assert presentation_matches_pushout(u, s)


# ---------------------------------------------------------------------------
# cubes and punctured colimits

def test_cube_vertices_and_edges():
    cube = CubeDiagram(2, one_in_two())
    assert len(cube.vertex((0, 0))) == 1
    assert len(cube.vertex((0, 1))) == 2
    assert len(cube.vertex((1, 1))) == 4
    step = cube.edge((0, 1), 1)
    assert step(("a", "b")) == ("a", "b")
    with pytest.raises(GraphError):
        cube.edge((1, 1), 1)
    with pytest.raises(GraphError):
        cube.vertex((0, 2))
    with pytest.raises(GraphError):
        cube.vertex((0,))
    with pytest.raises(GraphError):
        CubeDiagram(-1, one_in_two())


def test_cube_faces_commute_exhaustively():
    for ks in range(3):
        for ls in range(1, 3):
            for i in all_maps(ks, ls):
                assert faces_commute(CubeDiagram(3, i))


def test_punctured_colimit_dimension_zero_is_empty():
    pc = punctured_colimit(CubeDiagram(0, one_in_two()))
    assert pc.size == 0 and pc.lam == ()


def test_punctured_colimit_dimension_one_is_the_source():
    i = one_in_two()
    pc = punctured_colimit(CubeDiagram(1, i))
    assert pc.size == 1
    members = set(pc.classes[0])
    assert members == {((0,), ("a",))}
    assert pc.lam == (("a",),)


def test_small_inclusion_square():
    i = one_in_two()
    cube = CubeDiagram(2, i)
    pc = punctured_colimit(cube)
    assert pc.size == 3
    assert len(cube.vertex((1, 1))) == 4
    assert pc.lam_injective()
    assert pc.image() == {("a", "a"), ("a", "b"), ("b", "a")}


def test_union_formula_on_all_injections():
    whole = ["x", "y", "z"]
    for l_size in range(1, 4):
        pool = whole[:l_size]
        for k_size in range(l_size + 1):
            i = inclusion_map(pool[:k_size], pool)
            for n in range(1, 5):
                pc = punctured_colimit(CubeDiagram(n, i))
                want = union_formula(l_size, l_size - k_size, n)
                assert pc.size == want
                assert pc.lam_injective()
                covered = {t for t in itertools.product(pool, repeat=n)
                           if any(x in pool[:k_size] for x in t)}
                assert pc.image() == covered


def test_noninjective_colimit_matches_naive_closure():
    for ks in range(1, 3):
        for ls in range(1, 3):
            for i in all_maps(ks, ls):
                for n in (1, 2):
                    cube = CubeDiagram(n, i)
                    eps_list = [e for e in itertools.product((0, 1), repeat=n)
                                if 0 in e]
                    items = [(e, t) for e in eps_list
                             for t in cube.vertex(e)]
                    pairs = []
                    for e in eps_list:
                        for j, bit in enumerate(e, start=1):
                            lifted = e[:j - 1] + (1,) + e[j:]
                            if bit != 0 or 0 not in lifted:
                                continue
                            step = cube.edge(e, j)
                            pairs += [((e, t), (lifted, step(t)))
                                      for t in cube.vertex(e)]
                    naive = merge_closure(items, pairs)
                    assert punctured_colimit(cube).size == len(naive)


def test_lam_injectivity_tracks_the_map():
    # for a fixed dimension the backward direction can fail: a collapsed
    # colimit may be a singleton, so the n = 1 stage is what detects a
    # non-injective map
    squash = FiniteSetMap.build({"p", "q"}, {"z"}, {"p": "z", "q": "z"})
    pc2 = punctured_colimit(CubeDiagram(2, squash))
    assert pc2.size == 1 and pc2.lam_injective()
    assert not squash.is_injective()
    for ks in range(4):
        for ls in range(4):
            for i in all_maps(ks, ls):
                per_n = [punctured_colimit(CubeDiagram(n, i)).lam_injective()
                         for n in (1, 2, 3)]
                if i.is_injective():
                    assert all(per_n)
                else:
                    assert not all(per_n)
                    assert not per_n[0]


# ---------------------------------------------------------------------------
# binary decomposition of the multifold map

def test_decomposition_on_the_small_inclusion():
    i = one_in_two()
    pc = punctured_colimit(CubeDiagram(2, i))
    assert pc.size == 3
    assert iterated_identity_check(i, pc)


def test_decomposition_sizes_from_the_union_formula():
    i = inclusion_map({"x", "y"}, {"x", "y", "z"})
    pc = punctured_colimit(CubeDiagram(4, i))
    assert pc.size == union_formula(3, 1, 4) == 80
    assert iterated_identity_check(i, pc)


def test_decomposition_when_the_map_is_an_isomorphism():
    i = inclusion_map({"a", "b"}, {"a", "b"})
    for n in (2, 3):
        pc = punctured_colimit(CubeDiagram(n, i))
        assert pc.size == 2 ** n
        assert pc.lam_injective()
        assert pc.image() == set(itertools.product(["a", "b"], repeat=n))
        assert iterated_identity_check(i, pc)


def test_decomposition_holds_for_arbitrary_maps():
    for ks in range(3):
        for ls in range(1, 3):
            for i in all_maps(ks, ls):
                for n in (2, 3):
                    assert iterated_identity_check(
                        i, punctured_colimit(CubeDiagram(n, i)))
    i = one_in_two()
    with pytest.raises(ValueError):
        iterated_identity_check(i, punctured_colimit(CubeDiagram(1, i)))


# ---------------------------------------------------------------------------
# filtration squares over envelope classes

def chain_setup():
    return (Signature([]), Signature([("l", 1, 1)]),
            Signature([("o", 1, 1)]))


def test_filtration_chain_counts():
    sig_k, sig_l, base = chain_setup()
    rep = filtration_square_check(sig_k, sig_l, base, 1, 1, max_degree=2,
                                  max_vertices=4, slots=False)
    assert rep["all_ok"]
    for row in rep["degrees"]:
        q = row["degree"]
        assert row["V"] == sum(chain_label_count(r, q) for r in range(5))
        assert row["U"] == 0
        assert row["D"] == row["C"] + row["V_image"]
    assert rep["env_sizes"] == [5, 15, 25]


def test_filtration_identity_and_pushout_with_slots():
    sig_k = Signature([("k", 1, 1)])
    sig_l = Signature([("k", 1, 1), ("l", 1, 1)])
    base = Signature([("k", 1, 1), ("o", 2, 1)])
    rep = filtration_square_check(sig_k, sig_l, base, 1, 1, max_degree=2,
                                  max_vertices=3, max_arity=1)
    assert rep["all_ok"]
    for row in rep["degrees"]:
        assert row["square_commutes"] and row["identity"] and row["pushout"]
        assert row["D"] == row["C"] + row["V_image"] - row["U_image"]
        assert row["U_image"] <= row["lambda_image"] <= row["U"]
    assert rep["degrees"][0]["lambda_image"] == rep["degrees"][0]["U"]
    assert rep["env_sizes"] == sorted(rep["env_sizes"])


def test_filtration_identity_on_wider_generators():
    sig_k = Signature([("k", 1, 1)])
    sig_l = Signature([("k", 1, 1), ("l", 2, 1)])
    base = Signature([("k", 1, 1), ("o", 1, 2)])
    rep = filtration_square_check(sig_k, sig_l, base, 1, 1, max_degree=2,
                                  max_vertices=3, max_arity=1)
    assert rep["all_ok"]


def test_filtration_with_identical_signatures_is_bijective():
    sig_k = Signature([("k", 1, 1)])
    base = Signature([("k", 1, 1), ("o", 2, 1)])
    rep = filtration_square_check(sig_k, sig_k, base, 1, 1, max_degree=2,
                                  max_vertices=3, max_arity=1)
    assert rep["all_ok"]
    assert all(row["j_bijective"] for row in rep["degrees"])
    assert len(set(rep["env_sizes"])) == 1


def test_filtration_validates_signatures():
    uni = Signature([("k", 1, 1)])
    wide = Signature([("k", 2, 1)])
    other = Signature([("l", 1, 1)])
    with pytest.raises(GraphError):
        filtration_square_check(uni, wide, uni, 1, 1, max_degree=1)
    with pytest.raises(GraphError):
        filtration_square_check(uni, uni, other, 1, 1, max_degree=1)
    clash = Signature([("k", 1, 1), ("l", 1, 1)])
    with pytest.raises(GraphError):
        filtration_square_check(uni, clash, clash, 1, 1, max_degree=1)
    with pytest.raises(GraphError):
        filtration_square_check(uni, uni, uni, 1, 1, max_degree=0)


def test_filtration_respects_the_class_cap():
    sig_k, sig_l, base = chain_setup()
    with pytest.raises(LimitError,
                       match=r"found 4 classes, cap is 3 "
                       r"\(max_classes, --max-classes\)"):
        filtration_square_check(sig_k, sig_l, base, 1, 1, max_degree=2,
                                max_vertices=4, max_classes=3)


def env_classes(sig_k, sig_l, base, m, n, *, degree, max_vertices=4,
                max_arity=2, slots=True) -> dict:
    """The audit's envelope at `degree`, from a stream memo of its own."""
    return _envelope(sig_k, sig_l, base, m, n, {}, degree=degree,
                     max_vertices=max_vertices, max_arity=max_arity,
                     slots=slots, max_classes=DEFAULT_MAX_CLASSES)[0]


def test_env_classes_nest_and_exhaust():
    sig_k = Signature([("k", 1, 1)])
    sig_l = Signature([("k", 1, 1), ("l", 1, 1)])
    base = Signature([("k", 1, 1), ("o", 2, 1)])
    caps = dict(max_vertices=3, max_arity=1)
    stages = [set(env_classes(sig_k, sig_l, base, 1, 1, degree=d, **caps))
              for d in range(4)]
    for small, big in zip(stages, stages[1:]):
        assert small < big or small == big
    unconstrained = set(env_classes(sig_k, sig_l, base, 1, 1, degree=7,
                                    **caps))
    assert stages[3] == unconstrained


# the filtration instances of this file and of acceptance criterion 09,
# as (K, L, base, m, n, filtration_square_check keywords)
ENV_INSTANCES = [
    (*chain_setup(), 1, 1, dict(max_degree=2, max_vertices=4,
                                slots=False)),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 2, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 2, 1)]),
     Signature([("k", 1, 1), ("o", 1, 2)]), 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 1, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=4, max_arity=2)),
    (Signature([("k", 2, 1)]), Signature([("k", 2, 1), ("l", 1, 2)]),
     Signature([("k", 2, 1), ("o", 1, 2)]), 1, 2,
     dict(max_degree=2, max_vertices=3, max_arity=2)),
    # in the roles' given order, slot (1,1) then o, and o then l, reach
    # the arity multiset {(1,1), (2,1)} in two orders
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 2, 1)]), 2, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
]


def test_env_classes_match_the_per_combination_oracle():
    for sig_k, sig_l, base, m, n, kw in ENV_INSTANCES:
        kw = dict(kw)
        degree = kw.pop("max_degree")
        got = env_classes(sig_k, sig_l, base, m, n, degree=degree, **kw)
        menu = None if kw.pop("slots", True) else ()
        assert set(got) == per_combination_env_keys(
            sig_k, sig_l, base, m, n, degree=degree, slot_arities=menu, **kw)


def test_filtration_enumerates_each_profile_once(monkeypatch):
    calls: Counter = Counter()
    enumerate_graphs = canonical.enumerate_graphs

    def counted(arities, *args, **kwargs):
        calls[tuple(sorted(arities))] += 1
        return enumerate_graphs(arities, *args, **kwargs)

    monkeypatch.setattr(canonical, "enumerate_graphs", counted)
    for sig_k, sig_l, base, m, n, kw in ENV_INSTANCES:
        calls.clear()
        rep = filtration_square_check(sig_k, sig_l, base, m, n, **kw)
        assert rep["all_ok"]
        assert calls and max(calls.values()) == 1


def test_slot_reach_refuses_exactly_the_arities_past_the_edge_cap():
    # brute force: the (sum of a, sum of b) of every multiset of at most
    # max_vertices slots; a refused max_arity reaches a balanced one past
    # the cap, which the envelope lists, and an accepted one reaches none
    boundaries = [(1, 1), (1, 2), (2, 1), (0, 3), (3, 0)]
    for max_arity in range(1, 14):
        menu = [(a, b) for a in range(max_arity + 1)
                for b in range(max_arity + 1) if a + b]
        sums = {(0, 0)}
        for max_vertices in range(1, 4):
            sums |= {(x + a, y + b) for x, y in sums for a, b in menu}
            for m, n in boundaries:
                past = any(y - x == n - m and m + y > DEFAULT_MAX_EDGES
                           for x, y in sums)
                try:
                    _slot_roles(m, n, max_vertices, max_arity, [], 0)
                except LimitError as err:
                    assert past and "(max_arity, --max-arity)" in str(err)
                else:
                    assert not past


def test_slot_roles_refuse_exactly_where_slots_fit_a_profile_past_the_cap():
    # brute force over multisets of the full slot menu and labeled roles
    # (arity, fresh) of which at most `degree` are fresh: a refused
    # max_arity has slots in an accepted balanced profile past the cap;
    # an accepted one lists every slot that sits in an accepted balanced
    # profile, whatever it leaves out
    labeled_sets = [[], [((0, 1), False)],
                    [((2, 1), False), ((1, 2), True)], [((13, 13), True)]]
    boundaries = [(1, 1), (0, 23), (23, 0), (2, 22), (22, 23), (0, 30)]
    for max_arity in (1, 2, 3):
        menu = [(a, b) for a in range(max_arity + 1)
                for b in range(max_arity + 1) if a + b]
        for max_vertices, degree, labeled, (m, n) in itertools.product(
                (1, 2, 3), (0, 1), labeled_sets, boundaries):
            roles = [(ar, False, True) for ar in menu]
            roles += [(ar, fresh, False) for ar, fresh in labeled]
            past, used = False, set()
            for r in range(1, max_vertices + 1):
                for combo in itertools.combinations_with_replacement(roles,
                                                                     r):
                    if sum(b - a for (a, b), _, _ in combo) != n - m \
                            or sum(fresh for _, fresh, _ in combo) > degree \
                            or not any(slot for _, _, slot in combo):
                        continue
                    past |= m + sum(b for (_, b), _, _ in combo) \
                        > DEFAULT_MAX_EDGES
                    used |= {ar for ar, _, slot in combo if slot}
            tagged = [(("lab", i), ar, int(fresh))
                      for i, (ar, fresh) in enumerate(labeled)]
            case = (max_arity, max_vertices, degree, labeled, m, n)
            try:
                got = _slot_roles(m, n, max_vertices, max_arity, tagged,
                                  degree)
            except LimitError as err:
                assert past and "(max_arity, --max-arity)" in str(err), case
            else:
                assert not past, case
                assert used <= {ar for _, ar, _ in got} <= set(menu), case


def test_filtration_skips_profiles_whose_ports_cannot_pair_up():
    # two 1->13 vertices at (1,1) hold 27 edges, past the edge cap, but no
    # graph: the audit skips them instead of tripping the cap
    sig_k, _, base = chain_setup()
    wide = Signature([("l", 1, 13)])
    rep = filtration_square_check(sig_k, wide, base, 1, 1, max_degree=2,
                                  max_vertices=2, slots=False)
    assert rep["all_ok"] and rep["env_sizes"] == [3, 3, 3]


# full reports, pinned byte for byte: the three instances of acceptance
# criterion 09, then the four filtration shapes of the benchmark's
# classes workload with fixed generator names, as
# (K, L, base, m, n, keywords, the report as JSON)
PINNED_REPORTS = [
    (Signature([]), Signature([("l", 1, 1)]), Signature([("o", 1, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=4, max_arity=2, slots=False),
     '{"m": 1, "n": 1, "max_degree": 2, "max_vertices": 4, "env_sizes": '
     '[5, 15, 25], "degrees": [{"degree": 1, "U": 0, "V": 10, "C": 5, '
     '"D": 15, "lambda_image": 0, "U_image": 0, "V_image": 10, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}, {"degree": 2, "U": 0, "V": 10, "C": 15, '
     '"D": 25, "lambda_image": 0, "U_image": 0, "V_image": 10, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 1, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=4, max_arity=2),
     '{"m": 1, "n": 1, "max_degree": 2, "max_vertices": 4, "env_sizes": '
     '[3881, 5075, 5225], "degrees": [{"degree": 1, "U": 1194, "V": '
     '2388, "C": 3881, "D": 5075, "lambda_image": 1194, "U_image": 1056,'
     ' "V_image": 2250, "square_commutes": true, "identity": true, '
     '"pushout": true, "j_bijective": false}, {"degree": 2, "U": 750, '
     '"V": 600, "C": 5075, "D": 5225, "lambda_image": 450, "U_image": '
     '392, "V_image": 542, "square_commutes": true, "identity": true, '
     '"pushout": true, "j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 2, 1)]), Signature([("k", 2, 1), ("l", 1, 2)]),
     Signature([("k", 2, 1), ("o", 1, 2)]), 1, 2,
     dict(max_degree=2, max_vertices=3, max_arity=2),
     '{"m": 1, "n": 2, "max_degree": 2, "max_vertices": 3, "env_sizes": '
     '[1107, 1571, 1639], "degrees": [{"degree": 1, "U": 330, "V": 794, '
     '"C": 1107, "D": 1571, "lambda_image": 330, "U_image": 330, '
     '"V_image": 794, "square_commutes": true, "identity": true, '
     '"pushout": true, "j_bijective": false}, {"degree": 2, "U": 140, '
     '"V": 208, "C": 1571, "D": 1639, "lambda_image": 140, "U_image": '
     '140, "V_image": 208, "square_commutes": true, "identity": true, '
     '"pushout": true, "j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 1, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=2),
     '{"m": 1, "n": 1, "max_degree": 2, "max_vertices": 3, "env_sizes": '
     '[286, 362, 372], "degrees": [{"degree": 1, "U": 76, "V": 152, "C":'
     ' 286, "D": 362, "lambda_image": 76, "U_image": 67, "V_image": 143,'
     ' "square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}, {"degree": 2, "U": 50, "V": 40, "C": 362, '
     '"D": 372, "lambda_image": 30, "U_image": 25, "V_image": 35, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
     Signature([("k", 1, 1), ("o", 1, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1),
     '{"m": 1, "n": 1, "max_degree": 2, "max_vertices": 3, "env_sizes": '
     '[54, 92, 102], "degrees": [{"degree": 1, "U": 38, "V": 76, "C": '
     '54, "D": 92, "lambda_image": 38, "U_image": 29, "V_image": 67, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}, {"degree": 2, "U": 50, "V": 40, "C": 92, '
     '"D": 102, "lambda_image": 30, "U_image": 25, "V_image": 35, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 2, 1)]), Signature([("k", 2, 1), ("l", 1, 2)]),
     Signature([("k", 2, 1), ("o", 1, 2)]), 1, 2,
     dict(max_degree=2, max_vertices=3, max_arity=1),
     '{"m": 1, "n": 2, "max_degree": 2, "max_vertices": 3, "env_sizes": '
     '[121, 261, 301], "degrees": [{"degree": 1, "U": 62, "V": 202, "C":'
     ' 121, "D": 261, "lambda_image": 62, "U_image": 62, "V_image": 202,'
     ' "square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}, {"degree": 2, "U": 84, "V": 124, "C": 261, '
     '"D": 301, "lambda_image": 84, "U_image": 84, "V_image": 124, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}], "all_ok": true}'),
    (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 2)]),
     Signature([("k", 1, 1), ("o", 2, 1)]), 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1),
     '{"m": 1, "n": 1, "max_degree": 2, "max_vertices": 3, "env_sizes": '
     '[39, 71, 71], "degrees": [{"degree": 1, "U": 27, "V": 59, "C": 39,'
     ' "D": 71, "lambda_image": 27, "U_image": 21, "V_image": 53, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": false}, {"degree": 2, "U": 35, "V": 21, "C": 71, '
     '"D": 71, "lambda_image": 21, "U_image": 19, "V_image": 19, '
     '"square_commutes": true, "identity": true, "pushout": true, '
     '"j_bijective": true}], "all_ok": true}'),
]


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_filtration_reports_are_pinned(index):
    sig_k, sig_l, base, m, n, kw, want = PINNED_REPORTS[index]
    rep = filtration_square_check(sig_k, sig_l, base, m, n, **kw)
    assert json.dumps(rep) == want
