"""Acceptance checklist: one test per shipped guarantee, each printing a
single pass/fail line with its elapsed time against a pinned budget.

The exhaustive sweeps fix an explicit boundary window (total edge count)
because the guarantees quantify over vertex counts and arities but leave
the graph boundary open; each window is the largest that fits the budget
on desk hardware, and the next size up was measured over budget."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import time

from propcalc import cli
from propcalc.canonical import canonicalize, enumerate_graphs
from propcalc.freeprop import (PropElement, Signature, corolla, expand,
                               expand_element, pelem_hcompose,
                               pelem_permute_inputs, pelem_permute_outputs,
                               pelem_vcompose)
from propcalc.graphs import hcompose, vcompose
from propcalc.pushouts import (CubeDiagram, FiniteSetMap, faces_commute,
                               filtration_square_check,
                               iterated_identity_check, punctured_colimit)
from propcalc.rewrite import collapse, expand_all, mixed_from_dict
from propcalc.tensor import (AlgebraAssignment, RatTensor,
                             conjugate_assignment, evaluate, kron_power,
                             morphism_prop_membership, rt_dot, rt_kron)

from _fixtures import fixture_dict, fixture_graph, fixture_path
from _oracles import (brute_force_isomorphic, carries_edges,
                      free_action_check, permutation_matrix,
                      topo_latest_first)

BASE_SIG = Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2)])

# largest edge windows that fit the budgets; one size up was measured at
# 447s (action sweep) and far beyond 600s (oracle sweep)
ACTION_EDGE_CAP = 6
ORACLE_EDGE_CAP = 5


def report(num: int, label: str, budget: float, fn) -> None:
    start = time.perf_counter()
    failure: Exception | None = None
    detail = ""
    try:
        detail = fn() or ""
    except Exception as err:
        failure = err
    elapsed = time.perf_counter() - start
    status = "PASS" if failure is None and elapsed < budget else "FAIL"
    note = f"  {detail}" if detail else ""
    if failure is None and elapsed >= budget:
        note = "  over budget"
    print(f"[criterion {num:02d}] {status}  {label}"
          f" ({elapsed:.2f}s, budget {budget:.0f}s){note}",
          file=sys.__stdout__, flush=True)
    if failure is not None:
        raise failure
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget:.0f}s"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


_ENUM_CACHE: dict[tuple, list] = {}


def random_element(rng: random.Random, sig: Signature, m: int, n: int,
                   max_r: int = 2) -> PropElement:
    names = list(sig.names)
    for _ in range(80):
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
    raise AssertionError(f"no element found for ({m},{n})")


def rand_matrix(rng: random.Random, r: int, c: int) -> RatTensor:
    from fractions import Fraction
    return RatTensor([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(c)] for _ in range(r)])


def rand_assignment(rng: random.Random, d: int,
                    sig: Signature = BASE_SIG) -> AlgebraAssignment:
    mats = {g.name: rand_matrix(rng, d ** g.n, d ** g.m) for g in sig}
    return AlgebraAssignment.build(d, mats, sig)


def inverse_perm_matrix(w: tuple[int, ...], d: int) -> RatTensor:
    sigma = [w.index(j) + 1 for j in range(1, len(w) + 1)]
    return RatTensor(permutation_matrix(sigma, d))


# ---------------------------------------------------------------------------
# 1
def test_criterion_01_canonical_order_fixture():
    def go():
        rc, out = run_cli("canon", str(fixture_path("fig7")))
        assert rc == 0
        assert json.loads(out)["order"] == [1, 4, 2, 5, 3]

    report(1, "canonical vertex order on the numbered fixture", 1.0, go)


# ---------------------------------------------------------------------------
# 2
def test_criterion_02_free_symmetric_action():
    pairs = [(a, b) for a in (1, 2, 3) for b in (0, 1, 2, 3)]

    def go():
        menus = graphs = 0
        for r in range(0, 5):
            for multiset in itertools.combinations_with_replacement(pairs, r):
                sa = sum(a for a, _ in multiset)
                sb = sum(b for _, b in multiset)
                for n in range(0, ACTION_EDGE_CAP + 1):
                    m = n + sa - sb
                    if m < 0 or n + sa > ACTION_EDGE_CAP:
                        continue
                    menus += 1
                    iso = list(enumerate_graphs(list(multiset), m, n,
                                                upto_iso=True))
                    total = 0
                    for prof in sorted(set(itertools.permutations(multiset))):
                        for ng in enumerate_graphs(list(prof), m, n):
                            assert free_action_check(ng.graph)
                            total += 1
                    graphs += total
                    assert total == math.factorial(r) * len(iso), \
                        (multiset, m, n)
        return f"{graphs} numbered graphs over {menus} boundary menus"

    report(2, "free renumbering action, nonempty-input menus", 300.0, go)


# ---------------------------------------------------------------------------
# 3
def test_criterion_03_figure_composites():
    def go():
        h = {k: fixture_graph("fig2h", k) for k in ("left", "right", "result")}
        got = hcompose(h["left"], h["right"])
        assert canonicalize(got) == canonicalize(h["result"])
        v = {k: fixture_graph("fig2v", k) for k in ("top", "bottom", "result")}
        got = vcompose(v["top"], v["bottom"])
        assert canonicalize(got) == canonicalize(v["result"])

    report(3, "side-by-side and grafted composite fixtures", 1.0, go)


# ---------------------------------------------------------------------------
# 4
def test_criterion_04_monad_and_interchange_laws():
    mid_names = [("A", 1, 1), ("B", 2, 1), ("C", 1, 2)]
    midsig = Signature(mid_names)
    topsig = Signature([("X", 1, 1), ("Y", 1, 2)])

    def go():
        rng = random.Random(2024)
        for _ in range(1000):
            mid = {name: random_element(rng, BASE_SIG, m, n)
                   for name, m, n in mid_names}
            top = {"X": random_element(rng, midsig, 1, 1),
                   "Y": random_element(rng, midsig, 1, 2)}
            outer = random_element(rng, topsig, 1, 2)
            inner_first = expand_element(
                outer, {t: expand_element(e, mid) for t, e in top.items()})
            outer_first = expand_element(expand_element(outer, top), mid)
            assert inner_first == outer_first

        for _ in range(1000):
            e = random_element(rng, BASE_SIG,
                               rng.randint(1, 2), rng.randint(1, 2))
            host = corolla(Signature([("E", e.m, e.n)]), "E")
            assert expand(host.graph,
                          {vid: e for vid in host.graph.vertex_ids}) == e
            inner = {vid: corolla(BASE_SIG, name)
                     for vid, name in e.labels.items()}
            assert expand(e.graph, inner) == e

        for _ in range(1000):
            k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
            g1 = random_element(rng, BASE_SIG, rng.randint(1, 2), k1)
            g2 = random_element(rng, BASE_SIG, rng.randint(1, 2), k2)
            h1 = random_element(rng, BASE_SIG, k1, rng.randint(1, 2))
            h2 = random_element(rng, BASE_SIG, k2, rng.randint(1, 2))
            lhs = pelem_vcompose(pelem_hcompose(g1, g2),
                                 pelem_hcompose(h1, h2))
            rhs = pelem_hcompose(pelem_vcompose(g1, h1),
                                 pelem_vcompose(g2, h2))
            assert lhs == rhs
        return "1000 cases per law"

    report(4, "substitution associativity, units, interchange", 120.0, go)


# ---------------------------------------------------------------------------
# 5
def test_criterion_05_non_confluence():
    def go():
        g = mixed_from_dict(fixture_dict("remark-witness"))
        forms = collapse(g, strategy="exhaustive")
        assert len(forms) == 2
        assert expand_all(forms[0]) == expand_all(forms[1]) == expand_all(g)
        rc, out = run_cli("witness", "--max-vertices", "6")
        assert rc == 0 and json.loads(out)["found"] is True
        return "2 irreducible forms, equal expansions"

    report(5, "merge order changes the irreducible form", 60.0, go)


# ---------------------------------------------------------------------------
# 6
def test_criterion_06_tensor_homomorphism():
    def safe_quadruple(rng):
        while True:
            ma, na, mb, nb = (rng.randint(1, 2) for _ in range(4))
            if ma + na + mb + nb <= 6:
                return ma, na, mb, nb

    def go():
        for d in (2, 3):
            rng = random.Random(600 + d)
            A = rand_assignment(rng, d)
            for _ in range(200):
                ma, na, mb, nb = safe_quadruple(rng)
                a = random_element(rng, BASE_SIG, ma, na)
                b = random_element(rng, BASE_SIG, mb, nb)
                assert evaluate(pelem_hcompose(a, b), A) \
                    == rt_kron(evaluate(a, A), evaluate(b, A))
                k = rng.randint(1, 2)
                top = random_element(rng, BASE_SIG, rng.randint(1, 2), k)
                bot = random_element(rng, BASE_SIG, k, rng.randint(1, 2))
                assert evaluate(pelem_vcompose(top, bot), A) \
                    == rt_dot(evaluate(bot, A), evaluate(top, A))
                e = random_element(rng, BASE_SIG, rng.randint(1, 2), 2)
                w = tuple(rng.sample((1, 2), 2))
                assert evaluate(pelem_permute_outputs(e, w), A) \
                    == rt_dot(inverse_perm_matrix(w, d), evaluate(e, A))
                f = random_element(rng, BASE_SIG, 2, rng.randint(1, 2))
                assert evaluate(pelem_permute_inputs(f, w), A) \
                    == rt_dot(evaluate(f, A), inverse_perm_matrix(w, d))

        rng = random.Random(660)
        A = rand_assignment(rng, 2)
        for _ in range(100):
            e = random_element(rng, BASE_SIG,
                               rng.randint(1, 2), rng.randint(1, 2), max_r=3)
            assert evaluate(e, A) \
                == evaluate(e, A, order=topo_latest_first(e.graph))
        return "200 pairs at each dimension, 100 order checks"

    report(6, "evaluation respects every composition", 120.0, go)


# ---------------------------------------------------------------------------
# 7
def test_criterion_07_morphism_prop_pullback():
    def go():
        transports = [(2, RatTensor([[2, 1], [1, 1]])),
                      (2, RatTensor([[1, 1], [0, 1]])),
                      (3, RatTensor([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))]
        for seed, (d, f) in enumerate(transports, start=70):
            rng = random.Random(seed)
            B = rand_assignment(rng, d)
            A = conjugate_assignment(B, f)
            assert all(morphism_prop_membership(f, A, B, g)
                       for g in BASE_SIG.names)

        rng = random.Random(79)
        B = rand_assignment(rng, 2)
        f = RatTensor([[2, 1], [1, 1]])
        A = conjugate_assignment(B, f)
        checked = 0
        for r in range(4):
            for profile in itertools.product(BASE_SIG.names, repeat=r):
                arities = [BASE_SIG.arity(x) for x in profile]
                delta = sum(a for a, _ in arities) \
                    - sum(b for _, b in arities)
                for m in range(0, 4):
                    n = m - delta
                    if not 0 <= n <= 3:
                        continue
                    labels = {i: profile[i - 1] for i in range(1, r + 1)}
                    for ng in enumerate_graphs(arities, m, n):
                        e = PropElement.build(ng.graph, labels, BASE_SIG)
                        assert rt_dot(kron_power(f, n), evaluate(e, A)) \
                            == rt_dot(evaluate(e, B), kron_power(f, m))
                        checked += 1
        return f"{checked} elements with at most 3 vertices"

    report(7, "generator intertwiners extend to all small elements",
           120.0, go)


# ---------------------------------------------------------------------------
# 8
def test_criterion_08_cube_identities():
    def go():
        cubes = 0
        for l_size in range(0, 4):
            big = frozenset(f"s{t}" for t in range(l_size))
            for k_size in range(0, l_size + 1):
                small = frozenset(f"t{t}" for t in range(k_size))
                for image in itertools.permutations(sorted(big), k_size):
                    i = FiniteSetMap.build(small, big,
                                           dict(zip(sorted(small), image)))
                    for n in range(0, 5):
                        cube = CubeDiagram(n, i)
                        assert faces_commute(cube)
                        col = punctured_colimit(cube)
                        assert col.size \
                            == l_size ** n - (l_size - k_size) ** n
                        if n >= 2:
                            assert iterated_identity_check(i, col)
                        cubes += 1
        return f"{cubes} cubes"

    report(8, "punctured cube sizes and the binary decomposition", 60.0, go)


# ---------------------------------------------------------------------------
# 9
def test_criterion_09_filtration_squares():
    instances = [
        (Signature([]), Signature([("l", 1, 1)]), Signature([("o", 1, 1)]),
         1, 1, dict(max_degree=2, max_vertices=4, max_arity=2,
                    slot_arities=())),
        (Signature([("k", 1, 1)]), Signature([("k", 1, 1), ("l", 1, 1)]),
         Signature([("k", 1, 1), ("o", 1, 1)]),
         1, 1, dict(max_degree=2, max_vertices=4, max_arity=2)),
        (Signature([("k", 2, 1)]), Signature([("k", 2, 1), ("l", 1, 2)]),
         Signature([("k", 2, 1), ("o", 1, 2)]),
         1, 2, dict(max_degree=2, max_vertices=3, max_arity=2)),
    ]

    def go():
        sizes = []
        for sig_k, sig_l, base, m, n, kw in instances:
            rep = filtration_square_check(sig_k, sig_l, base, m, n, **kw)
            assert rep["all_ok"] is True
            assert all(row["identity"] and row["pushout"]
                       for row in rep["degrees"])
            sizes.append(rep["env_sizes"][-1])
        return f"3 instances, largest degree-2 envelopes {sizes}"

    report(9, "degree filtration matches its pushout squares", 600.0, go)


# ---------------------------------------------------------------------------
# 10
def test_criterion_10_isomorphism_oracle_equivalence():
    pairs = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]

    def go():
        graphs = checks = 0
        hash_to_key: dict[int, tuple] = {}
        for r in range(0, 6):
            for multiset in itertools.combinations_with_replacement(pairs, r):
                sa = sum(a for a, _ in multiset)
                sb = sum(b for _, b in multiset)
                for n in range(0, ORACLE_EDGE_CAP + 1):
                    m = n + sa - sb
                    if m < 0 or n + sa > ORACLE_EDGE_CAP:
                        continue
                    buckets: dict[tuple, list] = {}
                    for prof in sorted(set(itertools.permutations(multiset))):
                        for ng in enumerate_graphs(list(prof), m, n):
                            cf = canonicalize(ng.graph)
                            key = cf.key
                            buckets.setdefault(key, []).append(
                                (ng.graph, cf.order))
                            graphs += 1
                            h = cf.digest
                            if h in hash_to_key:
                                assert hash_to_key[h] == key, "hash collision"
                            else:
                                hash_to_key[h] = key
                    # isomorphisms compose, so checking every member
                    # against its class representative and every pair of
                    # representatives settles all pairs in the family.  A
                    # member is checked through the witness its canonical
                    # order gives (its i-th vertex to the representative's
                    # i-th), which must carry the edge set exactly; a
                    # non-isomorphism has no witness, so representatives
                    # keep the search
                    reps = []
                    for members in buckets.values():
                        rep, rep_order = members[0]
                        for other, order in members[1:]:
                            assert carries_edges(other, rep,
                                                 dict(zip(order, rep_order)))
                            checks += 1
                        reps.append(rep)
                    for x, y in itertools.combinations(reps, 2):
                        assert not brute_force_isomorphic(x, y)
                        checks += 1
        return (f"{graphs} graphs, {len(hash_to_key)} classes,"
                f" {checks} oracle calls, no collisions")

    report(10, "canonical equality matches brute-force isomorphism",
           600.0, go)
