"""rewrite: merge rewriting, substitution laws and the confluence witness.

Operations, of three kinds:

- collapse: one mixed graph with 4-5 composite vertices over atoms
  {1->1, 2->1, 1->2} (each labeled by a random element of 1-2 atoms) and
  at most one plain vertex, with its vertices renumbered by the seed.
  collapse(strategy="exhaustive") must return irreducible forms that all
  expand_all to the input's element.  The mixed graphs come from a
  sample of MENUS vertex menus, drawn from the first numbered graphs each
  menu enumerates (up-to-iso enumeration of every menu would cost tens of
  seconds of set-up, which belongs to the classes workload).  That sample
  is fixed (HOST_SEED, not tuned): mixed graphs redrawn per seed moved the
  cost of a pass by up to 25 %, while a renumbering leaves the merge
  search, and so the work, the same.
- law: criterion 04's associativity of substitution and interchange of
  the two compositions, on seeded random elements.
- witness: non_confluence_witness(6), which must find two irreducible
  forms with equal expansions.

Every merge re-canonicalizes a graph whose labels are nested element
keys, a third use of the canonical layer.  Pinned: irreducible-form
counts, law outcomes and the witness's vertex count.
"""

from __future__ import annotations

import itertools
import random

from propcalc import canonical, freeprop, graphs, rewrite

from . import Op, require

TAIL_PCT = 99.5
COLLAPSE_OPS, LAW_OPS, MENUS = 150, 100, 16
COLLAPSE_OPS_TINY, LAW_OPS_TINY, MENUS_TINY = 3, 6, 2
WITNESS_VERTICES = 6
FIRST_GRAPHS = 100  # host graphs are drawn from this many per menu
HOST_SEED = "propcalc rewrite hosts"

ATOMS = freeprop.Signature([("p", 1, 1), ("q", 2, 1), ("s", 1, 2)])
PLAIN = freeprop.Signature([("t", 1, 1), ("u", 2, 1), ("v", 1, 2)])
BASE = freeprop.Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2)])
MID = freeprop.Signature([("A", 1, 1), ("B", 2, 1), ("C", 1, 2)])
TOP = freeprop.Signature([("X", 1, 1), ("Y", 1, 2)])


class _Pools:
    """Numbered elements per (signature, m, n), with at most max_r
    vertices, enumerated on first use."""

    def __init__(self, max_r: int):
        self.max_r = max_r
        self.cache: dict = {}

    def pick(self, rng, sig, m: int, n: int, min_r: int = 0):
        key = (sig.names, m, n, min_r)
        if key not in self.cache:
            found = []
            for r in range(min_r, self.max_r + 1):
                for profile in itertools.product(sig.names, repeat=r):
                    labels = {i: profile[i - 1] for i in range(1, r + 1)}
                    found += [(ng.graph, labels) for ng in
                              canonical.enumerate_graphs(
                                  [sig.arity(x) for x in profile], m, n)]
            self.cache[key] = found
        graph, labels = rng.choice(self.cache[key])
        return freeprop.PropElement.build(graph, labels, sig)


def _menu(rng):
    """(composite count, host graphs): a seeded vertex menu and boundary
    with its first numbered graphs."""
    arities = [(1, 1), (2, 1), (1, 2)]
    while True:
        n_p = rng.choice((4, 5))
        plain = rng.random() < 0.5
        menu = [rng.choice(arities) for _ in range(n_p + plain)]
        delta = sum(a for a, _ in menu) - sum(b for _, b in menu)
        # every vertex has an input and an output, so an acyclic graph
        # needs a graph input and a graph output
        low, high = max(1, 1 + delta), min(2, 2 + delta)
        if low > high:
            continue
        m = rng.randint(low, high)
        hosts = list(itertools.islice(
            canonical.enumerate_graphs(menu, m, m - delta), FIRST_GRAPHS))
        if hosts:
            return n_p, hosts


def _mixed_graph(rng, menus, pools):
    n_p, hosts = rng.choice(menus)
    graph = rng.choice(hosts).graph
    plain_ids = set(graph.vertex_ids[n_p:])
    names = {(g.m, g.n): g.name for g in PLAIN}
    p_labels = {v.id: pools.pick(rng, ATOMS, v.n_in, v.n_out, min_r=1)
                for v in graph.vertices if v.id not in plain_ids}
    m_labels = {v.id: names[(v.n_in, v.n_out)]
                for v in graph.vertices if v.id in plain_ids}
    return rewrite.MixedGraph.build(graph, ATOMS, PLAIN, p_labels, m_labels)


def _renumbered(rng, mixed):
    ids = mixed.graph.vertex_ids
    new = dict(zip(ids, rng.sample(range(1, 10 * len(ids) + 2), len(ids))))
    return rewrite.MixedGraph.build(
        graphs.relabel_vertices(mixed.graph, new), mixed.atoms, mixed.msig,
        {new[v]: e for v, e in mixed.p_labels.items()},
        {new[v]: name for v, name in mixed.m_labels.items()})


def _collapse_op(index, mixed) -> Op:
    def run():
        whole = rewrite.expand_all(mixed)
        forms = rewrite.collapse(mixed, strategy="exhaustive")
        require(len(forms) >= 1, "collapse returned no form")
        require(all(rewrite.expand_all(f) == whole for f in forms),
                "an irreducible form expands to another element")
        return len(forms)

    return Op("collapse", f"collapse {index:03d}", run)


def _associativity(rng, pools):
    mid = {g.name: pools.pick(rng, BASE, g.m, g.n) for g in MID}
    top = {"X": pools.pick(rng, MID, 1, 1), "Y": pools.pick(rng, MID, 1, 2)}
    outer = pools.pick(rng, TOP, 1, 2)

    def run():
        inner_first = freeprop.expand_element(
            outer, {t: freeprop.expand_element(e, mid)
                    for t, e in top.items()})
        outer_first = freeprop.expand_element(
            freeprop.expand_element(outer, top), mid)
        require(inner_first == outer_first, "substitution is not associative")
        return True

    return run


def _interchange(rng, pools):
    k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
    g1 = pools.pick(rng, BASE, rng.randint(1, 2), k1)
    g2 = pools.pick(rng, BASE, rng.randint(1, 2), k2)
    h1 = pools.pick(rng, BASE, k1, rng.randint(1, 2))
    h2 = pools.pick(rng, BASE, k2, rng.randint(1, 2))

    def run():
        lhs = freeprop.pelem_vcompose(freeprop.pelem_hcompose(g1, g2),
                                      freeprop.pelem_hcompose(h1, h2))
        rhs = freeprop.pelem_hcompose(freeprop.pelem_vcompose(g1, h1),
                                      freeprop.pelem_vcompose(g2, h2))
        require(lhs == rhs, "interchange law fails")
        return True

    return run


def _witness_op() -> Op:
    def run():
        hit = rewrite.non_confluence_witness(WITNESS_VERTICES)
        require(hit is not None, "no non-confluence witness found")
        whole = rewrite.expand_all(hit["graph"])
        require(len(hit["forms"]) >= 2
                and all(rewrite.expand_all(f) == whole
                        for f in hit["forms"]),
                "witness forms do not expand to one element")
        return len(hit["graph"].graph.vertices)

    return Op("witness", "witness", run)


def setup(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    pools = _Pools(max_r=2)
    n_collapse, n_law, n_menus = (
        (COLLAPSE_OPS_TINY, LAW_OPS_TINY, MENUS_TINY) if tiny
        else (COLLAPSE_OPS, LAW_OPS, MENUS))
    host_rng = random.Random(HOST_SEED)
    menus = [_menu(host_rng) for _ in range(n_menus)]
    ops = [_collapse_op(i, _renumbered(
        rng, _mixed_graph(host_rng, menus, pools)))
        for i in range(n_collapse)]
    for i in range(n_law):
        law = _associativity if i % 2 == 0 else _interchange
        ops.append(Op("law", f"law {i:03d}", law(rng, pools)))
    ops.append(_witness_op())
    rng.shuffle(ops)
    return ops
