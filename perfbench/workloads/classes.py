"""classes: canonical forms and class enumeration over boundary menus.

One operation is one boundary menu (an arity multiset plus m and n), of
three kinds:

- canon: canonicalize and graph_hash every numbered graph of the menu, in
  the shape of acceptance criterion 10 (arities from {0,1,2}^2, which
  mixes no-input and no-output vertices, so most graphs take the
  factorial fallback route).  Each graph is renumbered by two seeded
  vertex bijections, one for the key and one for the hash, so equal keys
  must give equal hashes and distinct keys distinct hashes.
- enum: classes by enumerate_graphs(upto_iso=True) and count_basis over a
  nonempty-input menu, the criterion 02 shape, where numbered counts are
  r! times class counts.
- filtration: filtration_square_check on criterion 09 style instances,
  with seeded generator names.

The menu set is fixed; the seed draws the renumberings, the generator
names and the operation order.  So every seed does the same amount of
work, and class counts (pinned) do not depend on the seed.  Hashes are
not pinned: the canonical core may change them.
"""

from __future__ import annotations

import itertools
import math
import random

from propcalc import canonical, freeprop, graphs, pushouts

from . import Op, require

TAIL_PCT = 99.5

# total edge count of a menu (n plus the vertex inputs), per kind
CANON_WINDOW, CANON_WINDOW_TINY = 3, 2
ENUM_WINDOW, ENUM_WINDOW_TINY = 4, 3
MAX_R = 4

# (k arities, l arities, base arities, m, n, check keywords); the names
# are drawn per seed.  Kept small: criterion 09's second instance alone
# takes seconds.
FILTRATIONS = [
    ([(1, 1)], [(1, 1), (1, 1)], [(1, 1), (1, 1)], 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=2)),
    ([(1, 1)], [(1, 1), (1, 1)], [(1, 1), (1, 1)], 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
    ([(2, 1)], [(2, 1), (1, 2)], [(2, 1), (1, 2)], 1, 2,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
    ([(1, 1)], [(1, 1), (1, 2)], [(1, 1), (2, 1)], 1, 1,
     dict(max_degree=2, max_vertices=3, max_arity=1)),
]
FILTRATIONS_TINY = [FILTRATIONS[1], FILTRATIONS[3]]


def _menus(pairs, window: int):
    for r in range(MAX_R + 1):
        for multiset in itertools.combinations_with_replacement(pairs, r):
            sa = sum(a for a, _ in multiset)
            sb = sum(b for _, b in multiset)
            for n in range(window + 1):
                m = n + sa - sb
                if m >= 0 and n + sa <= window:
                    yield multiset, m, n


def _profiles(multiset):
    return sorted(set(itertools.permutations(multiset)))


def _nonempty(multiset, m: int, n: int) -> bool:
    return any(next(canonical.enumerate_graphs(list(p), m, n), None)
               is not None for p in _profiles(multiset))


def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                          for _ in range(5)))
    ordered = sorted(names)
    rng.shuffle(ordered)
    return ordered


class _HashLedger:
    """Equal keys must hash equal, distinct keys must hash distinct."""

    def __init__(self):
        self.hash_of: dict = {}
        self.key_of: dict = {}

    def note(self, key, h: int) -> None:
        require(self.hash_of.setdefault(key, h) == h,
                "equal canonical keys gave different hashes")
        require(self.key_of.setdefault(h, key) == key,
                "two canonical keys share a hash")


def _canon_op(multiset, m, n, rng, ledger) -> Op:
    r = len(multiset)
    maps = [dict(zip(range(1, r + 1), rng.sample(range(1, 10 * r + 2), r)))
            for _ in range(2)]

    def run():
        keys = set()
        for profile in _profiles(multiset):
            for ng in canonical.enumerate_graphs(list(profile), m, n):
                key = canonical.canonicalize(
                    graphs.relabel_vertices(ng.graph, maps[0])).key
                ledger.note(key, canonical.graph_hash(
                    graphs.relabel_vertices(ng.graph, maps[1])))
                keys.add(key)
        return len(keys)

    return Op("canon", f"canon {multiset} {m} {n}", run)


def _enum_op(multiset, m, n, rng) -> Op:
    r = len(multiset)
    order = rng.sample(multiset, r)
    arities = sorted(set(multiset))
    sig = freeprop.Signature(
        (name, a, b) for name, (a, b) in zip(_names(rng, len(arities)),
                                             arities))
    max_r = min(r, 3)

    def run():
        classes = sum(1 for _ in canonical.enumerate_graphs(
            order, m, n, upto_iso=True))
        numbered = sum(1 for p in _profiles(multiset)
                       for _ in canonical.enumerate_graphs(list(p), m, n))
        require(numbered == math.factorial(r) * classes,
                "numbered count is not r! times the class count")
        basis = freeprop.count_basis(sig, m, n, max_r)
        require(all(num == math.factorial(k) * iso for k, (num, iso)
                    in enumerate(zip(basis["numbered"], basis["iso"]))),
                "count_basis: numbered is not r! times iso")
        return [classes, numbered, basis["numbered"], basis["iso"]]

    return Op("enum", f"enum {multiset} {m} {n}", run)


def _filtration_op(index: int, spec, rng) -> Op:
    k_ar, l_ar, base_ar, m, n, kw = spec
    names = _names(rng, len(l_ar) + len(base_ar) - len(k_ar))
    k_names = names[:len(k_ar)]
    l_new = names[len(k_ar):len(l_ar)]
    base_new = names[len(l_ar):]
    sig_k = freeprop.Signature(
        (name, a, b) for name, (a, b) in zip(k_names, k_ar))
    sig_l = freeprop.Signature(
        (name, a, b) for name, (a, b) in zip(k_names + l_new, l_ar))
    base = freeprop.Signature(
        (name, a, b) for name, (a, b) in zip(k_names + base_new, base_ar))

    def run():
        rep = pushouts.filtration_square_check(sig_k, sig_l, base, m, n,
                                               **kw)
        require(rep["all_ok"] is True, "filtration square check failed")
        require(all(row["identity"] and row["pushout"]
                    and row["square_commutes"] for row in rep["degrees"]),
                "a filtration degree is not a pushout")
        return [rep["env_sizes"],
                [[row[x] for x in ("U", "V", "C", "D", "lambda_image",
                                   "U_image", "V_image")]
                 for row in rep["degrees"]]]

    return Op("filtration", f"filtration {index}", run)


def setup(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ledger = _HashLedger()
    canon_pairs = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]
    enum_pairs = [(a, b) for a in (1, 2, 3) for b in (0, 1, 2, 3)]
    ops = [_canon_op(ms, m, n, rng, ledger)
           for ms, m, n in _menus(canon_pairs,
                                  CANON_WINDOW_TINY if tiny else CANON_WINDOW)
           if _nonempty(ms, m, n)]
    ops += [_enum_op(ms, m, n, rng)
            for ms, m, n in _menus(enum_pairs,
                                   ENUM_WINDOW_TINY if tiny else ENUM_WINDOW)
            if ms and _nonempty(ms, m, n)]
    ops += [_filtration_op(i, spec, rng) for i, spec in
            enumerate(FILTRATIONS_TINY if tiny else FILTRATIONS)]
    rng.shuffle(ops)
    return ops
