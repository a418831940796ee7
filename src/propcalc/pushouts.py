"""Finite-set colimits: pushouts, punctured cubes, and a cardinality
audit of the degree filtration on envelopes of free props.

Everything here works with concrete finite sets and graph classes, so
every colimit can be computed two ways: by a closed description and by
the generic union-find quotient.  The checkers compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .canonical import DEFAULT_MAX_EDGES, _distinct, skeletons
from .freeprop import Signature
from .graphs import GraphError, LimitError, _quote

DEFAULT_MAX_CLASSES = 200000
DEFAULT_MAX_ELEMENTS = 200000


# ---------------------------------------------------------------------------
# finite set maps

@dataclass(frozen=True)
class FiniteSetMap:
    """A total function between finite sets of hashable tokens."""

    source: frozenset
    target: frozenset
    pairs: tuple
    _values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_values", dict(self.pairs))

    @classmethod
    def build(cls, source, target, mapping) -> "FiniteSetMap":
        src, tgt = frozenset(source), frozenset(target)
        mp = dict(mapping)
        if set(mp) != src:
            raise GraphError("mapping must be defined on exactly the source")
        stray = [x for x in mp if mp[x] not in tgt]
        if stray:
            raise GraphError(f"values outside the target for {sorted(map(repr, stray))}")
        return cls(src, tgt, tuple(sorted(mp.items(), key=repr)))

    def __call__(self, x):
        try:
            return self._values[x]
        except KeyError:
            raise GraphError(f"{x!r} is not in the source") from None

    def is_injective(self) -> bool:
        return len({b for _, b in self.pairs}) == len(self.pairs)

    def image(self) -> frozenset:
        return frozenset(b for _, b in self.pairs)

    def compose(self, first: "FiniteSetMap") -> "FiniteSetMap":
        """self after first."""
        if first.target != self.source:
            raise GraphError("composition needs matching middle set")
        return FiniteSetMap.build(
            first.source, self.target,
            {x: self(y) for x, y in first.pairs})


def inclusion_map(sub, whole) -> FiniteSetMap:
    sub, whole = frozenset(sub), frozenset(whole)
    if not sub <= whole:
        raise GraphError("first set is not contained in the second")
    return FiniteSetMap.build(sub, whole, {x: x for x in sub})


# ---------------------------------------------------------------------------
# generic quotients

def quotient_classes(items, pairs) -> list[frozenset]:
    """Partition `items` by the equivalence generated by `pairs`, through
    a union-find forest (union by size, path compression).  The classes
    come back in the order of their first member in `items`."""
    parent = {x: x for x in items}
    size = dict.fromkeys(parent, 1)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        if a not in parent or b not in parent:
            raise GraphError("relation mentions an unknown item")
        ra, rb = find(a), find(b)
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return [frozenset(members) for members in groups.values()]


def pushout_sets(u: FiniteSetMap, s: FiniteSetMap) -> list[frozenset]:
    """Pushout of T <-s- S -u-> A, as a partition of the tagged sum
    {("A", a)} | {("T", t)}."""
    if u.source != s.source:
        raise GraphError("the span legs must share a source")
    items = [("A", a) for a in sorted(u.target, key=repr)]
    items += [("T", t) for t in sorted(s.target, key=repr)]
    pairs = [(("A", u(x)), ("T", s(x))) for x in sorted(u.source, key=repr)]
    return quotient_classes(items, pairs)


# ---------------------------------------------------------------------------
# punctured cubes

@dataclass(frozen=True)
class CubeDiagram:
    """The n-cube whose vertex at (e_1..e_n) is the product of copies of
    K (e_j = 0) or L (e_j = 1), with edges applying `i` coordinatewise."""

    n: int
    i: FiniteSetMap
    _pools: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("cube dimension must be >= 0")
        # K and L in repr order, the order every cube vertex lists them in
        object.__setattr__(self, "_pools",
                           (sorted(self.i.source, key=repr),
                            sorted(self.i.target, key=repr)))

    def _check_eps(self, eps) -> tuple:
        eps = tuple(eps)
        if len(eps) != self.n or any(e not in (0, 1) for e in eps):
            raise GraphError(f"bad cube position {eps!r}")
        return eps

    def vertex(self, eps) -> list[tuple]:
        eps = self._check_eps(eps)
        return list(itertools.product(*(self._pools[e] for e in eps)))

    def edge(self, eps, j: int) -> FiniteSetMap:
        """The map raising coordinate j (1-based) from K to L."""
        eps = self._check_eps(eps)
        if not 1 <= j <= self.n or eps[j - 1] != 0:
            raise GraphError(f"no raisable coordinate {j} at {eps!r}")
        src, dst = self.vertex(eps), self.vertex(_raise(eps, j))
        mp = {t: _raise_entry(self.i, t, j) for t in src}
        return FiniteSetMap.build(src, dst, mp)


def _raise(eps: tuple, j: int) -> tuple:
    return eps[:j - 1] + (1,) + eps[j:]


def _raise_entry(i: FiniteSetMap, t: tuple, j: int) -> tuple:
    # the edge map raising coordinate j, at the tuple t
    return t[:j - 1] + (i(t[j - 1]),) + t[j:]


def faces_commute(cube: CubeDiagram) -> bool:
    """Raising two coordinates in either order gives the same map."""
    for eps in itertools.product((0, 1), repeat=cube.n):
        zeros = [j for j, e in enumerate(eps, start=1) if e == 0]
        for j, k in itertools.combinations(zeros, 2):
            via_j = cube.edge(_raise(eps, j), k).compose(cube.edge(eps, j))
            via_k = cube.edge(_raise(eps, k), j).compose(cube.edge(eps, k))
            if via_j != via_k:
                return False
    return True


@dataclass(frozen=True)
class PuncturedColimit:
    """Colimit of the cube minus its terminal vertex, with the induced
    map into the terminal product."""

    n: int
    classes: tuple
    lam: tuple

    @property
    def size(self) -> int:
        return len(self.classes)

    def lam_injective(self) -> bool:
        return len(set(self.lam)) == len(self.lam)

    def image(self) -> frozenset:
        return frozenset(self.lam)


def punctured_colimit(cube: CubeDiagram,
                      max_elements: int | None = None) -> PuncturedColimit:
    """Quotient of all sub-terminal cube vertices by the edge maps.  A
    0-cube has no sub-terminal part, and with K empty every sub-terminal
    vertex is empty, so both colimits are empty.  The
    (|K|+|L|)^n - |L|^n elements are counted before any is listed, and
    more than max_elements (default DEFAULT_MAX_ELEMENTS) raise
    LimitError."""
    cap = DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements
    n = cube.n
    k_size, l_size = len(cube.i.source), len(cube.i.target)
    if n == 0 or k_size == 0:
        return PuncturedColimit(n, (), ())
    # the count grows with the dimension, so stop at the first one past
    # the cap rather than raise |K|+|L| to a huge n
    for j in range(1, n + 1):
        size = (k_size + l_size) ** j - l_size ** j
        if size > cap:
            raise LimitError(
                f"punctured {n}-cube has {'' if j == n else 'over '}"
                f"{size} elements, cap is {cap}"
                " (max_elements, --max-elements)")
    eps_list = [eps for eps in itertools.product((0, 1), repeat=n)
                if 0 in eps]
    items = [(eps, t) for eps in eps_list for t in cube.vertex(eps)]
    # the edge maps of `cube.edge`, applied without building each map
    pairs = []
    for eps in eps_list:
        for j, e in enumerate(eps, start=1):
            lifted = _raise(eps, j)
            if e != 0 or 0 not in lifted:
                continue
            pairs.extend(((eps, t), (lifted, _raise_entry(cube.i, t, j)))
                         for t in cube.vertex(eps))
    classes = quotient_classes(items, pairs)
    lam = []
    for cls in classes:
        images = {tuple(cube.i(x) if e == 0 else x
                        for e, x in zip(eps, t)) for eps, t in cls}
        if len(images) != 1:
            raise GraphError("edge maps disagree on a colimit class")
        lam.append(images.pop())
    return PuncturedColimit(n, tuple(classes), tuple(lam))


def iterated_identity_check(i: FiniteSetMap, lhs: PuncturedColimit) -> bool:
    """`lhs`, the n-fold punctured colimit of i's cube, agrees with the
    binary pushout built from the (n-1)-fold one, by a bijection
    commuting with the maps into the terminal product."""
    n = lhs.n
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    # the (n-1)-fold cube has fewer elements than lhs, which is in hand
    prev = punctured_colimit(CubeDiagram(n - 1, i),
                             sum(len(cls) for cls in lhs.classes))
    prev_class = {node: c for c, cls in enumerate(prev.classes)
                  for node in cls}
    ks = sorted(i.source, key=repr)
    ls = sorted(i.target, key=repr)
    span = [(c, k) for c in range(prev.size) for k in ks]
    left = [(c, x) for c in range(prev.size) for x in ls]
    # k outermost, so an empty K lists no terminal tuples
    right = [(t, k) for k in ks for t in itertools.product(ls, repeat=n - 1)]
    u = FiniteSetMap.build(span, left, {(c, k): (c, i(k)) for c, k in span})
    s = FiniteSetMap.build(span, right,
                           {(c, k): (prev.lam[c], k) for c, k in span})
    rhs_classes = pushout_sets(u, s)
    rhs_class = {node: c for c, cls in enumerate(rhs_classes)
                 for node in cls}

    def rhs_lam(node):
        tag, val = node
        if tag == "A":
            c, x = val
            return prev.lam[c] + (x,)
        t, k = val
        return t + (i(k),)

    rhs_lam_of = {}
    for c, cls in enumerate(rhs_classes):
        vals = {rhs_lam(node) for node in cls}
        if len(vals) != 1:
            return False
        rhs_lam_of[c] = vals.pop()

    def correspond(eps, t):
        head, last = eps[:-1], eps[-1]
        if last == 1:
            return ("A", (prev_class[(head, t[:-1])], t[-1]))
        if 0 in head:
            return ("A", (prev_class[(head, t[:-1])], i(t[-1])))
        return ("T", (t[:-1], t[-1]))

    matched = {}
    for c, cls in enumerate(lhs.classes):
        targets = {rhs_class[correspond(eps, t)] for eps, t in cls}
        if len(targets) != 1:
            return False
        matched[c] = targets.pop()
    if sorted(matched.values()) != list(range(len(rhs_classes))):
        return False
    return all(lhs.lam[c] == rhs_lam_of[matched[c]]
               for c in range(lhs.size))


# ---------------------------------------------------------------------------
# envelope classes of a free prop, with open slots

# the kinds of role that `accept` counts: a fresh vertex carries a new
# name of L, a kept one a name of K taken through K
_OTHER, _FRESH, _KEPT = 0, 1, 2


def _slot_roles(m: int, n: int, max_vertices: int, max_arity: int,
                labeled: list, degree: int) -> list:
    """The slot roles of an envelope at (m, n) beside the `labeled`
    roles, at most `degree` of them fresh: one per arity (a, b) with a, b
    at most max_arity and a + b > 0.  A max_arity whose slots make an
    accepted balanced profile past the default edge cap is refused in one
    line, before the menu is built: the envelope would list that profile,
    so the run could only trip the cap.  Past that check a slot with
    a > cap - n or b > cap - m sits in no accepted balanced profile, and
    none is listed, so the menu has at most (cap + 1)^2 roles."""
    if not max_vertices or not max_arity:
        return []  # no vertex reads the menu, however wide
    cap = DEFAULT_MAX_EDGES
    steps = {(a, b, kind == _FRESH) for _, (a, b), kind in labeled}
    parts = {(0, 0, 0)}  # (out-minus-in, outs, fresh) of t labeled roles
    for t in range(max_vertices):
        # up to max_vertices - t slots reach every out-minus-in balance of
        # size at most `reach`; at the balance `rest`, the widest of them
        # hold min(reach, reach + rest) of the profile's out-ports
        reach = (max_vertices - t) * max_arity
        for delta, outs, _ in parts:
            rest = n - m - delta
            edges = m + outs + min(reach, reach + rest)
            if reach >= abs(rest) and edges > cap:
                raise LimitError(
                    f"slots of arity up to {max_arity} make profiles of"
                    f" {edges} edges, past the edge cap of {cap}"
                    " (max_arity, --max-arity)")
        parts = {(delta + b - a, outs + b, fresh + new)
                 for delta, outs, fresh in parts for a, b, new in steps
                 if fresh + new <= degree}
    a_top, b_top = min(max_arity, cap - n), min(max_arity, cap - m)
    return [(("slot", a, b), (a, b), _OTHER)
            for a in range(a_top + 1) for b in range(b_top + 1) if a + b]


def _balanced(roles, r: int, balance: int):
    """The r-element multisets of `roles` whose out-minus-in sum is
    `balance`, as nondecreasing index tuples in lexicographic order."""
    if not r:
        if not balance:
            yield ()
        return
    deltas = [b - a for _, (a, b), _ in roles]
    # the last pick must close the balance: the roles of each delta
    closing: dict[int, list[int]] = {}
    for i, delta in enumerate(deltas):
        closing.setdefault(delta, []).append(i)
    for head in itertools.combinations_with_replacement(range(len(roles)),
                                                        r - 1):
        start = head[-1] if head else 0
        for i in closing.get(balance - sum(deltas[k] for k in head), ()):
            if i >= start:
                yield head + (i,)


def _enumerate_classes(streams: dict, m: int, n: int, roles, max_vertices,
                       accept, max_classes) -> dict:
    """Isomorphism classes of (m,n)-graphs whose vertices are drawn from
    `roles` (triples of a tag, an arity and a kind), as key -> (skeleton,
    labels).  Tags color the vertices for canonical forms;
    `accept(fresh, kept)` filters role multisets by their counts of fresh
    and kept roles.  Only the multisets whose ports can pair up are
    generated.  The roles are taken in arity order, so every multiset
    lists its arities sorted and each arity multiset reads one skeleton
    stream, kept in `streams` (arity tuple -> skeletons) for the caller's
    other calls; a profile past the default edge cap is refused before
    its stream is asked for.  Each tag is rendered once per call."""
    roles = sorted(roles, key=lambda role: role[1])
    texts = [repr(tag) for tag, _, _ in roles]
    kinds = [kind for _, _, kind in roles]
    out: dict = {}
    for r in range(max_vertices + 1):
        for combo in _balanced(roles, r, n - m):
            picked = [kinds[k] for k in combo]
            if not accept(picked.count(_FRESH), picked.count(_KEPT)):
                continue
            arities = tuple([roles[k][1] for k in combo])
            stream = streams.get(arities)
            if stream is None:
                edges = m + sum(b for _, b in arities)
                if edges > DEFAULT_MAX_EDGES:
                    raise LimitError(
                        f"{r} vertices make a profile of {edges} edges,"
                        f" past the edge cap of {DEFAULT_MAX_EDGES}"
                        " (max_vertices, --max-vertices)")
                stream = streams[arities] = list(
                    skeletons(arities, m, n, max_vertices=max_vertices))
            labels = {v: roles[k][0] for v, k in enumerate(combo, start=1)}
            own_texts = {v: texts[k] for v, k in enumerate(combo, start=1)}
            # one class can recur across combinations: repeated slot
            # arities give two roles the same tag
            for key, skeleton in _distinct(stream, own_texts):
                if key not in out:
                    out[key] = (skeleton, labels)
                    if len(out) > max_classes:
                        raise LimitError(
                            f"class enumeration found {len(out)} classes,"
                            f" cap is {max_classes}"
                            " (max_classes, --max-classes)")
    return out


def _retag(rep, texts: dict) -> tuple:
    # the key of rep with each tag's text taken from `texts`
    skeleton, labels = rep
    return skeleton._texts_key({v: texts[tag] for v, tag in labels.items()})


def _subset_with_arities(small: Signature, big: Signature, what: str) -> None:
    for g in small:
        if g.name not in big or big.arity(g.name) != (g.m, g.n):
            raise GraphError(
                f"generator {_quote(g.name)} of the small signature is not "
                f"{what} with the same arity")


def _envelope(sig_k: Signature, sig_l: Signature, base_sig: Signature,
              m: int, n: int, streams: dict, *, degree: int,
              max_vertices: int, max_arity: int, slots: bool,
              max_classes: int) -> tuple[dict, frozenset, list]:
    """The audit's set-up and its envelope: the classes of partially
    labeled (m,n)-graphs over the pushout signature (base plus the new
    names of L), with at most `degree` vertices carrying a new name.
    Unlabeled vertices are open slots, interchangeable within an arity.
    Returns the classes as key -> (skeleton, labels), the
    `canonical.Skeleton` of one representative and its vertex tags, then
    the new names and the slot roles, which the corners reuse; the
    skeleton streams are kept in `streams`."""
    _subset_with_arities(sig_k, sig_l, "in the large signature")
    _subset_with_arities(sig_k, base_sig, "in the base signature")
    new_names = frozenset(set(sig_l.names) - set(sig_k.names))
    clash = new_names & set(base_sig.names)
    if clash:
        raise GraphError(f"new names collide with the base: "
                         f"{_quote(sorted(clash))} ({len(clash)} in all)")
    if m == n > DEFAULT_MAX_EDGES:  # the vertex-free profile, always listed
        raise LimitError(f"{m} bare wires pass the edge cap of"
                         f" {DEFAULT_MAX_EDGES} (m, --m)")
    labeled = [(("lab", g.name), (g.m, g.n), _OTHER) for g in base_sig]
    labeled += [(("lab", g.name), (g.m, g.n), _FRESH) for g in sig_l
                if g.name in new_names]
    slot_roles = (_slot_roles(m, n, max_vertices, max_arity, labeled, degree)
                  if slots else [])
    env = _enumerate_classes(streams, m, n, slot_roles + labeled,
                             max_vertices, lambda fresh, kept: fresh <= degree,
                             max_classes)
    return env, new_names, slot_roles


def filtration_square_check(sig_k: Signature, sig_l: Signature,
                            base_sig: Signature, m: int, n: int, *,
                            max_degree: int, max_vertices: int = 4,
                            max_arity: int = 2, slots: bool = True,
                            max_classes: int = DEFAULT_MAX_CLASSES) -> dict:
    """Per filtration degree, enumerate the four corners of the attaching
    square over class representatives and verify that the generic
    union-find pushout of the span reproduces the next filtration stage,
    together with the cardinality identity |D| = |C| + |V'| - |U'| taken
    on computed images.  The envelope's vertices carry names of the
    pushout signature or, with `slots`, are open slots of arity up to
    max_arity.  The envelope and the V and U corners of every degree draw
    their classes from one memo of skeleton streams that lives for the
    call, so each arity multiset is enumerated once per call.  Each tag
    and each retagged tag is rendered once per call, and each envelope
    class's fresh vertices are counted once.  A profile past the default
    edge cap fails in one line naming max_vertices (m, for bare wires),
    or max_arity where slots make it, before any graph is listed; every
    corner's profile is an envelope profile."""
    if max_degree < 1:
        raise GraphError("max_degree must be >= 1")
    streams: dict = {}
    env, new_names, slot_roles = _envelope(
        sig_k, sig_l, base_sig, m, n, streams, degree=max_degree,
        max_vertices=max_vertices, max_arity=max_arity, slots=slots,
        max_classes=max_classes)
    base_roles = [(("lab", g.name), (g.m, g.n), _OTHER) for g in base_sig]
    lf_roles = [(("lf", g.name), (g.m, g.n), _FRESH) for g in sig_l]
    kf_roles = [(("kf", g.name), (g.m, g.n), _KEPT) for g in sig_k]
    v_roles = slot_roles + base_roles + lf_roles
    u_roles = v_roles + kf_roles

    fresh_of = {key: sum(1 for tag in labels.values()
                         if tag[0] == "lab" and tag[1] in new_names)
                for key, (_, labels) in env.items()}
    env_by_degree = {d: {key for key, count in fresh_of.items() if count <= d}
                     for d in range(max_degree + 1)}

    # the text of each tag of V and U retagged into C and D ("lab") and
    # into V ("lf")
    lab_text = {tag: repr(("lab", tag[1]) if tag[0] in ("lf", "kf") else tag)
                for tag, _, _ in u_roles}
    lf_text = {tag: repr(("lf", tag[1]) if tag[0] == "kf" else tag)
               for tag, _, _ in u_roles}

    degrees = []
    for nd in range(1, max_degree + 1):
        c_keys = env_by_degree[nd - 1]
        d_keys = env_by_degree[nd]

        def accept_v(fresh, kept, nd=nd):
            return fresh == nd

        def accept_u(fresh, kept, nd=nd):
            return kept >= 1 and fresh + kept == nd

        v_reps = _enumerate_classes(streams, m, n, v_roles, max_vertices,
                                    accept_v, max_classes)
        u_reps = _enumerate_classes(streams, m, n, u_roles, max_vertices,
                                    accept_u, max_classes)

        v_into_d = {key: _retag(rep, lab_text) for key, rep in v_reps.items()}
        u_lambda = {key: _retag(rep, lf_text) for key, rep in u_reps.items()}
        u_into_c = {key: _retag(rep, lab_text) for key, rep in u_reps.items()}

        commutes = True
        for key in u_reps:
            if u_lambda[key] not in v_reps \
                    or u_into_c[key] not in c_keys \
                    or v_into_d[u_lambda[key]] != u_into_c[key]:
                commutes = False
        if any(key not in d_keys for key in v_into_d.values()):
            commutes = False

        # glue index items: the class order is not part of the report
        pushout_ok = commutes
        seen_d = []
        if commutes:
            c_list, v_list = list(c_keys), list(v_reps)
            c_at = {k: i for i, k in enumerate(c_list)}
            v_at = {k: j for j, k in enumerate(v_list)}
            items = [("C", i) for i in range(len(c_list))]
            items += [("V", j) for j in range(len(v_list))]
            pairs = [(("C", c_at[u_into_c[key]]), ("V", v_at[u_lambda[key]]))
                     for key in u_reps]
            for cls in quotient_classes(items, pairs):
                vals = {c_list[i] if side == "C" else v_into_d[v_list[i]]
                        for side, i in cls}
                if len(vals) != 1:
                    pushout_ok = False
                    break
                seen_d.append(vals.pop())
        if pushout_ok:
            pushout_ok = len(seen_d) == len(set(seen_d)) \
                and set(seen_d) == d_keys

        u_image = {u_into_c[key] for key in u_reps}
        v_image = set(v_into_d.values())
        identity_ok = len(d_keys) == len(c_keys) + len(v_image) - len(u_image)

        degrees.append({
            "degree": nd,
            "U": len(u_reps), "V": len(v_reps),
            "C": len(c_keys), "D": len(d_keys),
            "lambda_image": len(set(u_lambda.values())),
            "U_image": len(u_image), "V_image": len(v_image),
            "square_commutes": commutes,
            "identity": identity_ok,
            "pushout": pushout_ok,
            "j_bijective": len(c_keys) == len(d_keys),
        })

    return {
        "m": m, "n": n,
        "max_degree": max_degree,
        "max_vertices": max_vertices,
        "env_sizes": [len(env_by_degree[d]) for d in range(max_degree + 1)],
        "degrees": degrees,
        "all_ok": all(row["identity"] and row["pushout"]
                      and row["square_commutes"] for row in degrees),
    }
