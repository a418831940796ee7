"""Mixed-label graphs over a two-part alphabet and their merge rewriting.

A mixed graph labels part of its vertices with composite elements (built
over a signature of atoms) and the rest with plain generator names.
Merging contracts two composite-labeled vertices whose fusion keeps the
graph acyclic; the merged label is the pair's joint wiring pattern as a
single element.  Merging never changes the fully expanded element
(`expand_all`, the module's equality oracle), but it is not confluent:
the same graph can collapse to several distinct irreducible forms, and
`non_confluence_witness` searches out a smallest example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .canonical import enumerate_graphs, key_and_order
from .freeprop import (PropElement, Signature, _expand, combine_signatures,
                       corolla, element_from_dict, element_to_dict,
                       signature_from_dict, signature_to_dict)
from .graphs import (Edge, FormatError, Graph, GraphError, LimitError,
                     Vertex, check, graph_from_dict, graph_to_dict,
                     topological_order, vertex_successors)

DEFAULT_MAX_STATES = 20000


@dataclass(frozen=True)
class MixedGraph:
    """A graph whose vertices carry either a composite label (an element
    over `atoms`) or a plain generator name from `msig`.  Equality and
    hashing go through a canonical key, so two mixed graphs compare equal
    exactly when some isomorphism matches both labelings.  `order` is the
    canonical vertex order the key was computed from."""

    graph: Graph
    atoms: Signature
    msig: Signature
    p_labels: dict[int, PropElement]
    m_labels: dict[int, str]
    key: tuple = field(repr=False)
    order: tuple[int, ...] = field(repr=False, compare=False)

    @classmethod
    def build(cls, graph: Graph, atoms: Signature, msig: Signature,
              p_labels: dict[int, PropElement],
              m_labels: dict[int, str]) -> "MixedGraph":
        check(graph)
        combine_signatures(atoms, msig)
        ids = set(graph.vertex_ids)
        ps, ms = set(p_labels), set(m_labels)
        if ps | ms != ids or ps & ms:
            raise GraphError(
                "composite and generator labels must partition the vertices")
        for v in graph.vertices:
            if v.id in p_labels:
                e = p_labels[v.id]
                for name in e.labels.values():
                    if name not in atoms:
                        raise GraphError(
                            f"composite label of vertex {v.id} uses "
                            f"{name!r}, which is not an atom")
                if (e.m, e.n) != (v.n_in, v.n_out):
                    raise GraphError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"composite label is ({e.m},{e.n})")
            else:
                want = msig.arity(m_labels[v.id])
                if (v.n_in, v.n_out) != want:
                    raise GraphError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"label {m_labels[v.id]!r} wants {want}")
        return cls._keyed(graph, atoms, msig, dict(p_labels), dict(m_labels))

    @classmethod
    def _keyed(cls, graph: Graph, atoms: Signature, msig: Signature,
               p_labels: dict[int, PropElement],
               m_labels: dict[int, str]) -> "MixedGraph":
        # `build` without its checks, for labelings known to be valid
        key, order = key_and_order(graph, _label_text(p_labels, m_labels))
        return cls(graph, atoms, msig, p_labels, m_labels,
                   (key, atoms.generators, msig.generators), tuple(order))

    def __eq__(self, other) -> bool:
        return isinstance(other, MixedGraph) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (f"MixedGraph(({self.graph.m},{self.graph.n}), "
                f"{len(self.p_labels)} composite / "
                f"{len(self.m_labels)} plain vertices)")


def _label_text(p_labels: dict[int, PropElement],
                m_labels: dict[int, str]) -> dict[int, str]:
    """Each vertex's label text for the canonical key: the repr of
    ("P", element key) or ("M", name), built from each element's kept
    `key_text`."""
    out = {vid: f"('P', {e.key_text})" for vid, e in p_labels.items()}
    out.update((vid, f"('M', {name!r})") for vid, name in m_labels.items())
    return out


# ---------------------------------------------------------------------------
# merging

def _reachability(graph: Graph) -> tuple[dict[int, set[int]],
                                         dict[int, set[int]]]:
    """The successor map and, per vertex, the set of vertices reachable by
    a nonempty path."""
    succ = vertex_successors(graph)
    reach: dict[int, set[int]] = {}
    for v in reversed(topological_order(graph)):
        reach[v] = succ[v].union(*(reach[s] for s in succ[v]))
    return succ, reach


def _fusable(succ: dict[int, set[int]], reach: dict[int, set[int]],
             u: int, v: int) -> bool:
    # contracting {u, v} stays acyclic iff no path between them passes
    # through a third vertex
    for a, b in ((u, v), (v, u)):
        for s in succ[a]:
            if s != b and b in reach[s]:
                return False
    return True


def mergeable(g: MixedGraph, u: int, v: int) -> bool:
    """Whether the two composite-labeled vertices can fuse into one."""
    for w in (u, v):
        if w not in g.p_labels:
            raise GraphError(f"vertex {w} is not composite-labeled")
    if u == v:
        raise GraphError("merging needs two distinct vertices")
    return _fusable(*_reachability(g.graph), u, v)


def merge(g: MixedGraph, u: int, v: int) -> MixedGraph:
    """Fuse u and v into one vertex labeled by their joint pattern.

    The merged vertex takes a fresh id; its ports list u's surviving
    ports first, then v's, and its label is the two-vertex subgraph
    (with the pair's mutual wiring) expanded into a single element.
    """
    if not mergeable(g, u, v):
        raise GraphError(f"vertices {u} and {v} cannot be merged")
    fusion = _fusion(g, u, v)
    return _merge(g, u, v, fusion, _fused_label(g, u, v, fusion))


def _fusion(g: MixedGraph, u: int, v: int) -> tuple:
    """How u and v fuse: (the fresh id of the merged vertex, the pair's
    mutual edges, its surviving in-ports, its surviving out-ports), the
    ports listed u's first, then v's, each in port order."""
    # a composite label's arity is its vertex's (`MixedGraph.build`)
    lu, lv = g.p_labels[u], g.p_labels[v]
    pair = {u, v}
    mutual = [e for e in g.graph.edges
              if e.src[0] == "vout" and e.src[1] in pair
              and e.dst[0] == "vin" and e.dst[1] in pair]
    fed = {e.dst for e in mutual}
    used = {e.src for e in mutual}
    ext_in = [("vin", x, i)
              for x, deg in ((u, lu.m), (v, lv.m))
              for i in range(1, deg + 1) if ("vin", x, i) not in fed]
    ext_out = [("vout", x, k)
               for x, deg in ((u, lu.n), (v, lv.n))
               for k in range(1, deg + 1) if ("vout", x, k) not in used]
    return max(g.graph.vertex_ids) + 1, mutual, ext_in, ext_out


def _fused_label(g: MixedGraph, u: int, v: int, fusion: tuple) -> PropElement:
    """The merged label: the two-vertex subgraph of u and v, with their
    mutual wiring and `fusion`'s port order, expanded into one element."""
    _, mutual, ext_in, ext_out = fusion
    lu, lv = g.p_labels[u], g.p_labels[v]
    side = {u: 1, v: 2}
    host_edges = [Edge(("input", pos), ("vin", side[p[1]], p[2]))
                  for pos, p in enumerate(ext_in, start=1)]
    host_edges += [Edge(("vout", side[e.src[1]], e.src[2]),
                        ("vin", side[e.dst[1]], e.dst[2])) for e in mutual]
    host_edges += [Edge(("vout", side[p[1]], p[2]), ("output", pos))
                   for pos, p in enumerate(ext_out, start=1)]
    host = Graph(len(ext_in), len(ext_out),
                 (Vertex(1, lu.m, lu.n), Vertex(2, lv.m, lv.n)),
                 tuple(host_edges))
    return _expand(host, {1: lu, 2: lv})


def _merge(g: MixedGraph, u: int, v: int, fusion: tuple,
           label: PropElement) -> MixedGraph:
    """`merge` of a pair already known to be mergeable, given its
    `_fusion` and its merged label."""
    w, mutual, ext_in, ext_out = fusion
    in_pos = {p: k for k, p in enumerate(ext_in, start=1)}
    out_pos = {p: k for k, p in enumerate(ext_out, start=1)}
    dropped = set(mutual)
    edges = []
    for e in g.graph.edges:
        if e in dropped:
            continue
        src = ("vout", w, out_pos[e.src]) if e.src in out_pos else e.src
        dst = ("vin", w, in_pos[e.dst]) if e.dst in in_pos else e.dst
        edges.append(Edge(src, dst))
    pair = {u, v}
    vertices = tuple(x for x in g.graph.vertices if x.id not in pair) \
        + (Vertex(w, len(ext_in), len(ext_out)),)
    merged = Graph(g.graph.m, g.graph.n, vertices, tuple(edges))
    p_labels = {vid: e for vid, e in g.p_labels.items() if vid not in pair}
    p_labels[w] = label
    # valid by construction: the fused pair has no path through a third
    # vertex, and the new vertex has its label's arity
    return MixedGraph._keyed(merged, g.atoms, g.msig, p_labels,
                             dict(g.m_labels))


def mergeable_pairs(g: MixedGraph) -> list[tuple[int, int]]:
    """All mergeable pairs, ordered by the canonical vertex order (the
    deterministic choice the greedy strategy follows)."""
    pos = {vid: i for i, vid in enumerate(g.order)}
    succ, reach = _reachability(g.graph)
    ranked = sorted(g.p_labels, key=lambda vid: pos[vid])
    return [(a, b) for a, b in itertools.combinations(ranked, 2)
            if _fusable(succ, reach, a, b)]


# ---------------------------------------------------------------------------
# collapse

def collapse(g: MixedGraph, strategy: str = "greedy",
             max_states: int = DEFAULT_MAX_STATES):
    """Merge until irreducible.

    "greedy" repeatedly merges the first pair in canonical order and
    returns one mixed graph; "exhaustive" explores every merge order and
    returns the list of all irreducible forms, order-normalized.
    """
    if strategy == "greedy":
        cur = g
        while True:
            pairs = mergeable_pairs(cur)
            if not pairs:
                return cur
            u, v = pairs[0]
            fusion = _fusion(cur, u, v)
            cur = _merge(cur, u, v, fusion, _fused_label(cur, u, v, fusion))
    if strategy == "exhaustive":
        forms, _ = _exhaustive(g, max_states)
        return forms
    raise ValueError(f"unknown strategy {strategy!r}")


def _exhaustive(g: MixedGraph,
                max_states: int = DEFAULT_MAX_STATES) -> tuple[list, list]:
    """All irreducible forms plus, for each, one merge sequence that
    reaches it.

    States are deduplicated twice.  Each state carries its block shape:
    per composite vertex, the set of original vertices it holds and the
    original (vertex, port) pairs behind its in-ports and its out-ports,
    in port order.  Merging disjoint pairs in either order reaches the
    same shape, and equal shapes are the same mixed graph up to vertex
    ids, so a child whose shape was reached before is dropped before its
    label is expanded or its graph built; the merged labels are memoized
    by the fused block's shape for the same reason.  Children that pass
    are deduplicated by canonical key, which also catches isomorphic
    states of different shapes.  A child dropped by its shape would have
    been dropped by its key, so the states, their order and the count
    held against `max_states` are those of the key test alone."""
    blocks = {v.id: (frozenset((v.id,)),
                     tuple((v.id, i) for i in range(1, v.n_in + 1)),
                     tuple((v.id, k) for k in range(1, v.n_out + 1)))
              for v in g.graph.vertices if v.id in g.p_labels}
    seen = {g.key}
    shapes = {frozenset(blocks.values())}
    memo: dict[tuple, PropElement] = {}  # fused block -> merged label
    stack = [(g, blocks, [])]
    irreducible: dict[tuple, tuple[MixedGraph, list]] = {}
    while stack:
        cur, blocks, seq = stack.pop()
        pairs = mergeable_pairs(cur)
        if not pairs:
            irreducible.setdefault(cur.key, (cur, seq))
            continue
        for a, b in pairs:
            fusion = _fusion(cur, a, b)
            w, _, ext_in, ext_out = fusion
            pair = {a: blocks[a], b: blocks[b]}
            fused = (pair[a][0] | pair[b][0],
                     tuple(pair[x][1][i - 1] for _, x, i in ext_in),
                     tuple(pair[x][2][k - 1] for _, x, k in ext_out))
            rest = {vid: blk for vid, blk in blocks.items()
                    if vid != a and vid != b}
            shape = frozenset((*rest.values(), fused))
            if shape in shapes:
                continue
            shapes.add(shape)
            label = memo.get(fused)
            if label is None:
                label = memo[fused] = _fused_label(cur, a, b, fusion)
            child = _merge(cur, a, b, fusion, label)
            if child.key in seen:
                continue
            if len(seen) >= max_states:
                raise LimitError(f"merge search exceeded the cap of "
                                 f"{max_states} states"
                                 " (max_states, --max-states)")
            seen.add(child.key)
            rest[w] = fused
            stack.append((child, rest, seq + [(a, b)]))
    items = sorted(irreducible.items(), key=lambda kv: repr(kv[0]))
    return ([form for _, (form, _) in items],
            [seq for _, (_, seq) in items])


def expand_all(g: MixedGraph) -> PropElement:
    """The element the mixed graph stands for, with every composite label
    expanded in place.  Invariant under merge, hence the equality oracle
    for collapse results."""
    combined = combine_signatures(g.atoms, g.msig)
    corollas = {name: corolla(combined, name)
                for name in set(g.m_labels.values())}
    inner = {vid: g.p_labels[vid] if vid in g.p_labels
             else corollas[g.m_labels[vid]]
             for vid in g.graph.vertex_ids}
    return _expand(g.graph, inner)


# ---------------------------------------------------------------------------
# hunting for non-confluence

_WITNESS_MENU = ((0, 2), (2, 0), (1, 1), (2, 1), (1, 2), (0, 0))


def _atom_name(arity: tuple[int, int]) -> str:
    return f"p{arity[0]}x{arity[1]}"


def _gen_name(arity: tuple[int, int]) -> str:
    return f"m{arity[0]}x{arity[1]}"


def non_confluence_witness(max_vertices: int = 6,
                           max_p: int | None = None) -> dict | None:
    """Search small mixed graphs for one with several irreducible forms.

    Returns {"graph", "forms", "sequences"} for the first hit: the forms
    are distinct irreducible collapses verified expand_all-equal, and the
    sequences are merge orders reaching the first two.  Returns None when
    the bounds admit no witness (two composite vertices can only merge
    one way, so max_p <= 2 always comes back empty).
    """
    # each atom's one-vertex element, built once per search: it does not
    # depend on which other atoms an alphabet holds
    corollas = {a: corolla(Signature([(_atom_name(a), a[0], a[1])]),
                           _atom_name(a)) for a in _WITNESS_MENU}
    for r in range(3, max_vertices + 1):
        p_cap = r if max_p is None else min(max_p, r)
        if p_cap < 3:
            continue
        for profile in itertools.combinations_with_replacement(
                _WITNESS_MENU, r):
            for m, n in ((0, 0), (1, 1)):
                if m + sum(a[1] for a in profile) \
                        != n + sum(a[0] for a in profile):
                    continue
                for ng in enumerate_graphs(list(profile), m, n,
                                           upto_iso=True):
                    hit = _try_alphabets(ng.graph, list(profile), p_cap,
                                         corollas)
                    if hit is not None:
                        return hit
    return None


def _try_alphabets(graph: Graph, profile: list[tuple[int, int]],
                   p_cap: int, corollas: dict[tuple[int, int], PropElement]
                   ) -> dict | None:
    # corollas: the one-vertex element of each atom, by its arity
    r = len(profile)
    succ, reach = _reachability(graph)
    fusable = {(a, b) for a, b in itertools.combinations(range(1, r + 1), 2)
               if _fusable(succ, reach, a, b)}
    for k in range(3, p_cap + 1):
        for subset in itertools.combinations(range(1, r + 1), k):
            chosen = set(subset)
            live = [p for p in fusable if p[0] in chosen and p[1] in chosen]
            if len(live) < 2:
                continue
            p_arities = {profile[vid - 1] for vid in subset}
            m_arities = {profile[vid - 1] for vid in range(1, r + 1)
                         if vid not in chosen}
            atoms = Signature(
                (_atom_name(a), a[0], a[1]) for a in sorted(p_arities))
            msig = Signature(
                (_gen_name(a), a[0], a[1]) for a in sorted(m_arities))
            mixed = MixedGraph.build(
                graph, atoms, msig,
                {vid: corollas[profile[vid - 1]] for vid in subset},
                {vid: _gen_name(profile[vid - 1])
                 for vid in range(1, r + 1) if vid not in chosen})
            try:
                forms, seqs = _exhaustive(mixed, max_states=2000)
            except LimitError:
                continue
            if len(forms) < 2:
                continue
            expansions = {expand_all(f) for f in forms}
            if len(expansions) != 1:
                continue
            return {"graph": mixed, "forms": forms, "sequences": seqs[:2]}
    return None


# ---------------------------------------------------------------------------
# JSON form

def mixed_to_dict(g: MixedGraph) -> dict:
    labels: dict[int, object] = {}
    extras: dict[int, dict] = {}
    for vid, e in g.p_labels.items():
        labels[vid] = element_to_dict(e)
        extras[vid] = {"alphabet": "P"}
    for vid, name in g.m_labels.items():
        labels[vid] = name
        extras[vid] = {"alphabet": "M"}
    d = graph_to_dict(g.graph, labels=labels, vertex_extras=extras)
    return {"atoms": signature_to_dict(g.atoms),
            "msig": signature_to_dict(g.msig), **d}


def mixed_from_dict(d: object) -> MixedGraph:
    if not isinstance(d, dict):
        raise FormatError("mixed-graph JSON must be an object")
    for fieldname in ("atoms", "msig"):
        if fieldname not in d:
            raise FormatError(f"mixed-graph JSON lacks field {fieldname!r}")
    atoms = signature_from_dict(d["atoms"])
    msig = signature_from_dict(d["msig"])
    graph, extras = graph_from_dict(d)
    try:
        check(graph)
    except GraphError as err:
        raise FormatError(str(err)) from None
    p_labels: dict[int, PropElement] = {}
    m_labels: dict[int, str] = {}
    for v in graph.vertices:
        ex = extras.get(v.id, {})
        side = ex.get("alphabet")
        lab = ex.get("label")
        if side == "P":
            # a bare atom name abbreviates its one-vertex element, built
            # only once the graph is valid and the atom's arity is the
            # vertex's, so the file's edges bound its ports
            if isinstance(lab, str):
                try:
                    m, n = atoms.arity(lab)
                except GraphError as err:
                    raise FormatError(str(err)) from None
                if (m, n) != (v.n_in, v.n_out):
                    raise FormatError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"composite label is ({m},{n})")
                p_labels[v.id] = corolla(atoms, lab)
            elif isinstance(lab, dict):
                p_labels[v.id] = element_from_dict(lab, atoms)
            else:
                raise FormatError(
                    f"vertex {v.id} needs a composite label")
        elif side == "M":
            if not isinstance(lab, str):
                raise FormatError(f"vertex {v.id} needs a generator name")
            m_labels[v.id] = lab
        else:
            raise FormatError(
                f"vertex {v.id} needs \"alphabet\": \"P\" or \"M\"")
    try:
        return MixedGraph.build(graph, atoms, msig, p_labels, m_labels)
    except GraphError as err:
        raise FormatError(str(err)) from None


def remark_mixed(fixture: dict) -> MixedGraph:
    """Assemble the ready-made non-confluence fixture into a MixedGraph."""
    atoms = Signature((name, a[0], a[1])
                      for name, a in fixture["atoms"].items())
    msig = Signature((name, a[0], a[1])
                     for name, a in fixture["msig"].items())
    p_labels = {vid: corolla(atoms, fixture["labels"][vid])
                for vid, side in fixture["alphabet"].items() if side == "P"}
    m_labels = {vid: fixture["labels"][vid]
                for vid, side in fixture["alphabet"].items() if side == "M"}
    return MixedGraph.build(fixture["graph"], atoms, msig,
                            p_labels, m_labels)
