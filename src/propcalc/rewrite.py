"""Mixed-label graphs over a two-part alphabet and their merge rewriting.

A mixed graph labels part of its vertices with composite elements (built
over a signature of atoms) and the rest with plain generator names.
Merging contracts two composite-labeled vertices whose fusion keeps the
graph acyclic; the merged label is the pair's joint wiring pattern as a
single element.  Merging never changes the fully expanded element
(`expand_all`, the module's equality oracle), but it is not confluent:
the same graph can collapse to several distinct irreducible forms, and
`non_confluence_witness` searches out a smallest example.

Merges are spliced into port maps.  A merge search state (`_State`)
carries its port map, its label texts, its composite labels and its
successor and reachability sets, and each merge builds the child's from
the parent's; a `Graph` is built only for the mixed graphs a caller
receives: `merge`'s result and `collapse`'s forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .canonical import _ported_key_and_order, enumerate_graphs, key_and_order
from .freeprop import (PropElement, Signature, _expand, combine_signatures,
                       corolla, element_from_dict, element_to_dict,
                       signature_from_dict, signature_to_dict)
from .graphs import (Edge, FormatError, Graph, GraphError, LimitError,
                     Vertex, _quote, check, graph_from_dict, graph_to_dict,
                     port_map, topological_order, vertex_successors)

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
                            f"{_quote(name)}, which is not an atom")
                if (e.m, e.n) != (v.n_in, v.n_out):
                    raise GraphError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"composite label is ({e.m},{e.n})")
            else:
                want = msig.arity(m_labels[v.id])
                if (v.n_in, v.n_out) != want:
                    raise GraphError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"label {_quote(m_labels[v.id])} wants {want}")
        key, order = key_and_order(graph, _label_text(p_labels, m_labels))
        return cls(graph, atoms, msig, dict(p_labels), dict(m_labels),
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


class _State(NamedTuple):
    """A mixed graph as the merge search holds it, with no `Graph`: its
    port map (boundary, ins, outs), with `ins` and `outs` in vertex id
    order as `graphs.port_map` lists them; each vertex's label text
    (`_label_text`); the composite labels; the successor and
    reachability sets (`_reachability`); the graph part of the
    `MixedGraph` key, and its order.  The boundary's size (m, n), the
    plain labels and both alphabets never change under merging, so they
    stay on the mixed graph the search started from, and states are keyed
    without the alphabets.  States share every list, dict and set they do
    not change."""

    ports: tuple
    texts: dict[int, str]
    p_labels: dict[int, PropElement]
    succ: dict[int, set[int]]
    reach: dict[int, set[int]]
    key: tuple
    order: tuple[int, ...]


def _state(g: MixedGraph) -> _State:
    return _State(port_map(g.graph), _label_text(g.p_labels, g.m_labels),
                  g.p_labels, *_reachability(g.graph), g.key[0], g.order)


def _mixed(g: MixedGraph, s: _State) -> MixedGraph:
    """The state s of a merge search started from g, as a `MixedGraph`:
    the one place a merged state's `Graph` is built, with its vertices in
    id order and its edges sorted."""
    boundary, ins, outs = s.ports
    m = g.graph.m
    # each source port has one edge: the inputs', then each vertex's
    # out-ports', in id and port order, which is the sorted edge list
    edges = [Edge(("input", i), far)
             for i, far in enumerate(boundary[:m], start=1)]
    edges += [Edge(("vout", vid, k), far) for vid, ends in outs.items()
              for k, far in enumerate(ends, start=1)]
    graph = Graph(m, g.graph.n,
                  tuple(Vertex(vid, len(ends), len(outs[vid]))
                        for vid, ends in ins.items()), tuple(edges))
    return MixedGraph(graph, g.atoms, g.msig, s.p_labels, dict(g.m_labels),
                      (s.key, g.atoms.generators, g.msig.generators),
                      s.order)


def _pairs(s: _State) -> list[tuple[int, int]]:
    # the mergeable pairs of a state, in `mergeable_pairs` order
    pos = {vid: i for i, vid in enumerate(s.order)}
    ranked = sorted(s.p_labels, key=pos.__getitem__)
    return [(a, b) for a, b in itertools.combinations(ranked, 2)
            if _fusable(s.succ, s.reach, a, b)]


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
    (with the pair's mutual wiring) expanded into a single element.  The
    merge is spliced into g's port map (`_splice`), and the result's
    `Graph` is built once, from the spliced map.
    """
    if not mergeable(g, u, v):
        raise GraphError(f"vertices {u} and {v} cannot be merged")
    s = _state(g)
    fusion = _fusion(s.ports, u, v)
    return _mixed(g, _splice(g, s, u, v, fusion,
                             _fused_label(s.p_labels, u, v, fusion)))


def _fusion(ports: tuple, u: int, v: int) -> tuple:
    """How u and v fuse, read from the port map: (the fresh id of the
    merged vertex, the pair's mutual wires as (source, target) ports, its
    surviving in-ports, its surviving out-ports), the ports listed u's
    first, then v's, each in port order."""
    _, ins, outs = ports
    mutual = [(("vout", x, k), far) for x in (u, v)
              for k, far in enumerate(outs[x], start=1)
              if far[0] == "vin" and (far[1] == u or far[1] == v)]
    ext_in = [("vin", x, i) for x in (u, v)
              for i, far in enumerate(ins[x], start=1)
              if far[0] != "vout" or (far[1] != u and far[1] != v)]
    ext_out = [("vout", x, k) for x in (u, v)
               for k, far in enumerate(outs[x], start=1)
               if far[0] != "vin" or (far[1] != u and far[1] != v)]
    return max(ins) + 1, mutual, ext_in, ext_out


def _fused_label(p_labels: dict[int, PropElement], u: int, v: int,
                 fusion: tuple) -> PropElement:
    """The merged label: the two-vertex subgraph of u and v, with their
    mutual wiring and `fusion`'s port order, expanded into one element."""
    _, mutual, ext_in, ext_out = fusion
    lu, lv = p_labels[u], p_labels[v]
    side = {u: 1, v: 2}
    host_edges = [(("input", pos), ("vin", side[p[1]], p[2]))
                  for pos, p in enumerate(ext_in, start=1)]
    host_edges += [(("vout", side[src[1]], src[2]),
                    ("vin", side[dst[1]], dst[2])) for src, dst in mutual]
    host_edges += [(("vout", side[p[1]], p[2]), ("output", pos))
                   for pos, p in enumerate(ext_out, start=1)]
    return _expand(len(ext_in), len(ext_out),
                   ((1, lu.m, lu.n), (2, lv.m, lv.n)), host_edges,
                   {1: lu, 2: lv})


def _splice(g: MixedGraph, s: _State, u: int, v: int, fusion: tuple,
            label: PropElement) -> _State:
    """The state after merging the mergeable pair u, v of s (in a search
    started from g), given the pair's `_fusion` and merged label, built
    from s without a `Graph`.

    The port map drops u and v and takes the fresh vertex w last, so its
    dicts stay in id order; each surviving port of the pair moves to w,
    and the far end of its wire is pointed at w.  Only the lists holding
    those far ends are copied; s keeps its own.  Reachability follows the
    contraction: w reaches R, what u or v reach but the pair; a vertex
    that reached u or v now reaches R and w instead; every other set is
    s's.  Successor sets change alike, with the pair's successors."""
    w, _, ext_in, ext_out = fusion
    boundary, ins, outs = s.ports
    m = g.graph.m
    new_boundary = boundary
    new_ins = {x: ends for x, ends in ins.items() if x != u and x != v}
    new_outs = {x: ends for x, ends in outs.items() if x != u and x != v}
    w_ins = []
    for pos, (_, x, i) in enumerate(ext_in, start=1):
        far = ins[x][i - 1]
        w_ins.append(far)
        if far[0] == "input":
            if new_boundary is boundary:
                new_boundary = list(boundary)
            new_boundary[far[1] - 1] = ("vin", w, pos)
        else:
            ends = new_outs[far[1]]
            if ends is outs[far[1]]:
                ends = new_outs[far[1]] = list(ends)
            ends[far[2] - 1] = ("vin", w, pos)
    w_outs = []
    for pos, (_, x, k) in enumerate(ext_out, start=1):
        far = outs[x][k - 1]
        w_outs.append(far)
        if far[0] == "output":
            if new_boundary is boundary:
                new_boundary = list(boundary)
            new_boundary[m + far[1] - 1] = ("vout", w, pos)
        else:
            ends = new_ins[far[1]]
            if ends is ins[far[1]]:
                ends = new_ins[far[1]] = list(ends)
            ends[far[2] - 1] = ("vout", w, pos)
    new_ins[w] = w_ins
    new_outs[w] = w_outs
    ports = (new_boundary, new_ins, new_outs)

    texts = {x: t for x, t in s.texts.items() if x != u and x != v}
    texts[w] = f"('P', {label.key_text})"
    p_labels = {x: e for x, e in s.p_labels.items() if x != u and x != v}
    p_labels[w] = label
    pair, fresh = {u, v}, {w}
    succ_w = (s.succ[u] | s.succ[v]) - pair
    succ = {x: (ys - pair) | fresh if u in ys or v in ys else ys
            for x, ys in s.succ.items() if x != u and x != v}
    succ[w] = succ_w
    reach_w = (s.reach[u] | s.reach[v]) - pair
    reach = {x: ((ys | reach_w) - pair) | fresh if u in ys or v in ys else ys
             for x, ys in s.reach.items() if x != u and x != v}
    reach[w] = reach_w
    key, order = _ported_key_and_order(m, g.graph.n, ports, texts)
    return _State(ports, texts, p_labels, succ, reach, key, tuple(order))


def mergeable_pairs(g: MixedGraph) -> list[tuple[int, int]]:
    """All mergeable pairs, ordered by the canonical vertex order (the
    deterministic choice the greedy strategy follows)."""
    return _pairs(_state(g))


# ---------------------------------------------------------------------------
# collapse

def collapse(g: MixedGraph, strategy: str = "greedy",
             max_states: int = DEFAULT_MAX_STATES):
    """Merge until irreducible.

    "greedy" repeatedly merges the first pair in canonical order and
    returns one mixed graph; "exhaustive" explores every merge order and
    returns the list of all irreducible forms, order-normalized.  Both
    merge by splicing port maps (`_splice`) and build a `Graph` only for
    what they return.
    """
    if strategy == "greedy":
        s = _state(g)
        while True:
            pairs = _pairs(s)
            if not pairs:
                return _mixed(g, s)
            u, v = pairs[0]
            fusion = _fusion(s.ports, u, v)
            s = _splice(g, s, u, v, fusion,
                        _fused_label(s.p_labels, u, v, fusion))
    if strategy == "exhaustive":
        forms, _ = _exhaustive(g, max_states)
        return forms
    raise ValueError(f"unknown strategy {strategy!r}")


def _exhaustive(g: MixedGraph,
                max_states: int = DEFAULT_MAX_STATES) -> tuple[list, list]:
    """All irreducible forms plus, for each, one merge sequence that
    reaches it.

    A search state is a `_State`: the port map, label texts, composite
    labels, successor and reachability sets and key of a mixed graph, and
    each child is spliced from its parent (`_splice`).  Only the returned
    forms are built as `MixedGraph`s with a `Graph`.

    States are deduplicated twice.  Each state also carries its block
    shape: per composite vertex, the set of original vertices it holds
    and the original (vertex, port) pairs behind its in-ports and its
    out-ports, in port order.  Merging disjoint pairs in either order
    reaches the same shape, and equal shapes are the same mixed graph up
    to vertex ids, so a child whose shape was reached before is dropped
    before its label is expanded or it is spliced; the merged labels are
    memoized by the fused block's shape for the same reason.  Children
    that pass are deduplicated by canonical key, which also catches
    isomorphic states of different shapes.  A child dropped by its shape
    would have been dropped by its key, so the states, their order and
    the count held against `max_states` are those of the key test
    alone."""
    blocks = {v.id: (frozenset((v.id,)),
                     tuple((v.id, i) for i in range(1, v.n_in + 1)),
                     tuple((v.id, k) for k in range(1, v.n_out + 1)))
              for v in g.graph.vertices if v.id in g.p_labels}
    seen = {g.key[0]}
    shapes = {frozenset(blocks.values())}
    memo: dict[tuple, PropElement] = {}  # fused block -> merged label
    stack = [(_state(g), blocks, [])]
    irreducible: dict[tuple, tuple[_State, list]] = {}
    while stack:
        cur, blocks, seq = stack.pop()
        pairs = _pairs(cur)
        if not pairs:
            irreducible.setdefault(cur.key, (cur, seq))
            continue
        for a, b in pairs:
            fusion = _fusion(cur.ports, a, b)
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
                label = memo[fused] = _fused_label(cur.p_labels, a, b,
                                                   fusion)
            child = _splice(g, cur, a, b, fusion, label)
            if child.key in seen:
                continue
            if len(seen) >= max_states:
                raise LimitError(f"merge search exceeded the cap of "
                                 f"{max_states} states"
                                 " (max_states, --max-states)")
            seen.add(child.key)
            rest[w] = fused
            stack.append((child, rest, seq + [(a, b)]))
    # the order of the full `MixedGraph` keys' reprs: each of those is
    # "(", a state key's repr, then the alphabets, which never decide the
    # order, as no state key's repr is a proper prefix of another's
    items = sorted(irreducible.items(), key=lambda kv: repr(kv[0]))
    return ([_mixed(g, s) for _, (s, _) in items],
            [seq for _, (_, seq) in items])


def expand_all(g: MixedGraph) -> PropElement:
    """The element the mixed graph stands for, with every composite label
    expanded in place.  Invariant under merge, hence the equality oracle
    for collapse results."""
    corollas = {name: corolla(g.msig, name)
                for name in set(g.m_labels.values())}
    inner = {vid: g.p_labels[vid] if vid in g.p_labels
             else corollas[g.m_labels[vid]]
             for vid in g.graph.vertex_ids}
    graph = g.graph
    return _expand(graph.m, graph.n, graph.vertices, graph.edges, inner)


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
