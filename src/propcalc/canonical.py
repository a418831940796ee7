"""Canonical labeling, isomorphism, hashing and enumeration of port graphs.

The canonical vertex order comes from a lexicographic ordering of edge-path
labels.  A path from a graph input to a vertex is labeled by the sequence
(input index; in-port of the first edge; then, per further edge, out-port
at its source and in-port at its target).  Each vertex is keyed by the
minimal label over all such paths.  Two distinct paths to the same vertex
never have prefix-comparable labels (a label determines its path edge by
edge, and a proper extension of a path to v would have to revisit v), so
distinct vertices always get distinct keys, hence a total order, whenever
every vertex is reachable from some input.  Each source port has exactly
one edge, so the order is the preorder of one depth-first search that
takes roots by input index and children by out-port: it meets each vertex
first along its minimal path, since a subtree it prunes at a vertex seen
before was already explored, with smaller labels, from that first visit.

The route is chosen from the vertex arities alone, before any work.  In a
DAG every vertex is reachable from an input iff every vertex has at least
one input port, so such graphs take the input-path order; graphs whose
vertices all have outputs take the mirrored output-path order.  Anything
else (vertices with a = 0 and with b = 0 coexist) takes a port-ordered
traversal: each port has exactly one edge, so fixing where a traversal
starts fixes the whole visiting order.  Components touching the boundary
are visited from the boundary ports in index order; a closed component is
rooted at each vertex of its smallest (arity, coarity, label) colour class
in turn, keeping the minimal serialization, and closed components are
sorted by that serialization.  The cost is polynomial in the graph size.

Each key is computed from one port map (`graphs.port_map`, or
`graphs.build_port_map` for a caller without a `Graph`), built once: the
route dispatch reads the arities from it, the walks read the far end of
each port from it, and the key's edge part is written from it in key
order, inputs 1..m and then each vertex's out-ports by canonical rank and
port.  Each source port has exactly one edge, so that order is the
sorted one, and the serializer neither scans the edge list nor sorts.

Isomorphism here always means: a vertex bijection preserving arities,
labels, port indices and boundary indices that carries the edge set across
exactly.  Since every port belongs to exactly one edge, the edge bijection
is determined by the vertex bijection.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import (Edge, Graph, GraphError, LimitError, Vertex,
                     port_map)

DEFAULT_MAX_VERTICES = 8
DEFAULT_MAX_EDGES = 24
_VERTEX_PORTS = ("vout", "vin")


class UnreachableVertexError(GraphError):
    """Some vertex admits no path from a graph input (or to a graph
    output, for the mirrored order)."""

    def __init__(self, vertices: list[int], side: str = "input"):
        self.vertices = vertices
        super().__init__(f"vertices unreachable from graph {side}s: {vertices}")


# ---------------------------------------------------------------------------
# path orders

# Every walk reads the port map (`graphs.port_map`) it is given: `ports` is
# its (boundary, ins, outs) and m its input count.

def _path_order(ports: tuple, m: int, side: str) -> list[int]:
    """Vertex ids sorted by minimal path label (a total order), as one
    depth-first preorder from the `side` ports in index order: down the
    out-ports from the inputs ("input"), or up the in-ports from the
    outputs ("output").  Raises UnreachableVertexError if some vertex has
    no path from a graph input (to a graph output)."""
    boundary, ins, outs = ports
    if side == "input":
        roots, ends = boundary[:m], outs
    else:
        roots, ends = boundary[m:], ins
    seen: set[int] = set()
    order: list[int] = []
    stack = [iter(roots)]
    while stack:
        for far in stack[-1]:
            if far[0] in _VERTEX_PORTS and far[1] not in seen:
                w = far[1]
                seen.add(w)
                order.append(w)
                stack.append(iter(ends[w]))
                break
        else:
            stack.pop()
    if len(order) < len(ends):
        raise UnreachableVertexError(sorted(ends.keys() - seen), side)
    return order


# ---------------------------------------------------------------------------
# canonical form

# A vertex's label enters the key as its text, the repr of the label:
# repr keeps unlabeled (None) and labeled vertices comparable as strings.
_NO_LABEL = repr(None)


def _render(labels: dict[int, object] | None) -> dict[int, str]:
    return {vid: repr(lab) for vid, lab in labels.items()} if labels else {}


def _serialize(m: int, n: int, ports: tuple, texts: dict[int, str],
               order: list[int]) -> tuple:
    # The edge part lists each edge once, from its source port, in key
    # order: inputs 1..m, then the out-ports of each vertex by canonical
    # rank and port.  Each source port has exactly one edge, so this is
    # the renamed edge set sorted, with no sort.
    boundary, ins, outs = ports
    rank = {vid: i for i, vid in enumerate(order, start=1)}
    get = texts.get
    vertex_part = tuple([(len(ins[vid]), len(outs[vid]), get(vid, _NO_LABEL))
                         for vid in order])
    edges = []
    append = edges.append
    for i in range(m):
        far = boundary[i]
        if far[0] == "vin":
            far = ("vin", rank[far[1]], far[2])
        append((("input", i + 1), far))
    for r, vid in enumerate(order, start=1):
        for k, far in enumerate(outs[vid], start=1):
            if far[0] == "vin":
                far = ("vin", rank[far[1]], far[2])
            append((("vout", r, k), far))
    return (m, n, vertex_part, tuple(edges))


def _traversal_order(ports: tuple, texts: dict[int, str] | None
                     ) -> list[int] | None:
    # Only closed components read labels; where their text is unknown
    # (None), the order is None.  Every port has exactly one edge, so once
    # a traversal's root is fixed its visiting order is fixed.
    boundary, ins, outs = ports
    seen: set[int] = set()
    order: list[int] = []
    for far in boundary:
        if far[0] in _VERTEX_PORTS and far[1] not in seen:
            order += _sweep(ins, outs, far[1], seen)
    if len(seen) == len(ins):
        return order
    if texts is None:
        return None
    closed = []
    for vid in ins:
        if vid in seen:
            continue
        if ins[vid] or outs[vid]:
            closed.append(_closed_component(_sweep(ins, outs, vid, seen),
                                            ins, outs, texts))
        else:
            # a vertex with no ports is a closed component of its own
            closed.append(((((0, 0, texts.get(vid, _NO_LABEL)),), ()),
                           [vid]))
    if len(closed) > 1:
        closed.sort()
    for _, block in closed:
        order += block
    return order


def _sweep(ins: dict[int, list], outs: dict[int, list], root: int,
           seen: set[int]) -> list[int]:
    """Vertices of root's component not yet seen, breadth first, each
    vertex's neighbours taken in port order, in-ports first; marks them
    seen."""
    seen.add(root)
    found = [root]
    for u in found:
        for far in ins[u]:
            if far[0] in _VERTEX_PORTS and far[1] not in seen:
                seen.add(far[1])
                found.append(far[1])
        for far in outs[u]:
            if far[0] in _VERTEX_PORTS and far[1] not in seen:
                seen.add(far[1])
                found.append(far[1])
    return found


def _closed_component(component: list[int], ins: dict[int, list],
                      outs: dict[int, list], texts: dict[int, str]) -> tuple:
    """(key, order) of a component that touches no boundary port: the
    minimal local serialization over traversals rooted at each vertex of
    its smallest colour class, and the order that gives it."""
    color = {vid: (len(ins[vid]), len(outs[vid]), texts.get(vid, _NO_LABEL))
             for vid in component}
    classes: dict[tuple, list[int]] = {}
    for vid in component:
        classes.setdefault(color[vid], []).append(vid)
    roots = min(classes.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]
    best = None
    for root in roots:
        # the component was swept from its first vertex, and a sweep
        # from one root is the same whatever was seen outside it
        found = (component if root == component[0]
                 else _sweep(ins, outs, root, set()))
        pos = {vid: i for i, vid in enumerate(found)}
        # each edge once, from its source's out-port; already sorted
        edges = tuple((pos[u], k, pos[w], port)
                      for u in found
                      for k, (_, w, port) in enumerate(outs[u]))
        key = (tuple(color[u] for u in found), edges)
        if best is None or key < best[0]:
            best = (key, found)
    return best


def canonical_order(g: Graph,
                    label_key: dict[int, str] | None = None) -> list[int]:
    """The canonical vertex order.  The route depends only on the vertex
    arities, so isomorphic graphs always take the same one: the input-path
    order if every vertex has an input, else the output-path order if
    every vertex has an output, else the port-ordered traversal (boundary
    components from the boundary ports in index order, then closed
    components sorted by their minimal serialization)."""
    return _route_order(port_map(g), g.m, _render(label_key))


def _route_order(ports: tuple, m: int,
                 texts: dict[int, str] | None) -> list[int] | None:
    """The canonical order by the route the arities choose, read from the
    port map.  Only closed components of the traversal read labels.  If
    `texts` is None (labels unknown), the order is None exactly where
    labels would steer it."""
    _, ins, outs = ports
    if all(ins.values()):
        return _path_order(ports, m, "input")
    if all(outs.values()):
        return _path_order(ports, m, "output")
    return _traversal_order(ports, texts)


@dataclass(frozen=True)
class CanonicalForm:
    """A graph in canonical form.  `order` lists the original vertex ids
    in canonical sequence, `labels` carries each label to its vertex's
    rank in that order, and `key` is the hashable serialization that
    defines equality.  `graph`, the graph renamed so that vertex ids 1..r
    follow the canonical order, and `digest`, the key's `graph_hash`, are
    computed from the key on each read; neither is stored."""

    labels: dict[int, str] | None
    order: tuple[int, ...]
    key: tuple

    @property
    def graph(self) -> Graph:
        return _key_graph(self.key)

    @property
    def digest(self) -> int:
        return _key_hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalForm) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def _key_graph(key: tuple) -> Graph:
    # the graph renamed so that vertex ids 1..r follow the canonical
    # order: the key lists its vertices in id order and its edges sorted
    m, n, vertex_part, edge_part = key
    return Graph._sorted(m, n,
                         tuple(Vertex(i, a, b) for i, (a, b, _)
                               in enumerate(vertex_part, start=1)),
                         tuple(Edge(src, dst) for src, dst in edge_part))


def canonical_key(g: Graph, labels: dict[int, str] | None = None) -> tuple:
    """The key of `canonicalize(g, labels)`, without building the renamed
    graph."""
    return key_and_order(g, _render(labels))[0]


def key_and_order(g: Graph,
                  texts: dict[int, str]) -> tuple[tuple, list[int]]:
    """The canonical key and order of g, each vertex's label given by its
    text: `key_and_order(g, {v: repr(lab) ...})` is
    `(canonical_key(g, labels), canonical_order(g, labels))`.  A caller
    that keeps its labels' text rendered saves rendering it per call."""
    return _ported_key_and_order(g.m, g.n, port_map(g), texts)


def _ported_key_and_order(m: int, n: int, ports: tuple,
                          texts: dict[int, str]) -> tuple[tuple, list[int]]:
    # `key_and_order` of the valid (m, n)-graph with this port map, which
    # every step reads: the route, its walk and the serializer
    order = _route_order(ports, m, texts)
    return _serialize(m, n, ports, texts, order), order


def canonicalize(g: Graph,
                 labels: dict[int, str] | None = None) -> CanonicalForm:
    return _canonicalize_ports(g.m, g.n, port_map(g), labels)


def _canonicalize_ports(m: int, n: int, ports: tuple,
                        labels: dict[int, str] | None = None
                        ) -> CanonicalForm:
    # `canonicalize` of the valid (m, n)-graph with this port map, for a
    # caller that holds the map and no `Graph`
    key, order = _ported_key_and_order(m, n, ports, _render(labels))
    new_labels = None
    if labels is not None:
        rename = {vid: i for i, vid in enumerate(order, start=1)}
        new_labels = {rename[vid]: lab for vid, lab in labels.items()}
    # built the way `Graph._sorted` builds a graph: all fields at once
    form = object.__new__(CanonicalForm)
    form.__dict__.update(labels=new_labels, order=tuple(order), key=key)
    return form


def is_isomorphic(g: Graph, h: Graph,
                  labels_g: dict[int, str] | None = None,
                  labels_h: dict[int, str] | None = None) -> bool:
    return canonical_key(g, labels_g) == canonical_key(h, labels_h)


def graph_hash(g: Graph, labels: dict[int, str] | None = None) -> int:
    """Stable 64-bit digest of the canonical key.  The key is written in
    a fixed-width little-endian encoding, so the digest is the same in
    every process and on every machine, unlike the builtin hash."""
    return _key_hash(canonical_key(g, labels))


# the code of each edge end's port kind; the kind fixes how many indices
# follow it
_PORT_CODE = {"input": 0, "output": 1, "vout": 2, "vin": 3}


def _key_hash(key: tuple) -> int:
    # The digest of a canonical key: `graph_hash` of any graph with that
    # key.  Integers first, as int64: m, n, the vertex and edge counts;
    # per vertex its arities and its text's byte length; per edge end its
    # port code and indices.  The texts' bytes follow.  The counts, codes
    # and lengths fix where every field ends, so distinct keys never
    # share an encoding.  Every integer of a valid graph's key counts
    # ports held in memory, so it fits in int64.  A label's repr may hold
    # a lone surrogate, which strict UTF-8 refuses; surrogatepass keeps
    # the text encoding injective.
    m, n, vertex_part, edge_part = key
    ints = [m, n, len(vertex_part), len(edge_part)]
    raw = []
    for a, b, text in vertex_part:
        data = text.encode("utf-8", "surrogatepass")
        raw.append(data)
        ints += (a, b, len(data))
    code = _PORT_CODE
    for src, dst in edge_part:
        ints.append(code[src[0]])
        ints += src[1:]
        ints.append(code[dst[0]])
        ints += dst[1:]
    try:
        packed = struct.pack(f"<{len(ints)}q", *ints)
    except struct.error:
        raise GraphError("canonical key holds an integer outside int64: "
                         "not a valid graph") from None
    digest = hashlib.blake2b(packed, digest_size=8)
    digest.update(b"".join(raw))
    return int.from_bytes(digest.digest(), "big")


# ---------------------------------------------------------------------------
# enumeration

@dataclass(frozen=True)
class NumberedGraph:
    """A graph whose vertices are numbered by their ids; renumbering is
    `graphs.relabel_vertices`.  `enumerate_graphs` builds each one the
    way `Graph._sorted` builds a graph, setting its field directly; the
    constructor gives the same object."""

    graph: Graph


def enumerate_graphs(arities: list[tuple[int, int]], m: int, n: int, *,
                     upto_iso: bool = False,
                     max_vertices: int | None = None,
                     max_edges: int | None = None):
    """Yield every valid numbered graph on the given vertex profile, in a
    fixed lexicographic order of port matchings (so the stream is
    deterministic): source ports (inputs, then vertex out-ports by vertex
    and port) each take the least free target port (outputs, then vertex
    in-ports) left.  Where the next source starts a vertex's out-ports,
    the search cuts the branch if it can tell that no acyclic completion
    extends it; it cuts no branch that holds a graph, so the stream and
    its order are those of the uncut search.  With upto_iso, only the
    first representative of each isomorphism class is emitted, as
    `distinct` reads them from the numbered stream.  A profile whose ports
    cannot pair up yields nothing, before the vertex and edge caps are
    checked."""
    if upto_iso:
        for _, sk in distinct(skeletons(arities, m, n,
                                        max_vertices=max_vertices,
                                        max_edges=max_edges)):
            yield NumberedGraph(sk.graph)
        return
    if m < 0 or n < 0 or any(a < 0 or b < 0 for a, b in arities):
        raise GraphError("negative arity or boundary")
    edge_count = m + sum(b for _, b in arities)
    if edge_count != n + sum(a for a, _ in arities):
        return  # the ports cannot pair up, so there is nothing to cap
    r = len(arities)
    cap = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    if r > cap:
        raise LimitError(f"profile has {r} vertices, cap is {cap} "
                         "(max_vertices, --max-vertices)")
    edge_cap = DEFAULT_MAX_EDGES if max_edges is None else max_edges
    if edge_count > edge_cap:
        raise LimitError(f"{edge_count} edges, cap is {edge_cap} "
                         "(max_edges, --max-edges)")

    # built with the first graph: many calls in a sweep yield none
    vertices: tuple[Vertex, ...] | None = None
    sources: list[tuple] = [("input", i) for i in range(1, m + 1)]
    targets: list[tuple] = [("output", j) for j in range(1, n + 1)]
    fed = [0] * n  # the vertex fed by each target, 0 for a graph output
    free_in = [0]  # unfed in-ports per vertex
    n_out = [0]
    starts = []  # (source index, vertex) where each vertex's out-ports start
    for v, (a, b) in enumerate(arities, start=1):
        if b:
            starts.append((len(sources), v))
        sources += [("vout", v, k) for k in range(1, b + 1)]
        targets += [("vin", v, k) for k in range(1, a + 1)]
        fed += [v] * a
        free_in.append(a)
        n_out.append(b)
    width = len(targets)
    # checks[i]: the owner w of source i where the search asks
    # completable(w) before placing it, else 0.  Once only the last
    # owner's ports are left, the search settles a branch about as fast
    # as the test would, so the test skips that point.
    checks = [0] * (edge_count + 1)
    for i, v in starts[:-1]:
        checks[i] = v

    used = [False] * width
    chosen: list[Edge] = []
    # edges[i][t]: the edge from source i to target t, built on first use
    edges: list[list[Edge | None]] = [[None] * width
                                      for _ in range(edge_count)]
    desc = [0] * (r + 1)  # desc[v] = bitmask of vertices reachable from v

    def completable(w: int) -> bool:
        # Called where every input is placed, vertices below w have no
        # free out-port and vertices from w on have all of theirs.  A
        # completion exists iff some order of the vertices, topological
        # for the edges placed so far, feeds each vertex's free in-ports
        # from free out-ports of the vertices before it (the new edges
        # then all run forward, so the graph is acyclic).  Build one
        # greedily: place a ready vertex (no unplaced vertex reaches it)
        # that is affordable (its free in-ports fit in the free out-ports
        # placed so far) and frees at least as many ports as it takes.
        # Moving such a vertex to the front of any valid order keeps it
        # valid, since every later vertex then has at least as many ports
        # to draw on, so placing it never loses a completion.  If no ready
        # vertex is affordable, no order can go on: no completion.  If an
        # affordable ready vertex takes more than it frees, the greedy
        # cannot decide: answer maybe (True).  Such a vertex stays ready
        # and affordable as the greedy goes on, so the answer comes at once.
        #
        # Vertices from w on have no out-edge yet, so only vertices below
        # w reach anything.  One below w with free in-ports (hungry) frees
        # nothing, so the greedy never places it, nor anything it reaches;
        # one below w with none is placed for free once ready.  So the
        # greedy places the vertices from w on that no hungry vertex
        # reaches, in any order that keeps them affordable.
        hungry: list[int] = []
        blocked = 0
        for c in range(1, w):
            if free_in[c]:
                hungry.append(c)
                blocked |= desc[c]
        waiting = [v for v in range(w, r + 1) if not (blocked >> v) & 1]
        pool = 0
        while waiting:
            rest = []
            for v in waiting:
                take = free_in[v]
                if take > pool:
                    rest.append(v)
                elif n_out[v] < take:
                    return True
                else:
                    pool += n_out[v] - take
            if len(rest) == len(waiting):
                break
            waiting = rest
        # stuck or done: every vertex still waiting is unaffordable
        for c in hungry:
            if free_in[c] <= pool and not (blocked >> c) & 1:
                return True
        return not hungry and not waiting

    def assign(i: int):
        nonlocal vertices
        if i == edge_count:
            if vertices is None:
                vertices = tuple(Vertex(v, a, b) for v, (a, b)
                                 in enumerate(arities, start=1))
            # sources run in sorted order and so do the vertices
            ng = object.__new__(NumberedGraph)
            ng.__dict__["graph"] = Graph._sorted(m, n, vertices,
                                                 tuple(chosen))
            yield ng
            return
        src = sources[i]
        u = src[1] if src[0] == "vout" else 0
        owner = checks[i + 1]
        row = edges[i]
        for t in range(width):
            if used[t]:
                continue
            v = fed[t]
            snapshot = None
            if v:
                if u:
                    if u == v or (desc[v] >> u) & 1:
                        continue
                    snapshot = desc.copy()
                    gain = desc[v] | (1 << v)
                    for x in range(1, r + 1):
                        if x == u or (desc[x] >> u) & 1:
                            desc[x] |= gain
                free_in[v] -= 1
            used[t] = True
            edge = row[t]
            if edge is None:
                edge = row[t] = Edge(src, targets[t])
            chosen.append(edge)
            if not owner or completable(owner):
                yield from assign(i + 1)
            chosen.pop()
            used[t] = False
            if v:
                free_in[v] += 1
                if snapshot is not None:
                    desc[:] = snapshot

    try:
        if not checks[0] or completable(checks[0]):
            yield from assign(0)
    finally:
        # assign reaches itself through its closure; unbinding it lets the
        # search state go by reference counting, not the cycle collector
        del assign


class Skeleton(NamedTuple):
    """A numbered graph with its canonical skeleton.  On the input-path
    and output-path routes, and on the traversal route when every vertex
    is connected to the boundary, the canonical order reads no labels:
    `order` is that order, `key` the unlabeled key and `class_id` numbers
    the distinct unlabeled keys of one stream.  Where the graph has a
    closed component, whose traversal the labels steer, all three are
    None."""

    graph: Graph
    order: tuple[int, ...] | None
    key: tuple | None
    class_id: int | None

    def _texts_key(self, texts: dict[int, str]) -> tuple:
        # `key_and_order(self.graph, texts)[0]`, from the skeleton where
        # there is one
        if self.order is None:
            return key_and_order(self.graph, texts)[0]
        return _with_texts(self.key, _text_column(texts, self.order))


def _text_column(texts: dict[int, str], order: tuple[int, ...]) -> tuple:
    get = texts.get
    return tuple([get(vid, _NO_LABEL) for vid in order])


def _with_texts(key: tuple, column: tuple) -> tuple:
    # the labeled key is the unlabeled one with its text column replaced:
    # the order, the arities and the edges do not read labels
    m, n, vertex_part, edge_part = key
    return (m, n, tuple([(a, b, text) for (a, b, _), text
                         in zip(vertex_part, column)]), edge_part)


def skeletons(arities: list[tuple[int, int]], m: int, n: int, *,
              max_vertices: int | None = None,
              max_edges: int | None = None):
    """Yield the `Skeleton` of each graph in the numbered stream of
    `enumerate_graphs`, in stream order."""
    class_ids: dict[tuple, int] = {}
    for ng in enumerate_graphs(arities, m, n, max_vertices=max_vertices,
                               max_edges=max_edges):
        graph = ng.graph
        ports = port_map(graph)
        order = _route_order(ports, m, None)
        if order is None:
            yield Skeleton(graph, None, None, None)
            continue
        order = tuple(order)
        key = _serialize(m, n, ports, {}, order)
        yield Skeleton(graph, order, key,
                       class_ids.setdefault(key, len(class_ids)))


def distinct(stream, labels: dict[int, object] | None = None):
    """Yield (key, skeleton) for the first skeleton of each isomorphism
    class in `stream`, in stream order; vertex i carries labels[i], and
    the key is its `canonical_key`.  Skeletons with a label-free order
    are told apart by their unlabeled class and the labels read in that
    order, so only new classes build a key."""
    return _distinct(stream, _render(labels))


def _distinct(stream, texts: dict[int, str]):
    # `distinct` with each label given by its text, for a caller that
    # keeps its labels' text rendered
    seen: set = set()
    for sk in stream:
        if sk.order is None:
            key = key_and_order(sk.graph, texts)[0]
            if key in seen:
                continue
            seen.add(key)
        else:
            column = _text_column(texts, sk.order) if texts else ()
            mark = (sk.class_id, column)
            if mark in seen:
                continue
            seen.add(mark)
            key = _with_texts(sk.key, column) if texts else sk.key
        yield key, sk


def count_graphs(arities: list[tuple[int, int]], m: int, n: int, *,
                 upto_iso: bool = False, **kw) -> int:
    return sum(1 for _ in enumerate_graphs(arities, m, n,
                                           upto_iso=upto_iso, **kw))
