"""Directed port graphs with numbered boundary and vertex ports.

An (m, n)-graph has m numbered global inputs, n numbered global outputs,
and a finite set of vertices, each with numbered input ports and numbered
output ports.  Edges run from a source port (a graph input or a vertex
output port) to a target port (a graph output or a vertex input port).
Every port is the endpoint of exactly one edge, no directed cycle through
vertices is allowed, and graphs need not be connected.  Parallel edges
between the same pair of vertices are fine; they are told apart by their
port indices.

Ports are written as plain tuples, 1-based everywhere:

    ("input", i)      graph input i          (source side only)
    ("output", j)     graph output j         (target side only)
    ("vout", v, k)    output port k of v     (source side only)
    ("vin", v, k)     input port k of v      (target side only)

This module also fixes the JSON interchange format used by the whole
package and the permutation actions on the boundary.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """A structurally valid request that violates a domain rule."""


class FormatError(ValueError):
    """Malformed serialized input (JSON shape, unknown port kind, ...)."""


class LimitError(RuntimeError):
    """A configurable resource cap was exceeded."""


Port = tuple
SRC_KINDS = ("input", "vout")
DST_KINDS = ("output", "vin")
# a NamedTuple's own constructor, called without its Python-level __new__
_tuple_new = tuple.__new__


class Vertex(NamedTuple):
    id: int
    n_in: int
    n_out: int


class Edge(NamedTuple):
    src: Port
    dst: Port


@dataclass(frozen=True, init=False)
class Graph:
    """An (m, n)-graph.  Vertices and edges are kept sorted, so two graphs
    with the same structure compare equal.  The constructor sorts both
    parts and sets all four fields in one step; `_sorted` does the same
    for parts already in order, without the sort."""

    m: int
    n: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, m: int, n: int, vertices: Iterable[Vertex],
                 edges: Iterable[Edge]) -> None:
        self.__dict__.update(m=m, n=n, vertices=tuple(sorted(vertices)),
                             edges=tuple(sorted(edges)))

    @classmethod
    def _sorted(cls, m: int, n: int, vertices: tuple[Vertex, ...],
                edges: tuple[Edge, ...]) -> "Graph":
        # the constructor without its sort, for tuples already in order
        g = object.__new__(cls)
        g.__dict__.update(m=m, n=n, vertices=vertices, edges=edges)
        return g

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices)


def make_graph(m: int, n: int, vertices: Iterable[Vertex | tuple],
               edges: Iterable[Edge | tuple]) -> Graph:
    """Build a Graph from loose tuples: vertices as (id, n_in, n_out),
    edges as (src, dst) port pairs.  Raises GraphError where an integer
    is wanted and something else (a bool included) is given."""
    vs = tuple(v if isinstance(v, Vertex) else Vertex(*v) for v in vertices)
    es = tuple(e if isinstance(e, Edge) else Edge(tuple(e[0]), tuple(e[1]))
               for e in edges)
    # a bool passes for an int in arithmetic and ==, yet True and 1 render
    # differently, so equal canonical keys would hash apart
    numbers = [m, n]
    for v in vs:
        numbers += (v.id, v.n_in, v.n_out)
    for e in es:
        numbers += e.src[1:] + e.dst[1:]
    bad = [x for x in numbers if not is_int(x)]
    if bad:
        raise GraphError(f"graph numbers must be integers, got {bad[0]!r}")
    return Graph(m, n, vs, es)


# ---------------------------------------------------------------------------
# validation

def _port_violations(g: Graph, by_id: dict[int, Vertex]) -> list[dict]:
    out = []
    for e in g.edges:
        for port, kinds, side in ((e.src, SRC_KINDS, "src"),
                                  (e.dst, DST_KINDS, "dst")):
            if not isinstance(port, tuple) or not port or port[0] not in kinds:
                out.append({"condition": "reference",
                            "detail": f"{side} port {port!r} has bad kind"})
                continue
            if port[0] in ("input", "output"):
                bound = g.m if port[0] == "input" else g.n
                if not (len(port) == 2 and _index_in(port[1], bound)):
                    out.append({"condition": "reference", "detail":
                                f"{port[0]} index out of range: {port!r}"})
            else:
                if len(port) != 3 or port[1] not in by_id:
                    out.append({"condition": "reference",
                                "detail": f"unknown vertex in port {port!r}"})
                    continue
                v = by_id[port[1]]
                bound = v.n_out if port[0] == "vout" else v.n_in
                if not _index_in(port[2], bound):
                    out.append({"condition": "reference",
                                "detail": f"port index out of range: {port!r}"})
    return out


def _index_in(x, bound) -> bool:
    # an index equal to a whole number in 1..bound names a declared port
    return 1 <= x <= bound and x == int(x)


def source_ports(g: Graph) -> Iterator[Port]:
    """The declared source ports in order, walked lazily."""
    yield from (("input", i) for i in range(1, g.m + 1))
    for v in g.vertices:
        yield from (("vout", v.id, k) for k in range(1, v.n_out + 1))


def target_ports(g: Graph) -> Iterator[Port]:
    """The declared target ports in order, walked lazily."""
    yield from (("output", j) for j in range(1, g.n + 1))
    for v in g.vertices:
        yield from (("vin", v.id, k) for k in range(1, v.n_in + 1))


_MAX_PORT_RECORDS = 20


def _edge_count_violations(ports: Iterator[Port], declared: int,
                           seen: dict[Port, int], side: str,
                           verb: str) -> list[dict]:
    """Records for the declared ports not met by exactly one edge, in port
    order, up to _MAX_PORT_RECORDS and then one counting the rest.  Every
    edge end is a declared port, so that count needs no walk."""
    bad = declared - sum(1 for c in seen.values() if c == 1)
    want = min(bad, _MAX_PORT_RECORDS)
    faulty = (p for p in ports if seen.get(p, 0) != 1)
    out = [{"condition": f"{side}-port",
            "detail": f"port {p!r} {verb} {seen.get(p, 0)} edges (want 1)"}
           for p in itertools.islice(faulty, want)]
    if bad > want:
        out.append({"condition": f"{side}-port", "count": bad - want,
                    "detail": f"{bad - want} more {side} ports with a number"
                              " of edges other than 1"})
    return out


def vertex_successors(g: Graph) -> dict[int, set[int]]:
    """Adjacency of the vertex-level digraph (boundary edges ignored)."""
    succ: dict[int, set[int]] = {v.id: set() for v in g.vertices}
    for e in g.edges:
        if e.src[0] == "vout" and e.dst[0] == "vin":
            succ[e.src[1]].add(e.dst[1])
    return succ


def port_map(g: Graph) -> tuple[list, dict[int, list], dict[int, list]]:
    """The far port of every port, from one pass over the edges: the ends
    of inputs 1..m then outputs 1..n, and per vertex, in vertex id order,
    the ends of its in-ports and of its out-ports, each in port order.  g
    must be valid: then every port has exactly one edge, so every slot is
    filled.  `build_port_map` does the work, on g's parts."""
    return build_port_map(g.m, g.n, g.vertices, g.edges)


def build_port_map(m: int, n: int, vertices: Iterable[tuple],
                   edges: Iterable[tuple]
                   ) -> tuple[list, dict[int, list], dict[int, list]]:
    """`port_map` of the valid graph with these parts, which need not be
    a `Graph`: vertices as (id, n_in, n_out) triples in id order, edges as
    (src, dst) port pairs in any order.  The one port index builder, for
    callers that hold a graph's wires before, or instead of, a `Graph`."""
    boundary: list = [None] * (m + n)
    ins: dict[int, list] = {}
    outs: dict[int, list] = {}
    for vid, n_in, n_out in vertices:
        ins[vid] = [None] * n_in
        outs[vid] = [None] * n_out
    for src, dst in edges:
        if src[0] == "input":
            boundary[src[1] - 1] = dst
        else:
            outs[src[1]][src[2] - 1] = dst
        if dst[0] == "output":
            boundary[m + dst[1] - 1] = src
        else:
            ins[dst[1]][dst[2] - 1] = src
    return boundary, ins, outs


def validate(g: Graph) -> list[dict]:
    """Check all structural invariants.  Returns a list of violations
    (empty means valid); each violation names the failed condition."""
    out: list[dict] = []
    if g.m < 0 or g.n < 0:
        out.append({"condition": "reference", "detail": "negative boundary"})
        return out
    by_id: dict[int, Vertex] = {}
    n_src, n_dst = g.m, g.n
    for v in g.vertices:
        if v.n_in < 0 or v.n_out < 0:
            out.append({"condition": "reference",
                        "detail": f"vertex {v.id} has negative arity"})
        if v.id in by_id:
            out.append({"condition": "reference",
                        "detail": f"duplicate vertex id {v.id}"})
        by_id[v.id] = v
        n_src += v.n_out
        n_dst += v.n_in
    out.extend(_port_violations(g, by_id))
    if out:
        return out

    src_seen: dict[Port, int] = {}
    dst_seen: dict[Port, int] = {}
    for e in g.edges:
        src_seen[e.src] = src_seen.get(e.src, 0) + 1
        dst_seen[e.dst] = dst_seen.get(e.dst, 0) + 1
    out += _edge_count_violations(source_ports(g), n_src, src_seen,
                                  "source", "feeds")
    out += _edge_count_violations(target_ports(g), n_dst, dst_seen,
                                  "target", "receives")

    try:
        topological_order(g)
    except GraphError as err:
        out.append({"condition": "acyclic", "detail": str(err)})
    return out


def check(g: Graph) -> Graph:
    """Raise GraphError if g is invalid; otherwise return g."""
    violations = validate(g)
    if violations:
        more = sum(v.get("count", 1) for v in violations[1:])
        raise GraphError(f"invalid graph: {violations[0]['detail']}"
                         + (f" (+{more} more)" if more else ""))
    return g


def topological_order(g: Graph) -> list[int]:
    """Vertex ids in a topological order of the vertex digraph.  Of the
    vertices ready at each step the smallest id comes first, so the order
    is deterministic.  Raises GraphError naming the vertices of a directed
    cycle if there is one."""
    succ = vertex_successors(g)
    indeg = dict.fromkeys(succ, 0)
    for ws in succ.values():
        for w in ws:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) < len(succ):
        raise GraphError(
            f"directed cycle through vertices {_leftover_cycle(succ, indeg)}")
    return order


def _leftover_cycle(succ: dict[int, set[int]],
                    indeg: dict[int, int]) -> list[int]:
    # the vertices a Kahn sort leaves over are those with a leftover
    # predecessor, so walking back along predecessors must repeat a vertex;
    # a leftover vertex's successors are all left over too
    left = sorted(v for v, d in indeg.items() if d)
    pred = {w: u for u in left for w in succ[u]}
    step: dict[int, int] = {}
    v = left[0]
    while v not in step:
        step[v] = len(step)
        v = pred[v]
    cycle = list(step)[step[v]:][::-1]
    start = cycle.index(min(cycle))
    cycle = cycle[start:] + cycle[:start]
    return cycle + cycle[:1]


def check_topological_order(g: Graph, order: list[int]) -> None:
    """Raise GraphError unless `order` lists every vertex once, each
    after all its predecessors."""
    if sorted(order) != sorted(g.vertex_ids):
        raise GraphError("order must list every vertex exactly once")
    pos = {vid: i for i, vid in enumerate(order)}
    for e in g.edges:
        if e.src[0] == "vout" and e.dst[0] == "vin" \
                and pos[e.src[1]] >= pos[e.dst[1]]:
            raise GraphError("order is not topological")


# ---------------------------------------------------------------------------
# prop operations

def identity(n: int) -> Graph:
    """The vertex-free (n, n)-graph wiring input i straight to output i."""
    if n < 0:
        raise GraphError(f"identity needs n >= 0, got {n}")
    return Graph(n, n, (),
                 tuple(Edge(("input", i), ("output", i))
                       for i in range(1, n + 1)))


def relabel_vertices(g: Graph, mapping: dict[int, int]) -> Graph:
    """Rename vertex ids by a bijective mapping (ids not mentioned stay).
    Built in one pass: the vertex and edge tuples are renamed into two
    lists, each list is sorted, and the graph is made from the sorted
    parts by `Graph._sorted`.  Once sorted, two vertices sent to one id
    sit side by side, which is where a mapping that is not injective is
    caught."""
    get = mapping.get
    vertices = [_tuple_new(Vertex, (get(vid, vid), a, b))
                for vid, a, b in g.vertices]
    vertices.sort()
    for x, y in zip(vertices, vertices[1:]):
        if x[0] == y[0]:
            raise GraphError("vertex relabeling is not injective")
    edges = []
    append = edges.append
    for src, dst in g.edges:
        if src[0] in ("vout", "vin"):
            src = (src[0], get(src[1], src[1]), src[2])
        if dst[0] in ("vout", "vin"):
            dst = (dst[0], get(dst[1], dst[1]), dst[2])
        append(_tuple_new(Edge, (src, dst)))
    edges.sort()
    return Graph._sorted(g.m, g.n, tuple(vertices), tuple(edges))


def _offset_for(g: Graph) -> int:
    return max((v.id for v in g.vertices), default=0)


def hcompose(g: Graph, h: Graph) -> Graph:
    """Horizontal composite: disjoint union, h's boundary shifted after g's.
    h's vertex ids are offset past g's largest id."""
    off = _offset_for(g)

    def move(p: Port) -> Port:
        if p[0] == "input":
            return ("input", p[1] + g.m)
        if p[0] == "output":
            return ("output", p[1] + g.n)
        return (p[0], p[1] + off, p[2])

    vertices = g.vertices + tuple(Vertex(v.id + off, v.n_in, v.n_out)
                                  for v in h.vertices)
    edges = g.edges + tuple(Edge(move(e.src), move(e.dst)) for e in h.edges)
    return Graph(g.m + h.m, g.n + h.n, vertices, edges)


def vcompose(top: Graph, bottom: Graph) -> Graph:
    """Vertical composite: output j of top is fused with input j of bottom.

    Each fused pair joins one top edge (whose source is genuine: a graph
    input or a vertex output) with one bottom edge (whose target is
    genuine), so through-wires collapse in a single step and no dangling
    junction can survive.
    """
    if top.n != bottom.m:
        raise GraphError(
            f"boundary mismatch: top has {top.n} outputs, "
            f"bottom has {bottom.m} inputs")
    off = _offset_for(top)

    def move(p: Port) -> Port:
        if p[0] in ("vout", "vin"):
            return (p[0], p[1] + off, p[2])
        return p

    upper: dict[int, Port] = {}
    edges: list[Edge] = []
    for e in top.edges:
        if e.dst[0] == "output":
            upper[e.dst[1]] = e.src
        else:
            edges.append(e)
    for e in bottom.edges:
        if e.src[0] == "input":
            edges.append(Edge(upper[e.src[1]], move(e.dst)))
        else:
            edges.append(Edge(move(e.src), move(e.dst)))

    vertices = top.vertices + tuple(Vertex(v.id + off, v.n_in, v.n_out)
                                    for v in bottom.vertices)
    return Graph(top.m, bottom.n, vertices, edges)


def check_permutation(w: tuple[int, ...], n: int) -> tuple[int, ...]:
    w = tuple(w)
    if sorted(w) != list(range(1, n + 1)):
        raise GraphError(f"not a permutation of 1..{n}: {w}")
    return w


def invert_permutation(w: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def permute_inputs(g: Graph, w: tuple[int, ...]) -> Graph:
    """Right boundary action: new input i reads what old input w(i) read.
    Concretely the edge out of ("input", j) moves to ("input", w⁻¹(j))."""
    w = check_permutation(w, g.m)
    inv = invert_permutation(w)

    def move(p: Port) -> Port:
        if p[0] == "input":
            return ("input", inv[p[1] - 1])
        return p

    return Graph(g.m, g.n, g.vertices,
                 tuple(Edge(move(e.src), e.dst) for e in g.edges))


def permute_outputs(g: Graph, w: tuple[int, ...]) -> Graph:
    """Left boundary action: the edge into ("output", j) is re-pointed to
    ("output", w(j))."""
    w = check_permutation(w, g.n)

    def move(p: Port) -> Port:
        if p[0] == "output":
            return ("output", w[p[1] - 1])
        return p

    return Graph(g.m, g.n, g.vertices,
                 tuple(Edge(e.src, move(e.dst)) for e in g.edges))


# ---------------------------------------------------------------------------
# JSON interchange

def graph_to_dict(g: Graph, labels: dict[int, object] | None = None,
                  vertex_extras: dict[int, dict] | None = None) -> dict:
    """The canonical JSON form: field order m, n, vertices, edges; vertices
    sorted by id; edges sorted by source port.  `labels` fills the optional
    per-vertex "label" field; `vertex_extras` appends further fields."""
    vertices = []
    for v in g.vertices:
        entry: dict = {"id": v.id, "in": v.n_in, "out": v.n_out}
        if labels is not None and v.id in labels:
            entry["label"] = labels[v.id]
        if vertex_extras is not None and v.id in vertex_extras:
            entry.update(vertex_extras[v.id])
        vertices.append(entry)
    edges = [{"src": list(e.src), "dst": list(e.dst)} for e in g.edges]
    return {"m": g.m, "n": g.n, "vertices": vertices, "edges": edges}


def is_int(x: object) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def _quote(x: object) -> str:
    # how an error message quotes outside input: `repr(x)`, cut after 80
    # characters with a trailing "...", so huge input gives a short line
    text = repr(x)
    return text if len(text) <= 80 else text[:80] + "..."


def _parse_port(raw: object, kinds: tuple[str, ...]) -> Port:
    if (not isinstance(raw, list) or not raw or raw[0] not in kinds
            or not all(is_int(x) for x in raw[1:])):
        raise FormatError(f"bad port {_quote(raw)}")
    want = 2 if raw[0] in ("input", "output") else 3
    if len(raw) != want:
        raise FormatError(f"bad port {_quote(raw)}")
    return tuple(raw)


def graph_from_dict(d: object) -> tuple[Graph, dict[int, dict]]:
    """Parse the JSON form.  Returns the graph plus, per vertex id, any
    extra fields ("label", "alphabet", "slot", ...) for the callers that
    layer labelings on top.  Raises FormatError on malformed input."""
    if not isinstance(d, dict):
        raise FormatError("graph JSON must be an object")
    try:
        m, n = d["m"], d["n"]
        raw_vertices, raw_edges = d["vertices"], d["edges"]
    except KeyError as missing:
        raise FormatError(f"graph JSON lacks field {missing}") from None
    if not is_int(m) or not is_int(n):
        raise FormatError("m and n must be integers")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise FormatError("vertices and edges must be arrays")
    vertices = []
    extras: dict[int, dict] = {}
    for rv in raw_vertices:
        if not isinstance(rv, dict):
            raise FormatError(f"bad vertex entry {_quote(rv)}")
        try:
            vid, a, b = rv["id"], rv["in"], rv["out"]
        except KeyError as missing:
            raise FormatError(f"vertex entry lacks field {missing}") from None
        if not all(is_int(x) for x in (vid, a, b)):
            raise FormatError(f"bad vertex entry {_quote(rv)}")
        vertices.append(Vertex(vid, a, b))
        rest = {k: v for k, v in rv.items() if k not in ("id", "in", "out")}
        if rest:
            extras[vid] = rest
    edges = []
    for re_ in raw_edges:
        if not isinstance(re_, dict) or "src" not in re_ or "dst" not in re_:
            raise FormatError(f"bad edge entry {_quote(re_)}")
        edges.append(Edge(_parse_port(re_["src"], SRC_KINDS),
                          _parse_port(re_["dst"], DST_KINDS)))
    return Graph(m, n, tuple(vertices), tuple(edges)), extras


def to_json_text(d: object) -> str:
    """The one serializer everything uses, so round-trips are byte-exact."""
    return json.dumps(d, indent=2, ensure_ascii=False) + "\n"

