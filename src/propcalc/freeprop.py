"""Freely generated prop elements over a signature.

An element is a labeled graph taken up to label-preserving isomorphism,
held as its canonical key: equality is key equality, which is exactly
equality in the free structure, and the canonical graph is built from
the key only when read.  `expand` substitutes an element into each
vertex of a host graph (the flattening of nested elements), reading the
inner elements' keys, and `extend_morphism` evaluates elements in any
target that implements the small `PropOps` interface, by slicing the
graph into wire layers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Protocol, Sequence, TypeVar

from .canonical import (CanonicalForm, _canonicalize_ports, _key_graph,
                        canonicalize, distinct, skeletons)
from .graphs import (Edge, FormatError, Graph, GraphError, Port, Vertex,
                     _quote, build_port_map, check, graph_from_dict,
                     graph_to_dict, hcompose, identity, is_int,
                     permute_inputs, permute_outputs, port_map,
                     topological_order, vcompose)


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True, order=True)
class Generator:
    """A named operation with m inputs and n outputs."""

    name: str
    m: int
    n: int


class Signature:
    """A finite list of generators with unique names."""

    def __init__(self, generators: Iterable[Generator | tuple]):
        gens = tuple(g if isinstance(g, Generator) else Generator(*g)
                     for g in generators)
        by_name: dict[str, Generator] = {}
        for g in gens:
            if g.m < 0 or g.n < 0:
                raise GraphError(
                    f"generator {_quote(g.name)} has negative arity")
            if g.name in by_name:
                raise GraphError(f"duplicate generator name {_quote(g.name)}")
            by_name[g.name] = g
        self.generators = gens
        self._by_name = by_name

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def arity(self, name: str) -> tuple[int, int]:
        try:
            g = self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown generator {_quote(name)}") from None
        return (g.m, g.n)

    def restrict(self, names: Iterable[str]) -> "Signature":
        keep = set(names)
        missing = keep - set(self.names)
        if missing:
            raise GraphError(f"unknown generators {sorted(missing)}")
        return Signature(g for g in self.generators if g.name in keep)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) \
            and self.generators == other.generators

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{g.m}->{g.n}" for g in self.generators)
        return f"Signature({inner})"


def combine_signatures(a: Signature, b: Signature) -> Signature:
    """Disjoint union of generator lists; name clashes are an error."""
    clash = set(a.names) & set(b.names)
    if clash:
        raise GraphError(f"generator names appear on both sides: "
                         f"{sorted(clash)}")
    return Signature(a.generators + b.generators)


def signature_to_dict(sig: Signature) -> dict:
    return {"generators": [{"name": g.name, "m": g.m, "n": g.n}
                           for g in sig.generators]}


def signature_from_dict(d: object) -> Signature:
    if not isinstance(d, dict) or not isinstance(d.get("generators"), list):
        raise FormatError("signature JSON must be {\"generators\": [...]}")
    gens = []
    for entry in d["generators"]:
        if not isinstance(entry, dict):
            raise FormatError(f"bad generator entry {_quote(entry)}")
        try:
            name, m, n = entry["name"], entry["m"], entry["n"]
        except KeyError as missing:
            raise FormatError(f"generator lacks field {missing}") from None
        if not isinstance(name, str) or not is_int(m) or not is_int(n):
            raise FormatError(f"bad generator entry {_quote(entry)}")
        gens.append(Generator(name, m, n))
    try:
        return Signature(gens)
    except GraphError as err:
        raise FormatError(str(err)) from None


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class PropElement:
    """A labeled (m, n)-graph in canonical form.  Equality and hashing go
    through the canonical key, so they decide equality in the free prop.

    An element is its key: `build` and every operation below make it
    from its `CanonicalForm` in one step, setting m, n, labels and key
    only.  Its labels are keyed by canonical rank, so vertex i of the key
    (ids 1..r in key order) carries `labels[i]`, and `_expand` reads
    inner elements' vertices and wires straight from their keys.  The
    two compositions and both permutations are substitutions into boxes
    (one-vertex graphs), so they read no operand's graph.
    `graph`, the key's graph (`CanonicalForm.graph`), is built the first
    time it is read and then kept in the instance dict; the library reads
    it only to serialize an element, in `extend_morphism` and in
    `tensor.evaluate`.  The constructor keeps the graph it is given,
    which may be any numbering of the key's graph with `labels` keyed to
    match: such an element is fit for `extend_morphism` and `evaluate`,
    which walk `graph`, but not for `expand` or the four operations.
    What else is derived from the graph and labels alone and kept for
    reuse (`key_text`, and `tensor.evaluate`'s contraction plan) lives in
    the instance dict too, outside equality, hashing, repr and
    serialization."""

    m: int
    n: int
    graph: Graph
    labels: dict[int, str]
    key: tuple = field(repr=False)

    @classmethod
    def build(cls, graph: Graph, labels: dict[int, str],
              sig: Signature | None = None) -> "PropElement":
        check(graph)
        ids = set(graph.vertex_ids)
        if set(labels) != ids:
            raise GraphError("labeling must cover the vertices exactly")
        if sig is not None:
            for v in graph.vertices:
                want = sig.arity(labels[v.id])
                if (v.n_in, v.n_out) != want:
                    raise GraphError(
                        f"vertex {v.id} has arity {(v.n_in, v.n_out)}, "
                        f"label {_quote(labels[v.id])} wants {want}")
        return cls._canonical(graph, labels)

    @classmethod
    def _canonical(cls, graph: Graph,
                   labels: dict[int, str]) -> "PropElement":
        # `build` without its checks, for results valid by construction
        return cls._of_form(graph.m, graph.n, canonicalize(graph, labels))

    @classmethod
    def _of_form(cls, m: int, n: int, cf: CanonicalForm) -> "PropElement":
        # built the way `Graph._sorted` builds a graph: all fields at
        # once, `graph` left to be built from the key when read
        e = object.__new__(cls)
        e.__dict__.update(m=m, n=n, labels=cf.labels or {}, key=cf.key)
        return e

    def __getattr__(self, name: str):
        # called only for an attribute the instance dict lacks
        if name != "graph":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        graph = self.__dict__["graph"] = _key_graph(self.key)
        return graph

    @cached_property
    def key_text(self) -> str:
        """`repr(self.key)`, rendered on first use and kept, so a graph
        labeled by elements renders each label once."""
        return repr(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, PropElement) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (f"PropElement(({self.m},{self.n}), "
                f"{len(self.key[2])} vertices)")


def _box(m: int, n: int) -> Graph:
    # the one-vertex (m, n)-graph, each boundary port wired to vertex 1
    edges = [Edge(("input", i), ("vin", 1, i)) for i in range(1, m + 1)]
    edges += [Edge(("vout", 1, k), ("output", k)) for k in range(1, n + 1)]
    return Graph(m, n, (Vertex(1, m, n),), tuple(edges))


def corolla(sig: Signature, name: str) -> PropElement:
    """The generator itself as a one-vertex element."""
    # a one-vertex element is valid by construction
    return PropElement._canonical(_box(*sig.arity(name)), {1: name})


# An element operation is the graph operation on boxes, which checks its
# arguments, then its operands substituted into the boxes, in order.

def _substitute(host: Graph, *inner: PropElement) -> PropElement:
    return _expand(host.m, host.n, host.vertices, host.edges,
                   dict(enumerate(inner, start=1)))


def identity_element(n: int) -> PropElement:
    return _substitute(identity(n))


def pelem_hcompose(a: PropElement, b: PropElement) -> PropElement:
    return _substitute(hcompose(_box(a.m, a.n), _box(b.m, b.n)), a, b)


def pelem_vcompose(top: PropElement, bottom: PropElement) -> PropElement:
    return _substitute(vcompose(_box(top.m, top.n), _box(bottom.m, bottom.n)),
                       top, bottom)


def pelem_permute_inputs(e: PropElement, w: tuple[int, ...]) -> PropElement:
    return _substitute(permute_inputs(_box(e.m, e.n), w), e)


def pelem_permute_outputs(e: PropElement, w: tuple[int, ...]) -> PropElement:
    return _substitute(permute_outputs(_box(e.m, e.n), w), e)


# ---------------------------------------------------------------------------
# substitution (the flattening of nested elements)

def expand(outer: Graph, inner: dict[int, PropElement]) -> PropElement:
    """Substitute an element for every vertex of the host graph.

    Boundary wires are spliced by walking them: each host edge with a
    genuine source (a host input or an inner vertex's out-port) follows
    inner through-wires (an input fed straight to an output) and the host
    edges after them until it reaches a genuine target.  A host edge that
    leaves a through-wire is passed by the walk from its chain's head, so
    it is not walked itself.  The result's wires are keyed from their port
    map (`graphs.build_port_map`); no intermediate graph is built.  Raises
    GraphError if `outer` is invalid or an inner element is missing or has
    the wrong arity.
    """
    check(outer)
    return _expand(outer.m, outer.n, outer.vertices, outer.edges, inner)


def _expand(m: int, n: int, vertices: Sequence[tuple],
            edges: Sequence[tuple],
            inner: dict[int, PropElement]) -> PropElement:
    # `expand` of the valid (m, n)-host with these parts, which need not
    # be a `Graph`: vertices as (id, n_in, n_out) triples in id order,
    # edges as (src, dst) port pairs.  Each inner element's vertices and
    # wires are read from its key, which is exact for elements in
    # canonical form (see `PropElement`).  The result needs no check: a
    # cycle in it would project to a cycle in the host.  Its wires are
    # collected as plain port pairs and keyed from their port map.
    for vid, n_in, n_out in vertices:
        e = inner.get(vid)
        if e is None:
            raise GraphError(f"vertex {vid} has no inner element")
        if (e.m, e.n) != (n_in, n_out):
            raise GraphError(
                f"vertex {vid} has arity {(n_in, n_out)}, inner "
                f"element is ({e.m},{e.n})")

    # the result's vertices are numbered 1..N, host vertex by host vertex,
    # each inner element's in its key order: inner vertex i of host
    # vertex v becomes offset[v] + i
    offset: dict[int, int] = {}
    new_vertices: list[tuple[int, int, int]] = []
    labels: dict[int, str] = {}
    new_edges: list[tuple[Port, Port]] = []

    # per host vertex v and inner boundary index: the far end of inner
    # input i, and the source that feeds inner output j
    after_input: dict[tuple[int, int], Port] = {}
    before_output: dict[tuple[int, int], Port] = {}

    def lift(vid: int, port: Port) -> Port:
        # a port of an inner vertex of host vertex vid, in the result
        return (port[0], offset[vid] + port[1], port[2])

    for vid, _, _ in vertices:
        e = inner[vid]
        _, _, vertex_part, edge_part = e.key
        base = offset[vid] = len(new_vertices)
        inner_labels = e.labels
        for i, (a, b, _) in enumerate(vertex_part, start=1):
            new_vertices.append((base + i, a, b))
            labels[base + i] = inner_labels[i]
        for src, dst in edge_part:
            if src[0] == "input":
                after_input[vid, src[1]] = dst
            if dst[0] == "output":
                before_output[vid, dst[1]] = src
            elif src[0] == "vout":
                new_edges.append((lift(vid, src), lift(vid, dst)))

    host_dst = dict(edges)
    for src, dst in edges:
        if src[0] == "vout":
            far = before_output[src[1], src[2]]
            if far[0] == "input":
                continue  # a through-wire's far side
            src = lift(src[1], far)
        while dst[0] == "vin":
            vid = dst[1]
            far = after_input[vid, dst[2]]
            if far[0] == "vin":
                dst = lift(vid, far)
                break
            dst = host_dst["vout", vid, far[1]]
        new_edges.append((src, dst))

    return PropElement._of_form(m, n, _canonicalize_ports(
        m, n, build_port_map(m, n, new_vertices, new_edges), labels))


def expand_element(e: PropElement,
                   assignment: dict[str, PropElement]) -> PropElement:
    """Replace each label of e by an element (e viewed as an element over
    a signature of element names)."""
    try:
        inner = {vid: assignment[name] for vid, name in e.labels.items()}
    except KeyError as missing:
        raise GraphError(f"no element assigned to label {missing}") from None
    # e's key is its graph in canonical form, labels keyed by rank
    m, n, vertex_part, edge_part = e.key
    return _expand(m, n, [(i, a, b) for i, (a, b, _)
                          in enumerate(vertex_part, start=1)],
                   edge_part, inner)


# ---------------------------------------------------------------------------
# the universal property

T = TypeVar("T")


class PropOps(Protocol[T]):
    """What a target structure must provide for evaluation: units, the two
    compositions, the output permutation action, and arity lookup."""

    def identity(self, n: int) -> T: ...

    def hcompose(self, a: T, b: T) -> T: ...

    def vcompose(self, top: T, bottom: T) -> T: ...

    def permute_outputs(self, a: T, w: tuple[int, ...]) -> T: ...

    def arity(self, a: T) -> tuple[int, int]: ...


class FreePropOps:
    """The free prop itself as a PropOps target."""

    def identity(self, n: int) -> PropElement:
        return identity_element(n)

    def hcompose(self, a: PropElement, b: PropElement) -> PropElement:
        return pelem_hcompose(a, b)

    def vcompose(self, top: PropElement, bottom: PropElement) -> PropElement:
        return pelem_vcompose(top, bottom)

    def permute_outputs(self, a: PropElement,
                        w: tuple[int, ...]) -> PropElement:
        return pelem_permute_outputs(a, w)

    def arity(self, a: PropElement) -> tuple[int, int]:
        return (a.m, a.n)


FREE_OPS = FreePropOps()


def extend_morphism(sig: Signature, assignment: dict[str, T],
                    ops: PropOps[T]):
    """The unique structure-preserving extension of a generator assignment.

    Returns phi mapping elements over sig into the target.  phi slices the
    element's graph along a wire frontier: vertices are consumed one at a
    time in topological order, with a permutation layer routing the
    vertex's input wires to the front and a `generator (x) identity` layer
    consuming them.
    """
    for name in sig.names:
        if name not in assignment:
            raise GraphError(f"assignment misses generator {_quote(name)}")
        if ops.arity(assignment[name]) != sig.arity(name):
            raise GraphError(
                f"assignment for {_quote(name)} has arity "
                f"{ops.arity(assignment[name])}, wanted {sig.arity(name)}")

    def phi(e: PropElement) -> T:
        graph = e.graph
        for name in e.labels.values():
            if name not in assignment:
                raise GraphError(
                    f"element uses unassigned label {_quote(name)}")

        # a live wire is named by its source port, which has one edge
        def route(live: list[Port], want: list[Port], acc: T) -> tuple:
            if live == want:
                return live, acc
            target_pos = {port: i for i, port in enumerate(want, start=1)}
            w = tuple(target_pos[port] for port in live)
            twist = ops.permute_outputs(ops.identity(len(live)), w)
            return want, ops.vcompose(acc, twist)

        boundary, ins, outs = port_map(graph)
        live = [("input", i) for i in range(1, graph.m + 1)]
        acc = ops.identity(graph.m)
        for vid in topological_order(graph):
            rest = [port for port in live if port not in ins[vid]]
            live, acc = route(live, ins[vid] + rest, acc)
            block = assignment[e.labels[vid]]
            if rest:
                block = ops.hcompose(block, ops.identity(len(rest)))
            acc = ops.vcompose(acc, block)
            live = [("vout", vid, k)
                    for k in range(1, len(outs[vid]) + 1)] + rest
        live, acc = route(live, boundary[graph.m:], acc)
        return acc

    return phi


# ---------------------------------------------------------------------------
# basis counting

def count_basis(sig: Signature, m: int, n: int, max_r: int,
                **caps) -> dict[str, list[int]]:
    """Counts of labeled basis graphs per vertex count r = 0..max_r, both
    with numbered vertices and up to label-preserving isomorphism.  Each
    multiset of names is enumerated in sorted order only: renumbering
    carries its graphs bijectively onto those of each of its r!/prod(mult!)
    orderings, and every class over the multiset has a representative
    numbered in sorted order.  One pass over each profile's skeleton
    stream counts both its numbered graphs and its classes."""
    numbered: list[int] = []
    iso: list[int] = []
    for r in range(max_r + 1):
        total = classes = 0
        for profile in itertools.combinations_with_replacement(sig.names, r):
            arities = [sig.arity(name) for name in profile]
            labels = dict(enumerate(profile, start=1))
            orderings = math.factorial(r)
            for mult in Counter(profile).values():
                orderings //= math.factorial(mult)
            stream = list(skeletons(arities, m, n, **caps))
            total += orderings * len(stream)
            classes += sum(1 for _ in distinct(stream, labels))
        numbered.append(total)
        iso.append(classes)
    return {"numbered": numbered, "iso": iso}


# ---------------------------------------------------------------------------
# partial labelings

@dataclass(frozen=True)
class PartialLabeledGraph:
    """A graph whose vertices are split into labeled ones and numbered
    open slots (slot numbers 1..s)."""

    graph: Graph
    labels: dict[int, str]
    slots: dict[int, int]

    def __post_init__(self) -> None:
        check(self.graph)
        ids = set(self.graph.vertex_ids)
        lab, slo = set(self.labels), set(self.slots)
        if lab | slo != ids or lab & slo:
            raise GraphError("labels and slots must partition the vertices")
        if sorted(self.slots.values()) != list(range(1, len(self.slots) + 1)):
            raise GraphError("slot numbers must be exactly 1..s")

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialLabeledGraph) \
            and self.graph == other.graph and self.labels == other.labels \
            and self.slots == other.slots

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self.labels.items())),
                     tuple(sorted(self.slots.items()))))


def filtration_degree(p: PartialLabeledGraph) -> int:
    """How many vertices carry labels (open slots do not count)."""
    return len(p.labels)


# ---------------------------------------------------------------------------
# JSON forms

def element_to_dict(e: PropElement) -> dict:
    return graph_to_dict(e.graph, labels=e.labels)


def element_from_dict(d: object,
                      sig: Signature | None = None) -> PropElement:
    graph, extras = graph_from_dict(d)
    labels: dict[int, str] = {}
    for v in graph.vertices:
        lab = extras.get(v.id, {}).get("label")
        if not isinstance(lab, str):
            raise FormatError(f"vertex {v.id} lacks a string label")
        labels[v.id] = lab
    try:
        return PropElement.build(graph, labels, sig)
    except GraphError as err:
        raise FormatError(str(err)) from None


def partial_to_dict(p: PartialLabeledGraph) -> dict:
    extras = {vid: {"slot": s} for vid, s in p.slots.items()}
    return graph_to_dict(p.graph, labels=p.labels, vertex_extras=extras)


def partial_from_dict(d: object) -> PartialLabeledGraph:
    graph, extras = graph_from_dict(d)
    labels: dict[int, str] = {}
    slots: dict[int, int] = {}
    for v in graph.vertices:
        ex = extras.get(v.id, {})
        if "label" in ex and "slot" in ex:
            raise FormatError(f"vertex {v.id} is both labeled and a slot")
        if "label" in ex:
            if not isinstance(ex["label"], str):
                raise FormatError(f"vertex {v.id} has a non-string label")
            labels[v.id] = ex["label"]
        elif "slot" in ex:
            if not is_int(ex["slot"]):
                raise FormatError(f"vertex {v.id} has a non-integer slot")
            slots[v.id] = ex["slot"]
        else:
            raise FormatError(f"vertex {v.id} has neither label nor slot")
    try:
        return PartialLabeledGraph(graph, labels, slots)
    except GraphError as err:
        raise FormatError(str(err)) from None
