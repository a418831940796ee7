"""Independent oracles for the test suite.

Everything here recomputes expected values by a different algorithm than
the library uses: brute-force backtracking instead of canonical orders,
minimal input-path labels by their definition instead of the depth-first
path order, raw permutation enumeration instead of pruned matching
search, pure-python fraction matrices instead of numpy tensors, a
reflexive coequalizer instead of the direct pushout quotient, a
memo-free state search over an edge-list merge instead of the library's
exhaustive collapse over spliced port maps, an edge-list substitution that
builds and checks a `Graph` instead of keying the port map it wires,
element operations that canonicalize a composite of the operands' graphs
instead of substituting the operands into boxes, a per-port renaming
through the sorting constructor instead of the library's one-pass
renumbering.  Tests freeze their expected values against these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from propcalc.canonical import (UnreachableVertexError, canonical_key,
                                enumerate_graphs)
from propcalc.freeprop import PropElement
from propcalc.graphs import (Edge, Graph, GraphError, Vertex, hcompose,
                             identity, permute_inputs, permute_outputs,
                             port_map, topological_order, vcompose,
                             vertex_successors)
from propcalc.pushouts import FiniteSetMap, pushout_sets, quotient_classes
from propcalc.rewrite import MixedGraph, mergeable_pairs


# ---------------------------------------------------------------------------
# brute-force isomorphism (backtracking over vertex bijections)

def _color(v, labels):
    return (v.n_in, v.n_out, repr(labels.get(v.id)) if labels else None)


def brute_force_isomorphic(g: Graph, h: Graph,
                           labels_g: dict | None = None,
                           labels_h: dict | None = None) -> bool:
    """Search for a bijection of vertices preserving arities, labels, port
    indices and boundary indices that maps the edge set of g onto that of h."""
    if (g.m, g.n) != (h.m, h.n):
        return False
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    labels_g = labels_g or {}
    labels_h = labels_h or {}
    gcolors = sorted(_color(v, labels_g) for v in g.vertices)
    hcolors = sorted(_color(v, labels_h) for v in h.vertices)
    if gcolors != hcolors:
        return False

    h_by_color: dict[tuple, list[int]] = {}
    for v in h.vertices:
        h_by_color.setdefault(_color(v, labels_h), []).append(v.id)
    h_edges = set(h.edges)

    # boundary ports are fixed by any isomorphism, so wires running directly
    # from a graph input to a graph output must match verbatim
    for e in g.edges:
        if e.src[0] == "input" and e.dst[0] == "output" and e not in h_edges:
            return False

    touching: dict[int, list[Edge]] = {v.id: [] for v in g.vertices}
    for e in g.edges:
        if e.src[0] == "vout":
            touching[e.src[1]].append(e)
        if e.dst[0] == "vin" and (e.src[0] != "vout" or e.dst[1] != e.src[1]):
            touching[e.dst[1]].append(e)

    gids = [v.id for v in g.vertices]
    g_by_id = {v.id: v for v in g.vertices}
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def port_image(p):
        if p[0] in ("vout", "vin"):
            if p[1] not in assignment:
                return None
            return (p[0], assignment[p[1]], p[2])
        return p

    def consistent(vid: int) -> bool:
        for e in touching[vid]:
            src = port_image(e.src)
            dst = port_image(e.dst)
            if src is None or dst is None:
                continue
            if Edge(src, dst) not in h_edges:
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(gids):
            return True
        vid = gids[k]
        color = _color(g_by_id[vid], labels_g)
        for target in h_by_color.get(color, []):
            if target in used:
                continue
            assignment[vid] = target
            used.add(target)
            if consistent(vid) and extend(k + 1):
                return True
            del assignment[vid]
            used.discard(target)
        return False

    return extend(0)


def carries_edges(g: Graph, h: Graph, mapping: dict[int, int]) -> bool:
    """Whether `mapping`, a bijection from g's vertex ids onto h's, is an
    isomorphism: it keeps the boundary and every arity, and carries g's
    edge set exactly onto h's, ports and boundary indices included."""
    if (g.m, g.n) != (h.m, h.n) or len(g.edges) != len(h.edges):
        return False
    if mapping.keys() != set(g.vertex_ids) \
            or sorted(mapping.values()) != sorted(h.vertex_ids):
        return False
    if {Vertex(mapping[v.id], v.n_in, v.n_out) for v in g.vertices} \
            != set(h.vertices):
        return False

    def move(p):
        return (p[0], mapping[p[1]], p[2]) if p[0] in ("vout", "vin") else p

    return {Edge(move(e.src), move(e.dst)) for e in g.edges} == set(h.edges)


def brute_force_nontrivial_automorphism(g: Graph,
                                        labels: dict | None = None) -> bool:
    """True iff g admits a non-identity automorphism (same search as above
    but enumerating all bijections g -> g and skipping the identity)."""
    labels = labels or {}
    by_color: dict[tuple, list[int]] = {}
    for v in g.vertices:
        by_color.setdefault(_color(v, labels), []).append(v.id)
    edge_set = set(g.edges)
    gids = [v.id for v in g.vertices]

    def port_image(p, assignment):
        if p[0] in ("vout", "vin"):
            return (p[0], assignment[p[1]], p[2])
        return p

    for images in _bijections(gids, by_color, labels, g):
        if all(images[v] == v for v in gids):
            continue
        ok = all(Edge(port_image(e.src, images), port_image(e.dst, images))
                 in edge_set for e in g.edges)
        if ok:
            return True
    return False


def _bijections(gids, by_color, labels, g):
    by_id = {v.id: v for v in g.vertices}
    per_vertex = [by_color[_color(by_id[vid], labels)] for vid in gids]
    for choice in itertools.product(*per_vertex):
        if len(set(choice)) == len(choice):
            yield dict(zip(gids, choice))


# ---------------------------------------------------------------------------
# minimal input-path labels (the definition the input-path order sorts by)

def input_path_labels(g: Graph) -> dict[int, tuple[int, ...]]:
    """Minimal edge-path label per vertex, in one pass in topological order
    (a minimum extends a predecessor's minimum).  Raises
    UnreachableVertexError if some vertex has no path from a graph input."""
    ins = port_map(g)[1]
    labels: dict[int, tuple[int, ...]] = {}
    unreachable: list[int] = []
    for vid in topological_order(g):
        best: tuple[int, ...] | None = None
        for k, src in enumerate(ins[vid], start=1):
            if src[0] == "input":
                cand = (src[1], k)
            elif src[1] in labels:
                cand = labels[src[1]] + (src[2], k)
            else:
                continue
            if best is None or cand < best:
                best = cand
        if best is None:
            unreachable.append(vid)
        else:
            labels[vid] = best
    if unreachable:
        raise UnreachableVertexError(sorted(unreachable))
    return labels


def free_action_check(g: Graph) -> bool:
    """True iff no non-identity renumbering yields the same numbered graph,
    i.e. the automorphism group is trivial.  Only defined on graphs whose
    vertices all have at least one input.  An automorphism fixes the
    boundary, so it keeps each vertex's minimal input-path label; pairwise
    distinct labels therefore leave it no vertex to move."""
    empty = [v.id for v in g.vertices if v.n_in == 0]
    if empty:
        raise GraphError(f"vertices with no inputs: {empty}")
    labels = input_path_labels(g)
    return len(set(labels.values())) == len(labels)


# ---------------------------------------------------------------------------
# raw enumeration of port matchings (permutations + posthoc cycle filter)

def brute_force_graphs(arities: list[tuple[int, int]], m: int,
                       n: int) -> list[Graph]:
    """Every valid numbered graph on the profile, found by enumerating all
    bijections from source ports to target ports and discarding the cyclic
    ones.  The bijections run in lexicographic order over the same source
    and target lists as `enumerate_graphs`, so the list is its stream,
    order included.  Exponential; keep the port count small."""
    vertices = [Vertex(i + 1, a, b) for i, (a, b) in enumerate(arities)]
    sources = [("input", i) for i in range(1, m + 1)]
    targets = [("output", j) for j in range(1, n + 1)]
    for v in vertices:
        sources.extend(("vout", v.id, k) for k in range(1, v.n_out + 1))
        targets.extend(("vin", v.id, k) for k in range(1, v.n_in + 1))
    if len(sources) != len(targets):
        return []
    out = []
    for perm in itertools.permutations(range(len(targets))):
        edges = [Edge(s, targets[perm[i]]) for i, s in enumerate(sources)]
        if _acyclic(vertices, edges):
            out.append(Graph(m, n, tuple(vertices), tuple(edges)))
    return out


def _acyclic(vertices, edges) -> bool:
    succ = {v.id: set() for v in vertices}
    for e in edges:
        if e.src[0] == "vout" and e.dst[0] == "vin":
            succ[e.src[1]].add(e.dst[1])
    seen: dict[int, int] = {}

    def visit(u) -> bool:
        seen[u] = 1
        for w in succ[u]:
            if seen.get(w, 0) == 1 or (seen.get(w, 0) == 0 and not visit(w)):
                return False
        seen[u] = 2
        return True

    return all(visit(v) for v in succ if seen.get(v, 0) == 0)


# ---------------------------------------------------------------------------
# pure-python fraction matrices (tensor-law oracle, no numpy)

def mat_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == inner for r in a)
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def mat_kron(a: list[list[Fraction]], b: list[list[Fraction]]):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    return [[a[i // rb][j // cb] * b[i % rb][j % cb]
             for j in range(ca * cb)] for i in range(ra * rb)]


def wire_permutation(g: Graph) -> list[int]:
    """For a graph whose vertices all pass wires straight through (in-port k
    joined to out-port k), trace each graph output back to the graph input
    feeding it.  Returns sigma with sigma[j-1] = i, only defined when every
    vertex has n_in == n_out."""
    into = {e.dst: e for e in g.edges}
    sigma = []
    for j in range(1, g.n + 1):
        port = ("output", j)
        while True:
            e = into[port]
            if e.src[0] == "input":
                sigma.append(e.src[1])
                break
            _, vid, k = e.src
            port = ("vin", vid, k)
    return sigma


def permutation_matrix(sigma: list[int], d: int) -> list[list[Fraction]]:
    """The matrix of e_{x_1..x_n} -> e_{x_sigma(1)..x_sigma(n)} on a
    d-dimensional space, rows indexed by output multi-indices (axis 1 most
    significant).  A wire-only graph always has m == n == len(sigma)."""
    n = len(sigma)
    size = d ** n
    mat = [[Fraction(0)] * size for _ in range(size)]
    for col in range(size):
        digits = []
        c = col
        for _ in range(n):
            digits.append(c % d)
            c //= d
        digits.reverse()
        row = 0
        for j in range(n):
            row = row * d + digits[sigma[j] - 1]
        mat[row][col] += 1
    return mat


# ---------------------------------------------------------------------------
# permutations in one-line notation, 1-based

def compose_permutations(w2: tuple[int, ...],
                         w1: tuple[int, ...]) -> tuple[int, ...]:
    """(w2 ∘ w1)(i) = w2(w1(i))."""
    return tuple(w2[w1[i - 1] - 1] for i in range(1, len(w1) + 1))


# ---------------------------------------------------------------------------
# pushouts presented as reflexive coequalizers

def coequalizer_sets(d0: FiniteSetMap, d1: FiniteSetMap) -> list[frozenset]:
    """Coequalizer of two parallel maps, as a partition of their target."""
    if d0.source != d1.source or d0.target != d1.target:
        raise GraphError("parallel maps must share source and target")
    items = sorted(d0.target, key=repr)
    pairs = [(d0(x), d1(x)) for x in sorted(d0.source, key=repr)]
    return quotient_classes(items, pairs)


def reflexive_presentation(u: FiniteSetMap, s: FiniteSetMap):
    """The fork T|S|A => T|A (with its common section) whose coequalizer
    presents the pushout of T <-s- S -u-> A."""
    if u.source != s.source:
        raise GraphError("the span legs must share a source")
    wide = [("T", t) for t in sorted(s.target, key=repr)]
    wide += [("S", x) for x in sorted(u.source, key=repr)]
    wide += [("A", a) for a in sorted(u.target, key=repr)]
    narrow = [("T", t) for t in sorted(s.target, key=repr)]
    narrow += [("A", a) for a in sorted(u.target, key=repr)]

    def fold(via):
        out = {}
        for node in wide:
            tag, x = node
            out[node] = ("A", u(x)) if tag == "S" and via == "u" else \
                        ("T", s(x)) if tag == "S" else node
        return FiniteSetMap.build(wide, narrow, out)

    d0 = fold("u")
    d1 = fold("s")
    s0 = FiniteSetMap.build(narrow, wide, {x: x for x in narrow})
    return d0, d1, s0


def presentation_matches_pushout(u: FiniteSetMap, s: FiniteSetMap) -> bool:
    """Pushout and reflexive-coequalizer presentation give the same
    partition of A | T."""
    d0, d1, s0 = reflexive_presentation(u, s)
    for x in s0.source:
        if d0(s0(x)) != x or d1(s0(x)) != x:
            return False
    return set(coequalizer_sets(d0, d1)) == set(pushout_sets(u, s))


# ---------------------------------------------------------------------------
# counting oracles

def union_formula(l_size: int, l_minus_ik_size: int, n: int) -> int:
    """|L|^n - |L \\ i(K)|^n, the size of the punctured-cube colimit image
    for injective i."""
    return l_size ** n - l_minus_ik_size ** n


def chain_label_count(r: int, q: int) -> int:
    """Number of words of length r over {base, marked} with exactly q marked
    letters: C(r, q).  Counts labeled unary chains independently of any
    graph enumeration."""
    if q < 0 or q > r:
        return 0
    out = 1
    for t in range(q):
        out = out * (r - t) // (t + 1)
    return out


def product_count_basis(sig, m: int, n: int, max_r: int) -> dict:
    """`count_basis` by its definition: every ordered profile of generator
    names enumerated in full, numbered graphs counted one by one, and
    classes deduplicated by canonical key over all orderings at once (no
    multiset factor, no representative order)."""
    numbered, iso = [], []
    for r in range(max_r + 1):
        total = 0
        keys: set = set()
        for profile in itertools.product(sig.names, repeat=r):
            arities = [sig.arity(name) for name in profile]
            labels = dict(enumerate(profile, start=1))
            for ng in enumerate_graphs(arities, m, n):
                total += 1
                keys.add(canonical_key(ng.graph, labels))
        numbered.append(total)
        iso.append(len(keys))
    return {"numbered": numbered, "iso": iso}


def per_combination_env_keys(sig_k, sig_l, base_sig, m: int, n: int, *,
                             degree: int, max_vertices: int = 4,
                             max_arity: int = 2, slot_arities=None) -> set:
    """The key set of `pushouts.bounded_env_classes`, one role combination
    at a time: each accepted combination enumerates its own numbered
    graphs, and each graph is keyed in full by `canonical_key` (no shared
    streams, no skeletons)."""
    new_names = set(sig_l.names) - set(sig_k.names)
    if slot_arities is None:
        slot_arities = [(a, b) for a in range(max_arity + 1)
                        for b in range(max_arity + 1) if a + b]
    roles = [(("slot", a, b), (a, b)) for a, b in slot_arities]
    roles += [(("lab", g.name), (g.m, g.n)) for g in base_sig]
    roles += [(("lab", g.name), (g.m, g.n)) for g in sig_l
              if g.name in new_names]
    keys: set = set()
    for r in range(max_vertices + 1):
        for combo in itertools.combinations_with_replacement(roles, r):
            fresh = sum(1 for tag, _ in combo
                        if tag[0] == "lab" and tag[1] in new_names)
            if fresh > degree:
                continue
            labels = {v: tag for v, (tag, _) in enumerate(combo, start=1)}
            for ng in enumerate_graphs([ar for _, ar in combo], m, n):
                keys.add(canonical_key(ng.graph, labels))
    return keys


# ---------------------------------------------------------------------------
# a second topological order

def topo_latest_first(graph):
    """A topological order preferring the largest ready vertex id; used to
    confirm evaluation does not depend on the order choice."""
    succ = vertex_successors(graph)
    indeg = {v: 0 for v in succ}
    for u in succ:
        for w in succ[u]:
            indeg[w] += 1
    ready = sorted((v for v in indeg if indeg[v] == 0), reverse=True)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort(reverse=True)
    return order


# ---------------------------------------------------------------------------
# mirroring

def mirror(g: Graph) -> Graph:
    """g upside down: inputs become outputs, every edge flips and every
    vertex swaps its port sides.  The output-path order of g is, by its
    definition, the input-path order of its mirror."""
    flip = {"input": "output", "output": "input", "vout": "vin", "vin": "vout"}

    def move(p):
        return (flip[p[0]],) + p[1:]

    return Graph(g.n, g.m,
                 tuple(Vertex(v.id, v.n_out, v.n_in) for v in g.vertices),
                 tuple(Edge(move(e.dst), move(e.src)) for e in g.edges))


# ---------------------------------------------------------------------------
# renumbering

def relabel_by_edges(g: Graph, mapping: dict[int, int]) -> Graph:
    """`graphs.relabel_vertices` port by port: injectivity from a set of
    the new ids, each vertex port renamed by a closure, and the graph
    built, and so sorted, by the `Graph` constructor."""
    new_ids = [mapping.get(v.id, v.id) for v in g.vertices]
    if len(set(new_ids)) != len(new_ids):
        raise GraphError("vertex relabeling is not injective")

    def move(p):
        if p[0] in ("vout", "vin"):
            return (p[0], mapping.get(p[1], p[1]), p[2])
        return p

    return Graph(g.m, g.n,
                 tuple(Vertex(mapping.get(v.id, v.id), v.n_in, v.n_out)
                       for v in g.vertices),
                 tuple(Edge(move(e.src), move(e.dst)) for e in g.edges))


# ---------------------------------------------------------------------------
# deep inputs

def unary_chain(r: int) -> Graph:
    """The (1, 1)-graph threading one wire through r unary vertices."""
    edges = [Edge(("input", 1), ("vin", 1, 1)),
             Edge(("vout", r, 1), ("output", 1))]
    edges += [Edge(("vout", v, 1), ("vin", v + 1, 1)) for v in range(1, r)]
    return Graph(1, 1, tuple(Vertex(v, 1, 1) for v in range(1, r + 1)),
                 tuple(edges))


def cup_cap_ring(k: int) -> Graph:
    """The closed (0, 0)-graph of k cups (0 -> 2, vertices 1..k) and k caps
    (2 -> 0, vertices k+1..2k) on one loop: cup i feeds cap i and cap
    i+1 (cyclically).  Contracting every cup first holds 2k open wires
    at once; taking each cap as soon as both its cups are in holds at most
    4."""
    edges = [Edge(("vout", i, 1), ("vin", k + i, 1)) for i in range(1, k + 1)]
    edges += [Edge(("vout", i, 2), ("vin", k + i % k + 1, 2))
              for i in range(1, k + 1)]
    vertices = [Vertex(i, 0, 2) for i in range(1, k + 1)]
    vertices += [Vertex(k + i, 2, 0) for i in range(1, k + 1)]
    return Graph(0, 0, tuple(vertices), tuple(edges))


# ---------------------------------------------------------------------------
# merging and exhaustive collapse over edge lists

def merge_by_edges(g, u: int, v: int):
    """`rewrite.merge` of a mergeable pair as an edge list: the pair's
    mutual edges and surviving ports read from `g.graph.edges`, the merged
    label substituted by `expand_by_edges`, and the merged `Graph` rebuilt
    edge by edge with the fresh vertex (the largest id plus one) in the
    pair's place, then checked through `MixedGraph.build`."""
    lu, lv = g.p_labels[u], g.p_labels[v]
    pair = {u, v}
    mutual = [e for e in g.graph.edges
              if e.src[0] == "vout" and e.src[1] in pair
              and e.dst[0] == "vin" and e.dst[1] in pair]
    fed = {e.dst for e in mutual}
    used = {e.src for e in mutual}
    ext_in = [("vin", x, i) for x, deg in ((u, lu.m), (v, lv.m))
              for i in range(1, deg + 1) if ("vin", x, i) not in fed]
    ext_out = [("vout", x, k) for x, deg in ((u, lu.n), (v, lv.n))
               for k in range(1, deg + 1) if ("vout", x, k) not in used]
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
    label = expand_by_edges(host, {1: lu, 2: lv})

    w = max(g.graph.vertex_ids) + 1
    in_pos = {p: k for k, p in enumerate(ext_in, start=1)}
    out_pos = {p: k for k, p in enumerate(ext_out, start=1)}
    edges = []
    for e in g.graph.edges:
        if e in mutual:
            continue
        src = ("vout", w, out_pos[e.src]) if e.src in out_pos else e.src
        dst = ("vin", w, in_pos[e.dst]) if e.dst in in_pos else e.dst
        edges.append(Edge(src, dst))
    vertices = [x for x in g.graph.vertices if x.id not in pair]
    vertices.append(Vertex(w, len(ext_in), len(ext_out)))
    p_labels = {vid: e for vid, e in g.p_labels.items() if vid not in pair}
    p_labels[w] = label
    return MixedGraph.build(Graph(g.graph.m, g.graph.n, tuple(vertices),
                                  tuple(edges)),
                            g.atoms, g.msig, p_labels, g.m_labels)


def brute_force_collapse(g) -> tuple[list, list]:
    """(irreducible forms, one merge sequence per form) of a mixed graph,
    by the search `collapse(g, "exhaustive")` specifies: pop the newest
    state, push each child of its mergeable pairs (in their order) whose
    key is new, record a state with no pair under the first sequence that
    pops it, and list forms by repr of their key.  Every step goes
    through the public `mergeable_pairs` and `merge_by_edges`, which
    expands each label afresh and validates each merged state; nothing is
    remembered across merges but the keys seen."""
    seen = {g.key}
    stack = [(g, [])]
    found: dict = {}
    while stack:
        cur, seq = stack.pop()
        pairs = mergeable_pairs(cur)
        if not pairs and cur.key not in found:
            found[cur.key] = (cur, seq)
        for a, b in pairs:
            child = merge_by_edges(cur, a, b)
            if child.key not in seen:
                seen.add(child.key)
                stack.append((child, seq + [(a, b)]))
    order = sorted(found, key=repr)
    return [found[k][0] for k in order], [found[k][1] for k in order]


# ---------------------------------------------------------------------------
# substitution over an edge list

def expand_by_edges(outer: Graph, inner: dict) -> PropElement:
    """`freeprop.expand` as an edge list: the result's vertices numbered
    1..N host vertex by host vertex, each inner element's in its vertex
    order, its wires spliced by walking inner through-wires, then built as
    a `Graph`, checked and canonicalized by `PropElement.build`."""
    rename: dict[tuple[int, int], int] = {}
    vertices: list[Vertex] = []
    labels: dict[int, str] = {}
    edges: list[Edge] = []
    after_input: dict = {}  # (host vertex, inner input) -> its far end
    before_output: dict = {}  # (host vertex, inner output) -> its source

    def lift(vid, port):
        return (port[0], rename[(vid, port[1])], port[2])

    for v in outer.vertices:
        e = inner[v.id]
        for iv in e.graph.vertices:
            rename[(v.id, iv.id)] = len(vertices) + 1
            vertices.append(Vertex(len(vertices) + 1, iv.n_in, iv.n_out))
            labels[len(vertices)] = e.labels[iv.id]
        for src, dst in e.graph.edges:
            if src[0] == "input":
                after_input[v.id, src[1]] = dst
            if dst[0] == "output":
                before_output[v.id, dst[1]] = src
            elif src[0] == "vout":
                edges.append(Edge(lift(v.id, src), lift(v.id, dst)))

    host_dst = dict(outer.edges)
    for src, dst in outer.edges:
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
        edges.append(Edge(src, dst))

    return PropElement.build(Graph(outer.m, outer.n, tuple(vertices),
                                   tuple(edges)), labels)


# ---------------------------------------------------------------------------
# element operations on composite graphs

def _shifted(labels: dict, offset: int) -> dict:
    return {vid + offset: lab for vid, lab in labels.items()}


def hcompose_by_graphs(a: PropElement, b: PropElement) -> PropElement:
    """`freeprop.pelem_hcompose` as a composite of the operands' graphs,
    b's vertex ids and labels shifted past a's, canonicalized whole."""
    offset = max(a.graph.vertex_ids, default=0)
    return PropElement._canonical(hcompose(a.graph, b.graph),
                                  a.labels | _shifted(b.labels, offset))


def vcompose_by_graphs(top: PropElement, bottom: PropElement) -> PropElement:
    offset = max(top.graph.vertex_ids, default=0)
    return PropElement._canonical(vcompose(top.graph, bottom.graph),
                                  top.labels | _shifted(bottom.labels, offset))


def permute_inputs_by_graph(e: PropElement, w) -> PropElement:
    return PropElement._canonical(permute_inputs(e.graph, w), e.labels)


def permute_outputs_by_graph(e: PropElement, w) -> PropElement:
    return PropElement._canonical(permute_outputs(e.graph, w), e.labels)


def identity_by_graph(n: int) -> PropElement:
    return PropElement.build(identity(n), {})
