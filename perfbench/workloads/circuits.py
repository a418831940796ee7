"""circuits: few large layered graphs instead of many tiny ones.

One operation is one layered circuit over a: 1->1, b: 2->1,
c: 1->2 and a 2->2 gate x, width 3-5, depth from tens to a few hundred.
A fan of c gates opens one input into `width` wires, the body layers
keep the width, and a fan of b gates closes them into one output, so the
evaluated matrix is 2 x 2 while the live wires in between are as wide as
the circuit.  Each layer is a row of blocks (a, x, b(x)c, c(x)b, or a
bare wire; in the fans, one c or b) put side by side with pelem_hcompose;
the layers are stacked with pelem_vcompose as a balanced tree.  The
operation then takes graph_hash, expands every x into the 2-vertex
composite b;c, and evaluates at d = 2.  Checks, all exact:

- the whole circuit evaluates to rt_dot of its two stacked halves;
- a second topological order gives the same matrix;
- expand-then-evaluate equals evaluate under x -> A(b;c).

The circuits themselves are fixed (drawn once from LAYOUT_SEED, which
was not tuned): evaluate's cost depends on its contraction order, and
with circuits redrawn per seed the cost of a pass ranged over 2.8x
across six seeds.  The seed draws the gate matrices (signed 0/1 matrices
with one entry per column, so entries stay in {-1, 0, 1} at any depth)
and the operation order.  The matrices are pinned.

The longest path of a circuit is at most 2 x (depth + width) after
expansion; MAX_DEPTH keeps it well below the interpreter's recursion
limit, because graphs.find_cycle (run by every validity check) recurses
once per vertex on a path, and a deeper case would make an iterative
rewrite of it look like a slowdown.
"""

from __future__ import annotations

import random
from fractions import Fraction

from propcalc import canonical, freeprop, tensor

from . import Op, require

TAIL_PCT = 60.0
D = 2
MAX_DEPTH = 240
LAYOUT_SEED = "propcalc circuits"
# (width, depth) per operation of a pass
SHAPES = [(3, 240), (3, 120), (3, 60), (3, 30), (4, 60), (4, 30), (4, 15),
          (5, 12), (5, 6)]
SHAPES_TINY = [(3, 8), (4, 4)]

SIG = freeprop.Signature([("a", 1, 1), ("b", 2, 1), ("c", 1, 2),
                          ("x", 2, 2)])
ATOMS = SIG.restrict(["a", "b", "c"])
BLOCKS = {"a": ["a"], "x": ["x"], "bc": ["b", "c"], "cb": ["c", "b"],
          "wire": [], "b": ["b"], "c": ["c"]}
# blocks of the body layers, by the number of wires each takes
BODY = {"a": 1, "x": 2, "bc": 3, "cb": 3, "wire": 1}


def _signed_function_matrix(rng, rows: int, cols: int):
    """One nonzero entry, +1 or -1, per column."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for j in range(cols):
        out[rng.randrange(rows)][j] = Fraction(rng.choice((-1, 1)))
    return tensor.RatTensor(out)


def _layer(rng, width: int):
    blocks, used = [], 0
    while used < width:
        name = rng.choice([b for b in BODY if BODY[b] <= width - used])
        blocks.append(name)
        used += BODY[name]
    return blocks


def _fan(rng, wires: int, gate: str):
    """A layer taking `wires` wires: one c gate (one wire in) or b gate
    (two wires in) at a seeded place, the other wires bare."""
    spare = wires - (1 if gate == "c" else 2)
    at = rng.randint(0, spare)
    return ["wire"] * at + [gate] + ["wire"] * (spare - at)


def _layouts(rng, width: int, depth: int):
    opening = [_fan(rng, k, "c") for k in range(1, width)]
    closing = [_fan(rng, k, "b") for k in range(width, 1, -1)]
    return opening + [_layer(rng, width) for _ in range(depth)] + closing


def _stack(layers):
    """Balanced vertical composite, with the two halves of the root."""
    if len(layers) == 1:
        return layers[0], None
    mid = len(layers) // 2
    top, _ = _stack(layers[:mid])
    bottom, _ = _stack(layers[mid:])
    return freeprop.pelem_vcompose(top, bottom), (top, bottom)


def _second_order(graph) -> list[int]:
    """A topological order that always takes the largest ready id."""
    succ = {v.id: set() for v in graph.vertices}
    indeg = dict.fromkeys(succ, 0)
    for e in graph.edges:
        if e.src[0] == "vout" and e.dst[0] == "vin" \
                and e.dst[1] not in succ[e.src[1]]:
            succ[e.src[1]].add(e.dst[1])
            indeg[e.dst[1]] += 1
    ready = sorted(v for v, k in indeg.items() if k == 0)
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    return order


def _circuit_op(index, width, depth, layouts, A, A_atoms, composite) -> Op:
    def run():
        corolla = {name: freeprop.corolla(SIG, name) for name in SIG.names}
        wire = freeprop.identity_element(1)
        layers = []
        for blocks in layouts:
            row = None
            for block in blocks:
                parts = [corolla[g] for g in BLOCKS[block]] or [wire]
                for part in parts:
                    row = part if row is None \
                        else freeprop.pelem_hcompose(row, part)
            layers.append(row)
        whole, (top, bottom) = _stack(layers)
        canonical.graph_hash(whole.graph, whole.labels)
        axes = width + 1  # the halves are 1 -> width and width -> 1
        value = tensor.evaluate(whole, A)
        require(value == tensor.rt_dot(
            tensor.evaluate(bottom, A, max_axes=axes),
            tensor.evaluate(top, A, max_axes=axes)),
            "the circuit is not the product of its halves")
        require(value == tensor.evaluate(
            whole, A, order=_second_order(whole.graph)),
            "a second topological order changed the matrix")
        inner = {vid: composite if name == "x" else corolla[name]
                 for vid, name in whole.labels.items()}
        expanded = freeprop.expand(whole.graph, inner)
        require(value == tensor.evaluate(expanded, A_atoms),
                "expand-then-evaluate differs from evaluating x as b;c")
        return [len(whole.graph.vertices), len(expanded.graph.vertices),
                value]

    return Op("circuit", f"circuit {index:02d} w{width} d{depth}", run)


def setup(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    matrices = {g.name: _signed_function_matrix(rng, D ** g.n, D ** g.m)
                for g in ATOMS}
    A_atoms = tensor.AlgebraAssignment.build(D, matrices, ATOMS)
    composite = freeprop.pelem_vcompose(freeprop.corolla(ATOMS, "b"),
                                        freeprop.corolla(ATOMS, "c"))
    A = tensor.AlgebraAssignment.build(
        D, dict(matrices, x=tensor.evaluate(composite, A_atoms)), SIG)
    layout_rng = random.Random(LAYOUT_SEED)
    ops = []
    for index, (width, depth) in enumerate(SHAPES_TINY if tiny else SHAPES):
        assert depth <= MAX_DEPTH
        layouts = _layouts(layout_rng, width, depth)
        ops.append(_circuit_op(index, width, depth, layouts, A, A_atoms,
                               composite))
    rng.shuffle(ops)
    return ops
