"""Canonical numbering: a stable vertex order, a stable hash, and
isomorphism testing that reduces to equality."""

import json
from pathlib import Path

from propcalc.canonical import (canonical_order, canonicalize, count_graphs,
                                enumerate_graphs, graph_hash, is_isomorphic)
from propcalc.graphs import graph_from_dict, relabel_vertices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_graph(name):
    text = (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
    return graph_from_dict(json.loads(text))[0]


g = fixture_graph("fig7")
print("canonical order of the 5-vertex fixture:", canonical_order(g))
print("hash:", graph_hash(g))

# renumbering the vertices arbitrarily changes nothing observable:
# number i goes to the vertex that carried number (3, 1, 5, 2, 4)[i - 1]
shuffled = relabel_vertices(g, {old: new for new, old
                                in enumerate((3, 1, 5, 2, 4), start=1)})
assert shuffled != g
print("same hash after renumbering:", graph_hash(shuffled) == graph_hash(g))
print("canonical graphs equal:",
      canonicalize(shuffled).graph == canonicalize(g).graph)

# two fixtures that are the same graph wearing different numbers
print("fig1 ~ fig7:",
      is_isomorphic(fixture_graph("fig1"), fixture_graph("fig7")))

# enumeration: all graphs on two vertices of arity (1,1) with one
# graph input and one graph output, numbered vs up to isomorphism
profile = [(1, 1), (1, 1)]
numbered = list(enumerate_graphs(profile, 1, 1))
classes = list(enumerate_graphs(profile, 1, 1, upto_iso=True))
print("numbered:", len(numbered), " classes:", len(classes))

# counting without materializing, r vertices of arity (1, 1) each
for r in range(4):
    arities = [(1, 1)] * r
    print(f"r={r}: numbered {count_graphs(arities, 1, 1)}"
          f"  iso {count_graphs(arities, 1, 1, upto_iso=True)}")
