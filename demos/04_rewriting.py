"""Mixed graphs and merge rewriting: collapsing is terminating but not
confluent, and every irreducible form expands to the same element."""

import json
from pathlib import Path

from propcalc.rewrite import (collapse, expand_all, merge, mergeable_pairs,
                              mixed_from_dict, non_confluence_witness)

# the committed example file, read through the public loader
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
text = (FIXTURES / "remark-witness.json").read_text(encoding="utf-8")
g = mixed_from_dict(json.loads(text))
print("vertices:", len(g.graph.vertices), " mergeable pairs:", mergeable_pairs(g))

# one merge step fuses two vertices into one composite vertex
u, v = mergeable_pairs(g)[0]
once = merge(g, u, v)
print(f"after merging {u},{v}:", len(once.graph.vertices), "vertices")

# greedy collapse runs merges until none apply
greedy = collapse(g)
print("greedy irreducible form:", len(greedy.graph.vertices), "vertices")

# exhaustive collapse explores every merge order; this graph has two
# distinct irreducible forms, so the rewriting is not confluent
forms = collapse(g, strategy="exhaustive")
print("irreducible forms:", len(forms))

# non-confluence is harmless at the element level: fully expanding any
# form recovers the same element of the free prop
print("expansions agree:",
      expand_all(forms[0]) == expand_all(forms[1]) == expand_all(g))

# the witness search finds such a graph from scratch
w = non_confluence_witness(max_vertices=6)
print("smallest witness found:", len(w["graph"].graph.vertices), "vertices,",
      len(w["forms"]), "forms")
