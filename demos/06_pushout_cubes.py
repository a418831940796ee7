"""Finite-set pushout cubes and the degree filtration: punctured-cube
sizes obey an inclusion-exclusion formula, and each filtration stage of
a labeled-graph environment is a pushout square."""

from propcalc.freeprop import Signature
from propcalc.pushouts import (CubeDiagram, FiniteSetMap, faces_commute,
                               filtration_square_check,
                               iterated_identity_check, punctured_colimit,
                               pushout_sets)

# an injection K -> L of plain finite sets
K = frozenset({"p", "q"})
L = frozenset({"x", "y", "z"})
i = FiniteSetMap.build(K, L, {"p": "x", "q": "z"})

# the n-cube has a corner for each subset of axes; removing the
# terminal corner leaves the punctured diagram, whose colimit counts
# tuples over L that use at least one coordinate outside the image
colimits = {}
for n in range(1, 5):
    cube = CubeDiagram(n, i)
    assert faces_commute(cube)
    col = colimits[n] = punctured_colimit(cube)
    formula = len(L) ** n - (len(L) - len(K)) ** n
    print(f"n={n}: colimit size {col.size}  formula {formula}"
          f"  lambda injective: {col.lam_injective()}")

# binary decomposition: the n-cube colimit is reachable by iterated
# two-term pushouts
print("iterated identity at n=3:", iterated_identity_check(i, colimits[3]))

# a bare two-term pushout over a shared source
u = FiniteSetMap.build(K, L, {"p": "x", "q": "z"})
s = FiniteSetMap.build(K, frozenset({"s", "t"}), {"p": "s", "q": "t"})
print("pushout classes:", sorted(map(sorted, pushout_sets(u, s))))

# the same pattern drives the graded environments: each degree stage
# sits in a pushout square, checked here on a small instance
report = filtration_square_check(
    Signature([("k", 1, 1)]),
    Signature([("k", 1, 1), ("l", 1, 1)]),
    Signature([("k", 1, 1), ("o", 1, 1)]),
    1, 1, max_degree=2, max_vertices=3, max_arity=2)
print("filtration stages ok:", report["all_ok"],
      " envelope sizes by degree:", report["env_sizes"])
