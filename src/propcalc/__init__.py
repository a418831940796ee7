"""propcalc: exact calculus of port graphs with symmetric compositions.

Directed acyclic (m, n)-port-graphs with horizontal and vertical
composition and symmetric-group actions, canonical labeling and
enumeration, freely generated elements over a signature, coproduct-style
merge rewriting, exact rational tensor evaluation, and finite-set
colimit checks.
"""

from __future__ import annotations

from .canonical import (CanonicalForm, NumberedGraph, canonical_key,
                        canonical_order, canonicalize, count_graphs,
                        enumerate_graphs, graph_hash, is_isomorphic)
from .freeprop import (FREE_OPS, Generator, PartialLabeledGraph, PropElement,
                       Signature, combine_signatures, corolla, count_basis,
                       element_from_dict, element_to_dict, expand,
                       expand_element, extend_morphism, filtration_degree,
                       identity_element, partial_from_dict, partial_to_dict,
                       pelem_hcompose, pelem_permute_inputs,
                       pelem_permute_outputs, pelem_vcompose,
                       signature_from_dict, signature_to_dict)
from .graphs import (Edge, FormatError, Graph, GraphError, LimitError,
                     Vertex, check, graph_from_dict, graph_to_dict,
                     hcompose, identity, make_graph, permute_inputs,
                     permute_outputs, to_json_text, validate, vcompose)
from .pushouts import (CubeDiagram, FiniteSetMap, PuncturedColimit,
                       faces_commute, filtration_square_check,
                       inclusion_map, iterated_identity_check,
                       punctured_colimit, pushout_sets, quotient_classes)
from .rewrite import (MixedGraph, collapse, expand_all, merge, mergeable,
                      mergeable_pairs, mixed_from_dict, mixed_to_dict,
                      non_confluence_witness)
from .tensor import (AlgebraAssignment, RatTensor, TensorOps,
                     algebra_from_dict, algebra_to_dict, evaluate,
                     format_rational, matrix_from_json,
                     morphism_prop_membership, parse_rational)

__all__ = [
    "AlgebraAssignment", "CanonicalForm", "CubeDiagram", "Edge",
    "FiniteSetMap", "FormatError", "FREE_OPS", "Generator", "Graph",
    "GraphError", "LimitError", "MixedGraph", "NumberedGraph",
    "PartialLabeledGraph", "PropElement", "PuncturedColimit", "RatTensor",
    "Signature", "TensorOps", "Vertex",
    "algebra_from_dict", "algebra_to_dict",
    "canonical_key", "canonical_order", "canonicalize", "check",
    "collapse", "combine_signatures", "corolla",
    "count_basis", "count_graphs", "element_from_dict", "element_to_dict",
    "enumerate_graphs", "evaluate", "expand",
    "expand_all", "expand_element", "extend_morphism", "faces_commute",
    "filtration_degree", "filtration_square_check", "format_rational",
    "graph_from_dict", "graph_hash", "graph_to_dict",
    "hcompose", "identity", "identity_element", "inclusion_map",
    "is_isomorphic", "iterated_identity_check", "make_graph",
    "matrix_from_json", "merge", "mergeable",
    "mergeable_pairs", "mixed_from_dict", "mixed_to_dict",
    "morphism_prop_membership", "non_confluence_witness", "parse_rational",
    "partial_from_dict", "partial_to_dict", "pelem_hcompose",
    "pelem_permute_inputs", "pelem_permute_outputs", "pelem_vcompose",
    "permute_inputs", "permute_outputs",
    "punctured_colimit", "pushout_sets", "quotient_classes",
    "signature_from_dict",
    "signature_to_dict", "to_json_text", "validate", "vcompose",
]

__version__ = "0.1.0"
