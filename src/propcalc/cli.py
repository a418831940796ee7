"""Command line front door.

Every subcommand reads and writes JSON: results on standard output,
diagnostics on standard error.  Exit codes: 0 success, 1 domain error
(invalid graph, cap exceeded, bad value), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .canonical import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES, canonicalize,
                        enumerate_graphs, is_isomorphic)
from .freeprop import (FREE_OPS, count_basis, element_from_dict,
                       element_to_dict, expand, extend_morphism,
                       partial_from_dict, pelem_hcompose, pelem_vcompose,
                       signature_from_dict)
from .graphs import (FormatError, GraphError, LimitError, _quote, check,
                     graph_from_dict, graph_to_dict, hcompose, validate,
                     vcompose)
from .pushouts import (DEFAULT_MAX_CLASSES, DEFAULT_MAX_ELEMENTS,
                       CubeDiagram, filtration_square_check, inclusion_map,
                       iterated_identity_check, punctured_colimit)
from .rewrite import (DEFAULT_MAX_STATES, collapse, mixed_from_dict,
                      mixed_to_dict, non_confluence_witness)
from .tensor import (DEFAULT_MAX_AXES, DEFAULT_MAX_DIM, DEFAULT_MAX_ENTRIES,
                     algebra_from_dict, evaluate, matrix_from_json,
                     morphism_prop_membership)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{path} is not JSON: {err}") from None
    except RecursionError:
        raise FormatError(f"{path} is nested too deeply") from None


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _classify(d: dict) -> tuple[str, object]:
    """Build the richest object a JSON dict supports: a mixed graph, a
    fully labeled element, a partial labeling, or a bare graph."""
    if "atoms" in d or "msig" in d:
        return "mixed", mixed_from_dict(d)
    graph, extras = graph_from_dict(d)
    kinds = {key for ex in extras.values() for key in ex}
    if graph.vertices and all("label" in extras.get(v.id, {})
                              for v in graph.vertices):
        return "element", element_from_dict(d)
    if "slot" in kinds:
        return "partial", partial_from_dict(d)
    return "graph", graph


def _walk_graph_dicts(d: object, path: str):
    """Yield (path, dict) for every nested dict carrying vertices."""
    if not isinstance(d, dict):
        return
    if "vertices" in d:
        yield path, d
        return
    for key, val in d.items():
        yield from _walk_graph_dicts(val, f"{path}.{key}" if path else key)


def _cmd_validate(args) -> int:
    d = _read_json(args.file)
    found = list(_walk_graph_dicts(d, ""))
    if not found:
        raise FormatError("no graph objects in the file")
    checked = []
    bad = []
    for path, sub in found:
        kind = None
        try:
            kind, obj = _classify(sub)
            if kind == "graph":
                violations = validate(obj)
                if violations:
                    bad.append({"path": path, "violations": violations})
        except GraphError as err:
            bad.append({"path": path, "violations": [{"detail": str(err)}]})
        checked.append({"path": path or "(top)", "kind": kind})
    _emit({"valid": not bad, "checked": checked, "errors": bad})
    if bad:
        print("validation failed", file=sys.stderr)
        return 1
    return 0


def _load_composable(path: str):
    kind, obj = _classify(_read_json(path))
    if kind == "graph":
        check(obj)
    if kind in ("element", "graph"):
        return kind, obj
    raise GraphError(f"{path}: cannot compose a {kind} object")


def _cmd_compose(args) -> int:
    kind_a, a = _load_composable(args.left)
    kind_b, b = _load_composable(args.right)
    if kind_a != kind_b:
        raise GraphError("cannot mix labeled and unlabeled operands")
    if kind_a == "element":
        out = pelem_hcompose(a, b) if args.op == "h" else pelem_vcompose(a, b)
        _emit(element_to_dict(out))
    else:
        out = hcompose(a, b) if args.op == "h" else vcompose(a, b)
        _emit(graph_to_dict(out))
    return 0


def _labels_of(d: dict):
    graph, extras = graph_from_dict(d)
    check(graph)
    labels = {v.id: extras[v.id]["label"] for v in graph.vertices
              if "label" in extras.get(v.id, {})}
    return graph, (labels if len(labels) == len(graph.vertices) and labels
                   else None)


def _cmd_canon(args) -> int:
    graph, labels = _labels_of(_read_json(args.file))
    cf = canonicalize(graph, labels)
    _emit({
        "order": list(cf.order),
        "hash": cf.digest,
        "graph": graph_to_dict(cf.graph, labels=cf.labels),
    })
    return 0


def _cmd_iso(args) -> int:
    g, lg = _labels_of(_read_json(args.left))
    h, lh = _labels_of(_read_json(args.right))
    same = is_isomorphic(g, h, lg, lh)
    _emit({"isomorphic": same})
    return 0


def _parse_arities(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise FormatError(f"arity {_quote(chunk)} is not of the form a:b")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(
                f"arity {_quote(chunk)} is not numeric") from None
    return out


def _cmd_enum(args) -> int:
    arities = _parse_arities(args.arities)
    count = 0
    for ng in enumerate_graphs(arities, args.m, args.n,
                               upto_iso=args.upto_iso,
                               **_enumeration_caps(args)):
        print(json.dumps(graph_to_dict(ng.graph), separators=(",", ":")))
        count += 1
    print(f"{count} graphs", file=sys.stderr)
    return 0


def _at_least(flag: str, value: int | None, low: int) -> None:
    """Reject a bound below `low` as malformed input (None is no bound)."""
    if value is not None and value < low:
        raise FormatError(f"{flag} must be at least {low}, got {value}")


def _enumeration_caps(args) -> dict:
    _at_least("--max-vertices", args.max_vertices, 0)
    _at_least("--max-edges", args.max_edges, 0)
    return dict(max_vertices=args.max_vertices, max_edges=args.max_edges)


def _cmd_count(args) -> int:
    _at_least("--max-r", args.max_r, 0)
    caps = _enumeration_caps(args)
    sig = signature_from_dict(_read_json(args.sig))
    _emit(count_basis(sig, args.m, args.n, args.max_r, **caps))
    return 0


def _cmd_expand(args) -> int:
    d = _read_json(args.file)
    if not isinstance(d, dict) or "outer" not in d or "inner" not in d:
        raise FormatError("expected {\"outer\": graph, \"inner\": {id: element}}")
    sig = signature_from_dict(d["sig"]) if "sig" in d else None
    outer = check(graph_from_dict(d["outer"])[0])
    if not isinstance(d["inner"], dict):
        raise FormatError("\"inner\" must map vertex ids to elements")
    inner = {}
    for key, sub in d["inner"].items():
        try:
            vid = int(key)
        except ValueError:
            raise FormatError(
                f"inner key {_quote(key)} is not a vertex id") from None
        inner[vid] = element_from_dict(sub, sig)
    _emit(element_to_dict(expand(outer, inner)))
    return 0


def _cmd_map(args) -> int:
    spec = _read_json(args.assignment)
    if not isinstance(spec, dict) or "sig" not in spec or "assign" not in spec:
        raise FormatError("expected {\"sig\": ..., \"assign\": {name: element}}")
    sig = signature_from_dict(spec["sig"])
    if not isinstance(spec["assign"], dict):
        raise FormatError("\"assign\" must map generator names to elements")
    assign = {name: element_from_dict(sub)
              for name, sub in spec["assign"].items()}
    phi = extend_morphism(sig, assign, FREE_OPS)
    elem = element_from_dict(_read_json(args.file), sig)
    _emit(element_to_dict(phi(elem)))
    return 0


def _cmd_eval(args) -> int:
    _at_least("--max-axes", args.max_axes, 1)
    _at_least("--max-dim", args.max_dim, 1)
    _at_least("--max-entries", args.max_entries, 1)
    alg = algebra_from_dict(_read_json(args.algebra), max_dim=args.max_dim)
    elem = element_from_dict(_read_json(args.file))
    t = evaluate(elem, alg, max_axes=args.max_axes,
                 max_entries=args.max_entries)
    _emit({"m": elem.m, "n": elem.n, "dim": alg.dim,
           "shape": list(t.shape), "rows": t.rows()})
    return 0


def _load_matrix(path: str):
    d = _read_json(path)
    if isinstance(d, dict) and "matrix" in d:
        d = d["matrix"]
    return matrix_from_json(d)


def _cmd_check_morphism(args) -> int:
    _at_least("--max-dim", args.max_dim, 1)
    _at_least("--max-entries", args.max_entries, 1)
    f = _load_matrix(args.f)
    phi_a = algebra_from_dict(_read_json(args.phiA), max_dim=args.max_dim)
    phi_b = algebra_from_dict(_read_json(args.phiB), max_dim=args.max_dim)
    if args.names:
        names = [x for x in args.names.split(",") if x]
    else:
        names = sorted(set(phi_a.matrices) & set(phi_b.matrices))
    verdict = {name: morphism_prop_membership(f, phi_a, phi_b, name,
                                              max_entries=args.max_entries)
               for name in names}
    _emit({"generators": verdict, "all": all(verdict.values())})
    return 0


def _cmd_collapse(args) -> int:
    _at_least("--max-states", args.max_states, 1)
    g = mixed_from_dict(_read_json(args.file))
    if args.strategy == "greedy":
        _emit(mixed_to_dict(collapse(g, "greedy")))
    else:
        forms = collapse(g, "exhaustive", max_states=args.max_states)
        _emit({"count": len(forms), "forms": [mixed_to_dict(f) for f in forms]})
    return 0


def _cmd_witness(args) -> int:
    _at_least("--max-vertices", args.max_vertices, 0)
    _at_least("--max-p", args.max_p, 0)
    found = non_confluence_witness(max_vertices=args.max_vertices,
                                   max_p=args.max_p)
    if found is None:
        _emit({"found": False})
    else:
        _emit({
            "found": True,
            "graph": mixed_to_dict(found["graph"]),
            "forms": [mixed_to_dict(f) for f in found["forms"]],
            "sequences": [[list(pair) for pair in seq]
                          for seq in found["sequences"]],
        })
    return 0


def _tokens(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _cmd_cube(args) -> int:
    _at_least("--max-elements", args.max_elements, 0)
    k_set, l_set = _tokens(args.K), _tokens(args.L)
    i = inclusion_map(k_set, l_set)
    pc = punctured_colimit(CubeDiagram(args.n, i), args.max_elements)
    formula = len(l_set) ** args.n - (len(l_set) - len(k_set)) ** args.n
    out = {
        "n": args.n,
        "K": sorted(k_set),
        "L": sorted(l_set),
        "size": pc.size,
        "terminal": len(l_set) ** args.n,
        "lam_injective": pc.lam_injective(),
        "image_size": len(pc.image()),
        "union_formula": formula,
        "union_formula_ok": pc.size == formula,
    }
    if args.n >= 2:
        out["decomposition_ok"] = iterated_identity_check(i, pc)
    _emit(out)
    return 0


def _cmd_filtration_check(args) -> int:
    _at_least("--max-degree", args.max_degree, 1)
    _at_least("--max-vertices", args.max_vertices, 0)
    _at_least("--max-arity", args.max_arity, 0)
    _at_least("--max-classes", args.max_classes, 0)
    sig_k = signature_from_dict(_read_json(args.sigK))
    sig_l = signature_from_dict(_read_json(args.sigL))
    base = signature_from_dict(_read_json(args.base))
    report = filtration_square_check(
        sig_k, sig_l, base, args.m, args.n,
        max_degree=args.max_degree, max_vertices=args.max_vertices,
        max_arity=args.max_arity, slots=not args.no_slots,
        max_classes=args.max_classes)
    _emit(report)
    return 0 if report["all_ok"] else 1


# ---------------------------------------------------------------------------
# argument wiring

def _add_enumeration_caps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES,
                   help="cap on the vertices of a profile (max_vertices)")
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES,
                   help="cap on the edges of a profile (max_edges)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propcalc",
        description="Exact calculator for props presented by port graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("compose", help="compose two graphs or elements")
    p.add_argument("--op", choices=("h", "v"), required=True,
                   help="h: side by side; v: left grafted onto right")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("canon", help="canonical order, hash, renamed graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("iso", help="isomorphism test for two files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("enum", help="enumerate graphs as JSON lines")
    p.add_argument("--arities", default="",
                   help="comma list of a:b vertex arities")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--upto-iso", action="store_true")
    _add_enumeration_caps(p)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("count", help="basis counts per vertex count")
    p.add_argument("--sig", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-r", type=int, required=True)
    _add_enumeration_caps(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("expand", help="substitute inner elements into a graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("map", help="apply a generator assignment to an element")
    p.add_argument("file")
    p.add_argument("--assignment", required=True)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("eval", help="contract an element against an algebra")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-axes", type=int, default=DEFAULT_MAX_AXES,
                   help="cap on the element's boundary axes (max_axes)")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="cap on the algebra's dimension (max_dim)")
    p.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
                   help="cap on the entries of the widest intermediate "
                        "tensor (max_entries)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("check-morphism",
                       help="does a matrix intertwine two algebras?")
    p.add_argument("--f", required=True)
    p.add_argument("--phiA", required=True)
    p.add_argument("--phiB", required=True)
    p.add_argument("--names", default="")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="cap on each algebra's dimension (max_dim)")
    p.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
                   help="cap on the entries of each tensor power of f "
                        "(max_entries)")
    p.set_defaults(fn=_cmd_check_morphism)

    p = sub.add_parser("collapse", help="merge a mixed graph to normal form")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("greedy", "exhaustive"),
                   default="greedy")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p.set_defaults(fn=_cmd_collapse)

    p = sub.add_parser("witness", help="search for a non-confluent mixed graph")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--max-p", type=int, default=None)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("cube", help="punctured cube colimit over token sets")
    p.add_argument("--K", default="", help="comma list of tokens")
    p.add_argument("--L", required=True, help="comma list of tokens")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                   help="cap on the elements of the punctured cube"
                   " (max_elements)")
    p.set_defaults(fn=_cmd_cube)

    p = sub.add_parser("filtration-check",
                       help="audit the degree filtration squares")
    p.add_argument("--sigK", required=True)
    p.add_argument("--sigL", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-arity", type=int, default=2)
    p.add_argument("--no-slots", action="store_true",
                   help="restrict to fully labeled classes")
    p.add_argument("--max-classes", type=int, default=DEFAULT_MAX_CLASSES,
                   help="cap on the classes of the envelope and of each"
                   " corner (max_classes)")
    p.set_defaults(fn=_cmd_filtration_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout early (the flush above catches short
        # output too); point stdout at devnull so the flush at exit stays
        # quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended",
              file=sys.stderr)
        return 1
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GraphError, LimitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
