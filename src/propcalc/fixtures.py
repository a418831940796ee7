"""Built-in example graphs used by the test suite and the demos.

Each builder returns plain library objects.  `fixture_dicts` produces the
JSON-ready forms, each tagged with a short `source` note saying what the
example demonstrates.  Run the module to (re)write the fixtures/ files:

    python -m propcalc.fixtures [directory]
"""

from __future__ import annotations

import sys
from pathlib import Path

from .graphs import Graph, graph_to_dict, make_graph, to_json_text


def _inp(i: int) -> tuple:
    return ("input", i)


def _out(j: int) -> tuple:
    return ("output", j)


def _vo(v: int, k: int) -> tuple:
    return ("vout", v, k)


def _vi(v: int, k: int) -> tuple:
    return ("vin", v, k)


def fig1() -> Graph:
    """A (4, 2)-graph on five vertices exercising every port kind."""
    return make_graph(
        4, 2,
        [(1, 1, 1), (2, 2, 4), (3, 2, 2), (4, 4, 2), (5, 2, 0)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_inp(3), _vi(2, 2)),
            (_inp(4), _vi(3, 2)),
            (_vo(2, 4), _vi(3, 1)),
            (_vo(2, 3), _vi(5, 1)),
            (_vo(2, 1), _vi(4, 2)),
            (_vo(2, 2), _vi(4, 3)),
            (_vo(1, 1), _vi(4, 1)),
            (_vo(3, 1), _vi(4, 4)),
            (_vo(3, 2), _vi(5, 2)),
            (_vo(4, 1), _out(1)),
            (_vo(4, 2), _out(2)),
        ])


def fig7() -> Graph:
    """The same shape as fig1; its canonical order is [1, 4, 2, 5, 3]."""
    return fig1()


def fig2h() -> dict[str, Graph]:
    """Two graphs placed side by side and their horizontal composite."""
    left = make_graph(
        2, 1,
        [(1, 1, 2), (2, 1, 1), (3, 3, 1)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_vo(1, 1), _vi(3, 1)),
            (_vo(1, 2), _vi(3, 2)),
            (_vo(2, 1), _vi(3, 3)),
            (_vo(3, 1), _out(1)),
        ])
    right = make_graph(
        1, 2,
        [(1, 1, 2), (2, 2, 2)],
        [
            (_inp(1), _vi(1, 1)),
            (_vo(1, 1), _vi(2, 1)),
            (_vo(1, 2), _vi(2, 2)),
            (_vo(2, 1), _out(1)),
            (_vo(2, 2), _out(2)),
        ])
    result = make_graph(
        3, 3,
        [(1, 1, 2), (2, 1, 1), (3, 3, 1), (4, 1, 2), (5, 2, 2)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_inp(3), _vi(4, 1)),
            (_vo(1, 1), _vi(3, 1)),
            (_vo(1, 2), _vi(3, 2)),
            (_vo(2, 1), _vi(3, 3)),
            (_vo(4, 1), _vi(5, 1)),
            (_vo(4, 2), _vi(5, 2)),
            (_vo(3, 1), _out(1)),
            (_vo(5, 1), _out(2)),
            (_vo(5, 2), _out(3)),
        ])
    return {"left": left, "right": right, "result": result}


def fig2v() -> dict[str, Graph]:
    """Two graphs stacked and their vertical composite (outputs of the
    top graph feed the inputs of the bottom one)."""
    parts = fig2h()
    top, bottom = parts["right"], parts["left"]
    result = make_graph(
        1, 1,
        [(1, 1, 2), (2, 2, 2), (3, 1, 2), (4, 1, 1), (5, 3, 1)],
        [
            (_inp(1), _vi(1, 1)),
            (_vo(1, 1), _vi(2, 1)),
            (_vo(1, 2), _vi(2, 2)),
            (_vo(2, 1), _vi(3, 1)),
            (_vo(2, 2), _vi(4, 1)),
            (_vo(3, 1), _vi(5, 1)),
            (_vo(3, 2), _vi(5, 2)),
            (_vo(4, 1), _vi(5, 3)),
            (_vo(5, 1), _out(1)),
        ])
    return {"top": top, "bottom": bottom, "result": result}


def fig4() -> dict:
    """A two-level composite: an outer graph whose vertices each carry an
    inner graph, and the equal flattened graph."""
    sig = {"x": (1, 2), "y": (1, 2), "w": (2, 1), "t": (2, 1)}
    outer = make_graph(
        2, 2,
        [(1, 2, 4), (2, 4, 2)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(1, 2)),
            (_vo(1, 1), _vi(2, 1)),
            (_vo(1, 2), _vi(2, 2)),
            (_vo(1, 3), _vi(2, 3)),
            (_vo(1, 4), _vi(2, 4)),
            (_vo(2, 1), _out(1)),
            (_vo(2, 2), _out(2)),
        ])
    inner1 = make_graph(
        2, 4,
        [(1, 1, 2), (2, 1, 2)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_vo(1, 1), _out(1)),
            (_vo(1, 2), _out(2)),
            (_vo(2, 1), _out(3)),
            (_vo(2, 2), _out(4)),
        ])
    inner2 = make_graph(
        4, 2,
        [(1, 2, 1), (2, 2, 1)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_inp(3), _vi(2, 2)),
            (_inp(4), _vi(1, 2)),
            (_vo(1, 1), _out(1)),
            (_vo(2, 1), _out(2)),
        ])
    flat = make_graph(
        2, 2,
        [(1, 1, 2), (2, 1, 2), (3, 2, 1), (4, 2, 1)],
        [
            (_inp(1), _vi(1, 1)),
            (_inp(2), _vi(2, 1)),
            (_vo(1, 1), _vi(3, 1)),
            (_vo(1, 2), _vi(4, 1)),
            (_vo(2, 1), _vi(4, 2)),
            (_vo(2, 2), _vi(3, 2)),
            (_vo(3, 1), _out(1)),
            (_vo(4, 1), _out(2)),
        ])
    return {
        "sig": sig,
        "outer": outer,
        "inner": {1: inner1, 2: inner2},
        "inner_labels": {1: {1: "x", 2: "y"}, 2: {1: "w", 2: "t"}},
        "flat": flat,
        "flat_labels": {1: "x", 2: "y", 3: "w", 4: "t"},
    }


def fig8() -> dict:
    """fig1's shape with three labeled vertices and two numbered slots."""
    return {
        "graph": fig1(),
        "labels": {2: "x", 4: "y", 5: "z"},
        "slots": {1: 1, 3: 2},
        "sig": {"x": (2, 4), "y": (4, 2), "z": (2, 0)},
    }


def remark_witness() -> dict:
    """A closed mixed graph with two distinct irreducible merge results."""
    graph = make_graph(
        0, 0,
        [(1, 0, 2), (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (6, 2, 0)],
        [
            (_vo(1, 1), _vi(2, 1)),
            (_vo(1, 2), _vi(3, 1)),
            (_vo(2, 1), _vi(4, 1)),
            (_vo(4, 1), _vi(5, 1)),
            (_vo(5, 1), _vi(6, 2)),
            (_vo(3, 1), _vi(6, 1)),
        ])
    return {
        "graph": graph,
        "labels": {1: "x0", 2: "q1", 3: "p", 4: "x1", 5: "q2", 6: "x2"},
        "alphabet": {1: "M", 2: "P", 3: "P", 4: "M", 5: "P", 6: "M"},
        "atoms": {"p": (1, 1), "q1": (1, 1), "q2": (1, 1)},
        "msig": {"x0": (0, 2), "x1": (1, 1), "x2": (2, 0)},
    }


def nonacyclic_p2() -> Graph:
    """One splitter over two parallel unary vertices over one joiner."""
    return make_graph(
        1, 1,
        [(1, 1, 2), (2, 1, 1), (3, 1, 1), (4, 2, 1)],
        [
            (_inp(1), _vi(1, 1)),
            (_vo(1, 1), _vi(2, 1)),
            (_vo(1, 2), _vi(3, 1)),
            (_vo(2, 1), _vi(4, 1)),
            (_vo(3, 1), _vi(4, 2)),
            (_vo(4, 1), _out(1)),
        ])


def _sig_dict(sig: dict[str, tuple[int, int]]) -> dict:
    return {"generators": [{"name": name, "m": mn[0], "n": mn[1]}
                           for name, mn in sig.items()]}


def fixture_dicts() -> dict[str, dict]:
    """JSON-ready dict per fixture name, each with a `source` note."""
    h, v, f4, f8, rw = fig2h(), fig2v(), fig4(), fig8(), remark_witness()
    out: dict[str, dict] = {}

    d = graph_to_dict(fig1())
    out["fig1"] = {"source": "running example: a (4,2)-graph on five vertices",
                   **d}

    out["fig2h"] = {
        "source": "horizontal composition: side-by-side placement",
        "left": graph_to_dict(h["left"]),
        "right": graph_to_dict(h["right"]),
        "result": graph_to_dict(h["result"]),
    }

    out["fig2v"] = {
        "source": "vertical composition: output-to-input grafting",
        "top": graph_to_dict(v["top"]),
        "bottom": graph_to_dict(v["bottom"]),
        "result": graph_to_dict(v["result"]),
    }

    out["fig4"] = {
        "source": "substitution: inner graphs expanded into an outer graph",
        "sig": _sig_dict(f4["sig"]),
        "outer": graph_to_dict(f4["outer"]),
        "inner": {str(vid): graph_to_dict(g, labels=f4["inner_labels"][vid])
                  for vid, g in f4["inner"].items()},
        "flat": graph_to_dict(f4["flat"], labels=f4["flat_labels"]),
    }

    out["fig7"] = {"source": "canonical numbering example on the running "
                             "(4,2)-graph", **graph_to_dict(fig7())}

    extras8 = {vid: {"slot": s} for vid, s in f8["slots"].items()}
    out["fig8"] = {
        "source": "partially labeled graph: three labels, two open slots",
        "sig": _sig_dict(f8["sig"]),
        **graph_to_dict(f8["graph"], labels=f8["labels"],
                        vertex_extras=extras8),
    }

    extras_rw = {vid: {"alphabet": a} for vid, a in rw["alphabet"].items()}
    out["remark-witness"] = {
        "source": "mixed graph whose merge order yields two distinct "
                  "irreducible forms",
        "atoms": _sig_dict(rw["atoms"]),
        "msig": _sig_dict(rw["msig"]),
        **graph_to_dict(rw["graph"], labels=rw["labels"],
                        vertex_extras=extras_rw),
    }

    out["nonacyclic-p2"] = {
        "source": "split-merge diamond: the p=2 stack of unary vertices",
        **graph_to_dict(nonacyclic_p2()),
    }
    return out


def write_fixtures(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, d in fixture_dicts().items():
        path = directory / f"{name}.json"
        path.write_text(to_json_text(d), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for p in write_fixtures(target):
        print(p)
