"""The committed example files in fixtures/, the one source of the paper's
running examples.  Tests read them as JSON and parse them through the
library's public loaders."""

from __future__ import annotations

import json
from pathlib import Path

from propcalc.graphs import Graph, graph_from_dict

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXDIR / f"{name}.json"


def fixture_dict(name: str) -> dict:
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def fixture_graph(name: str, *keys: str) -> Graph:
    """The graph of a fixture, or of the part found under `keys`:
    `fixture_graph("fig2h", "left")`, `fixture_graph("fig4", "inner", "1")`."""
    d = fixture_dict(name)
    for key in keys:
        d = d[key]
    return graph_from_dict(d)[0]
