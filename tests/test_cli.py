"""Command line behavior: fixture round-trips, subcommand output, and the
exit-code contract (0 ok, 1 domain error, 2 malformed input)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from propcalc import canonical, cli, pushouts
from propcalc.freeprop import element_from_dict, element_to_dict, \
    partial_from_dict, partial_to_dict, signature_from_dict
from propcalc.graphs import graph_from_dict, graph_to_dict, to_json_text
from propcalc.rewrite import mixed_from_dict, mixed_to_dict

from _fixtures import FIXDIR, fixture_dict, fixture_path
from _oracles import unary_chain

ROOT = Path(__file__).resolve().parent.parent
# child processes find the package in src/, as test_demo_runs does
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
# every committed fixture is round-trip-checked, a new one included
FIXTURE_NAMES = [p.stem for p in sorted(FIXDIR.glob("*.json"))]


def run(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; argparse usage failures surface as the
    SystemExit code they would carry in a shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def graph_fields(d: dict) -> dict:
    return {k: d[k] for k in ("m", "n", "vertices", "edges")}


def write_json(path: Path, payload: object) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def wire(src: list, dst: list) -> dict:
    return {"src": src, "dst": dst}


UNARY_ELEMENT = {
    "m": 1, "n": 1,
    "vertices": [{"id": 1, "in": 1, "out": 1, "label": "a"}],
    "edges": [wire(["input", 1], ["vin", 1, 1]),
              wire(["vout", 1, 1], ["output", 1])],
}

UNARY_CHAIN = {
    "m": 1, "n": 1,
    "vertices": [{"id": 1, "in": 1, "out": 1, "label": "a"},
                 {"id": 2, "in": 1, "out": 1, "label": "a"}],
    "edges": [wire(["input", 1], ["vin", 1, 1]),
              wire(["vout", 1, 1], ["vin", 2, 1]),
              wire(["vout", 2, 1], ["output", 1])],
}

UNARY_SIG = {"generators": [{"name": "a", "m": 1, "n": 1}]}

# vertex 1 feeds a vertex 2 that does not exist, and output 1 is unfed
DANGLING = {
    "m": 1, "n": 1,
    "vertices": [{"id": 1, "in": 1, "out": 1}],
    "edges": [wire(["input", 1], ["vin", 1, 1]),
              wire(["vout", 1, 1], ["vin", 2, 1])],
}


# ---------------------------------------------------------------------------
# fixture files as data

def test_fixture_inventory_is_complete():
    # a deleted file fails here, since the list is read from disk
    assert set(FIXTURE_NAMES) >= {"fig1", "fig2h", "fig2v", "fig4", "fig7",
                                  "fig8", "nonacyclic-p2", "remark-witness"}


def round_tripped(node: object) -> object:
    if isinstance(node, dict):
        if "vertices" in node and "edges" in node:
            graph, extras = graph_from_dict(node)
            back = graph_to_dict(graph, vertex_extras=extras)
            return {k: back[k] if k in back else round_tripped(v)
                    for k, v in node.items()}
        return {k: round_tripped(v) for k, v in node.items()}
    if isinstance(node, list):
        return [round_tripped(x) for x in node]
    return node


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trips_byte_exact(name):
    raw = fixture_path(name).read_text(encoding="utf-8")
    rebuilt = round_tripped(json.loads(raw))
    assert to_json_text(rebuilt) == raw


def test_typed_parsers_round_trip():
    # bare atom names abbreviate one-vertex elements, so serialization
    # stabilizes after a single parse
    first = mixed_to_dict(mixed_from_dict(fixture_dict("remark-witness")))
    assert mixed_from_dict(first) == mixed_from_dict(fixture_dict("remark-witness"))
    assert mixed_to_dict(mixed_from_dict(first)) == first

    # elements store a canonical representative, so the same holds there
    f4 = fixture_dict("fig4")
    sig = signature_from_dict(f4["sig"])
    for sub in list(f4["inner"].values()) + [f4["flat"]]:
        elem = element_from_dict(sub, sig)
        once = element_to_dict(elem)
        assert element_from_dict(once, sig) == elem
        assert element_to_dict(element_from_dict(once, sig)) == once

    f8 = fixture_dict("fig8")
    assert partial_to_dict(partial_from_dict(f8)) == graph_fields(f8)


# ---------------------------------------------------------------------------
# inspection commands

def test_validate_accepts_every_fixture():
    for name in FIXTURE_NAMES:
        rc, out, _ = run("validate", str(fixture_path(name)))
        assert rc == 0, name
        assert json.loads(out)["valid"] is True


def test_validate_reports_a_cycle(tmp_path):
    bad = {"m": 0, "n": 0,
           "vertices": [{"id": 1, "in": 1, "out": 1}],
           "edges": [wire(["vout", 1, 1], ["vin", 1, 1])]}
    rc, out, _ = run("validate", write_json(tmp_path / "bad.json", bad))
    report = json.loads(out)
    assert rc == 1 and report["valid"] is False and report["errors"]


def test_validate_accepts_a_deep_chain(tmp_path):
    chain = graph_to_dict(unary_chain(3000))
    rc, out, _ = run("validate", write_json(tmp_path / "chain.json", chain))
    assert rc == 0 and json.loads(out)["valid"] is True


def test_json_booleans_are_not_integers(tmp_path):
    booly = {**graph_fields(UNARY_ELEMENT), "m": True}
    rc, out, err = run("validate", write_json(tmp_path / "b.json", booly))
    assert rc == 2 and out == "" and len(err.splitlines()) == 1


def test_canon_reports_the_pinned_order():
    rc, out, _ = run("canon", str(fixture_path("fig7")))
    assert rc == 0
    report = json.loads(out)
    assert report["order"] == [1, 4, 2, 5, 3]
    assert isinstance(report["hash"], int)


def test_canon_hash_ignores_vertex_numbering(tmp_path):
    base = fixture_dict("fig7")
    rename = {1: 30, 2: 10, 3: 50, 4: 20, 5: 40}
    shuffled = graph_fields(base)
    shuffled["vertices"] = [{**v, "id": rename[v["id"]]}
                            for v in reversed(shuffled["vertices"])]
    shuffled["edges"] = [
        {side: ([p[0], rename[p[1]], p[2]] if p[0] in ("vin", "vout") else p)
         for side, p in e.items()}
        for e in shuffled["edges"]]
    _, out1, _ = run("canon", str(fixture_path("fig7")))
    _, out2, _ = run("canon", write_json(tmp_path / "shuffled.json", shuffled))
    one, two = json.loads(out1), json.loads(out2)
    assert one["hash"] == two["hash"]
    assert one["graph"] == two["graph"]


def test_canon_keys_its_graph_once(monkeypatch):
    # the hash comes from the key of the canonical form, so one canonical
    # route serves both; it is the hash of the graph canon prints
    route = canonical._route_order
    calls = []

    def counted(ports, m, texts):
        calls.append(ports)
        return route(ports, m, texts)

    monkeypatch.setattr(canonical, "_route_order", counted)
    for name in ("fig1", "fig7", "fig8", "nonacyclic-p2", "remark-witness"):
        calls.clear()
        rc, out, _ = run("canon", str(fixture_path(name)))
        assert rc == 0 and len(calls) == 1, name
        report = json.loads(out)
        graph, extras = graph_from_dict(report["graph"])
        labels = {vid: ex["label"] for vid, ex in extras.items()} or None
        assert report["hash"] == canonical.graph_hash(graph, labels), name


def test_iso_distinguishes_fixture_shapes():
    rc, out, _ = run("iso", str(fixture_path("fig1")), str(fixture_path("fig7")))
    assert rc == 0 and json.loads(out)["isomorphic"] is True
    rc, out, _ = run("iso", str(fixture_path("fig1")),
                     str(fixture_path("nonacyclic-p2")))
    assert rc == 0 and json.loads(out)["isomorphic"] is False


def test_canon_and_iso_reject_an_invalid_graph(tmp_path):
    bad = write_json(tmp_path / "bad.json", DANGLING)
    good = str(fixture_path("fig1"))
    for argv in (("canon", bad), ("iso", bad, good), ("iso", good, bad)):
        rc, out, err = run(*argv)
        assert rc == 1 and out == "", argv
        assert err.startswith("error: invalid graph") \
            and len(err.splitlines()) == 1, argv


# ---------------------------------------------------------------------------
# composition and enumeration

def test_compose_reproduces_the_stored_results(tmp_path):
    h = fixture_dict("fig2h")
    rc, out, _ = run("compose",
                     write_json(tmp_path / "l.json", h["left"]),
                     write_json(tmp_path / "r.json", h["right"]),
                     "--op", "h")
    assert rc == 0 and json.loads(out) == graph_fields(h["result"])

    v = fixture_dict("fig2v")
    rc, out, _ = run("compose",
                     write_json(tmp_path / "t.json", v["top"]),
                     write_json(tmp_path / "b.json", v["bottom"]),
                     "--op", "v")
    assert rc == 0 and json.loads(out) == graph_fields(v["result"])


def test_compose_rejects_an_invalid_graph(tmp_path):
    bad = write_json(tmp_path / "bad.json", DANGLING)
    good = write_json(tmp_path / "good.json", graph_fields(UNARY_ELEMENT))
    for op, left, right in (("v", good, bad), ("v", bad, good),
                            ("h", good, bad)):
        rc, out, err = run("compose", left, right, "--op", op)
        assert rc == 1 and out == "", (op, left, right)
        assert err.startswith("error: invalid graph") \
            and len(err.splitlines()) == 1, (op, left, right)


def test_enum_lists_every_wiring_of_the_menu():
    rc, out, err = run("enum", "--arities", "1:1,2:1", "--m", "2", "--n", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6 and "6 graphs" in err
    for line in lines:
        graph, _ = graph_from_dict(json.loads(line))
        assert (graph.m, graph.n) == (2, 1)


def test_enum_honors_the_vertex_cap():
    rc, out, err = run("enum", "--arities", ",".join(["1:1"] * 9),
                       "--m", "1", "--n", "1")
    assert (rc, out) == (1, "")
    assert err == ("error: profile has 9 vertices, cap is 8"
                   " (max_vertices, --max-vertices)\n")


def test_enum_of_an_unbalanced_profile_is_empty_whatever_the_caps():
    # 26 out-ports cannot pair with 2 in-ports: no graph, so no cap error
    rc, out, err = run("enum", "--arities", "1:13,1:13", "--m", "0",
                       "--n", "0")
    assert (rc, out, err) == (0, "", "0 graphs\n")


def test_enum_takes_its_vertex_cap_from_the_flag():
    args = ("enum", "--arities", "1:1,1:1", "--m", "1", "--n", "1")
    rc, out, err = run(*args, "--max-vertices", "1")
    assert (rc, out) == (1, "")
    assert err == ("error: profile has 2 vertices, cap is 1"
                   " (max_vertices, --max-vertices)\n")
    rc, out, err = run(*args, "--max-vertices", "2")
    assert rc == 0 and err == "2 graphs\n"


def test_enum_takes_its_edge_cap_from_the_flag():
    args = ("enum", "--arities", "1:1,1:1", "--m", "1", "--n", "1")
    rc, out, err = run(*args, "--max-edges", "2")
    assert (rc, out) == (1, "")
    assert err == "error: 3 edges, cap is 2 (max_edges, --max-edges)\n"
    rc, _, err = run(*args, "--max-edges", "-1")
    assert rc == 2 and err == "error: --max-edges must be at least 0, got -1\n"


def test_count_takes_its_vertex_cap_from_the_flag(tmp_path):
    sig = write_json(tmp_path / "sig.json", UNARY_SIG)
    args = ("count", "--sig", sig, "--m", "1", "--n", "1", "--max-r", "3")
    rc, out, err = run(*args, "--max-vertices", "2")
    assert (rc, out) == (1, "")
    assert err == ("error: profile has 3 vertices, cap is 2"
                   " (max_vertices, --max-vertices)\n")
    rc, out, _ = run(*args, "--max-vertices", "3")
    assert rc == 0 and json.loads(out)["iso"] == [1, 1, 1, 1]


def test_count_takes_its_edge_cap_from_the_flag(tmp_path):
    sig = write_json(tmp_path / "sig.json", UNARY_SIG)
    args = ("count", "--sig", sig, "--m", "1", "--n", "1", "--max-r", "3")
    rc, out, err = run(*args, "--max-edges", "3")
    assert (rc, out) == (1, "")
    assert err == "error: 4 edges, cap is 3 (max_edges, --max-edges)\n"
    rc, _, err = run(*args, "--max-vertices", "-1")
    assert rc == 2
    assert err == "error: --max-vertices must be at least 0, got -1\n"


def test_count_reports_both_numbered_and_iso_counts(tmp_path):
    rc, out, _ = run("count", "--sig", write_json(tmp_path / "sig.json", UNARY_SIG),
                     "--m", "1", "--n", "1", "--max-r", "3")
    assert rc == 0
    assert json.loads(out) == {"numbered": [1, 1, 2, 6], "iso": [1, 1, 1, 1]}


def test_count_rejects_a_negative_max_r(tmp_path):
    sig = write_json(tmp_path / "sig.json", UNARY_SIG)
    rc, out, err = run("count", "--sig", sig, "--m", "1", "--n", "1",
                       "--max-r", "-1")
    assert rc == 2 and out == ""
    assert err == "error: --max-r must be at least 0, got -1\n"


def test_expand_flattens_to_the_stored_element():
    rc, out, _ = run("expand", str(fixture_path("fig4")))
    assert rc == 0
    f4 = fixture_dict("fig4")
    sig = signature_from_dict(f4["sig"])
    assert element_from_dict(json.loads(out), sig) \
        == element_from_dict(f4["flat"], sig)


def test_expand_rejects_an_invalid_outer_graph(tmp_path):
    f4 = fixture_dict("fig4")
    edge = next(e for e in f4["outer"]["edges"] if e["dst"][0] == "vin")
    edge["dst"] = ["vin", 99, 1]
    rc, out, err = run("expand", write_json(tmp_path / "bad.json", f4))
    assert rc == 1 and out == ""
    assert err.startswith("error: invalid graph") \
        and len(err.splitlines()) == 1


def test_expand_rejects_an_inner_field_that_is_not_an_object(tmp_path):
    f4 = fixture_dict("fig4")
    f4["inner"] = []
    rc, out, err = run("expand", write_json(tmp_path / "bad.json", f4))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# algebra commands

def test_map_applies_a_generator_assignment(tmp_path):
    assignment = {"sig": UNARY_SIG, "assign": {"a": UNARY_CHAIN}}
    rc, out, _ = run("map", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                     "--assignment",
                     write_json(tmp_path / "assign.json", assignment))
    assert rc == 0
    image = json.loads(out)
    assert len(image["vertices"]) == 2
    assert element_from_dict(image) == element_from_dict(UNARY_CHAIN)


def test_map_rejects_an_assign_field_that_is_not_an_object(tmp_path):
    assignment = {"sig": UNARY_SIG, "assign": []}
    rc, out, err = run("map", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                       "--assignment",
                       write_json(tmp_path / "assign.json", assignment))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_eval_contracts_against_an_algebra(tmp_path):
    algebra = {"dim": 2, "matrices": {"a": [["1", "1/2"], ["0", "1"]]}}
    rc, out, _ = run("eval", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                     "--algebra", write_json(tmp_path / "alg.json", algebra))
    assert rc == 0
    report = json.loads(out)
    assert report["shape"] == [2, 2]
    assert report["rows"] == [["1", "1/2"], ["0", "1"]]


def test_eval_boundary_axes_cap(tmp_path):
    # four through wires: 8 boundary axes, past the default cap of 6
    wires = {"m": 4, "n": 4, "vertices": [],
             "edges": [wire(["input", i], ["output", i])
                       for i in range(1, 5)]}
    elem = write_json(tmp_path / "e.json", wires)
    alg = write_json(tmp_path / "alg.json", {"dim": 2, "matrices": {}})
    rc, out, err = run("eval", elem, "--algebra", alg)
    assert rc == 1 and out == ""
    assert err == "error: boundary 4+4 axes, cap is 6 (max_axes, --max-axes)\n"
    rc, out, _ = run("eval", elem, "--algebra", alg, "--max-axes", "8")
    assert rc == 0 and json.loads(out)["shape"] == [16, 16]
    for bad in ("0", "-3"):
        rc, out, err = run("eval", elem, "--algebra", alg, "--max-axes", bad)
        assert rc == 2 and out == ""
        assert err == f"error: --max-axes must be at least 1, got {bad}\n"


def test_eval_dimension_cap(tmp_path):
    elem = write_json(tmp_path / "e.json", UNARY_ELEMENT)
    eye = [[str(int(i == j)) for j in range(5)] for i in range(5)]
    alg = write_json(tmp_path / "alg.json", {"dim": 5, "matrices": {"a": eye}})
    rc, out, err = run("eval", elem, "--algebra", alg)
    assert rc == 1 and out == ""
    assert err == "error: dimension 5, cap is 4 (max_dim, --max-dim)\n"
    rc, out, _ = run("eval", elem, "--algebra", alg, "--max-dim", "5")
    assert rc == 0 and json.loads(out)["rows"] == eye
    for bad in ("0", "-3"):
        rc, out, err = run("eval", elem, "--algebra", alg, "--max-dim", bad)
        assert rc == 2 and out == ""
        assert err == f"error: --max-dim must be at least 1, got {bad}\n"


def test_eval_intermediate_entries_cap(tmp_path):
    # one unary vertex holds its output and input axes at once: 2**2 entries
    elem = write_json(tmp_path / "e.json", UNARY_ELEMENT)
    alg = write_json(tmp_path / "alg.json",
                     {"dim": 2, "matrices": {"a": [["1", "2"], ["3", "4"]]}})
    rc, out, err = run("eval", elem, "--algebra", alg, "--max-entries", "3")
    assert rc == 1 and out == ""
    assert err == ("error: contraction peaks at 2**2 entries, cap is 3 "
                   "(max_entries, --max-entries)\n")
    rc, out, _ = run("eval", elem, "--algebra", alg, "--max-entries", "4")
    assert rc == 0 and json.loads(out)["rows"] == [["1", "2"], ["3", "4"]]
    for bad in ("0", "-3"):
        rc, out, err = run("eval", elem, "--algebra", alg,
                           "--max-entries", bad)
        assert rc == 2 and out == ""
        assert err == f"error: --max-entries must be at least 1, got {bad}\n"


def test_check_morphism_accepts_an_intertwiner(tmp_path):
    algebra = {"dim": 2, "matrices": {"a": [["1", "1/2"], ["0", "1"]]}}
    alg = write_json(tmp_path / "alg.json", algebra)
    eye = write_json(tmp_path / "f.json", [["1", "0"], ["0", "1"]])
    rc, out, _ = run("check-morphism", "--f", eye, "--phiA", alg, "--phiB", alg)
    assert rc == 0
    assert json.loads(out) == {"generators": {"a": True}, "all": True}


# ---------------------------------------------------------------------------
# rewriting commands

def test_collapse_greedy_emits_a_mixed_graph():
    rc, out, _ = run("collapse", str(fixture_path("remark-witness")))
    assert rc == 0
    merged = mixed_from_dict(json.loads(out))
    assert len(merged.graph.vertices) < 6


def test_collapse_exhaustive_finds_both_forms():
    rc, out, _ = run("collapse", str(fixture_path("remark-witness")),
                     "--strategy", "exhaustive")
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 2 and len(report["forms"]) == 2


def test_collapse_state_cap():
    path = str(fixture_path("remark-witness"))
    rc, out, err = run("collapse", path, "--strategy", "exhaustive",
                       "--max-states", "1")
    assert rc == 1 and out == ""
    assert err == "error: merge search exceeded the cap of 1 states " \
        "(max_states, --max-states)\n"
    for bad in ("0", "-5"):
        rc, out, err = run("collapse", path, "--strategy", "exhaustive",
                           "--max-states", bad)
        assert rc == 2 and out == "", bad
        assert err.startswith("error: --max-states") \
            and len(err.splitlines()) == 1, bad


def test_witness_search_finds_and_respects_bounds():
    rc, out, _ = run("witness", "--max-vertices", "5")
    assert rc == 0
    report = json.loads(out)
    assert report["found"] is True
    assert len(report["forms"]) == 2 and len(report["sequences"]) == 2
    assert mixed_from_dict(report["graph"]).graph.vertices

    rc, out, _ = run("witness", "--max-vertices", "5", "--max-p", "2")
    assert rc == 0 and json.loads(out) == {"found": False}


def test_witness_rejects_negative_max_vertices():
    rc, out, err = run("witness", "--max-vertices", "-1")
    assert rc == 2 and out == ""
    assert err == "error: --max-vertices must be at least 0, got -1\n"


def test_witness_rejects_a_negative_max_p():
    rc, out, err = run("witness", "--max-p", "-5")
    assert rc == 2 and out == ""
    assert err == "error: --max-p must be at least 0, got -5\n"


# ---------------------------------------------------------------------------
# colimit commands

def test_cube_reports_the_counting_identities():
    rc, out, _ = run("cube", "--K", "a", "--L", "a,b", "--n", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["size"] == 3 and report["terminal"] == 4
    assert report["lam_injective"] is True
    assert report["union_formula"] == 3 and report["union_formula_ok"] is True
    assert report["decomposition_ok"] is True
    # 100 tokens on each side: 10,000 tuples per cube vertex, each mapped
    # along every edge of the cube
    tokens = ",".join(f"t{i}" for i in range(100))
    rc, out, _ = run("cube", "--K", tokens, "--L", tokens, "--n", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["size"] == 10_000 and report["union_formula_ok"] is True
    assert report["decomposition_ok"] is True


def test_cube_takes_its_element_cap_from_the_flag():
    # (1 + 2)^2 - 2^2 = 5 elements at n = 2, and 1 at n = 1
    args = ("cube", "--K", "a", "--L", "a,b", "--n", "2")
    rc, out, err = run(*args, "--max-elements", "4")
    assert (rc, out) == (1, "")
    assert err == ("error: punctured 2-cube has 5 elements, cap is 4"
                   " (max_elements, --max-elements)\n")
    rc, out, _ = run(*args, "--max-elements", "5")
    assert rc == 0 and json.loads(out)["decomposition_ok"] is True
    rc, _, err = run(*args, "--max-elements", "-1")
    assert rc == 2
    assert err == "error: --max-elements must be at least 0, got -1\n"


def test_cube_builds_its_colimit_once(monkeypatch):
    # the decomposition check reads the colimit cube already holds, and
    # builds only the (n-1)-fold one
    built = []
    original = pushouts.punctured_colimit

    def counted(cube, max_elements=None):
        built.append(cube.n)
        return original(cube, max_elements)

    monkeypatch.setattr(pushouts, "punctured_colimit", counted)
    monkeypatch.setattr(cli, "punctured_colimit", counted)
    rc, out, _ = run("cube", "--K", "a", "--L", "a,b", "--n", "3")
    assert rc == 0 and json.loads(out)["decomposition_ok"] is True
    assert sorted(built) == [2, 3]


def test_cube_rejects_tokens_outside_the_larger_set():
    rc, _, err = run("cube", "--K", "a,b", "--L", "a", "--n", "2")
    assert rc == 1 and err


def test_cube_counts_its_elements_before_listing_them():
    # (1 + 2)^30 - 2^30 elements: the count trips the cap at once
    start = time.perf_counter()
    rc, out, err = run("cube", "--K", "a", "--L", "a,b", "--n", "30")
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "cap is 200000 (max_elements, --max-elements)" in err
    # an empty K leaves every sub-terminal vertex empty, at any n
    start = time.perf_counter()
    rc, out, _ = run("cube", "--K", "", "--L", "a,b", "--n", "40")
    assert time.perf_counter() - start < 1.0
    assert rc == 0 and json.loads(out)["size"] == 0


def test_filtration_check_passes_on_a_small_instance(tmp_path):
    k = write_json(tmp_path / "k.json", {"generators": []})
    lsig = write_json(tmp_path / "l.json",
                      {"generators": [{"name": "l", "m": 1, "n": 1}]})
    base = write_json(tmp_path / "m0.json",
                      {"generators": [{"name": "o", "m": 1, "n": 1}]})
    rc, out, _ = run("filtration-check", "--sigK", k, "--sigL", lsig,
                     "--base", base, "--max-degree", "2",
                     "--max-vertices", "3", "--no-slots")
    assert rc == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert [row["identity"] for row in report["degrees"]] == [True, True]


def _chain_signatures(tmp_path) -> list[str]:
    k = write_json(tmp_path / "k.json", {"generators": []})
    lsig = write_json(tmp_path / "l.json",
                      {"generators": [{"name": "l", "m": 1, "n": 1}]})
    base = write_json(tmp_path / "m0.json",
                      {"generators": [{"name": "o", "m": 1, "n": 1}]})
    return ["--sigK", k, "--sigL", lsig, "--base", base]


def test_filtration_check_rejects_a_negative_vertex_bound(tmp_path):
    rc, out, err = run("filtration-check", *_chain_signatures(tmp_path),
                       "--max-vertices", "-1")
    assert (rc, out) == (2, "")
    assert err == "error: --max-vertices must be at least 0, got -1\n"


def test_filtration_check_rejects_a_negative_arity_bound(tmp_path):
    rc, out, err = run("filtration-check", *_chain_signatures(tmp_path),
                       "--max-arity", "-1")
    assert (rc, out) == (2, "")
    assert err == "error: --max-arity must be at least 0, got -1\n"


def test_filtration_check_rejects_a_degree_below_one(tmp_path):
    for degree in ("0", "-3"):
        rc, out, err = run("filtration-check", *_chain_signatures(tmp_path),
                           "--max-degree", degree)
        assert (rc, out) == (2, "")
        assert err == f"error: --max-degree must be at least 1, got {degree}\n"


def test_filtration_check_caps_its_classes(tmp_path):
    args = ["filtration-check", *_chain_signatures(tmp_path),
            "--max-vertices", "4"]
    rc, out, err = run(*args, "--max-classes", "3")
    assert (rc, out) == (1, "")
    assert err == ("error: class enumeration found 4 classes, cap is 3"
                   " (max_classes, --max-classes)\n")
    rc, _, err = run(*args, "--max-classes", "-1")
    assert rc == 2
    assert err == "error: --max-classes must be at least 0, got -1\n"
    # the cap bounds each enumeration, the envelope being the largest
    rc, out, _ = run(*args, "--no-slots", "--max-classes", "25")
    assert rc == 0 and json.loads(out)["env_sizes"] == [5, 15, 25]
    rc, _, err = run(*args, "--no-slots", "--max-classes", "24")
    assert rc == 1 and err.endswith("found 25 classes, cap is 24"
                                    " (max_classes, --max-classes)\n")


def _kept_signatures(tmp_path) -> list[str]:
    # K = {k: 1->1}, L = K + {l: 1->1}, base = K + {o: 1->1}
    k = {"name": "k", "m": 1, "n": 1}
    sigs = {"sigK": [k], "sigL": [k, {"name": "l", "m": 1, "n": 1}],
            "base": [k, {"name": "o", "m": 1, "n": 1}]}
    argv = []
    for flag, gens in sigs.items():
        argv += [f"--{flag}",
                 write_json(tmp_path / f"{flag}.json", {"generators": gens})]
    return argv


# slot arity bounds whose (max_arity + 1)^2 slot menu no memory holds
HUGE_MAX_ARITY = {"3000": 3000, "10^9": 10 ** 9}


@pytest.mark.parametrize("name", sorted(HUGE_MAX_ARITY))
def test_huge_max_arity_fails_in_one_line_under_a_memory_cap(tmp_path, name):
    argv = ["filtration-check", *_kept_signatures(tmp_path)]
    huge = ["--max-arity", str(HUGE_MAX_ARITY[name])]

    def child(*extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "propcalc.cli", *argv, *huge, *extra],
            capture_output=True, text=True, timeout=120,
            preexec_fn=_cap_address_space, env=CHILD_ENV)

    # one slot of arity (24, 24) already makes 25 edges at (1,1)
    proc = child()
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    line = _one_short_error_line(proc.stderr)
    assert line.endswith(", past the edge cap of 24 (max_arity, --max-arity)")
    # runs that read no slot complete, with the report of a small bound
    for extra in (["--max-vertices", "0"], ["--no-slots"]):
        proc = child(*extra)
        rc, out, _ = run(*argv, *extra)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, "")
        assert rc == 0 and json.loads(out)["all_ok"] is True


# ---------------------------------------------------------------------------
# the exit-code contract

def test_missing_file_is_a_usage_error(tmp_path):
    rc, _, err = run("canon", str(tmp_path / "absent.json"))
    assert rc == 2 and err


def test_malformed_json_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    rc, _, err = run("canon", str(path))
    assert rc == 2 and err


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    arrays = tmp_path / "arrays.json"
    arrays.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    objects = tmp_path / "objects.json"
    objects.write_text('{"a":' * 5_000 + "1" + "}" * 5_000, encoding="utf-8")
    for argv in (("canon", str(arrays)), ("validate", str(objects))):
        rc, out, err = run(*argv)
        assert rc == 2 and out == "", argv
        assert "nested too deeply" in err and len(err.splitlines()) == 1


def test_unknown_subcommand_is_a_usage_error():
    for command in ("no-such-command", "selftest"):
        rc, _, _ = run(command)
        assert rc == 2, command


def _huge_atom_mixed(n_in: int) -> dict:
    # one (n_in, 1) vertex labeled by the atom p: 2^70 -> 1, wired as (1,1)
    return {"atoms": {"generators": [{"name": "p", "m": 2 ** 70, "n": 1}]},
            "msig": {"generators": []},
            "m": 1, "n": 1,
            "vertices": [{"id": 1, "in": n_in, "out": 1, "label": "p",
                          "alphabet": "P"}],
            "edges": [{"src": ["input", 1], "dst": ["vin", 1, 1]},
                      {"src": ["vout", 1, 1], "dst": ["output", 1]}]}


# graphs declaring far more ports than any list of them could hold
HUGE_ARITY = {
    "n-2^70": {"m": 0, "n": 2 ** 70, "vertices": [], "edges": []},
    "n-10^7": {"m": 0, "n": 10 ** 7, "vertices": [], "edges": []},
    "out-2^70": {"m": 0, "n": 0,
                 "vertices": [{"id": 1, "in": 0, "out": 2 ** 70}],
                 "edges": []},
    # mixed graphs whose composite label is an atom of arity 2^70 -> 1
    "atom-2^70": _huge_atom_mixed(1),
    "atom-2^70-vertex-in-2^70": _huge_atom_mixed(2 ** 70),
}
_GRAPH_FILES = ["n-2^70", "n-10^7", "out-2^70"]
_MIXED_FILES = ["atom-2^70", "atom-2^70-vertex-in-2^70"]


def _cap_address_space() -> None:
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "name, command",
    [(name, command) for name in _GRAPH_FILES
     for command in ("validate", "canon")]
    + [(name, command) for name in _MIXED_FILES
       for command in ("validate", "collapse")])
def test_huge_declared_arity_fails_in_one_line_under_a_memory_cap(
        tmp_path, name, command):
    path = write_json(tmp_path / "huge.json", HUGE_ARITY[name])
    proc = subprocess.run(
        [sys.executable, "-m", "propcalc.cli", command, path],
        capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space, env=CHILD_ENV)
    # an invalid graph fails validation; a mixed file that cannot be
    # loaded is a format error
    assert proc.returncode == (2 if name in _MIXED_FILES else 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


# decimal exponents whose power of ten `Fraction` would build for minutes
HUGE_EXPONENT = {"1e+10^8": "1e100000000", "1e-10^8": "1e-100000000"}


@pytest.mark.parametrize("command", ["eval", "check-morphism"])
@pytest.mark.parametrize("name", sorted(HUGE_EXPONENT))
def test_huge_decimal_exponent_fails_in_one_line(tmp_path, name, command):
    entry = HUGE_EXPONENT[name]
    huge = [[entry, "0"], ["0", "1"]]
    if command == "eval":
        alg = write_json(tmp_path / "alg.json",
                         {"dim": 2, "matrices": {"a": huge}})
        argv = ["eval", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                "--algebra", alg]
        where = "matrix for 'a': "
    else:
        alg = write_json(tmp_path / "alg.json", {"dim": 2, "matrices": {
            "a": [["1", "0"], ["0", "1"]]}})
        argv = ["check-morphism", "--f",
                write_json(tmp_path / "f.json", huge),
                "--phiA", alg, "--phiB", alg]
        where = ""
    proc = subprocess.run(
        [sys.executable, "-m", "propcalc.cli", *argv],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: {where}bad rational {entry!r}: "
                           f"exponent past the {limit}-digit limit\n")


def test_a_huge_edge_entry_is_quoted_in_a_short_line(tmp_path):
    path = write_json(tmp_path / "edge.json", {
        "m": 0, "n": 0, "vertices": [], "edges": [[0] * 200_000]})
    rc, out, err = run("validate", path)
    assert rc == 2 and out == ""
    line, = err.splitlines()
    assert line.startswith("error: bad edge entry [0, 0, 0, ")
    assert line.endswith("...") and len(line) < 200


def test_a_huge_digit_string_is_quoted_in_a_short_line(tmp_path):
    entry = "1e" + "0" * 10000 + "5"
    alg = write_json(tmp_path / "alg.json", {
        "dim": 2, "matrices": {"a": [[entry, "0"], ["0", "1"]]}})
    rc, out, err = run("eval", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                       "--algebra", alg)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert rc == 2 and out == ""
    line, = err.splitlines()
    assert line.startswith("error: matrix for 'a': bad rational '1e000")
    assert line.endswith(f"...: a digit string past the {limit}-digit limit")
    assert len(line) < 200


def _one_short_error_line(err: str) -> str:
    line, = err.splitlines()
    assert line.startswith("error: ") and len(line.encode()) < 200
    return line


def test_a_huge_generator_name_is_quoted_in_a_short_line(tmp_path):
    sig = write_json(tmp_path / "sig.json", {"generators": [
        {"name": "x" * 100_000, "m": -1, "n": 1}]})
    rc, out, err = run("count", "--sig", sig, "--m", "1", "--n", "1",
                       "--max-r", "1")
    assert rc == 2 and out == ""
    line = _one_short_error_line(err)
    assert line == f"error: generator '{'x' * 79}... has negative arity"


def _clashing_run(tmp_path, names: list[str]) -> tuple[int, str, str]:
    # every name is new in L and already in the base
    gens = [{"name": name, "m": 1, "n": 1} for name in names]
    return run("filtration-check",
               "--sigK", write_json(tmp_path / "k.json", {"generators": []}),
               "--sigL", write_json(tmp_path / "l.json", {"generators": gens}),
               "--base", write_json(tmp_path / "b.json", {"generators": gens}))


def test_a_huge_clashing_name_is_quoted_in_a_short_line(tmp_path):
    rc, out, err = _clashing_run(tmp_path, ["z" * 100_000])
    assert rc == 1 and out == ""
    line = _one_short_error_line(err)
    assert line == ("error: new names collide with the base: "
                    f"['{'z' * 78}... (1 in all)")


def test_many_clashing_names_are_counted_in_a_short_line(tmp_path):
    rc, out, err = _clashing_run(tmp_path, [f"g{i}" for i in range(20_000)])
    assert rc == 1 and out == ""
    line = _one_short_error_line(err)
    assert line.startswith("error: new names collide with the base: ['g0', ")
    assert line.endswith("... (20000 in all)")


def test_a_huge_matrix_name_is_quoted_in_a_short_line(tmp_path):
    alg = write_json(tmp_path / "alg.json", {"dim": 2, "matrices": {
        "y" * 100_000: [["1/0", "0"], ["0", "1"]]}})
    rc, out, err = run("eval", write_json(tmp_path / "e.json", UNARY_ELEMENT),
                       "--algebra", alg)
    assert rc == 2 and out == ""
    line = _one_short_error_line(err)
    assert line == (f"error: matrix for '{'y' * 79}...: "
                    "bad rational '1/0': zero denominator")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "propcalc.cli", "validate",
         str(fixture_path("fig1"))],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_enum_into_a_pipe_closed_early_exits_quietly():
    # `propcalc enum ... | head -1`: the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "propcalc.cli", "enum", "--arities",
         "1:2,2:1,1:2,1:1,1:1", "--m", "1", "--n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=CHILD_ENV)
    assert json.loads(proc.stdout.readline())["m"] == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(err.splitlines()) <= 1
    assert all(line.startswith("error:") for line in err.splitlines())
