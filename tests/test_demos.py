"""Every demo script runs to completion and prints its pinned output,
every public library name has a caller outside the tests, every library
module is imported by the library, no library check is an assert, and
every cap message names its knob."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# each demo's stdout, byte for byte, in tests/demo_stdout/<stem>.txt
PINNED = ROOT / "tests" / "demo_stdout"
SRC = ROOT / "src" / "propcalc"

# public names kept although only tests call them, each with its reason
KEPT = {
    "algebra_to_dict": "writer half of the algebra JSON round trip",
    "partial_to_dict": "writer half of the partial-graph JSON round trip",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()


def _names_used(tree: ast.AST, skip: range = range(0)) -> set[str]:
    """Identifiers a module reads outside the lines in `skip`: names,
    attributes, imported names, and identifier-shaped strings (perfbench
    looks its traced functions up by name)."""
    used = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", 0) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    """A public top-level def or class in src/propcalc counts as called if
    another library module (not __init__), its own module outside its
    definition, a demo or perfbench refers to it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py") if p.name != "__init__.py"}
    outside = set()
    for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/**/*.py")]:
        outside |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    used_by = {stem: _names_used(tree) for stem, tree in trees.items()}
    uncalled = []
    for stem, tree in trees.items():
        elsewhere = outside.union(*(used for other, used in used_by.items()
                                    if other != stem))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in elsewhere \
                    and node.name not in _names_used(
                        tree, range(node.lineno, node.end_lineno + 1)):
                uncalled.append(node.name)
    # an entry of KEPT that gains a caller leaves the list
    assert sorted(uncalled) == sorted(KEPT)

    import propcalc
    names = propcalc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(propcalc, name)] == []


def test_every_library_module_is_imported():
    """A module of src/propcalc that only tests or demos import is not
    part of the library: each one is imported by `__init__`, by `cli` (the
    entry point, which nothing imports) or by another library module."""
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= ({node.module.split(".")[0]} if node.module
                             else {alias.name for alias in node.names})
    modules = {path.stem for path in SRC.glob("*.py")}
    assert sorted(modules - imported - {"__init__", "cli"}) == []


def test_library_makes_no_check_with_assert():
    """`python -O` strips assert statements, so a check written as one
    would vanish; the library raises its errors explicitly."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_reads_no_environment():
    """Every cap and option of the library is a parameter or a CLI flag;
    none is read from the process environment."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Attribute, ast.alias))
             and (node.attr if isinstance(node, ast.Attribute)
                  else node.name) in ("environ", "getenv", "putenv")]
    assert found == []


def _cli_flags() -> set[str]:
    """The option strings the CLI declares, over all subcommands."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    return {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant)
            and str(arg.value).startswith("--")}


def _message_text(node: ast.AST) -> str:
    """The literal text of a message expression, `{}` per placeholder."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_message_text(part) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_text(node.left) + _message_text(node.right)
    return "{}"


def _cap_raises(node: ast.AST, params: frozenset = frozenset()):
    """(raise node, parameters of its enclosing functions) for each
    `raise LimitError(...)` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        params = params | {a.arg for a in (*args.posonlyargs, *args.args,
                                           *args.kwonlyargs)}
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
            and getattr(node.exc.func, "id", None) == "LimitError":
        yield node, params
    for child in ast.iter_child_nodes(node):
        yield from _cap_raises(child, params)


def test_every_cap_message_names_its_knob():
    """Each cap error ends by naming the parameter that sets the cap, in
    parentheses, and the CLI flag too wherever the CLI declares one of
    that name: `(max_states, --max-states)`."""
    flags = _cli_flags()
    shape = re.compile(r"\((\w+)(?:, (--[\w-]+))?\)$")
    bad = []
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, params in _cap_raises(tree):
            checked += 1
            text = _message_text(node.exc.args[0]) if node.exc.args else ""
            found = shape.search(text)
            flag = found and "--" + found[1].replace("_", "-")
            if not found or found[1] not in params \
                    or found[2] != (flag if flag in flags else None):
                bad.append(f"{path.name}:{node.lineno}: {text}")
    assert checked >= 8
    assert bad == []
