"""The benchmark's pinned answers, checked on every test run: one seed-1
pass of each workload must digest to its pin, so class counts, evaluated
matrices (int64 below their bound, Python ints past it), irreducible-form
counts and circuit values are what they were when the pins were
taken.  The two workloads that contract tensors are held to their
held-out seed 7919 as well."""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_runner_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_of_one_pass(monkeypatch, workload: str, seed: int) -> str:
    run = load_runner_module()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module(f"workloads.{workload}")
    runner = run.Runner(module.setup(seed))
    values: list = []
    runner.timed_pass(values)
    assert runner.failed == 0, runner.errors
    return runner.digest(values)


def pin(workload: str, seed: int) -> str:
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    return pins[workload][str(seed)]


@pytest.mark.parametrize("workload",
                         ["classes", "contract", "rewrite", "circuits"])
def test_seed_1_matches_its_pin(monkeypatch, workload):
    assert digest_of_one_pass(monkeypatch, workload, 1) == pin(workload, 1)


@pytest.mark.parametrize("workload", ["contract", "circuits"])
def test_held_out_seed_matches_its_pin(monkeypatch, workload):
    assert digest_of_one_pass(monkeypatch, workload, 7919) == \
        pin(workload, 7919)
