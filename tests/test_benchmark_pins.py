"""The benchmark's pinned answers, checked on every test run: one seed-1
pass of the `contract` workload must digest to its pin, so the exact
tensor arithmetic (int64 below its bound, Python ints past it) gives the
same matrices as when the pin was taken."""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_runner_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_contract_seed_1_matches_its_pin(monkeypatch):
    run = load_runner_module()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    contract = importlib.import_module("workloads.contract")
    runner = run.Runner(contract.setup(1))
    values: list = []
    runner.timed_pass(values)
    assert runner.failed == 0, runner.errors
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    assert runner.digest(values) == pins["contract"]["1"]
