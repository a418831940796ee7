"""Write pins.json: the digest of every workload's pinned values per seed.

Run from the root of a propcalc checkout, at a commit whose answers are
trusted (pins are only ever added, never rewritten to follow a change):

    python3 perfbench/pin.py 1 2 3 4 5 6 7 8 9 10 7919
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    seeds = [int(x) for x in argv] or [1]
    run.load_library(Path.cwd())
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text())
    for name in run.WORKLOADS:
        workload = importlib.import_module(f"workloads.{name}")
        table = pins.setdefault(name, {})
        for seed in seeds:
            runner = run.Runner(workload.setup(seed))
            values: list = []
            runner.timed_pass(values)
            digest = runner.digest(values)
            if runner.failed:
                print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                return 1
            if table.setdefault(str(seed), digest) != digest:
                print(f"{name} seed {seed}: digest {digest} differs from "
                      f"the pinned {table[str(seed)]}", file=sys.stderr)
                return 1
            print(name, seed, digest, flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
