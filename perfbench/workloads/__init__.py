"""Workload definitions.  Each module builds, from a seed, the list of
operations one pass runs; every operation checks its own answer exactly
and returns the values pinned by the digest."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An exact answer check did not hold."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: Callable[[], object]
