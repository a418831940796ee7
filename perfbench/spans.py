"""Span tracing around the public entry points of the propcalc layers.

`Installed` replaces each traced function by a wrapper in every loaded
propcalc module that holds it, so calls between modules are traced too
(for example `freeprop.canonicalize` and `rewrite.enumerate_graphs`);
its `remove` puts the originals back.  Nothing under `src/` changes.

A span records name, start, end, parent span and operation id.  Spans stay
in memory (up to a cap) and are written by the caller when the run ends;
counts and self times are aggregated as spans close, so they stay exact
when the cap drops spans.  Self time is span time minus the time of
wrapped child calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        # enumerated graphs by (innermost span at the call, numbered/iso)
        self.yields: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._next_id = 0
        self.op_id: int | None = None
        self._collapses: list[list] = []  # [merge calls, result keys]

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = frame
        popped = self._stack.pop()
        assert popped is frame, "spans must close in stack order"
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[3] if parent else None, self.op_id))
        else:
            self.dropped += 1


def write_spans(path, spans: list[tuple]) -> None:
    """One JSON object per line: id, name, start, end, parent, op."""
    with open(path, "w") as fh:
        for span_id, name, start, end, parent, op in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op})
                     + "\n")


def _span(tracer: Tracer, name: str, fn, after=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _generator_span(tracer: Tracer, name: str, fn):
    """Time each next() of a generator as its own span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        mode = "iso" if kwargs.get("upto_iso") else "numbered"
        gen = fn(*args, **kwargs)
        top = tracer._stack[-1][0] if tracer._stack else None

        def stream():
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.yields[(top, mode)] += 1
                yield item
        return stream()
    return wrapper


# --- counters read at layer boundaries -------------------------------------

def _count_vertices_checked(tr, args, kwargs, result):
    tr.counts["graphs.vertices_checked"] += len(args[0].vertices)


def _count_fallback_shape(tr, args, kwargs):
    g = args[0]
    if any(v.n_in == 0 for v in g.vertices) \
            and any(v.n_out == 0 for v in g.vertices):
        tr.counts["canonical.fallback_shape"] += 1


def _count_expand(tr, args, kwargs, result):
    tr.counts["freeprop.expand.vertices_out"] += len(result.graph.vertices)


def _note_merge(tr, args, kwargs, result):
    if tr._collapses:
        tr._collapses[-1][0] += 1
        tr._collapses[-1][1].add(result.key)


def _open_collapse(tr, args, kwargs):
    tr._collapses.append([0, set()])


def _close_collapse(tr, args, kwargs, result):
    merges, keys = tr._collapses.pop()
    tr.counts["rewrite.collapse.merges"] += merges
    tr.counts["rewrite.collapse.distinct"] += len(keys)
    tr.counts["rewrite.collapse.forms"] += \
        len(result) if isinstance(result, list) else 1


def _count_entries(tr, args, kwargs, result):
    rows, cols = result.shape
    tr.counts["tensor.evaluate.entries_out"] += rows * cols


def _count_classes(tr, args, kwargs, result):
    tr.counts["pushouts.classes"] += len(result)


def _targets(pc):
    """(span name, owner module, attribute, hooks) per traced function."""
    g, c, f, r, t, p = (pc.graphs, pc.canonical, pc.freeprop, pc.rewrite,
                        pc.tensor, pc.pushouts)
    plain = [
        ("graphs.check", g, "check", dict(after=_count_vertices_checked)),
        ("canonical.canonicalize", c, "canonicalize",
         dict(before=_count_fallback_shape)),
        ("canonical.graph_hash", c, "graph_hash", {}),
        ("freeprop.expand", f, "expand", dict(after=_count_expand)),
        ("freeprop.count_basis", f, "count_basis", {}),
        ("rewrite.merge", r, "merge", dict(after=_note_merge)),
        ("rewrite.mergeable_pairs", r, "mergeable_pairs", {}),
        ("rewrite.collapse", r, "collapse",
         dict(before=_open_collapse, after=_close_collapse)),
        ("tensor.evaluate", t, "evaluate", dict(after=_count_entries)),
        ("tensor.rt_dot", t, "rt_dot", {}),
        ("tensor.kron_power", t, "kron_power", {}),
        ("tensor.rt_inverse", t, "rt_inverse", {}),
        ("pushouts.filtration_square_check", p, "filtration_square_check",
         {}),
        ("pushouts.quotient_classes", p, "quotient_classes",
         dict(after=_count_classes)),
    ]
    plain += [("graphs.compose", g, name, {})
              for name in ("hcompose", "vcompose", "permute_inputs",
                           "permute_outputs", "relabel_vertices")]
    plain += [("freeprop.compose", f, name, {})
              for name in ("pelem_hcompose", "pelem_vcompose",
                           "pelem_permute_inputs", "pelem_permute_outputs")]
    return plain


class Installed:
    """The wrappers currently in place, and how to take them out."""

    def __init__(self, tracer: Tracer, propcalc):
        self.patched: list[tuple] = []  # (namespace owner, attr, original)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "propcalc"
                                         or name.startswith("propcalc."))]
        for span, owner, attr, hooks in _targets(propcalc):
            original = getattr(owner, attr)
            self._replace(modules, original, _span(tracer, span, original,
                                                   **hooks))
        original = propcalc.canonical.enumerate_graphs
        self._replace(modules, original,
                      _generator_span(tracer, "canonical.enumerate",
                                      original))
        build = propcalc.freeprop.PropElement.__dict__["build"]
        wrapped = _span(tracer, "freeprop.build", build.__func__)
        self.patched.append((propcalc.freeprop.PropElement, "build", build))
        propcalc.freeprop.PropElement.build = classmethod(wrapped)

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("graphs.check", "graphs.compose", "canonical.canonicalize",
                 "canonical.graph_hash", "freeprop.build", "freeprop.expand",
                 "rewrite.merge", "tensor.evaluate", "tensor.rt_dot",
                 "tensor.kron_power", "tensor.rt_inverse"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("graphs.check", "graphs.compose", "canonical.canonicalize",
                 "canonical.graph_hash", "canonical.enumerate",
                 "freeprop.build", "freeprop.compose", "freeprop.expand",
                 "rewrite.merge", "rewrite.mergeable_pairs",
                 "tensor.evaluate", "tensor.rt_dot", "tensor.kron_power",
                 "tensor.rt_inverse", "pushouts.filtration_square_check",
                 "pushouts.quotient_classes"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["graphs.vertices_checked"] = (counts["graphs.vertices_checked"],
                                      "count")
    out["canonical.fallback_ratio"] = (
        ratio(counts["canonical.fallback_shape"],
              calls["canonical.canonicalize"]), "1")
    out["canonical.enumerate.yielded"] = (sum(tracer.yields.values()),
                                          "count")
    # classes emitted / numbered graphs, over callers that enumerated the
    # same menus both ways
    both = [top for top, mode in tracer.yields if mode == "iso"
            and tracer.yields[(top, "numbered")]]
    out["canonical.enumerate.iso_yield_ratio"] = (
        ratio(sum(tracer.yields[(t, "iso")] for t in both),
              sum(tracer.yields[(t, "numbered")] for t in both)), "1")
    out["freeprop.expand.vertices_out"] = (
        counts["freeprop.expand.vertices_out"], "count")
    out["rewrite.merge.distinct_ratio"] = (
        ratio(counts["rewrite.collapse.distinct"],
              counts["rewrite.collapse.merges"]), "1")
    out["rewrite.collapse.forms"] = (counts["rewrite.collapse.forms"],
                                     "count")
    out["tensor.evaluate.entries_out"] = (
        counts["tensor.evaluate.entries_out"], "count")
    out["pushouts.classes"] = (counts["pushouts.classes"], "count")
    return out
