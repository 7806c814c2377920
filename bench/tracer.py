"""Span recorder for the traced benchmark run.

The recorder replaces walkmine's layer functions, as module and class
attributes, with wrappers that open a span around each call; nothing under
``src/`` changes. A function bound by name in several modules is replaced in
each of them, since a module calls the name it imported. Spans are kept in
memory and written out when the run ends.

Self time is a span's duration minus the durations of its child spans. The
graph primitives are leaves: a wrapped function called while a leaf span is
open is part of that leaf (on walkmine's edge-array path ``out_mask`` runs
``out_image``, and that time is ``out_mask``'s). Generators and lazy report
streams get one span per resumption, so the caller's work between two items
is not charged to them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, root id, name index, start ns, end ns)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, name index, start, child ns, leaf]
        self._next_id = 0
        self._counting = False
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int, leaf: bool):
        self._stack.append([self._next_id, idx, _now(), 0, leaf])
        self._next_id += 1

    def _close(self):
        end = _now()
        sid, idx, start, child, _ = self._stack.pop()
        dur = end - start
        self.self_ns[idx] += dur - child
        parent, root = -1, sid
        if self._stack:
            self._stack[-1][3] += dur
            parent, root = self._stack[-1][0], self._stack[0][0]
        self.spans.append((sid, parent, root, idx, start, end))

    def _in_leaf(self) -> bool:
        return bool(self._stack) and self._stack[-1][4]

    def span(self, name, fn, leaf=False, on_result=None):
        idx = self._name(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf():
                return fn(*args, **kwargs)
            self.calls[idx] += 1
            self._open(idx, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def lazy(self, name, fn):
        """Wrap a function returning an iterator; each ``next`` is one span."""
        idx = self._name(name)

        def resume(it):
            while True:
                self._open(idx, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close()
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            return resume(iter(fn(*args, **kwargs)))

        return wrapper

    def outermost_count(self, name, fn):
        """Count calls that are not nested in another call of ``fn``; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._counting:
                return fn(*args, **kwargs)
            self._counting = True
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._counting = False

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owners, attr, make):
        """Replace ``attr`` on every owner that binds it to the same function."""
        present = [o for o in owners if attr in vars(o)]
        if not present:
            return
        original = vars(present[0])[attr]
        wrapper = make(original)
        for owner in present:
            if vars(owner)[attr] is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def install(self):
        from walkmine import criterion, graph, graphio, scp, setcover, stp

        G = graph.DirectedGraph
        self._patch([graphio], "load_graph", lambda f: self.span("graphio.load_graph", f))
        self._patch([G], "__init__", lambda f: self.span("graph.DirectedGraph", f))
        for attr in ("out_image", "in_image", "out_mask"):
            self._patch([G], attr, lambda f, a=attr: self.span(f"graph.{a}", f, leaf=True))

        def count_covers(result):
            self.counts["setcover.minimal_covers.covers"] += len(result)

        self._patch(
            [setcover, scp, stp], "minimal_covers",
            lambda f: self.span("setcover.minimal_covers", f, on_result=count_covers),
        )
        self._patch([scp], "enumerate_pseudo_bases", lambda f: self.lazy("scp.enumerate_pseudo_bases", f))
        for module, engine in ((scp, "scp"), (stp, "stp")):
            for verb in ("classify", "simulate"):
                attr = f"{verb}_{engine}"
                self._patch([module], attr, lambda f, n=f"{engine}.{attr}": self.span(n, f))
            for mode in ("exact", "feasible"):
                self._patch([module], f"mine_{mode}_{engine}", lambda f, n=f"{engine}.mine": self.lazy(n, f))
        self._patch(
            [criterion, stp], "compute_criterion",
            lambda f: self.span("criterion.compute_criterion", f),
        )
        self._patch(
            [criterion, stp], "satisfies",
            lambda f: self.outermost_count("criterion.satisfies.calls", f),
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.self_ns[idx] / 1e9

    def call_count(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def write(self, path, header: dict):
        """Gzipped JSON lines: a header, then one line per span in closing order.

        The spans under one outermost span (one call from the benchmark, or
        one resumption of a report stream) share its id as their root.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, names=self.names, span_fields=[
                "id", "parent", "root", "name", "start_ns", "end_ns"])) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
