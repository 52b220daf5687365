"""Span tracing from outside the package.

A Tracer replaces module attributes (for example `flowlp.linprog`) with
wrappers that record one span per call: name, start, end, parent span and
cell id, plus a few counts read from the call's arguments and result. The
package itself is not edited; removing the wrappers restores it exactly.

Spans recorded in process-pool workers are spooled to one JSON-lines file per
worker each time a cell finishes, and merged by the parent. Workers inherit the
wrappers because the pool forks them from the traced process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instrument:
    """One traced function: the span name, every (owner, attribute) that
    refers to it, and an optional attrs(args, kwargs, result) -> dict."""

    name: str
    sites: tuple
    attrs: Callable | None = None
    cell: bool = False  # each call is one cell: its spans share the cell id


class Tracer:
    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans = []
        self._stack = []
        self._cell = None
        self._count = 0

    def _new_id(self) -> str:
        self._count += 1
        return f"{os.getpid()}:{self._count}"

    @contextmanager
    def span(self, name: str, span_id: str | None = None):
        record = {
            "id": span_id or self._new_id(),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self._cell,
            "pid": os.getpid(),
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, inst: Instrument, fn):
        @functools.wraps(fn)  # keeps __module__/__qualname__, so pools pickle it by reference
        def traced(*args, **kwargs):
            outer_cell = self._cell
            span_id = None
            if inst.cell:
                span_id = self._new_id()
                self._cell = span_id
            try:
                with self.span(inst.name, span_id) as record:
                    result = fn(*args, **kwargs)
                    if inst.attrs is not None:
                        record.update(inst.attrs(args, kwargs, result))
            finally:
                self._cell = outer_cell
                if inst.cell and os.getpid() != self.pid:
                    self._spool()
            return result

        return traced

    def _spool(self):
        pid = os.getpid()
        path = self.spool_dir / f"worker-{pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.spans:
                if record["pid"] == pid:  # the rest were copied from the parent by fork
                    fh.write(json.dumps(record) + "\n")
        self.spans.clear()

    @contextmanager
    def installed(self, instruments):
        """Install every instrument's wrappers; restore the originals on exit."""
        with patched([(owner, attr, functools.partial(self._wrap, inst))
                      for inst in instruments for owner, attr in inst.sites]):
            yield self

    def collect(self) -> list:
        """All spans of this process plus those spooled by pool workers."""
        spans = list(self.spans)
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


@contextmanager
def patched(replacements):
    """Set each (owner, attribute) to wrap(original) for every (owner, attribute,
    wrap) in replacements; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, wrap in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def add_self_times(spans) -> float:
    """Set each span's "self" to its duration minus the part of it that its
    children cover. Returns the parallel overlap: the time children of one
    span ran concurrently (pool workers), which the self times count twice."""
    children = defaultdict(list)
    for record in spans:
        children[record["parent"]].append(record)
    overlap = 0.0
    for record in spans:
        start, end = record["start"], record["end"]
        kids = [(max(c["start"], start), min(c["end"], end)) for c in children[record["id"]]]
        kids = [(a, b) for a, b in kids if b > a]
        covered = _covered(kids)
        record["self"] = (end - start) - covered
        overlap += sum(b - a for a, b in kids) - covered
    return overlap
