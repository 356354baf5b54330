"""In-memory span recorder and operation ledger for the benchmark.

A span brackets one call the benchmark makes into mrwlab: name, start, end
and parent. Spans stay in memory and are written out once, at the end of a
run. A span's self time is its duration minus the time covered by its child
spans; children never overlap because every call is made from one thread.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, name: str) -> float:
        """Summed duration of the descendant spans called `name`."""
        return sum(s.duration for s in self.walk() if s is not self and s.name == name)

    def nesting_errors(self) -> list[str]:
        """How the tree under this span breaks nesting: a span that ends before
        it starts, a child outside its parent, siblings that overlap, or a
        negative self time. Self times plus the root's remainder add up to the
        root's duration only when this list is empty."""
        errors = []
        for sp in self.walk():
            if not sp.end >= sp.start:
                errors.append(f"{sp.name} ends at {sp.end} before it starts at {sp.start}")
            if sp.self_time < 0:
                errors.append(f"{sp.name} has self time {sp.self_time}")
            for i, child in enumerate(sp.children):
                if child.start < sp.start or child.end > sp.end:
                    errors.append(f"{child.name} lies outside its parent {sp.name}")
                if i and child.start < sp.children[i - 1].end:
                    errors.append(f"{child.name} overlaps its sibling {sp.children[i - 1].name}")
        return errors


class Tracer:
    """Records nested spans when enabled; a no-op context otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(self._next_id, name, parent.id if parent else None, time.perf_counter())
        self._next_id += 1
        (parent.children if parent else self.roots).append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def records(self) -> list[dict]:
        t0 = self.roots[0].start if self.roots else 0.0
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "self_s": s.self_time,
            }
            for root in self.roots
            for s in root.walk()
        ]


class Ledger:
    """Counts operations attempted and failed.

    An operation is one public call, one CLI invocation or one correctness
    check. A raise, a non-zero exit code or a failed check is a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def call(self, tracer: Tracer, name: str, fn, *args, **kwargs):
        """Make one public call inside a span; a raise counts as a failure."""
        self.attempted += 1
        with tracer.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._fail(f"{name} raised:\n{traceback.format_exc()}")
                return None

    def exit_code(self, name: str, code: int) -> None:
        if code != 0:
            self._fail(f"{name} exited with code {code}")

    def check(self, name: str, fn) -> None:
        """Run one correctness check; fn returns (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:
            self._fail(f"check {name} raised:\n{traceback.format_exc()}")
            return
        if not ok:
            self._fail(f"check {name} failed: {detail}")
