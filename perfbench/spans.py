"""An in-process span recorder for the traced run.

Functions are wrapped at the module attribute their callers look up, so
the program's files stay untouched and the patch lives only inside the
benchmark process. Each span records a name, a tag (such as the
divergence kind), start, end, its parent span and the op it belongs to.
Spans are kept in flat arrays in memory and written out when the run
ends. Counters computed from argument shapes accumulate next to them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def intern(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    @property
    def active(self) -> bool:
        return self.op_id >= 0

    @contextlib.contextmanager
    def op_scope(self, op_id: int):
        """Record spans only inside this block, labelled with ``op_id``."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = -1

    def begin(self, name_id: int, tag_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.tag.append(tag_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(np.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, tag=None, count=None):
        """``fn`` recording a span ``name``; ``tag(args)`` labels it, ``count`` tallies."""
        name_id = self.intern(name)
        no_tag = self.intern("")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name_id, self.intern(tag(args, kwargs)) if tag else no_tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if count:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def patched(targets):
    """Set each ``(owner, attribute, replacement)`` for the block, then restore."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the time they cover.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.shape[0]
    )
    return duration - covered


def nesting_violations(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> int:
    """Number of spans that do not lie inside their parent's interval."""
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    outside = (start[child] < start[p]) | (end[child] > end[p]) | (end[child] < start[child])
    return int(outside.sum())

