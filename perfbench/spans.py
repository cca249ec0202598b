"""Spans and call counts recorded from the benchmark's own wrappers.

``Tracer.installed()`` replaces each traced function of ``twistver`` with
a wrapper at every module binding that holds it (``codes`` imports
``kernel_basis`` and the ``pg`` helpers by name, ``pg`` and ``veronese``
import ``rank``, the package re-exports most of them), and patches the
traced methods on their classes.  Leaving the ``with`` block restores
every binding.

A span is (name, parent, start, end).  Spans are appended to compact
arrays when a call starts, so a parent always precedes its children, and
stay in memory until ``save`` writes them out.  Self time is a span's
duration minus the durations of its direct children.  Time the benchmark
spends inside a span on its own account (a host speed probe run from a
signal handler) is recorded with ``pause`` and left out of the durations
of that span and of its ancestors.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class; anything else is a module-level function patched
# at every binding.
TARGETS = [
    ("twistver.ff", "Field.__init__", "ff.Field"),
    ("twistver.veronese", "Twist.__init__", "veronese.Twist"),
    ("twistver.veronese", "monomial_basis", "veronese.monomial_basis"),
    ("twistver.veronese", "build_variety", "veronese.build_variety"),
    ("twistver.pg", "enum_points", "pg.enum_points"),
    ("twistver.pg", "all_lines", "pg.all_lines"),
    ("twistver.pg", "sublines_of_line", "pg.sublines_of_line"),
    ("twistver.pg", "subline_through", "pg.subline_through"),
    ("twistver.pg", "is_collinear", "pg.is_collinear"),
    ("twistver.pg", "on_common_subline", "pg.on_common_subline"),
    ("twistver.linalg", "rank", "linalg.rank"),
    ("twistver.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("twistver.linalg", "IncrementalElim.push", "linalg.push"),
    ("twistver.linalg", "IncrementalElim.reset", "linalg.reset"),
    ("twistver.linalg", "IncrementalElim.split_extensions",
     "linalg.split_extensions"),
    ("twistver.linalg", "IncrementalElim.pair_groups", "linalg.pair_groups"),
    ("twistver.codes", "build_code", "codes.build_code"),
    ("twistver.codes", "min_distance", "codes.min_distance"),
    ("twistver.codes", "classify_min_words", "codes.classify_min_words"),
]

# spans that own everything below them when self time is attributed to a
# phase of a case
PHASES = ("case", "codes.build_code", "codes.min_distance",
          "codes.classify_min_words")


def _twistver_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "twistver"
                                  or name.startswith("twistver."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.case_labels: dict[int, str] = {}
        self.push_refused = 0
        self.pauses: list[tuple[int, float]] = []  # (span, seconds)
        self._stack = [-1]
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """A span opened by the benchmark itself, such as one case."""
        i = self._open(self._id(name))
        if label is not None:
            self.case_labels[i] = label
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter
        count_refused = name == "linalg.push"

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_refused and out is False:
                self.push_refused += 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        import twistver  # noqa: F401  (loads every module to patch)

        try:
            for modname, attr, name in TARGETS:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig)
                for mod in _twistver_modules():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(self._restore):
                setattr(owner, key, orig)
            self._restore.clear()

    def pause(self, seconds: float) -> None:
        """Leave seconds, just spent by the benchmark itself, out of the
        innermost open span.  Safe to call from a signal handler: a span
        whose start is not yet stamped, or whose end already is, is not
        the one the pause falls in, so it goes to the parent."""
        i = self._stack[-1]
        if i >= 0 and (len(self.start) <= i or self.end[i] != 0.0):
            i = self.parent[i]
        self.pauses.append((i, seconds))

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        # copies, so the arrays stay free to grow
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        for i, seconds in self.pauses:  # a pause is in every ancestor too
            while i >= 0:
                dur[i] -= seconds
                i = parent[i]
        return name_id, parent, dur

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        _, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def phase_of(self) -> np.ndarray:
        """Per span, the index of its nearest ancestor-or-self in PHASES."""
        name_id, parent, _ = self.arrays()
        phase_ids = [self._ids[p] for p in PHASES if p in self._ids]
        is_phase = np.isin(name_id, phase_ids)
        idx = np.arange(name_id.size, dtype=np.int64)
        phase = np.where(is_phase, idx, parent.astype(np.int64))
        while True:
            ok = phase >= 0
            pending = np.zeros_like(ok)
            pending[ok] = ~is_phase[phase[ok]]
            if not pending.any():
                return phase
            phase[pending] = phase[phase[pending]]

    def by_name(self) -> dict[str, dict]:
        """{span name: {calls, s (total), self_s}} over all spans."""
        name_id, _, dur = self.arrays()
        own = self.self_times()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]),
                    "self_s": float(selfs[i])}
                for i, n in enumerate(self.names)}

    def self_by_phase(self, phase_name: str) -> dict[str, float]:
        """Self seconds per span name, counting only spans under (or equal
        to) a span called phase_name."""
        if phase_name not in self._ids:
            return {}
        name_id, _, _ = self.arrays()
        own = self.self_times()
        phase = self.phase_of()
        inside = phase >= 0
        inside[inside] = name_id[phase[inside]] == self._ids[phase_name]
        sums = np.bincount(name_id[inside], weights=own[inside],
                           minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)
                if sums[i]}

    def save(self, path) -> None:
        """Write every span (name id, parent index, start and end seconds),
        the span names, and the case label of each case span."""
        name_id, parent, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent,
                 case_span=np.array(list(self.case_labels), dtype=np.int64),
                 case_label=np.array(list(self.case_labels.values())),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))
