"""In-memory spans around the public functions of each rackq layer.

A :class:`Tracer` replaces each traced function, in every ``rackq`` module
namespace that binds it, by a wrapper that records one span per call:
``(name, start, end, parent)``, where ``parent`` is the index of the span
that was open when the call began (-1 at top level).  The spans stay in
memory; :func:`self_times` turns them into per-function self time, which
is a span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Defining module -> traced public functions.  Names are unique across the
# package, so a function is found in other namespaces by identity.
TRACED = {
    "enumeration": ("census",),
    "inner": (
        "orbit_partition",
        "is_indecomposable",
        "rack_profile",
        "degree",
        "hayashi_holds_for",
        "classify",
        "per_point_patterns",
    ),
    "perm": ("cycle_lengths", "order", "pattern"),
    "constructors": ("affine", "dihedral", "conjugation_class_quandle"),
    "core": ("validate", "is_crossed_set", "is_braided"),
    "tableio": ("parse_table", "emit_table", "emit_report"),
    "obstructions": (
        "parse_profile",
        "prop35_verdict",
        "cor34_verdict",
        "prop315_verdict",
        "decompose_lengths",
        "full_verdict",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list[int] = []
        self._clock = clock
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a rackq module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rackq" or key.startswith("rackq."))]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"rackq.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if original is None:  # a function the program no longer has reads 0 calls
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._installed.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._installed):
            setattr(mod, fn_name, original)
        self._installed.clear()

    def take(self) -> list:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self seconds and call counts.

    Self time is the span's duration minus the union of its direct
    children's intervals, clipped to the span; a grandchild is already
    inside its parent's interval, so it is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_s[name] += (end - start) - covered
        calls[name] += 1
    return dict(self_s), dict(calls)
