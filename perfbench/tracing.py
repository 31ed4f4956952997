"""Timing wrappers around each layer's public functions, from outside.

:func:`install` replaces every traced function with a wrapper that
records a span ``(name, start, end, parent, context)`` in memory.  A
function imported *by name* into another module (``from repro.automata
import dfa_for``) is replaced in every module that bound it, not only
where it is defined; a wrapper on the defining module alone would never
see those calls.  Spans are kept in memory and written out when the run
ends.  A layer's self time is its spans' duration minus the time their
direct child spans cover.

The wrappers assume one thread: the in-process workloads run their work
on the main thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (layer name, module, attribute path) of every traced function.
TARGETS: List[Tuple[str, str, str]] = [
    ("dse.execute", "repro.dse.interpreter", "Interpreter.run"),
    ("model.cegar", "repro.model.cegar", "CegarSolver.solve"),
    ("model.translate", "repro.model.api", "SymbolicRegExp.exec_model"),
    ("solver.query", "repro.solver.core", "Solver.solve"),
    ("automata.compile", "repro.automata.ops", "dfa_for"),
    ("automata.compile", "repro.automata.ops", "complement_dfa_for"),
    ("automata.accepts", "repro.automata.dfa", "Dfa.accepts_word"),
    ("regex.exec", "repro.regex.matcher", "RegExp.exec"),
    ("regex.parse", "repro.regex.parser", "parse_pattern"),
    ("conformance.check", "repro.conformance.oracle", "DifferentialOracle.check"),
]

#: The workload on which each wrapped layer must record calls.
LIVE_ON: Dict[str, Tuple[str, ...]] = {
    "dse.execute": ("table7",),
    "model.cegar": ("table7",),
    "model.translate": ("fuzz",),
    "solver.query": ("table7", "fuzz"),
    "automata.compile": ("table7", "fuzz"),
    "automata.accepts": ("fuzz",),
    "regex.exec": ("table7", "fuzz"),
    "regex.parse": ("fuzz",),
    "conformance.check": ("fuzz",),
}

Span = Tuple[str, float, float, int, object]


class Tracer:
    """In-memory span recorder; ``context`` tags spans with a work id."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._open: List[int] = []
        self.context: object = None
        self.enabled = True
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, tracer.context)

        traced.__wrapped_by_perfbench__ = True
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own checking work)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (client-side serve jobs)."""
        self.spans.append((name, start, end, -1, self.context))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                # Rebind every ``from ... import name`` copy as well.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is original
                    ):
                        self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``."""
        child: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            duration = span[2] - span[1]
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["self_s"] += duration - child.get(index, 0.0)
        return dict(totals)

    def write(self, path: str) -> None:
        """All spans as tab-separated ``name start end parent context``."""
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\tcontext\n")
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, context = span
                    handle.write(
                        f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{context}\n"
                    )
