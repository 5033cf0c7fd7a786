"""In-memory span tracer that wraps sievelab's public functions from outside.

A traced function is replaced by a wrapper wherever it is bound: in its
defining module and in every sievelab module that imported it by name
(``sieve`` does ``from .rpc import relevant_filters``, ``circuit`` does
``from .qsearch import min_find_with_cost``, several modules import
``make_rng``).  Patching only the defining module would miss those calls.

Each call records one span (name, start, end, parent) in flat lists; a
span's parent is the innermost traced call still open when it started.
Everything runs in one thread, so a plain stack tracks nesting.  Spans
stay in memory until ``save``.  A hook may look at a call's arguments
and result to add counts (hits, oracle evaluations, reloads) at the
same boundary where the time is taken.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

Hook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    span: str  # span name, "<module>.<function>"
    module: str  # defining module, e.g. "sievelab.rpc"
    function: str
    hook: Hook | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = sorted({t.span for t in targets})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []  # (module, attr, original)
        self.installed = False

    # --- patching -------------------------------------------------------

    def _wrap(self, fn, target: Target):
        nid = self._name_id[target.span]
        hook = target.hook
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[target.span] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.function)
        traced.bench_traced = True
        return traced

    @staticmethod
    def _package_modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sievelab" or name.startswith("sievelab."))]

    def install(self) -> None:
        """Patch every binding of every target in the loaded sievelab modules."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self.installed = True
        modules = self._package_modules()
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.function)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.installed = False

    def bindings(self) -> list[str]:
        """Every binding install() patched, as "module.attr"."""
        return [f"{m.__name__}.{a}" for m, a, _ in self.patched]

    def leaked(self) -> list[str]:
        """Bindings that are not their original function object, plus any
        wrapper still reachable from a sievelab module."""
        bad = [f"{m.__name__}.{a}" for m, a, orig in self.patched
               if getattr(m, a) is not orig]
        for module in self._package_modules():
            for attr, value in vars(module).items():
                if getattr(value, "bench_traced", False):
                    bad.append(f"{module.__name__}.{attr}")
        return sorted(set(bad))

    # --- results --------------------------------------------------------

    def mark(self) -> int:
        return len(self.span_name)

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): inclusive seconds, self
        seconds (duration minus the time child spans cover) and calls."""
        name = np.asarray(self.span_name[lo:hi], dtype=np.int64)
        dur = np.asarray(self.span_end[lo:hi]) - np.asarray(self.span_start[lo:hi])
        parent = np.asarray(self.span_parent[lo:hi], dtype=np.int64) - lo
        child = np.zeros(name.size)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        self_dur = dur - child
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {n: {"s": float(total[i]), "self_s": float(selfs[i]), "calls": int(calls[i])}
                for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent, dtype=np.int64),
        )
