"""Spans around calls into the program's public functions.

A :class:`Tracer` replaces each traced function, in every module of the
package that binds it, with a wrapper that records a span: an id, the id of
the enclosing span, the name, and start and end in nanoseconds. Calls the
package makes to its own public functions go through the module globals, so
they are traced too, and the parent links give each call's self time (its
duration minus the time its child spans cover). Nothing inside the package
is edited; :meth:`Tracer.uninstall` restores the original bindings.

Spans stay in memory up to a cap and are written out at the end of the run.
Durations, self times and result counts are kept for every call that
returns; a call that raises counts in ``raised`` instead.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Span name -> (module, function) of the traced public functions.
TRACED = {
    "model.validate_params": ("model", "validate_params"),
    "equilibrium.closed_form_threshold": ("equilibrium", "closed_form_threshold"),
    "equilibrium.solve_fixed_point": ("equilibrium", "solve_fixed_point"),
    "equilibrium.equilibrium_report": ("equilibrium", "equilibrium_report"),
    "sweep.grid_sweep": ("sweep", "grid_sweep"),
    "abm.spawn_population": ("abm", "spawn_population"),
    "abm.best_response_cascade": ("abm", "best_response_cascade"),
    "abm.simulate_once": ("abm", "simulate_once"),
    "abm.realize_world": ("abm", "realize_world"),
    "abm.estimate_equilibrium": ("abm", "estimate_equilibrium"),
    "scenario.load_scenario": ("scenario", "load_scenario"),
    "scenario.write_results": ("scenario", "write_results"),
    "cli.run_command": ("cli", "run_command"),
}


def _counts(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Work counts read from a traced call's arguments and result."""
    if name == "equilibrium.solve_fixed_point":
        return {"iterations": result.iterations}
    if name == "abm.best_response_cascade":
        return {"rounds": result[1]}
    if name == "abm.spawn_population":
        return {"bytes": result.is_follower.nbytes + result.cost.nbytes + result.reached.nbytes}
    if name == "sweep.grid_sweep":
        attempted = len(result.values) + len(result.skipped)
        return {"points": attempted, "kept_ratio": len(result.values) / attempted}
    if name == "scenario.write_results":
        fmt = args[2] if len(args) > 2 else kwargs.get("format", "csv")
        return {"json": float(fmt == "json")}
    return {}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_times: dict[str, array] = defaultdict(lambda: array("q"))
        self.counts: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.raised: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, child time] of open spans
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(name, frame, parent, start, ok=False)
            raise
        self._close(name, frame, parent, start, ok=True)
        for key, value in _counts(name, args, kwargs, result).items():
            self.counts[name][key].append(value)
        return result

    def _close(self, name: str, frame: list[int], parent: list[int] | None,
               start: int, ok: bool) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        if ok:
            self.durations[name].append(duration)
            self.self_times[name].append(duration - frame[1])
        else:
            self.raised[name] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def install(self, package) -> None:
        """Route every binding of a traced function in the package through a span."""
        modules = [package] + [getattr(package, m) for m in
                               sorted({mod for mod, _ in TRACED.values()})]
        originals = {getattr(getattr(package, mod), fn): name
                     for name, (mod, fn) in TRACED.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(value) if callable(value) else None
                if name is None:
                    continue
                wrapper = functools.wraps(value)(
                    functools.partial(self.call, name, value))
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def has(self, name: str) -> bool:
        return len(self.durations.get(name, ())) > 0

    def p50_ns(self, name: str, self_time: bool = False) -> float:
        return statistics.median((self.self_times if self_time else self.durations)[name])

    def total_ns(self, name: str) -> int:
        return sum(self.durations.get(name, ()))

    def summary(self) -> list[dict[str, Any]]:
        """Returned calls, raised calls, total and self time per span name,
        largest self time first."""
        rows = [
            {"name": name, "calls": len(self.durations[name]), "raised": self.raised[name],
             "total_ms": sum(self.durations[name]) / 1e6,
             "self_ms": sum(self.self_times[name]) / 1e6}
            for name in self.durations
        ]
        return sorted(rows, key=lambda r: -r["self_ms"])

    def write(self, path: Path, label: str) -> None:
        payload = {
            "label": label,
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "dropped": self.dropped,
            "summary": self.summary(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
