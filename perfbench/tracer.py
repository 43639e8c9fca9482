"""Span tracer that wraps the public functions of the softarm modules.

The tracer edits no source. `install()` replaces every public module-level
function of each traced module with a wrapper that records a span, in that
module's namespace and in every other traced module that imported the
function by name (for example `adapt.envelope_check`). `uninstall()` puts
the originals back. Spans are aggregated as they close, so memory stays
flat however long the run is:

* calls and errors (spans that ended with an exception) per layer;
* self time per layer: span duration minus the time covered by its direct
  child spans, so nested calls (`beam.tendon_bend` -> `beam.solve_elastica`,
  `cli.main` -> `io.read_*`) are not counted twice;
* for `beam.solve_elastica` only: the duration of each call, whether it
  returned, and `len(solution.stations)`.

Private functions (leading underscore), such as `beam._integrate`, are not
wrapped; their time is self time of the public function that called them.
Class constructors and methods are not wrapped either.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("cli", "io", "material", "beam", "aero", "deflection", "adapt")


class LayerStats:
    __slots__ = ("calls", "errors", "self_s")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, modules: dict):
        """modules maps a layer name to the imported softarm module."""
        self.modules = modules
        self.layers = {name: LayerStats() for name in modules}
        self.solve_s: list[float] = []
        self.solve_ok: list[bool] = []
        self.solve_stations: list[int] = []
        self._child_time: list[float] = []  # one accumulator per open span
        self._solve = modules["beam"].solve_elastica
        self._swaps = self._plan()
        self._installed = False

    def _wrap(self, layer: str, fn):
        stack = self._child_time
        is_solve = fn is self._solve
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = clock() - t0
                stats = self.layers[layer]
                stats.calls += 1
                stats.self_s += dur - stack.pop()
                if not ok:
                    stats.errors += 1
                if stack:
                    stack[-1] += dur
                if is_solve:
                    self.solve_s.append(dur)
                    self.solve_ok.append(ok)
                    if ok:
                        self.solve_stations.append(len(result.stations))

        return span

    def _plan(self) -> list[tuple[dict, str, object, object]]:
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(layer, obj)
        plan = []
        for module in self.modules.values():
            namespace = vars(module)
            for name, obj in namespace.items():
                if inspect.isfunction(obj) and obj in wrappers:
                    plan.append((namespace, name, obj, wrappers[obj]))
        return plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for namespace, name, _, wrapper in self._swaps:
            namespace[name] = wrapper
        self._installed = True

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._swaps:
            namespace[name] = original
        self._installed = False
        self._child_time.clear()
