"""Span recorder that times traitsim's layers from outside the package.

A span is one call into a layer's public entry point: its name, layer,
start and end (``perf_counter_ns``), the index of the span that was open
when it started (its parent, -1 for none) and a small dict of attributes
measured at the boundary (grid nodes evaluated, steps taken, ...).

Spans are kept in memory and written out once, when the traced process
ends.  :func:`install` wraps the public names listed in :data:`TARGETS`
wherever traitsim binds them (``from .model import predict_equilibrium``
copies a name into another module, so every module's binding is
replaced); nothing else in the package is touched.

Standard library only: this module is imported before traitsim and must
not change what traitsim imports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, name: str, fn, measure=None):
        """Return ``fn`` wrapped in a span; ``measure(args, result)`` adds attributes."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, time.perf_counter_ns(), None, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                open_.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _nodes(args, _result) -> dict:
    grid = args[1]
    return {"nodes": len(getattr(grid, "nodes", grid))}


def _run_steps(args, result) -> dict:
    scenario = args[0]
    return {"steps": round(result.final_state.t / scenario.dt)}


def _record_point(args, _result) -> dict:
    state = args[0]
    return {"A": state.A, "B": state.B}


def _atom_steps(args, _result) -> dict:
    _system, t_end, dt = args[:3]
    return {"steps": round(t_end / dt)}


#: (layer, module, class or None, public name, attribute probe)
TARGETS = (
    ("exprlang", "traitsim.exprlang", None, "parse", None),
    ("exprlang", "traitsim.exprlang", None, "bound_on_grid", _nodes),
    ("exprlang", "traitsim.exprlang", "TraitFunction", "sample", _nodes),
    ("model", "traitsim.model", "Scenario", "validate", None),
    ("model", "traitsim.model", None, "predict_equilibrium", None),
    ("integrator", "traitsim.integrator", None, "run", _run_steps),
    ("diagnostics", "traitsim.diagnostics", None, "make_record", _record_point),
    ("cli", "traitsim.cli", None, "load_scenario", None),
    ("cli", "traitsim.cli", None, "main", None),
    ("oracle", "traitsim.oracle", None, "integrate_atoms", _atom_steps),
)


def install(recorder: Recorder) -> None:
    """Wrap every target wherever a loaded traitsim module binds it."""
    for layer, module_name, class_name, name, measure in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            cls = getattr(owner, class_name)
            setattr(cls, name, recorder.wrap(layer, f"{class_name}.{name}", getattr(cls, name), measure))
            continue
        original = getattr(owner, name)
        traced = recorder.wrap(layer, name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "traitsim" or mod_name.startswith("traitsim."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    result = []
    for index, (_name, _layer, start, end, _parent, _attrs) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result
