"""Spans around the public functions of every qthermo module, installed from
outside the package.

Most qthermo modules import names with ``from .x import y``, so a function
lives under several module namespaces. ``Tracer.install`` replaces it in every
``qthermo`` namespace that holds the same object, and wraps the ``__init__``
of ``DensityMatrix`` and ``Povm`` so that construction is counted.
``uninstall`` restores the originals. References kept in data structures
(such as ``verify.SUITES``) or in closures are not rebound, so those calls
are timed only through the public function that makes them.

A span records calls and inclusive time; its self time is the inclusive time
minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from dataclasses import dataclass
from time import perf_counter

MODULES = (
    "core",
    "measurement",
    "correlations",
    "thermo",
    "dissipation",
    "relations",
    "random_states",
    "io",
    "verify",
    "cli",
)
CLASSES = (("core", "DensityMatrix"), ("measurement", "Povm"))

# Formatting and transposition leaves on the hottest paths: a span costs more
# than their work (io.fmt runs 35 times per trajectory row).
UNTRACED = {"io.fmt", "core.dagger", "core.as_matrix"}

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = {"cli.sweep_row"}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Per-span statistics plus the counters measured at span boundaries."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.counters = {
            "thermo.bound_ergotropy.entropy_evals": 0,
            "dissipation.evolve.steps": 0,
            "io.write_trajectory_csv.bytes": 0,
        }
        # (state, grid) of every chi_A_max call, for re-timing the grid alone
        self.chi_inputs: list = []
        self._stack: list[list] = []
        self._undo: list = []

    # -- hooks at specific boundaries -------------------------------------

    def _on_call(self, name, args, kwargs):
        if name == "core.entropy_of_eigenvalues":
            if any(frame[0] == "thermo.bound_ergotropy" for frame in self._stack):
                self.counters["thermo.bound_ergotropy.entropy_evals"] += 1
        elif name == "correlations.chi_A_max":
            grid = args[1] if len(args) > 1 else kwargs.get("grid")
            self.chi_inputs.append((args[0], grid))

    def _on_return(self, name, args, result):
        if name == "dissipation.evolve":
            self.counters["dissipation.evolve.steps"] += len(result.times) - 1
        elif name == "io.write_trajectory_csv":
            self.counters["io.write_trajectory_csv.bytes"] += os.path.getsize(args[0])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        durations = self.durations.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._on_call(name, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += frame[1]
                if durations is not None:
                    durations.append(elapsed)
            self._on_return(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "qthermo" or key.startswith("qthermo.")
        ]
        for short in MODULES:
            mod = sys.modules[f"qthermo.{short}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)
                            self._undo.append((ns, key, obj))
        for short, cls_name in CLASSES:
            cls = getattr(sys.modules[f"qthermo.{short}"], cls_name)
            original = cls.__dict__["__init__"]
            cls.__init__ = self._wrap(f"{short}.{cls_name}", original)
            self._undo.append((cls, "__init__", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def calls(self) -> dict[str, int]:
        return {name: s.calls for name, s in sorted(self.stats.items())}
