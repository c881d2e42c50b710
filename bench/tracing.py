"""Spans around the program's layer boundaries, recorded from outside it.

Each traced function is replaced, in every ``hankelbound`` module that holds
a reference to it (``cli.sweep`` as well as ``search.sweep``), by a wrapper
that records a span: name, start, end and the enclosing span.  Spans stay in
memory, in flat arrays, until :meth:`Tracer.summary` aggregates them.  The
program's files are never modified; :meth:`Tracer.uninstall` puts the
original functions back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: Traced functions per layer (module of ``hankelbound``).
LAYERS = {
    "cli": ("main",),
    "search": ("sweep", "global_max", "_grid_values"),
    "ymax": ("y_certify", "y_oracle", "y_closed_form"),
    "families": ("coeffs_closed_form", "coeffs_ode_oracle", "extremal_coeffs", "sharp_bound"),
    "caratheodory": ("c_from_params",),
    "series": ("exp_unit", "log_unit"),
    "hankel": ("h21", "h21_monomial"),
}

#: Bytes of one complex128 value, for the computed size of a grid temporary.
COMPLEX_BYTES = 16


def _argument(func, name: str):
    """Getter of one argument of ``func`` from a call's (args, kwargs)."""
    params = inspect.signature(func).parameters
    index, default = list(params).index(name), params[name].default

    def get(args, kwargs):
        return args[index] if index < len(args) else kwargs.get(name, default)
    return get


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sys.modules.items()
                   if key == "hankelbound" or key.startswith("hankelbound.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules.get(f"hankelbound.{layer}")
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    self.missing.add(f"{layer}.{func}")
                    continue
                wrapper = self._wrap(f"{layer}.{func}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _probe(self, name: str, original):
        """Counts taken from a call's arguments or result, or None."""
        if name == "search._grid_values":
            sizes = [_argument(original, a) for a in ("p1", "r", "phi")]

            def probe(args, kwargs, result):
                points = 1
                for size in sizes:
                    points *= np.size(size(args, kwargs))
                self._count("search._grid_values.points", points)
                self._count("search._grid_values.bytes", COMPLEX_BYTES * points)
            return probe
        if name == "ymax.y_oracle":
            radial = _argument(original, "radial")
            angular = _argument(original, "angular")

            def probe(args, kwargs, result):
                # y_oracle folds theta and 2*pi - theta together: for an even
                # angular count it evaluates angular/2 + 1 angles per radius.
                n_angles = angular(args, kwargs)
                if n_angles % 2 == 0:
                    n_angles = n_angles // 2 + 1
                self._count("ymax.y_oracle.points", (radial(args, kwargs) + 1) * n_angles)
            return probe
        if name == "series.exp_unit":
            series = _argument(original, "a")

            def probe(args, kwargs, result):
                self._count("series.exp_unit.terms", len(series(args, kwargs)))
            return probe
        if name == "ymax.y_closed_form":
            def probe(args, kwargs, result):
                self._count(f"ymax.y_closed_form.case.{result.case_label.name}", 1)
            return probe
        return None

    def _wrap(self, name: str, original):
        ident = len(self.names)
        self.names.append(name)
        try:
            probe = self._probe(name, original)
        except (KeyError, ValueError):  # the signature no longer has the argument
            probe = None
            self.missing.add(f"{name} counts")
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if probe is not None:
                try:
                    probe(args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # Counts are best effort; the call's result stands.
                    self.missing.add(f"{name} counts")
            return result
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per traced function.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=duration.size)
        out = {}
        for ident, name in enumerate(self.names):
            mask = names == ident
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float((duration[mask] - covered[mask]).sum()),
            }
        return out
