"""Spans around the calls made into keldrot's public functions.

The tracer never edits keldrot's source.  While it is installed, every
public function of the ten keldrot modules is replaced by a wrapper, both
as a module attribute and wherever another keldrot module imported it by
name (``from .diracsea import R_obs`` in ``medium``).  The wrapper opens a
span only when its caller lives in another module, so a call from one
layer into another is timed while a module's calls to its own functions,
such as per-point integrands, stay inside the caller's span.  Spans live
in memory; self time is a span's duration minus the time of its child
spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types
import warnings
from contextlib import contextmanager

import numpy as np

LAYERS = ["grids", "oscillator", "rotation", "fieldkernels", "diracsea", "pvreg",
          "medium", "acceptance", "serialization", "cli"]


def _is_stationary(ctl) -> bool:
    k = ctl.K_W.values
    return bool(np.abs(k[1:, 1:] - k[:-1, :-1]).max() <= 1e-9 * np.abs(k).max())


def _label(name: str, args: tuple, kwargs: dict):
    """Sub-label that splits one function's spans into separate metrics."""
    if name == "diracsea.R_obs":
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        return "below" if args[0] <= 4.0 * spec.mu0 ** 2 else "above"
    if name == "pvreg.solve_pv":
        masses = args[1]
        hardest = args[0] == 3 and kwargs.get("impose_B0") and masses[1] / masses[0] >= 1e3
        return "hardest" if hardest else None
    if name == "diracsea.K_reg_coordinate":
        return "cone" if args[0] <= 0 else "point"
    return None


def _quantity(name: str, args: tuple, result) -> float:
    """Work done by one call: bytes for serialization, samples for MC,
    points for a spectrum sweep; 1 otherwise."""
    if name.startswith("serialization."):
        if "_from_" in name:
            return float(len(args[0]))
        return float(len(result))
    if name == "medium.wyld_mc":
        return float(args[2])
    if name == "oscillator.mc_quasiaverage":
        return float(args[4])
    if name == "medium.zero_point_spectrum":
        return float(np.size(args[0]))
    return 1.0


class Span:
    __slots__ = ("name", "label", "start", "end", "child", "quantity", "ok")

    def __init__(self, name, label, start):
        self.name, self.label, self.start = name, label, start
        self.end, self.child, self.quantity, self.ok = start, 0.0, 1.0, False

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple] = []
        self.warnings: list[list[str]] = []

    # ----- recording -----------------------------------------------------
    def _open(self, name, label=None) -> Span:
        span = Span(name, label, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start

    @contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself, e.g. around one CLI verb."""
        span = self._open(name)
        try:
            yield span
            span.ok = True
        finally:
            self._close(span)

    def wrap(self, name: str, fn, home: str | None = None):
        """Wrapper that traces calls of `fn` made from outside module `home`."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if home is not None and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            span = self._open(name, _label(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                self._close(span)
            span.quantity = _quantity(name, args, result)
            if name == "rotation.rotate":
                span.label = "stationary" if _is_stationary(args[0]) else "nonstationary"
            return result
        return traced

    # ----- installation --------------------------------------------------
    def install(self):
        """Patch every public function where it is defined and where it is
        imported; the acceptance criteria are patched in their registry."""
        mods = {name: importlib.import_module(f"keldrot.{name}") for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", []):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn, mod.__name__)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patch(vars(mod), attr, wrapped[id(val)])
        criteria = mods["acceptance"].CRITERIA
        for key, fn in list(criteria.items()):
            self._patch(criteria, key, self.wrap(f"acceptance.{key}", fn))

    def _patch(self, namespace: dict, key, value):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self):
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore.clear()

    @contextmanager
    def installed(self):
        """Trace one pass, keeping the class names of the warnings that
        reach the benchmark."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.install()
            try:
                yield
            finally:
                self.uninstall()
        self.warnings.append([type(w.message).__name__ for w in caught])
