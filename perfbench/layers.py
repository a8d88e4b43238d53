"""Timing wrappers around the public entry points of each vne layer.

A traced run replaces every target in TARGETS with a wrapper that counts its
calls and keeps a span stack, so each target's self time is its span minus
the spans of the wrapped targets it called. A function is replaced in every
loaded ``vne`` module that bound it by name; a class is traced through its
``__init__``. A target that the program no longer defines is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (layer, module, attribute path); the metric key is "<layer>.<attribute path>"
TARGETS = (
    ("linalg", "vne.linalg", "herm_eig"),
    ("linalg", "vne.linalg", "matrix_function"),
    ("algebra", "vne.algebra", "MultiMatrixAlgebra.block_component"),
    ("algebra", "vne.algebra", "MultiMatrixAlgebra.project"),
    ("algebra", "vne.algebra", "MultiMatrixAlgebra.embed"),
    ("algebra", "vne.algebra", "MultiMatrixAlgebra.matrix_unit"),
    ("algebra", "vne.algebra", "TraceWeight.value"),
    ("algebra", "vne.algebra", "commutant"),
    ("algebra", "vne.algebra", "wedderburn_decompose"),
    ("states", "vne.states", "State"),
    ("states", "vne.states", "s_tau"),
    ("states", "vne.states", "s_vn"),
    ("states", "vne.states", "restrict"),
    ("relent", "vne.relent", "rel_entropy_closed"),
    ("relent", "vne.relent", "rel_entropy_modular"),
    ("relent", "vne.relent", "StandardForm"),
    ("relent", "vne.relent", "kosaki_eval"),
    ("inclusion", "vne.inclusion", "Inclusion.apply"),
    ("inclusion", "vne.inclusion", "trace_expectation"),
    ("inclusion", "vne.inclusion", "index_report"),
    ("inclusion", "vne.inclusion", "Inclusion.index_report"),
    ("inclusion", "vne.inclusion", "pp_index_positive"),
    ("inclusion", "vne.inclusion", "pp_index_cp"),
    ("inclusion", "vne.inclusion", "dual_expectation"),
    ("inclusion", "vne.inclusion", "xu_identity"),
    ("specfile", "vne.specfile", "load_spec"),
)


def target_key(layer: str, path: str) -> str:
    return f"{layer}.{path}"


def _resolve(module: str, path: str):
    """(owner, attribute name, value) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            return None
    value = getattr(owner, name, None)
    if inspect.isclass(value):
        return value, "__init__", value.__init__
    if not callable(value):
        return None
    if inspect.isclass(owner) and not inspect.isfunction(inspect.getattr_static(owner, name)):
        return None  # staticmethod, classmethod or property: not a plain method
    return owner, name, value


class Tracer:
    """Installs the timing wrappers, collects counts, and restores the program.

    Use as a context manager; leaving it restores every replaced attribute,
    even if the traced code raised.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, key: str, fn):
        calls, self_s, total_s, stack, clock = (
            self.calls, self.self_s, self.total_s, self._stack, self.clock)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                calls[key] += 1
                self_s[key] += span - children
                total_s[key] += span
                if stack:
                    stack[-1] += span

        return timed

    def _patch(self, owner, name: str, value) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        for layer, module, path in self.targets:
            key = target_key(layer, path)
            found = _resolve(module, path)
            if found is None:
                self.absent.append(key)
                continue
            owner, name, original = found
            self.calls[key], self.self_s[key], self.total_s[key] = 0, 0.0, 0.0
            wrapper = self._wrap(key, original)
            if inspect.isclass(owner):
                self._patch(owner, name, wrapper)
                continue
            # a module function: rebind it wherever a vne module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "vne" or mod_name.startswith("vne.")):
                    continue
                for attr, bound in list(vars(mod).items()):
                    if bound is original:
                        self._patch(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
