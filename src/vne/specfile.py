"""Versioned JSON descriptions of algebras, traces, states, and experiments.

A spec file names every object it builds; commands look objects up by name.
Complex matrix entries are stored as [re, im] pairs so the files stay
diff-friendly and tooling-agnostic. Parsing materializes everything eagerly,
so every invariant (membership, positivity, declared masses) is checked at
load time, and a parsed file serializes back to a canonical form whose
computations are byte-for-byte reproducible under a fixed seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    algebra_from_blocks,
    ambient_trace,
    diagonal_subalgebra,
    full_matrix_algebra,
    generated_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_left_subalgebra,
    tensor_right_subalgebra,
)
from .harness import Ensemble, random_state, suite_names
from .inclusion import Inclusion, trace_expectation
from .states import State

SCHEMA_VERSION = 1


class SpecError(Exception):
    """Malformed or unresolvable spec content; maps to exit code 2."""


# -- JSON <-> numpy ------------------------------------------------------------


def _entry_to_complex(entry, where: str) -> complex:
    parts = (entry, 0) if isinstance(entry, (int, float)) else entry
    if not (isinstance(parts, (list, tuple)) and len(parts) == 2
            and all(isinstance(p, (int, float)) for p in parts)):
        raise SpecError(f"{where}: matrix entries must be numbers or [re, im] pairs, got {entry!r}")
    # False for NaN, infinities and integers beyond the float range
    if not all(abs(p) <= sys.float_info.max for p in parts):
        raise SpecError(f"{where}: matrix entries must be finite, got {entry!r}")
    return complex(parts[0], parts[1])


def matrix_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SpecError(f"{where}: expected a list of rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SpecError(f"{where}: matrix must be square, got row lengths {[len(r) for r in rows]}")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{where}[{i}][{j}]")
    return out


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(np.real(e)), float(np.imag(e))] for e in row] for row in np.asarray(m)]


# -- parsed document -----------------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    trials: int | None = None
    tol: float | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"name": self.name}
        if self.trials is not None:
            obj["trials"] = self.trials
        if self.tol is not None:
            obj["tol"] = self.tol
        return obj


@dataclass(frozen=True)
class Experiment:
    name: str
    seed: int
    suites: tuple[SuiteSpec, ...]


@dataclass
class SpecFile:
    """All named objects from one spec document, fully materialized."""

    version: int
    algebras: dict[str, MultiMatrixAlgebra]
    traces: dict[str, TraceWeight]
    states: dict[str, State]
    inclusions: dict[str, Inclusion]
    experiments: dict[str, Experiment]
    document: dict = field(repr=False)

    def to_json(self) -> str:
        """Canonical serialization; a fixed point of parse -> serialize."""
        return json.dumps(self.document, indent=2, sort_keys=True) + "\n"

    def state(self, name: str) -> State:
        return _lookup(self.states, name, "state")

    def inclusion(self, name: str) -> Inclusion:
        return _lookup(self.inclusions, name, "inclusion")

    def experiment(self, name: str) -> Experiment:
        return _lookup(self.experiments, name, "experiment")


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "(none defined)"
        raise SpecError(f"unknown {kind} {name!r}; spec defines: {known}")
    return table[name]


# -- section parsers -----------------------------------------------------------


def _require_table(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise SpecError(f"section {key!r} must be an object mapping names to entries")
    return section


def _parse_algebra(name: str, entry, canon: dict) -> MultiMatrixAlgebra:
    where = f"algebras.{name}"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: expected an object")
    if "generators" in entry:
        dim = entry.get("ambient_dim")
        if not isinstance(dim, int) or dim < 1:
            raise SpecError(f"{where}: generators need a positive integer ambient_dim")
        gens = [matrix_from_json(g, f"{where}.generators[{i}]")
                for i, g in enumerate(entry["generators"])]
        if any(g.shape != (dim, dim) for g in gens):
            raise SpecError(f"{where}: generators must be {dim}x{dim}")
        canon[name] = {"ambient_dim": dim,
                       "generators": [matrix_to_json(g) for g in gens]}
        return generated_algebra(gens, dim)
    if "blocks" in entry:
        raw = entry["blocks"]
        if not isinstance(raw, list) or not raw:
            raise SpecError(f"{where}: blocks must be a non-empty list")
        blocks = []
        for b in raw:
            if isinstance(b, int):
                blocks.append((b, 1))
            elif (isinstance(b, list) and len(b) == 2
                  and all(isinstance(p, int) and p >= 1 for p in b)):
                blocks.append((b[0], b[1]))
            else:
                raise SpecError(f"{where}: each block is n or [n, multiplicity], got {b!r}")
        canon[name] = {"blocks": [list(b) for b in blocks]}
        try:
            return algebra_from_blocks(blocks)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    kind = entry.get("kind")
    makers = {
        "full": (("n",), lambda n: full_matrix_algebra(n)),
        "scalar": (("n",), lambda n: scalar_subalgebra(n)),
        "diagonal": (("n",), lambda n: diagonal_subalgebra(n)),
        "tensor-left": (("p", "q"), lambda p, q: tensor_left_subalgebra(p, q)),
        "tensor-right": (("p", "q"), lambda p, q: tensor_right_subalgebra(p, q)),
    }
    if kind not in makers:
        raise SpecError(f"{where}: need blocks, generators, or kind in {sorted(makers)}")
    params, make = makers[kind]
    args = []
    for p in params:
        v = entry.get(p)
        if not isinstance(v, int) or v < 1:
            raise SpecError(f"{where}: kind {kind!r} needs positive integer {p!r}")
        args.append(v)
    canon[name] = {"kind": kind, **dict(zip(params, args))}
    return make(*args)


def _parse_trace(name: str, entry, algebras: dict, canon: dict) -> TraceWeight:
    where = f"traces.{name}"
    if not isinstance(entry, dict) or "algebra" not in entry:
        raise SpecError(f"{where}: expected an object with an algebra reference")
    extra = sorted(set(entry) - {"algebra", "weights"})
    if extra:
        raise SpecError(f"{where}: unknown keys {', '.join(map(repr, extra))}; "
                        f"a trace takes algebra and weights")
    alg = _resolve(algebras, entry["algebra"], "algebra", where)
    weights = entry.get("weights", "normalized")
    if weights == "normalized":
        canon[name] = {"algebra": entry["algebra"], "weights": "normalized"}
        return normalized_trace(alg)
    if weights == "unnormalized":
        canon[name] = {"algebra": entry["algebra"], "weights": "unnormalized"}
        return ambient_trace(alg)
    if (isinstance(weights, list) and weights
            and all(isinstance(w, (int, float)) for w in weights)):
        canon[name] = {"algebra": entry["algebra"], "weights": [float(w) for w in weights]}
        try:
            return TraceWeight(alg, tuple(float(w) for w in weights))
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"{where}: weights must be a list of positive reals, "
                    f"\"normalized\", or \"unnormalized\"")


_ENSEMBLE_KINDS = ("hilbert-schmidt", "purified-haar", "spectrum-fixed")


def _parse_state(name: str, entry, algebras: dict, traces: dict, canon: dict) -> State:
    where = f"states.{name}"
    if not isinstance(entry, dict) or "algebra" not in entry or "trace" not in entry:
        raise SpecError(f"{where}: expected an object with algebra and trace references")
    alg = _resolve(algebras, entry["algebra"], "algebra", where)
    tau = _resolve(traces, entry["trace"], "trace", where)
    if tau.algebra is not alg:
        raise SpecError(f"{where}: trace {entry['trace']!r} lives on a different algebra")
    head = {"algebra": entry["algebra"], "trace": entry["trace"]}

    if "density" in entry:
        if len(alg.blocks) != 1:
            raise SpecError(f"{where}: density is for single-block algebras; "
                            f"use density_blocks here")
        comp = matrix_from_json(entry["density"], f"{where}.density")
        n = alg.blocks[0][0]
        if comp.shape != (n, n):
            raise SpecError(f"{where}.density: expected {n}x{n}")
        canon[name] = {**head, "density": matrix_to_json(comp)}
        return _build_state(alg, tau, alg.embed([comp]), where)
    if "density_blocks" in entry:
        raw = entry["density_blocks"]
        if not isinstance(raw, list) or len(raw) != len(alg.blocks):
            raise SpecError(f"{where}: density_blocks needs one matrix per block "
                            f"({len(alg.blocks)} expected)")
        comps = [matrix_from_json(b, f"{where}.density_blocks[{k}]")
                 for k, b in enumerate(raw)]
        for k, ((n, _), c) in enumerate(zip(alg.blocks, comps)):
            if c.shape != (n, n):
                raise SpecError(f"{where}.density_blocks[{k}]: expected {n}x{n}")
        canon[name] = {**head, "density_blocks": [matrix_to_json(c) for c in comps]}
        return _build_state(alg, tau, alg.embed(comps), where)
    if "ensemble" in entry:
        ens = entry["ensemble"]
        if not isinstance(ens, dict) or ens.get("kind") not in _ENSEMBLE_KINDS:
            raise SpecError(f"{where}.ensemble: kind must be one of {_ENSEMBLE_KINDS}")
        seed = ens.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise SpecError(f"{where}.ensemble: seed must be a non-negative integer")
        spectrum = ens.get("spectrum")
        if spectrum is not None and not (isinstance(spectrum, list)
                                         and all(isinstance(s, (int, float)) for s in spectrum)):
            raise SpecError(f"{where}.ensemble: spectrum must be a list of reals")
        floor = ens.get("floor", 0.0)
        if not isinstance(floor, (int, float)) or floor < 0:
            raise SpecError(f"{where}.ensemble: floor must be a non-negative real")
        obj = Ensemble(kind=ens["kind"], dim=alg.dim, seed=seed,
                       spectrum=None if spectrum is None else tuple(float(s) for s in spectrum),
                       floor=float(floor))
        stored = {"kind": ens["kind"], "seed": seed}
        if spectrum is not None:
            stored["spectrum"] = [float(s) for s in spectrum]
        if floor:
            stored["floor"] = float(floor)
        canon[name] = {**head, "ensemble": stored}
        try:
            return random_state(obj, alg, tau)
        except ValueError as exc:
            raise SpecError(f"{where}.ensemble: {exc}") from exc
    raise SpecError(f"{where}: need density, density_blocks, or ensemble")


def _build_state(alg, tau, rho, where: str) -> State:
    try:
        return State(alg, tau, rho)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_inclusion(name: str, entry, algebras: dict, traces: dict, canon: dict) -> Inclusion:
    where = f"inclusions.{name}"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: expected an object")
    for key in ("ambient", "sub", "trace"):
        if key not in entry:
            raise SpecError(f"{where}: missing {key!r}")
    ambient = _resolve(algebras, entry["ambient"], "algebra", where)
    sub = _resolve(algebras, entry["sub"], "algebra", where)
    tau = _resolve(traces, entry["trace"], "trace", where)
    if tau.algebra is not ambient:
        raise SpecError(f"{where}: trace {entry['trace']!r} lives on a different algebra")
    mode = entry.get("expectation", "trace")
    if mode != "trace":
        raise SpecError(f"{where}: only the trace-preserving expectation is supported, "
                        f"got {mode!r}")
    bipartite = entry.get("bipartite")
    if bipartite is not None:
        ok = (isinstance(bipartite, list) and len(bipartite) == 2
              and all(isinstance(v, int) and v >= 1 for v in bipartite))
        if not ok:
            raise SpecError(f"{where}: bipartite must be [p, q] with positive integers")
        if bipartite[0] * bipartite[1] != ambient.dim:
            raise SpecError(f"{where}: bipartite {bipartite} does not factor "
                            f"the ambient dimension {ambient.dim}")
        bipartite = (bipartite[0], bipartite[1])
    stored = {"ambient": entry["ambient"], "sub": entry["sub"],
              "trace": entry["trace"], "expectation": "trace"}
    if bipartite is not None:
        stored["bipartite"] = list(bipartite)
    canon[name] = stored
    try:
        return trace_expectation(ambient, sub, tau, bipartite=bipartite)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_experiment(name: str, entry, canon: dict) -> Experiment:
    where = f"experiments.{name}"
    if not isinstance(entry, dict) or "suites" not in entry:
        raise SpecError(f"{where}: expected an object with a suites list")
    seed = entry.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise SpecError(f"{where}: seed must be a non-negative integer")
    raw = entry["suites"]
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{where}: suites must be a non-empty list")
    known = suite_names()
    suites = []
    for i, item in enumerate(raw):
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict) or "name" not in item:
            raise SpecError(f"{where}.suites[{i}]: expected a suite name or object")
        sname = item["name"]
        if sname not in known:
            raise SpecError(f"{where}.suites[{i}]: unknown suite {sname!r}; "
                            f"available: {', '.join(known)}")
        trials = item.get("trials")
        if trials is not None and (not isinstance(trials, int) or trials < 1):
            raise SpecError(f"{where}.suites[{i}]: trials must be a positive integer")
        tol = item.get("tol")
        if tol is not None and (not isinstance(tol, (int, float)) or tol < 0):
            raise SpecError(f"{where}.suites[{i}]: tol must be a non-negative real")
        suites.append(SuiteSpec(sname, trials, None if tol is None else float(tol)))
    canon[name] = {"seed": seed, "suites": [s.to_json_obj() for s in suites]}
    return Experiment(name, seed, tuple(suites))


def _resolve(table: dict, ref, kind: str, where: str):
    if not isinstance(ref, str):
        raise SpecError(f"{where}: {kind} reference must be a name string, got {ref!r}")
    if ref not in table:
        known = ", ".join(sorted(table)) or "(none defined)"
        raise SpecError(f"{where}: unknown {kind} {ref!r}; spec defines: {known}")
    return table[ref]


# -- entry points ---------------------------------------------------------------


def parse_spec(text: str) -> SpecFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise SpecError(f"unsupported spec version {version!r}; this build reads "
                        f"version {SCHEMA_VERSION}")

    known = {"version", "algebras", "traces", "states", "inclusions", "experiments"}
    extra = sorted(set(doc) - known)
    if extra:
        raise SpecError(f"unknown top-level sections: {', '.join(extra)}")

    canon: dict = {"version": SCHEMA_VERSION, "algebras": {}, "traces": {},
                   "states": {}, "inclusions": {}, "experiments": {}}
    algebras = {name: _parse_algebra(name, entry, canon["algebras"])
                for name, entry in _require_table(doc, "algebras").items()}
    traces = {name: _parse_trace(name, entry, algebras, canon["traces"])
              for name, entry in _require_table(doc, "traces").items()}
    states = {name: _parse_state(name, entry, algebras, traces, canon["states"])
              for name, entry in _require_table(doc, "states").items()}
    inclusions = {name: _parse_inclusion(name, entry, algebras, traces, canon["inclusions"])
                  for name, entry in _require_table(doc, "inclusions").items()}
    experiments = {name: _parse_experiment(name, entry, canon["experiments"])
                   for name, entry in _require_table(doc, "experiments").items()}
    return SpecFile(version=SCHEMA_VERSION, algebras=algebras, traces=traces,
                    states=states, inclusions=inclusions, experiments=experiments,
                    document=canon)


def load_spec(path) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return parse_spec(text)
