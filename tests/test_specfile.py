"""Spec documents: parsing, validation, canonical serialization."""

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from vne.harness import run_suite
from vne.specfile import (
    SpecError,
    load_spec,
    matrix_from_json,
    matrix_to_json,
    parse_spec,
)
from vne.states import s_tau

BUNDLED_SPEC = Path(str(resources.files("vne").joinpath("data/desk.json")))


def minimal_doc(**overrides):
    doc = {
        "version": 1,
        "algebras": {"m2": {"kind": "full", "n": 2}},
        "traces": {"tau2": {"algebra": "m2", "weights": "normalized"}},
        "states": {"flat": {"algebra": "m2", "trace": "tau2",
                            "density": [[1, 0], [0, 1]]}},
        "inclusions": {},
        "experiments": {},
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_spec(json.dumps(doc))


class TestMatrixCodec:
    def test_pairs_and_bare_reals(self):
        m = matrix_from_json([[1, [0.0, 2.0]], [[0.0, -2.0], 3]], "t")
        expected = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
        assert np.allclose(m, expected)

    def test_roundtrip(self):
        m = np.array([[1.0, 1.0 + 0.5j], [1.0 - 0.5j, 2.0]])
        back = matrix_from_json(matrix_to_json(m), "t")
        assert np.array_equal(m, back)

    def test_rejects_ragged(self):
        with pytest.raises(SpecError, match="square"):
            matrix_from_json([[1, 2], [3]], "t")

    def test_rejects_bad_entry(self):
        with pytest.raises(SpecError, match="re, im"):
            matrix_from_json([["x", 0], [0, 1]], "t")

    @pytest.mark.parametrize("entry", [math.nan, math.inf, [0.0, -math.inf], 10 ** 400],
                             ids=["nan", "inf", "imag-minus-inf", "int-beyond-float"])
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(SpecError, match=r"t\[1\]\[0\]: matrix entries must be finite"):
            matrix_from_json([[1, 0], [entry, 1]], "t")


class TestParsing:
    def test_minimal_document(self):
        sf = parse(minimal_doc())
        assert abs(s_tau(sf.state("flat"))) < 1e-12

    def test_large_full_algebra(self):
        doc = minimal_doc(algebras={"m2": {"kind": "full", "n": 2},
                                    "m120": {"kind": "full", "n": 120}})
        doc["traces"]["tau120"] = {"algebra": "m120", "weights": "normalized"}
        sf = parse(doc)
        assert sf.algebras["m120"].blocks == ((120, 1),)

    def test_version_required(self):
        with pytest.raises(SpecError, match="version"):
            parse({"algebras": {}})

    def test_invalid_json(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_spec("{nope")

    def test_unknown_section(self):
        with pytest.raises(SpecError, match="unknown top-level"):
            parse(minimal_doc(extra={}))

    def test_blocks_algebra_with_multiplicity(self):
        doc = minimal_doc()
        doc["algebras"]["sum"] = {"blocks": [[2, 1], [1, 2]]}
        sf = parse(doc)
        assert sf.algebras["sum"].blocks == ((2, 1), (1, 2))

    def test_generated_algebra(self):
        doc = minimal_doc()
        doc["algebras"]["gen"] = {
            "ambient_dim": 2,
            "generators": [[[0, 1], [1, 0]]],
        }
        sf = parse(doc)
        assert sf.algebras["gen"].contains(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e308, 1e-308])
    def test_generated_algebra_ignores_generator_scale(self, scale):
        doc = minimal_doc()
        doc["algebras"]["gen"] = {
            "ambient_dim": 2,
            "generators": [[[0, scale], [scale, 0]]],
        }
        gen = parse(doc).algebras["gen"]
        assert gen.blocks == ((1, 1), (1, 1))
        assert gen.contains(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_unresolved_trace_reference(self):
        doc = minimal_doc()
        doc["traces"]["bad"] = {"algebra": "missing", "weights": "normalized"}
        with pytest.raises(SpecError, match="unknown algebra 'missing'"):
            parse(doc)

    def test_trace_rejects_unknown_keys(self):
        doc = minimal_doc()
        doc["traces"]["tau2"] = {"algebra": "m2", "kind": "unnormalized"}
        with pytest.raises(SpecError, match="traces.tau2.*'kind'"):
            parse(doc)

    def test_trace_algebra_mismatch_on_state(self):
        doc = minimal_doc()
        doc["algebras"]["m3"] = {"kind": "full", "n": 3}
        doc["states"]["bad"] = {"algebra": "m3", "trace": "tau2",
                                "density": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        with pytest.raises(SpecError, match="different algebra"):
            parse(doc)

    def test_density_invariants_checked_on_load(self):
        doc = minimal_doc()
        doc["states"]["neg"] = {"algebra": "m2", "trace": "tau2",
                                "density": [[2, 0], [0, -1]]}
        with pytest.raises(SpecError, match="negative eigenvalue"):
            parse(doc)

    def test_ensemble_state_deterministic(self):
        doc = minimal_doc()
        doc["states"]["draw"] = {"algebra": "m2", "trace": "tau2",
                                 "ensemble": {"kind": "hilbert-schmidt", "seed": 3}}
        a = parse(doc).state("draw")
        b = parse(doc).state("draw")
        assert np.array_equal(a.rho, b.rho)

    def test_bad_ensemble_kind(self):
        doc = minimal_doc()
        doc["states"]["draw"] = {"algebra": "m2", "trace": "tau2",
                                 "ensemble": {"kind": "cauchy"}}
        with pytest.raises(SpecError, match="kind"):
            parse(doc)

    def test_inclusion_requires_compatible_trace(self):
        doc = minimal_doc()
        doc["algebras"]["m4"] = {"kind": "full", "n": 4}
        doc["algebras"]["m2x1"] = {"kind": "tensor-left", "p": 2, "q": 2}
        doc["inclusions"]["bad"] = {"ambient": "m4", "sub": "m2x1", "trace": "tau2"}
        with pytest.raises(SpecError, match="different algebra"):
            parse(doc)

    def test_inclusion_bipartite_must_factor(self):
        doc = minimal_doc()
        doc["algebras"]["m4"] = {"kind": "full", "n": 4}
        doc["algebras"]["m2x1"] = {"kind": "tensor-left", "p": 2, "q": 2}
        doc["traces"]["tau4"] = {"algebra": "m4", "weights": "normalized"}
        doc["inclusions"]["bad"] = {"ambient": "m4", "sub": "m2x1",
                                    "trace": "tau4", "bipartite": [3, 2]}
        with pytest.raises(SpecError, match="factor"):
            parse(doc)

    def test_unknown_expectation_mode(self):
        doc = minimal_doc()
        doc["inclusions"]["bad"] = {"ambient": "m2", "sub": "m2",
                                    "trace": "tau2", "expectation": "haagerup"}
        with pytest.raises(SpecError, match="expectation"):
            parse(doc)

    def test_experiment_validates_suite_names(self):
        doc = minimal_doc()
        doc["experiments"]["exp"] = {"seed": 1, "suites": ["no-such-suite"]}
        with pytest.raises(SpecError, match="unknown suite"):
            parse(doc)

    def test_lookup_errors_name_alternatives(self):
        sf = parse(minimal_doc())
        with pytest.raises(SpecError, match="spec defines: flat"):
            sf.state("missing")


class TestCanonicalForm:
    def test_serialize_parse_is_fixed_point(self):
        doc = minimal_doc()
        doc["experiments"]["exp"] = {"suites": ["entropy-bounds"]}
        once = parse(doc).to_json()
        twice = parse_spec(once).to_json()
        assert once == twice

    def test_reparsed_spec_reproduces_computations(self):
        doc = minimal_doc()
        doc["experiments"]["exp"] = {
            "seed": 5, "suites": [{"name": "entropy-bounds", "trials": 10}]}
        sf1 = parse(doc)
        sf2 = parse_spec(sf1.to_json())
        e1 = sf1.experiment("exp")
        e2 = sf2.experiment("exp")
        s1 = e1.suites[0]
        s2 = e2.suites[0]
        r1 = run_suite(s1.name, trials=s1.trials, seed=e1.seed).to_json()
        r2 = run_suite(s2.name, trials=s2.trials, seed=e2.seed).to_json()
        assert r1 == r2

    def test_bare_suite_names_normalize(self):
        doc = minimal_doc()
        doc["experiments"]["exp"] = {"suites": ["entropy-bounds"]}
        sf = parse(doc)
        assert sf.document["experiments"]["exp"]["suites"] == [
            {"name": "entropy-bounds"}]


class TestBundledSpec:
    def test_bundled_spec_is_canonical(self):
        text = BUNDLED_SPEC.read_text()
        assert parse_spec(text).to_json() == text

    def test_bundled_names_resolve(self):
        sf = load_spec(BUNDLED_SPEC)
        assert abs(s_tau(sf.state("m2-pure")) + math.log(2.0)) < 1e-10
        assert abs(s_tau(sf.state("m2-tracial"))) < 1e-12
        assert abs(s_tau(sf.state("m2-unbalanced")) + 0.13081203594113694) < 1e-9
        for name in ("c-in-m3", "m2-in-m4", "trivial"):
            sf.inclusion(name)
        exp = sf.experiment("all-desk-scale")
        assert len(exp.suites) == 16

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec("/no/such/spec.json")
