"""Random ensembles, verification suites, and bound saturation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vne.algebra import algebra_from_blocks, full_matrix_algebra, normalized_trace
from vne.harness import (
    Ensemble,
    VerificationReport,
    maximize_gap,
    random_state,
    run_suite,
    suite_names,
)
from vne.inclusion import (
    diagonal_inclusion,
    entropy_gap_bound,
    scalar_inclusion,
    tensor_pair_inclusion,
    trace_expectation,
)
from vne.states import State, s_tau

from bratteli import inclusion_from_bratteli, pp_index_closed

CHEAP_SUITES = (
    "entropy-bounds", "entropy-vn-shift", "entropy-additivity",
    "relent-subadditivity", "relent-restriction-monotone", "relent-scaling",
    "trace-rescaling", "petz-identity", "expectation-entropy-bound",
    "entropy-gap-bound", "gap-bound-unnormalized", "reverse-entropy-bound",
)
ALL_SUITES = CHEAP_SUITES + (
    "xu-identity", "dual-expectation-pairing", "subspace-relent-properties",
    "tower-identities",
)


class TestEnsembles:
    @pytest.mark.parametrize("kind", ["hilbert-schmidt", "purified-haar"])
    def test_draws_are_states(self, kind):
        ens = Ensemble(kind=kind, dim=3, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = random_state(ens, rng=rng)
            assert abs(phi.mass - 1.0) < 1e-12
            assert phi.min_eigenvalue() > -1e-12

    def test_spectrum_fixed_keeps_spectrum(self):
        ens = Ensemble(kind="spectrum-fixed", dim=2, seed=3,
                       spectrum=(0.5, 0.5))
        phi = random_state(ens)
        # tau-density eigenvalues are the prescribed spectrum over the weight
        w = np.linalg.eigvalsh(phi.rho)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)

    def test_seed_determinism(self):
        ens = Ensemble(kind="hilbert-schmidt", dim=4, seed=11)
        a = random_state(ens)
        b = random_state(ens)
        assert np.array_equal(a.rho, b.rho)

    def test_regression_pinned_draw(self):
        # golden value: first diagonal entry of the seed-7 draw on M_3
        ens = Ensemble(kind="hilbert-schmidt", dim=3, seed=7)
        phi = random_state(ens)
        pinned = float(np.real(phi.rho[0, 0]))
        assert abs(pinned - 0.3305616756963822) < 1e-12

    def test_floor_keeps_faithful(self):
        ens = Ensemble(kind="hilbert-schmidt", dim=3, seed=9, floor=0.05)
        for _ in range(5):
            phi = random_state(ens, rng=np.random.default_rng(1))
            assert phi.is_faithful

    def test_multiblock_draw(self):
        a = algebra_from_blocks([(2, 1), (1, 2)])
        tau = normalized_trace(a)
        phi = random_state(Ensemble(dim=a.dim, seed=2), algebra=a, tau=tau)
        assert phi.algebra is a and abs(phi.mass - 1.0) < 1e-12

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            random_state(Ensemble(dim=0))

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_hs_density_psd_trace_one(self, seed):
        phi = random_state(Ensemble(kind="hilbert-schmidt", dim=3, seed=seed))
        assert abs(phi.mass - 1.0) < 1e-12
        assert phi.min_eigenvalue() > -1e-12


class TestSuites:
    def test_catalog_is_complete(self):
        assert set(suite_names()) == set(ALL_SUITES)

    @pytest.mark.parametrize("name", ALL_SUITES)
    def test_suite_passes_at_reduced_trials(self, name):
        rep = run_suite(name, trials=5, seed=123)
        assert rep.passed, rep.summary()

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_reports_are_seed_deterministic(self):
        a = run_suite("entropy-bounds", trials=20, seed=42).to_json()
        b = run_suite("entropy-bounds", trials=20, seed=42).to_json()
        assert a == b

    def test_reports_differ_across_seeds(self):
        a = run_suite("entropy-bounds", trials=20, seed=42).to_json()
        b = run_suite("entropy-bounds", trials=20, seed=43).to_json()
        assert a != b

    def test_report_payload_shape(self):
        rep = run_suite("petz-identity", trials=6, seed=1)
        payload = json.loads(rep.to_json())
        assert payload["suite"] == "petz-identity"
        assert payload["trials"] == 6
        assert len(payload["records"]) == 6
        assert {"trial", "slack", "violation"} <= set(payload["records"][0])
        assert "elapsed" not in payload

    def test_zero_tolerance_forces_failure(self):
        rep = run_suite("entropy-vn-shift", trials=20, seed=0, tol=0.0)
        assert not rep.passed

    @pytest.mark.parametrize("values", [[0.0, math.nan], [math.nan, 0.0]])
    def test_nan_violation_fails_in_either_position(self, values):
        records = [{"slack": -v, "violation": v, "trial": i} for i, v in enumerate(values)]
        rep = VerificationReport("nan", len(records), 0, 1e-9, records)
        assert not rep.passed
        assert math.isnan(rep.max_violation)
        assert math.isnan(rep.min_slack) and math.isnan(rep.max_slack)

    def test_extremes_are_signed(self):
        rep = run_suite("entropy-gap-bound", trials=10, seed=3)
        assert rep.min_slack <= rep.max_slack
        assert rep.max_violation >= 0.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_non_positive_trial_count(self, trials):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            run_suite("entropy-bounds", trials=trials)

    def test_cheap_suites_diagonalize_per_chunk(self, monkeypatch):
        # a suite that stacks its chunk makes as many eigh calls for 40
        # trials as for 80 (both below one chunk); only the index ascents
        # of expectation, gap and reverse suites add calls, a fixed number
        eigh = np.linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for name in CHEAP_SUITES:
            counts = []
            for trials in (40, 80):
                calls.clear()
                run_suite(name, trials=trials, seed=5)
                counts.append(len(calls))
            assert counts[0] == counts[1], (name, counts)
            assert 0 < counts[0]

    def test_stacked_trials_match_single_draws(self):
        # trial i draws from the i-th spawned generator whatever its chunk;
        # 260 trials span two chunks
        seeds = np.random.SeedSequence(8).spawn(260)
        records = run_suite("entropy-bounds", trials=260, seed=8).records
        assert [r["trial"] for r in records] == list(range(260))
        for i in (0, 1, 2, 254, 255, 256, 257, 259):
            alg = full_matrix_algebra((2, 3, 4)[i % 3])
            phi = random_state(Ensemble(dim=alg.dim), alg, normalized_trace(alg),
                               np.random.default_rng(seeds[i]))
            assert records[i]["dim"] == alg.dim
            assert abs(records[i]["entropy"] - s_tau(phi)) <= 1e-14

    def test_random_state_stacks_each_generators_draw(self):
        alg = algebra_from_blocks([(2, 1), (1, 2)])
        tau = normalized_trace(alg)
        for kind, spectrum in (("hilbert-schmidt", None), ("purified-haar", None),
                               ("spectrum-fixed", (0.5, 0.3, 0.2))):
            ens = Ensemble(kind=kind, dim=alg.dim, spectrum=spectrum, floor=0.01)
            stack = random_state(ens, alg, tau, [np.random.default_rng(s) for s in range(5)])
            assert stack.rho.shape == (5, 4, 4)
            for s in range(5):
                one = random_state(ens, alg, tau, np.random.default_rng(s))
                assert np.array_equal(stack.rho[s], one.rho)


class TestMaximizeGap:
    def test_tensor_inclusion_reaches_log4(self):
        res = maximize_gap(tensor_pair_inclusion(2, 2))
        assert res.gap >= math.log(4.0) - 1e-4
        assert res.gap <= res.bound + 1e-8
        assert res.converged

    def test_scalar_inclusion_reaches_log2(self):
        res = maximize_gap(scalar_inclusion(2))
        assert res.gap >= math.log(2.0) - 1e-4

    def test_trivial_inclusion_gap_zero(self):
        a = full_matrix_algebra(2)
        inc = trace_expectation(a, a, normalized_trace(a))
        res = maximize_gap(inc)
        assert abs(res.gap) < 1e-9
        assert abs(res.bound) < 1e-9

    def test_never_exceeds_ceiling(self):
        res = maximize_gap(tensor_pair_inclusion(2, 2))
        assert res.gap <= res.bound + 1e-8

    def test_result_reports_budget_use(self):
        res = maximize_gap(tensor_pair_inclusion(2, 2))
        assert res.shortfall == res.bound - res.gap

    @pytest.mark.parametrize("inc", [diagonal_inclusion(3), tensor_pair_inclusion(2, 3)],
                             ids=["diagonal-3", "tensor-2x3"])
    def test_converges_on_single_block_inclusions(self, inc):
        res = maximize_gap(inc)
        assert res.converged
        assert abs(res.shortfall) <= 1e-9 * max(1.0, res.bound)
        assert abs(res.gap - math.log(inc.index_report().pp_positive)) <= 1e-9

    @pytest.mark.parametrize("lam, n_b, t, index", [
        ([[2], [1]], [2], [0.5, 1.5], 10.0),  # M_4 (+) M_2 > M_2
        ([[2, 1]], [2, 3], [1.0 / 7.0], 5.0),  # M_7 > (M_2 (x) 1_2) (+) M_3
    ], ids=["m4+m2-over-m2", "m7-over-m2x1+m3"])
    def test_two_block_cases_reach_closed_index(self, lam, n_b, t, index):
        inc = inclusion_from_bratteli(lam, n_b, [1] * len(lam), t, np.random.default_rng(1))
        assert pp_index_closed(lam, n_b, t) == pytest.approx(index, rel=1e-14)
        res = maximize_gap(inc)
        assert res.converged
        assert abs(res.gap - math.log(index)) <= 1e-9 * max(1.0, res.bound)

    def test_random_bratteli_inclusions_attain_log_index(self):
        # gap = log pp_positive on the constructed state, and no pure state of
        # any ambient block beats it; traces alternate normalized / unnormalized
        rng = np.random.default_rng(0)
        done = 0
        while done < 60:
            k_count, l_count = rng.integers(1, 4, size=2)
            lam = rng.integers(0, 3, size=(k_count, l_count))
            n_b = rng.integers(1, 4, size=l_count)
            m_a = rng.integers(1, 3, size=k_count)
            n_a = lam @ n_b
            if not (lam.any(axis=0).all() and lam.any(axis=1).all()) or n_a @ m_a > 12:
                continue
            t = rng.uniform(0.2, 2.0, size=k_count)
            if done % 2 == 0:
                t = t / (n_a @ t)
            inc = inclusion_from_bratteli(lam, n_b, m_a, t, rng)
            res = maximize_gap(inc)
            rep = inc.index_report()
            where = f"lam={lam.tolist()} n_b={n_b.tolist()} m_a={m_a.tolist()} t={t.tolist()}"
            assert res.converged, where
            assert abs(res.gap - math.log(rep.pp_positive)) <= 1e-9 * max(1.0, res.bound), where
            assert abs(rep.pp_positive - pp_index_closed(lam, n_b, t)) <= 1e-8 * rep.pp_positive, where
            for k, (n, _) in enumerate(inc.ambient.blocks):
                z = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
                comps = [np.zeros((20, nj, nj), dtype=complex) for nj, _ in inc.ambient.blocks]
                comps[k] = z[:, :, None] * z[:, None, :].conj()
                raw = inc.ambient.embed(comps)
                phi = State(inc.ambient, inc.tau, raw / inc.tau.value(raw).real[:, None, None])
                assert np.max(entropy_gap_bound(inc, phi).gap) <= res.bound + 1e-9, where
            done += 1
