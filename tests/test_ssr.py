import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbent import entanglement, fock, oracle, ssr
from orbent.errors import InsufficientSymmetryError
from orbent.free_fermion import two_site_rdm
from orbent.sampling import random_separable_symmetric_state, random_state

from conftest import state_from_weights


def vec(index_a, index_b):
    v = np.zeros(16)
    v[4 * index_a + index_b] = 1.0
    return v


class TestProjections:
    def test_nssr_kills_cross_block_coherence(self):
        # (|0,updown> + |updown,0>)/sqrt(2): branches live in different blocks
        chi = (vec(0, 3) + vec(3, 0)) / math.sqrt(2)
        projected = ssr.nssr_project(fock.pure_state(chi))
        expected = 0.5 * (np.outer(vec(0, 3), vec(0, 3)) + np.outer(vec(3, 0), vec(3, 0)))
        assert_allclose(projected.matrix, expected, atol=1e-14)

    def test_nssr_fixes_diagonal_states(self, rng):
        d = rng.dirichlet(np.ones(16))
        state = fock.TwoOrbitalState(np.diag(d))
        assert_allclose(ssr.nssr_project(state).matrix, state.matrix, atol=1e-15)

    def test_pssr_keeps_even_parity_coherence(self):
        chi = (vec(0, 3) + vec(3, 0)) / math.sqrt(2)
        state = fock.pure_state(chi)
        assert_allclose(ssr.pssr_project(state).matrix, state.matrix, atol=1e-14)

    def test_pssr_kills_parity_mismatched_coherence(self):
        chi = (vec(0, 1) + vec(1, 0)) / math.sqrt(2)
        projected = ssr.pssr_project(fock.pure_state(chi))
        expected = 0.5 * (np.outer(vec(0, 1), vec(0, 1)) + np.outer(vec(1, 0), vec(1, 0)))
        assert_allclose(projected.matrix, expected, atol=1e-14)

    def test_idempotent_trace_preserving_psd(self, rng):
        for _ in range(10):
            state = random_state(rng)
            for project in (ssr.nssr_project, ssr.pssr_project):
                once = project(state)
                assert_allclose(project(once).matrix, once.matrix, atol=1e-14)
                assert abs(np.trace(once.matrix) - 1.0) < 1e-12
                assert np.linalg.eigvalsh(once.matrix).min() > -1e-12

    def test_projections_commute_and_compose(self, rng):
        state = random_state(rng)
        np_first = ssr.pssr_project(ssr.nssr_project(state))
        pn_first = ssr.nssr_project(ssr.pssr_project(state))
        assert_allclose(np_first.matrix, pn_first.matrix, atol=1e-14)
        assert_allclose(pn_first.matrix, ssr.nssr_project(state).matrix, atol=1e-14)

    def test_project_dispatches_by_rule(self, rng):
        state = random_state(rng)
        assert np.array_equal(ssr.project(state, "number").matrix, ssr.nssr_project(state).matrix)
        assert np.array_equal(ssr.project(state, "parity").matrix, ssr.pssr_project(state).matrix)
        with pytest.raises(ValueError):
            ssr.project(state, "charge")

    def test_diagonal_weights_unchanged(self, rng, number_basis):
        state = random_state(rng)
        before = entanglement.sector_spectrum(state, number_basis).weights
        after = entanglement.sector_spectrum(ssr.nssr_project(state), number_basis).weights
        assert_allclose(before, after, atol=1e-13)


class TestTwirl:
    def test_fixed_point_on_symmetric_states(self, rng):
        d = rng.dirichlet(np.ones(16))
        state = state_from_weights(d)
        for generator in ssr.TWIRL_GENERATORS:
            assert_allclose(ssr.twirl(state, generator).matrix, state.matrix, atol=1e-13)

    def test_total_spin_twirl_splits_up_down_pair(self, number_basis):
        state = fock.pure_state(vec(1, 2))  # |up, down>
        twirled = ssr.twirl(state, "total_spin")
        singlet = number_basis.vector(fock.SINGLET)
        triplet = number_basis.vector(fock.TRIPLET_ZERO)
        expected = 0.5 * (np.outer(singlet, singlet) + np.outer(triplet, triplet))
        assert_allclose(twirled.matrix, expected, atol=1e-14)

    def test_idempotent_trace_preserving(self, rng):
        state = random_state(rng)
        for generator in ssr.TWIRL_GENERATORS:
            once = ssr.twirl(state, generator)
            assert_allclose(ssr.twirl(once, generator).matrix, once.matrix, atol=1e-13)
            assert abs(np.trace(once.matrix) - 1.0) < 1e-12

    def test_unsupported_generator(self, rng):
        with pytest.raises(ValueError):
            ssr.twirl(random_state(rng), "translation")

    def test_twirled_separable_state_stays_ppt(self, rng):
        # total-spin twirl of symmetric separable mixtures keeps separability
        for _ in range(200):
            sigma = random_separable_symmetric_state(rng)
            twirled = ssr.twirl(sigma, "total_spin")
            is_ppt, smallest = oracle.ppt_oracle(twirled)
            assert is_ppt, smallest

    def test_twirl_never_increases_entanglement(self, rng):
        # E(twirl(rho)) <= S(rho_tilde || sigma) for any separable sigma, by
        # data processing; the tightest available sigma is the closest
        # separable state of the twirled input.
        for _ in range(100):
            state = random_separable_symmetric_state(rng)
            mixed = fock.TwoOrbitalState(
                0.7 * state.matrix
                + 0.3 * np.outer(
                    fock.build_symmetry_basis("number").vector(fock.SINGLET),
                    fock.build_symmetry_basis("number").vector(fock.SINGLET),
                )
            )
            projected = ssr.nssr_project(mixed)
            twirled = ssr.twirl(projected, "total_spin")
            spec = entanglement.sector_spectrum(twirled)
            problem = oracle.ConstrainedSimplexProblem(spec.weights, "number")
            e_twirled = oracle.kl_min_oracle(problem).value
            sigma = entanglement.closest_separable_state(twirled, "number")
            upper = fock.relative_entropy(projected, sigma)
            assert e_twirled <= upper + 1e-10


def dense_report(state, tol=ssr.DETECTION_TOL):
    """The symmetry report from dense commutators and the number-basis rotation."""
    m = state.matrix
    r = fock.reflection_operator()
    v = fock.build_symmetry_basis("number").vectors
    w = np.real(np.einsum("ji,jk,ki->i", v.conj(), m, v))
    residuals = {
        name: float(np.linalg.norm(m @ q - q @ m))
        for name, q in (("number", fock.build_operator("number")),
                        ("magnetization", fock.build_operator("sz")),
                        ("total_spin", fock.build_operator("total_spin")))
    }
    residuals["reflection"] = float(np.linalg.norm(r @ m @ r.T - m))
    residuals["triplet_balance"] = abs(w[fock.TRIPLET_UP] - w[fock.TRIPLET_DOWN])
    residuals["particle_hole_balance"] = abs(w[fock.VACUUM] - w[fock.FULL])
    return ssr.SymmetryReport(tol=tol, **{name: ssr.SymmetryCheck(x <= tol, x)
                                          for name, x in residuals.items()})


def selection(report, rule):
    """The variant ``select_formula`` picks, or its error message."""
    try:
        return ssr.select_formula(report, rule)
    except InsufficientSymmetryError as exc:
        return str(exc)


class TestDetectSymmetries:
    def test_singlet_all_flags(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        report = ssr.detect_symmetries(state)
        assert all(
            getattr(report, name).ok
            for name in ("number", "magnetization", "total_spin", "reflection",
                         "triplet_balance", "particle_hole_balance")
        )

    def test_up_down_product_lacks_total_spin(self):
        state = fock.pure_state(vec(1, 2))
        report = ssr.detect_symmetries(state)
        assert report.magnetization.ok
        assert not report.total_spin.ok

    def test_free_fermion_pair_at_half_filling(self):
        report = ssr.detect_symmetries(two_site_rdm(0.5, 1))
        flags = report.to_dict()
        assert all(flags[name]["ok"] for name in
                   ("number", "magnetization", "total_spin", "reflection",
                    "triplet_balance", "particle_hole_balance"))

    def test_residuals_match_dense_commutators_and_basis_weights(self, rng, number_basis):
        # reference: the dense commutators and the number-basis rotation; the
        # index reads of detect_symmetries and sector_spectrum give its bits
        v = number_basis.vectors
        for k in range(80):
            state = random_state(rng)
            if k % 4 == 1:
                state = ssr.nssr_project(state)
            elif k % 4 == 2:
                state = ssr.pssr_project(state)
            elif k % 4 == 3:
                state = ssr.twirl(ssr.twirl(state, "number"), "sz")
            m = state.matrix
            weights = np.real(np.einsum("ij,jk,ki->i", v.conj().T, m, v))
            report = ssr.detect_symmetries(state)
            for name, tag in (("number", "number"), ("magnetization", "sz")):
                q = fock.build_operator(tag)
                assert getattr(report, name).residual == float(np.linalg.norm(m @ q - q @ m))
            assert report.triplet_balance.residual == abs(
                weights[fock.TRIPLET_UP] - weights[fock.TRIPLET_DOWN])
            assert report.particle_hole_balance.residual == abs(
                weights[fock.VACUUM] - weights[fock.FULL])
            assert report == dense_report(state)
            for variant in ("number", "parity"):
                basis = fock.build_symmetry_basis(variant).vectors
                dense = np.real(np.einsum("ji,jk,ki->i", basis.conj(), m, basis))
                assert (dense > 0.0).all()  # so the spectrum's clip at zero changes nothing
                spectrum = entanglement.sector_spectrum(state, variant)
                assert spectrum.weights.tobytes() == dense.tobytes()
                for got, (i, j) in ((spectrum.spin_coherence, (fock.SINGLET, fock.TRIPLET_ZERO)),
                                    (spectrum.pair_coherence, (fock.DOUBLE_A, fock.DOUBLE_B))):
                    assert got == complex(basis[:, i].conj() @ m @ basis[:, j])

    @pytest.mark.parametrize("check, perturbation, base", [
        # (check, product-basis perturbation, diagonal shifts making the check decide)
        ("number", {(0, 12): 1.0, (12, 0): 1.0}, {}),
        ("magnetization", {(1, 2): 1.0, (2, 1): 1.0}, {}),
        ("total_spin", {(6, 6): 1.0, (9, 9): -1.0}, {5: 0.05, 1: 0.05}),
        ("reflection", {(1, 1): 1.0, (4, 4): -1.0}, {5: 0.05}),
        ("triplet_balance", {(5, 5): 1.0, (10, 10): -1.0}, {}),
        ("particle_hole_balance", {(0, 0): 1.0, (15, 15): -1.0}, {}),
    ])
    def test_selection_at_tolerance_edges_matches_dense_reference(self, check, perturbation, base):
        # a fully symmetric state, unbalanced by ``base`` so that ``check``
        # decides the formula, plus a perturbation whose residual sits at
        # tol * (1 -/+ 1e-6): the check passes, then fails, as in the dense form
        tol = 1e-4
        weights = np.full(16, 1 / 16)
        weights[[fock.SINGLET, fock.TRIPLET_ZERO]] = 0.2, 0.02
        symmetric = state_from_weights(weights / weights.sum()).matrix.copy()
        for i, shift in base.items():
            symmetric[i, i] += shift
            symmetric[15 - i, 15 - i] -= shift  # keeps the trace
        unit = np.zeros((16, 16))
        for (i, j), entry in perturbation.items():
            unit[i, j] = entry
        scale = getattr(ssr.detect_symmetries(fock.TwoOrbitalState(symmetric + 1e-3 * unit)),
                        check).residual / 1e-3
        outcomes = []
        for side in (1 - 1e-6, 1 + 1e-6):
            state = fock.TwoOrbitalState(symmetric + tol * side / scale * unit)
            report = ssr.detect_symmetries(state, tol)
            assert getattr(report, check).ok == (side < 1)
            assert report == dense_report(state, tol)
            outcomes.append([selection(report, rule) for rule in ("number", "parity")])
            assert outcomes[-1] == [selection(dense_report(state, tol), rule)
                                    for rule in ("number", "parity")]
        assert outcomes[0] != outcomes[1]  # the edge decides the formula

    def test_report_serializes(self, rng):
        report = ssr.detect_symmetries(random_state(rng))
        data = report.to_dict()
        assert set(data) == {"tol", "number", "magnetization", "total_spin",
                             "reflection", "triplet_balance", "particle_hole_balance"}


class TestSelectFormula:
    def test_global_singlet_gets_singlet_variant(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        report = ssr.detect_symmetries(state)
        assert ssr.select_formula(report, "number") is ssr.FormulaVariant.NSSR_SINGLET

    def test_unbalanced_triplets_get_general_variant(self, rng):
        weights = np.full(16, 1 / 20.0)
        weights[fock.TRIPLET_UP] += 0.15
        weights[fock.TRIPLET_DOWN] += 0.05
        state = state_from_weights(weights / weights.sum())
        report = ssr.detect_symmetries(state)
        assert not report.triplet_balance.ok
        assert report.reflection.ok
        assert ssr.select_formula(report, "number") is ssr.FormulaVariant.NSSR_GENERAL

    def test_no_magnetization_symmetry_fails(self, rng):
        state = random_state(rng)
        report = ssr.detect_symmetries(state)
        with pytest.raises(InsufficientSymmetryError):
            ssr.select_formula(report, "number")

    def test_parity_variants(self, rng):
        balanced = state_from_weights(np.full(16, 1 / 16.0), "parity")
        report = ssr.detect_symmetries(balanced)
        assert ssr.select_formula(report, "parity") is ssr.FormulaVariant.PSSR_SYMMETRIC

        weights = np.full(16, 1 / 20.0)
        weights[fock.VACUUM] += 0.15
        weights[fock.FULL] += 0.05
        skewed = state_from_weights(weights / weights.sum(), "parity")
        report = ssr.detect_symmetries(skewed)
        assert ssr.select_formula(report, "parity") is ssr.FormulaVariant.PSSR_GENERAL

    def test_unknown_rule(self, number_basis):
        report = ssr.detect_symmetries(fock.pure_state(number_basis.vector(fock.SINGLET)))
        with pytest.raises(ValueError):
            ssr.select_formula(report, "charge")
