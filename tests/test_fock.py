import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbent import fock
from orbent.sampling import random_singlet_vector, random_state


def product_index(a, b):
    return 4 * a + b


class TestSymmetryBasis:
    def test_orthonormal(self, number_basis, parity_basis):
        for basis in (number_basis, parity_basis):
            gram = basis.vectors.conj().T @ basis.vectors
            assert np.abs(gram - np.eye(16)).max() < 1e-12

    def test_all_quantum_numbers(self, number_basis):
        ops = {
            "number": fock.build_operator("number"),
            "sz": fock.build_operator("sz"),
            "total_spin": fock.build_operator("total_spin"),
            "number_a": fock.build_operator("number_a"),
            "number_b": fock.build_operator("number_b"),
        }
        for i in range(16):
            v = number_basis.vector(i)
            spin = number_basis.spin[i]
            expected = {
                "number": number_basis.number[i],
                "sz": number_basis.sz[i],
                "total_spin": spin * (spin + 1),
                "number_a": number_basis.number_a[i],
                "number_b": number_basis.number_b[i],
            }
            for tag, op in ops.items():
                assert np.linalg.norm(op @ v - expected[tag] * v) < 1e-12

    def test_parity_variant_quantum_numbers(self, parity_basis):
        # doublon combinations lose local number but keep N, Sz, parity
        ops = {
            "number": fock.build_operator("number"),
            "sz": fock.build_operator("sz"),
        }
        for i in range(16):
            v = parity_basis.vector(i)
            for tag, op in ops.items():
                value = getattr(parity_basis, tag if tag != "sz" else "sz")[i]
                assert np.linalg.norm(op @ v - value * v) < 1e-12
        for i in (fock.DOUBLE_A, fock.DOUBLE_B):
            assert np.isnan(parity_basis.number_a[i])

    def test_singlet_coordinates(self, number_basis):
        v = number_basis.vector(fock.SINGLET)
        expected = np.zeros(16)
        expected[product_index(1, 2)] = 1 / math.sqrt(2)
        expected[product_index(2, 1)] = -1 / math.sqrt(2)
        assert_allclose(v, expected, atol=1e-15)

    def test_vacuum_is_product_vector(self, number_basis):
        v = number_basis.vector(fock.VACUUM)
        assert v[product_index(0, 0)] == 1.0
        assert np.count_nonzero(v) == 1

    def test_parity_doublon_coordinates(self, parity_basis):
        v = parity_basis.vector(fock.DOUBLE_A)
        assert_allclose(v[product_index(0, 3)], 1 / math.sqrt(2))
        assert_allclose(v[product_index(3, 0)], -1 / math.sqrt(2))
        assert np.count_nonzero(v) == 2

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            fock.build_symmetry_basis("bogus")


class TestOperators:
    def test_number_extremes(self):
        n = fock.build_operator("number")
        assert n[product_index(3, 3), product_index(3, 3)] == 4.0
        assert n[product_index(0, 0), product_index(0, 0)] == 0.0
        assert np.abs(n - np.diag(np.diag(n))).max() == 0.0

    def test_total_spin_on_singlet_triplet(self, number_basis):
        s2 = fock.build_operator("total_spin")
        singlet = number_basis.vector(fock.SINGLET)
        triplet = number_basis.vector(fock.TRIPLET_ZERO)
        assert np.linalg.norm(s2 @ singlet) < 1e-12
        assert np.linalg.norm(s2 @ triplet - 2.0 * triplet) < 1e-12

    def test_sz_on_polarized(self):
        sz = fock.build_operator("sz")
        idx = product_index(1, 1)  # |up, up>
        assert sz[idx, idx] == 1.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            fock.build_operator("momentum")

    def test_anticommutation(self):
        ann = fock.annihilation_operators(2)
        for i in range(4):
            for j in range(4):
                anti = ann[i] @ ann[j].T.conj() + ann[j].T.conj() @ ann[i]
                assert_allclose(anti, np.eye(16) if i == j else 0 * anti, atol=1e-14)


class TestTwoOrbitalState:
    def test_rejects_non_hermitian(self):
        m = np.eye(16) / 16
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            fock.TwoOrbitalState(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            fock.TwoOrbitalState(np.eye(16))

    def test_rejects_negative(self):
        m = np.eye(16) / 15.0
        m[0, 0] = -1.0 / 15.0
        with pytest.raises(ValueError):
            fock.TwoOrbitalState(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(16, dtype=complex) / 16
        m[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fock.TwoOrbitalState(m)

    def test_immutable(self):
        state = fock.maximally_mixed_state()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0


class TestPartialTranspose:
    def test_diagonal_invariant(self, rng):
        d = rng.dirichlet(np.ones(16))
        assert_allclose(fock.partial_transpose(np.diag(d)), np.diag(d))

    def test_singlet_minimum_eigenvalue(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        eigenvalues = np.linalg.eigvalsh(fock.partial_transpose(state))
        assert abs(eigenvalues.min() + 0.5) < 1e-12

    def test_product_state_stays_psd(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho_a = a @ a.conj().T
        rho_b = b @ b.conj().T
        rho = np.kron(rho_a / np.trace(rho_a), rho_b / np.trace(rho_b))
        assert np.linalg.eigvalsh(fock.partial_transpose(rho)).min() > -1e-12

    def test_involution_and_trace(self, rng):
        state = random_state(rng)
        pt = fock.partial_transpose(state)
        assert_allclose(fock.partial_transpose(pt), state.matrix, atol=1e-15)
        assert abs(np.trace(pt) - 1.0) < 1e-14
        assert np.abs(pt - pt.conj().T).max() < 1e-14


class TestPartialTrace:
    def test_two_orbital_identity(self, rng):
        state = random_state(rng)
        back = fock.partial_trace(state.matrix, (0, 1))
        assert_allclose(back.matrix, state.matrix, atol=1e-14)

    def test_configuration_state_reduces_to_configuration(self):
        # |updown, up, 0> on three orbitals
        idx = (3 * 4 + 1) * 4 + 0
        psi = np.zeros(64)
        psi[idx] = 1.0
        reduced = fock.partial_trace(psi, (0, 1), 3)
        expected = np.zeros((16, 16))
        expected[product_index(3, 1), product_index(3, 1)] = 1.0
        assert_allclose(reduced.matrix, expected, atol=1e-15)

    def test_singlet_reduction_inherits_spin_symmetry(self, rng):
        s2 = fock.build_operator("total_spin")
        sz = fock.build_operator("sz")
        for _ in range(5):
            psi = random_singlet_vector(rng, 3)
            for pair in ((0, 1), (1, 2), (2, 0)):
                rho = fock.partial_trace(psi, pair, 3).matrix
                assert np.linalg.norm(rho @ s2 - s2 @ rho) < 1e-10
                assert np.linalg.norm(rho @ sz - sz @ rho) < 1e-10

    def test_iterated_equals_direct(self, rng):
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        direct = fock.partial_trace(psi, (0, 2), 4)
        through_three = fock.reduce_to_orbitals(psi, (0, 2, 3), 4)
        iterated = fock.partial_trace(through_three, (0, 1), 3)
        assert_allclose(iterated.matrix, direct.matrix, atol=1e-13)

    def test_reduced_state_is_valid(self, rng):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        reduced = fock.partial_trace(psi, (2, 0), 3)
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_errors(self, rng):
        psi = np.zeros(64)
        psi[0] = 1.0
        with pytest.raises(ValueError):
            fock.partial_trace(psi, (0, 0), 3)
        with pytest.raises(ValueError):
            fock.partial_trace(psi, (0, 5), 3)


class TestSingleOrbitalRdm:
    def test_product_marginals(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        rho_a = a @ a.T
        rho_a /= np.trace(rho_a)
        rho_b = b @ b.T
        rho_b /= np.trace(rho_b)
        state = fock.TwoOrbitalState(np.kron(rho_a, rho_b))
        assert_allclose(fock.single_orbital_rdm(state, 0), rho_a, atol=1e-13)
        assert_allclose(fock.single_orbital_rdm(state, 1), rho_b, atol=1e-13)

    def test_local_number_expectation(self, rng):
        state = random_state(rng)
        marginal = fock.single_orbital_rdm(state, 1)
        local_n = np.diag([0.0, 1.0, 1.0, 2.0])
        expected = state.expectation(fock.build_operator("number_b"))
        assert abs(np.trace(marginal @ local_n).real - expected) < 1e-12


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        state = random_state(rng)
        assert abs(fock.relative_entropy(state, state)) < 1e-12

    def test_pure_vs_maximally_mixed(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        value = fock.relative_entropy(state, fock.maximally_mixed_state())
        assert abs(value - math.log(16)) < 1e-12

    def test_matches_classical_kl(self, rng):
        p = rng.dirichlet(np.ones(16))
        q = rng.dirichlet(np.ones(16))
        expected = np.sum(p * np.log(p / q))
        assert abs(fock.relative_entropy(np.diag(p), np.diag(q)) - expected) < 1e-12

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(25):
            rho = random_state(rng)
            sigma = random_state(rng)
            value = fock.relative_entropy(rho, sigma)
            assert value >= -1e-10
            assert value > 1e-3  # independent draws are far apart
        state = random_state(rng)
        assert abs(fock.relative_entropy(state, state)) < 1e-10

    def test_support_violation_is_infinite(self, number_basis):
        rho = fock.pure_state(number_basis.vector(fock.SINGLET))
        sigma = fock.pure_state(number_basis.vector(fock.VACUUM))
        assert math.isinf(fock.relative_entropy(rho, sigma))
