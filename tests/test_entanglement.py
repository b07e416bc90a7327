import logging
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbent import entanglement as ent
from orbent import fock, oracle, ssr
from orbent.errors import DegenerateSectorError, InsufficientSymmetryError
from orbent.sampling import random_symmetric_state, random_weights

from conftest import state_from_weights

LN2 = math.log(2.0)


def spectrum_from(weights, variant="number", **kw):
    return ent.SectorSpectrum(np.asarray(weights), variant=variant, **kw)


def weights_with(entries, variant_filler=None):
    """16-vector with given {index: weight}; remainder on the vacuum."""
    w = np.zeros(16)
    for idx, val in entries.items():
        w[idx] = val
    w[fock.VACUUM] += 1.0 - w.sum()
    return w


class TestSectorSpectrum:
    def test_pure_singlet(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        spec = ent.sector_spectrum(state, number_basis)
        assert abs(spec.weights[fock.SINGLET] - 1.0) < 1e-14
        assert abs(spec.weights).sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(spec.spin_coherence) < 1e-14

    def test_maximally_mixed(self, number_basis):
        spec = ent.sector_spectrum(fock.maximally_mixed_state(), number_basis)
        assert_allclose(spec.weights, np.full(16, 1 / 16.0), atol=1e-14)

    def test_up_down_pair_block(self, number_basis):
        v = np.zeros(16)
        v[4 * 1 + 2] = 1.0  # |up, down>
        state = ssr.nssr_project(fock.pure_state(v))
        spec = ent.sector_spectrum(state, number_basis)
        assert abs(spec.weights[fock.SINGLET] - 0.5) < 1e-14
        assert abs(spec.weights[fock.TRIPLET_ZERO] - 0.5) < 1e-14
        # Table-I sign convention puts the coherence at +1/2
        assert abs(spec.spin_coherence - 0.5) < 1e-14

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            spectrum_from(np.full(16, 0.9 / 16.0))

    def test_rejects_non_finite(self):
        weights = np.full(16, 1 / 16.0)
        with pytest.raises(ValueError, match="finite"):
            spectrum_from(np.where(np.arange(16) == 3, np.nan, weights))
        with pytest.raises(ValueError, match="finite"):
            spectrum_from(weights, spin_coherence=complex(np.nan, 0.0))


class TestSeparabilityChecks:
    def test_balanced_is_separable(self):
        assert ent.is_spin_sector_separable(0.3, 0.3, 0.0, 0.0)

    def test_pure_singlet_entangled(self):
        assert not ent.is_spin_sector_separable(1.0, 0.0, 0.0, 0.0)

    def test_worked_inequality(self):
        assert not ent.is_spin_sector_separable(0.5, 0.1, 0.1, 0.1)

    def test_pair_sector(self):
        assert ent.is_pair_sector_separable(0.25, 0.25, 0.25, 0.25)
        assert not ent.is_pair_sector_separable(0.0, 1.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ent.is_spin_sector_separable(-0.1, 0.4, 0.4, 0.3)


class TestSingletFormula:
    def test_pure_singlet(self):
        res = ent.nssr_entanglement_singlet(spectrum_from(weights_with({fock.SINGLET: 1.0})))
        assert abs(res.value - LN2) < 1e-15
        assert res.variant is ssr.FormulaVariant.NSSR_SINGLET

    def test_balanced_tie_is_zero(self):
        w = weights_with({fock.SINGLET: 0.5, fock.TRIPLET_ZERO: 0.5})
        res = ent.nssr_entanglement_singlet(spectrum_from(w))
        assert res.value == 0.0
        assert_allclose(res.closest_weights, w)

    def test_worked_example(self):
        w = weights_with({fock.SINGLET: 0.5, fock.TRIPLET_ZERO: 0.1,
                          fock.TRIPLET_UP: 0.1, fock.TRIPLET_DOWN: 0.1})
        res = ent.nssr_entanglement_singlet(spectrum_from(w))
        expected = 0.3 * math.log(0.75) + 0.5 * math.log(1.25)
        assert abs(res.value - expected) < 1e-14
        assert res.details["r"] == pytest.approx(0.3)
        assert res.details["t"] == pytest.approx(0.5)
        q = res.closest_weights
        assert q[fock.SINGLET] == pytest.approx(0.4, abs=1e-14)
        assert q[fock.TRIPLET_ZERO] == pytest.approx(2 / 15, abs=1e-14)
        assert q[fock.TRIPLET_UP] == pytest.approx(2 / 15, abs=1e-14)

    def test_swap_branch(self):
        w = weights_with({fock.SINGLET: 0.1, fock.TRIPLET_ZERO: 0.5,
                          fock.TRIPLET_UP: 0.1, fock.TRIPLET_DOWN: 0.1})
        res = ent.nssr_entanglement_singlet(spectrum_from(w))
        expected = 0.3 * math.log(0.75) + 0.5 * math.log(1.25)
        assert abs(res.value - expected) < 1e-14
        assert res.closest_weights[fock.TRIPLET_ZERO] == pytest.approx(0.4, abs=1e-14)

    def test_unbalanced_triplets_rejected(self):
        w = weights_with({fock.SINGLET: 0.5, fock.TRIPLET_UP: 0.2, fock.TRIPLET_DOWN: 0.1})
        with pytest.raises(InsufficientSymmetryError):
            ent.nssr_entanglement_singlet(spectrum_from(w))

    def test_imaginary_coherence_rejected(self):
        w = weights_with({fock.SINGLET: 0.4, fock.TRIPLET_ZERO: 0.4})
        spec = spectrum_from(w, spin_coherence=1e-4j)
        with pytest.raises(InsufficientSymmetryError):
            ent.nssr_entanglement_singlet(spec)

    def test_real_coherence_needs_opt_in(self):
        w = weights_with({fock.SINGLET: 0.4, fock.TRIPLET_ZERO: 0.4})
        spec = spectrum_from(w, spin_coherence=1e-4)
        with pytest.raises(InsufficientSymmetryError):
            ent.nssr_entanglement_singlet(spec)
        res = ent.nssr_entanglement_singlet(spec, twirl_coherence=True)
        assert res.coherence_twirled
        assert res.value == 0.0

    def test_kl_identity(self, rng):
        # closed value equals the KL divergence to the returned weights
        for _ in range(200):
            p = random_weights(rng, "singlet")
            res = ent.nssr_entanglement_singlet(spectrum_from(p))
            q = res.closest_weights
            mask = p > 0
            kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
            assert abs(kl - res.value) < 1e-10


class TestGeneralFormula:
    def test_reduces_to_singlet_case(self, rng):
        for _ in range(300):
            p = random_weights(rng, "singlet")
            if p[list(fock.SPIN_SECTOR)].min() < 1e-9:
                continue
            r1 = ent.nssr_entanglement_singlet(spectrum_from(p))
            r2 = ent.nssr_entanglement_general(spectrum_from(p))
            assert abs(r1.value - r2.value) < 1e-12
            assert np.abs(r1.closest_weights - r2.closest_weights).max() < 1e-12

    def test_separable_input(self):
        w = weights_with({fock.SINGLET: 0.2, fock.TRIPLET_ZERO: 0.1,
                          fock.TRIPLET_UP: 0.3, fock.TRIPLET_DOWN: 0.2})
        res = ent.nssr_entanglement_general(spectrum_from(w))
        assert res.value == 0.0
        assert_allclose(res.closest_weights, w)

    def test_degenerate_sector_raises(self):
        w = weights_with({fock.SINGLET: 0.6, fock.TRIPLET_ZERO: 0.1,
                          fock.TRIPLET_UP: 0.1})
        with pytest.raises(DegenerateSectorError):
            ent.nssr_entanglement_general(spectrum_from(w))

    def test_matches_oracle(self, rng):
        worst = 0.0
        for _ in range(500):
            p = random_weights(rng, "general")
            res = ent.nssr_entanglement_general(spectrum_from(p))
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
            worst = max(worst, abs(res.value - sol.value))
        assert worst < 1e-9


class TestParityFormula:
    def test_pure_singlet(self):
        res = ent.pssr_entanglement(spectrum_from(weights_with({fock.SINGLET: 1.0}),
                                                  variant="parity"))
        assert abs(res.value - LN2) < 1e-15

    def test_odd_doublon_combination(self, parity_basis):
        # (|0,updown> - |updown,0>)/sqrt(2): parity rule sees a pure coherence
        psi = parity_basis.vector(fock.DOUBLE_A)
        state = fock.pure_state(psi)
        res_p = ent.orbital_entanglement(state, "parity")
        assert abs(res_p.value - LN2) < 1e-12
        res_n = ent.orbital_entanglement(state, "number")
        assert res_n.value == 0.0

    def test_matches_oracle(self, rng):
        worst = 0.0
        for _ in range(400):
            p = random_weights(rng, "parity-general")
            res = ent.pssr_entanglement(spectrum_from(p, variant="parity"))
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "parity"))
            worst = max(worst, abs(res.value - sol.value))
        for _ in range(400):
            p = random_weights(rng, "parity-symmetric")
            res = ent.pssr_entanglement(spectrum_from(p, variant="parity"))
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "parity"))
            worst = max(worst, abs(res.value - sol.value))
        assert worst < 1e-9

    def test_number_variant_rejected(self):
        with pytest.raises(ValueError):
            ent.pssr_entanglement(spectrum_from(weights_with({fock.SINGLET: 1.0})))


class TestZeroEntanglementEquivalence:
    def test_zero_iff_separable(self, rng):
        for _ in range(400):
            p = random_weights(rng, "general")
            res = ent.nssr_entanglement_general(spectrum_from(p))
            separable = ent.is_spin_sector_separable(
                p[fock.SINGLET], p[fock.TRIPLET_ZERO], p[fock.TRIPLET_UP], p[fock.TRIPLET_DOWN]
            )
            assert (res.value == 0.0) == separable


class TestBoundaryContinuity:
    def test_entanglement_vanishes_at_the_tie(self):
        values = []
        for eps in np.logspace(-1, -4, 10):
            w = weights_with({
                fock.SINGLET: 0.3 + eps, fock.TRIPLET_ZERO: 0.1,
                fock.TRIPLET_UP: 0.1, fock.TRIPLET_DOWN: 0.1,
            })
            w /= w.sum()
            spec = spectrum_from(w)
            values.append(ent.nssr_entanglement_singlet(spec).value)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-8


class TestClosestSeparableState:
    def test_separable_input_returned(self, rng):
        p = random_weights(rng, "singlet")
        while not ent.is_spin_sector_separable(p[fock.SINGLET], p[fock.TRIPLET_ZERO],
                                               p[fock.TRIPLET_UP], p[fock.TRIPLET_DOWN]):
            p = random_weights(rng, "singlet")
        state = state_from_weights(p)
        sigma = ent.closest_separable_state(state, "number")
        assert_allclose(sigma.matrix, state.matrix, atol=1e-12)

    def test_relative_entropy_reproduces_value(self, rng):
        for _ in range(50):
            p = random_weights(rng, "general")
            state = state_from_weights(p)
            res = ent.orbital_entanglement(state, "number")
            sigma = ent.closest_separable_state(state, "number")
            gap = fock.relative_entropy(ssr.nssr_project(state), sigma)
            assert abs(gap - res.value) < 1e-10

    def test_output_is_ppt_and_sector_feasible(self, rng):
        for _ in range(100):
            p = random_weights(rng, "general")
            sigma = ent.closest_separable_state(state_from_weights(p), "number")
            is_ppt, smallest = oracle.ppt_oracle(sigma)
            assert is_ppt, smallest
            spec_n = ent.sector_spectrum(sigma, "number")
            q = spec_n.weights
            assert q[fock.TRIPLET_UP] * q[fock.TRIPLET_DOWN] + 1e-10 >= (
                (q[fock.SINGLET] - q[fock.TRIPLET_ZERO]) / 2.0) ** 2
            spec_p = ent.sector_spectrum(sigma, "parity")
            qp = spec_p.weights
            assert qp[fock.VACUUM] * qp[fock.FULL] + 1e-10 >= (
                (qp[fock.DOUBLE_A] - qp[fock.DOUBLE_B]) / 2.0) ** 2

    def test_pure_singlet_limit(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        sigma = ent.closest_separable_state(state, "number")
        spec = ent.sector_spectrum(sigma, "number")
        assert spec.weights[fock.SINGLET] == pytest.approx(0.5, abs=1e-12)
        assert fock.relative_entropy(state, sigma) == pytest.approx(LN2, abs=1e-10)

    def test_parity_rule_output_is_ppt(self, rng):
        for _ in range(50):
            p = random_weights(rng, "parity-general")
            # reflection symmetry pairs the single-particle and three-particle
            # vectors; balance them so the formula's symmetry requirement holds
            for i, j in ((1, 2), (3, 4), (11, 12), (13, 14)):
                p[i] = p[j] = (p[i] + p[j]) / 2.0
            p /= p.sum()
            state = state_from_weights(p, "parity")
            sigma = ent.closest_separable_state(state, "parity")
            is_ppt, smallest = oracle.ppt_oracle(sigma)
            assert is_ppt, smallest
            gap = fock.relative_entropy(state, sigma)
            value = ent.pssr_entanglement(ent.SectorSpectrum(p, variant="parity")).value
            assert abs(gap - value) < 1e-10


class TestSsrMonotonicity:
    def test_number_rule_bounds_parity_rule(self, rng):
        for _ in range(150):
            state = random_symmetric_state(rng, ("number", "sz"), reflect=True)
            e_number = ent.orbital_entanglement(state, "number").value
            e_parity = ent.orbital_entanglement(state, "parity").value
            assert e_number <= e_parity + 1e-10


class TestCorrelationMeasures:
    def test_product_state_has_no_correlation(self, rng):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        state = fock.TwoOrbitalState(np.kron(np.diag(a), np.diag(b)))
        assert abs(ent.mutual_information(state)) < 1e-12
        assert abs(ent.classical_correlation(state, "number")) < 1e-10

    def test_singlet_total_correlation(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        assert ent.mutual_information(state) == pytest.approx(2 * LN2, abs=1e-12)

    def test_classical_bounded_by_total(self, rng):
        for _ in range(60):
            state = random_symmetric_state(rng, ("number", "sz"), reflect=True)
            projected = ssr.nssr_project(state)
            total = ent.mutual_information(projected)
            classical = ent.classical_correlation(projected, "number")
            assert total >= -1e-12 and classical >= -1e-12
            assert classical <= total + 1e-9


class TestSeniorityCost:
    def test_diagonal_pairs_cost_nothing(self, rng):
        rdms = []
        for _ in range(4):
            kappa = rng.dirichlet(np.ones(4))
            m = np.zeros((16, 16))
            for k, (a, b) in enumerate(((0, 0), (0, 3), (3, 0), (3, 3))):
                m[4 * a + b, 4 * a + b] = kappa[k]
            rdms.append(fock.TwoOrbitalState(m))
        cost = ent.seniority_cost(rdms)
        assert cost.total == 0.0
        assert not cost.partial

    def test_single_entangled_pair_dominates(self, number_basis):
        singlet = fock.pure_state(number_basis.vector(fock.SINGLET))
        trivial = fock.TwoOrbitalState(np.diag(np.eye(16)[0]))
        cost = ent.seniority_cost([trivial, singlet, trivial])
        assert cost.total == pytest.approx(LN2, abs=1e-12)
        assert cost.per_pair[1] == pytest.approx(LN2, abs=1e-12)

    def test_partial_failures_reported(self, rng, number_basis):
        good = fock.pure_state(number_basis.vector(fock.SINGLET))
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = g @ g.conj().T
        bad = fock.TwoOrbitalState(m / np.trace(m).real)  # no symmetry at all
        cost = ent.seniority_cost([good, bad])
        assert cost.partial
        assert cost.per_pair[1] is None
        assert cost.failures[0][0] == 1
        assert cost.total == pytest.approx(LN2, abs=1e-12)


class TestCoherenceTwirlPath:
    def test_high_level_opt_in(self, rng, number_basis):
        # balanced triplets with a real singlet/triplet coherence: the closed
        # formula refuses unless the caller lets the twirl absorb it
        weights = weights_with({fock.SINGLET: 0.4, fock.TRIPLET_ZERO: 0.2,
                                fock.TRIPLET_UP: 0.1, fock.TRIPLET_DOWN: 0.1})
        v = number_basis.vectors
        m = (v * weights) @ v.conj().T
        b = 0.05
        m = m + b * (np.outer(v[:, fock.SINGLET], v[:, fock.TRIPLET_ZERO])
                     + np.outer(v[:, fock.TRIPLET_ZERO], v[:, fock.SINGLET]))
        state = fock.TwoOrbitalState(m)
        with pytest.raises(InsufficientSymmetryError):
            ent.orbital_entanglement(state, "number")
        res = ent.orbital_entanglement(state, "number", twirl_coherence=True)
        assert res.coherence_twirled
        twirled = ssr.twirl(state, "total_spin")
        res_direct = ent.orbital_entanglement(twirled, "number")
        assert res.value == pytest.approx(res_direct.value, abs=1e-12)


class TestOracleFallback:
    def test_degenerate_sector_falls_back(self):
        w = weights_with({fock.SINGLET: 0.55, fock.TRIPLET_ZERO: 0.05,
                          fock.TRIPLET_UP: 0.12})
        state = state_from_weights(w)
        res = ent.orbital_entanglement(state, "number")
        assert res.method == "oracle"
        assert res.variant is None
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(w, "number"))
        assert res.value == pytest.approx(sol.value, abs=1e-12)

    def test_fallback_is_logged_at_debug(self, caplog):
        w = weights_with({fock.SINGLET: 0.55, fock.TRIPLET_ZERO: 0.05,
                          fock.TRIPLET_UP: 0.12})
        state = state_from_weights(w)
        with caplog.at_level(logging.DEBUG, logger="orbent"):
            ent.orbital_entanglement(state, "number")
        (record,) = [r for r in caplog.records if r.name.startswith("orbent")]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith(f"{ssr.FormulaVariant.NSSR_GENERAL.value} formula refused (")
        with pytest.raises(DegenerateSectorError) as refusal:
            ent.orbital_entanglement(state, "number", fallback_oracle=False)
        assert f"({refusal.value})" in message

    def test_fallback_can_be_disabled(self):
        w = weights_with({fock.SINGLET: 0.55, fock.TRIPLET_ZERO: 0.05,
                          fock.TRIPLET_UP: 0.12})
        with pytest.raises(DegenerateSectorError):
            ent.orbital_entanglement(state_from_weights(w), "number", fallback_oracle=False)

    def test_rounding_level_spin_sector_under_parity_rule(self):
        # as in pair reductions of exchange-even singlets: rounding-level
        # triplet weights beside a rank-deficient doublon sector, which sends
        # the parity rule to the oracle for both sectors
        w = np.zeros(16)
        w[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]] = (
            0.2, 7e-18, 3e-32, 1e-33)
        w[[fock.DOUBLE_A, fock.DOUBLE_B, fock.VACUUM, fock.FULL]] = (0.0, 0.25, 0.1, 0.012)
        w[1:5] = (1.0 - w.sum()) / 4.0
        state = state_from_weights(w, "parity")
        res = ent.orbital_entanglement(state, "parity")
        assert res.method == "oracle"
        assert math.isfinite(res.value)
        assert ent.orbital_entanglement(state, "number").value <= res.value <= LN2


class TestResultWeights:
    @pytest.mark.parametrize("weights, rule, method", [
        ({fock.TRIPLET_UP: 0.3, fock.DOUBLE_A: 0.2}, "number", "classical-mixture"),
        ({fock.SINGLET: 0.5, fock.TRIPLET_ZERO: 0.1, fock.TRIPLET_UP: 0.1,
          fock.TRIPLET_DOWN: 0.1}, "parity", "closed-form"),
        ({fock.SINGLET: 0.55, fock.TRIPLET_ZERO: 0.05, fock.TRIPLET_UP: 0.12},
         "number", "oracle"),
    ])
    def test_result_carries_the_weights_it_was_computed_from(self, weights, rule, method):
        state = state_from_weights(weights_with(weights))
        res = ent.orbital_entanglement(state, rule)
        assert res.method == method
        spectrum = ent.sector_spectrum(ssr.project(state, rule), res.basis_variant)
        assert np.array_equal(res.weights, spectrum.weights)

    @pytest.mark.parametrize("weights, rule, method", [
        ({fock.SINGLET: 0.5, fock.TRIPLET_ZERO: 0.1, fock.TRIPLET_UP: 0.1,
          fock.TRIPLET_DOWN: 0.1}, "number", "closed-form"),
        ({fock.SINGLET: 0.5, fock.TRIPLET_ZERO: 0.1, fock.TRIPLET_UP: 0.1,
          fock.TRIPLET_DOWN: 0.1}, "parity", "closed-form"),
        ({fock.SINGLET: 0.55, fock.TRIPLET_ZERO: 0.05, fock.TRIPLET_UP: 0.12},
         "number", "oracle"),
    ])
    def test_result_carries_the_symmetry_report_it_was_selected_by(self, weights, rule,
                                                                   method):
        state = state_from_weights(weights_with(weights))
        res = ent.orbital_entanglement(state, rule, tol=1e-9)
        assert res.method == method
        assert res.details["symmetries"] == ssr.detect_symmetries(ssr.project(state, rule), 1e-9)


def _row(sectors):
    """Weights with the given spin (and pair) sector entries, in (x, y | u, v)
    order; the remainder on a weight outside both constrained sectors."""
    p = np.zeros(16)
    for roles, entries in zip((fock.SPIN_SECTOR, fock.PAIR_SECTOR), sectors):
        p[list(roles)] = entries
    free = next(i for i in range(16) if i not in fock.SPIN_SECTOR + fock.PAIR_SECTOR)
    p[free] = 1.0 - p.sum()
    return p


_TOL = ssr.DETECTION_TOL
_DEG = ent.DEGENERATE_TOL
#: Weights -1e-12 outside the constrained sectors, which balance within
#: them: the sum is within 1e-10 of one, the clipped sum is not.
_CLIPPED_OFF_SUM = np.where(np.isin(np.arange(16), fock.SPIN_SECTOR + fock.PAIR_SECTOR),
                            (1 + 0.99e-10 + 8e-12) / 8, -1e-12)


class TestClosedFormBatch:
    """``closed_form_batch`` against the scalar front ends, row by row."""

    @staticmethod
    def scalar(p, variant):
        spectrum = ent.SectorSpectrum(p, variant=variant.ssr)
        return ent.entanglement_from_spectrum(spectrum, variant)

    # rows within 1e-12 of the separability boundary or exactly on it in
    # floats, on either side of DEGENERATE_TOL, with a balance just inside
    # the tolerance, at the c = d = 0 corner, and under the parity rule with
    # one sector separable and the other entangled
    EDGE_ROWS = {
        ssr.FormulaVariant.NSSR_SINGLET: [
            _row([(0.125, 0.0625, 0.03125, 0.03125)]),
            _row([(0.2, 0.2, 0.0, 0.0)]),
            _row([(0.2, 0.1, 0.0, 0.0)]),
            # |u - v| == tol in floats: balanced, so the linear test settles it
            _row([(0.2 + 5e-11, 0.2, _TOL, 0.0)]),
            _row([(0.3, 0.1, 0.1 * (1 + 1e-12), 0.1 * (1 + 1e-12))]),
            _row([(0.3, 0.1, 0.1 * (1 - 1e-12), 0.1 * (1 - 1e-12))]),
            _row([(0.4, 0.05, _DEG * (1 + 1e-3), _DEG * (1 + 1e-3))]),
            _row([(0.4, 0.05, _DEG * (1 - 1e-3), _DEG * (1 - 1e-3))]),
            _row([(0.4, 0.05, 0.01 + _TOL * (1 - 1e-6), 0.01)]),
        ],
        ssr.FormulaVariant.NSSR_GENERAL: [
            _row([(0.3, 0.1, 0.05, 0.2 * (1 + 1e-12))]),
            _row([(0.3, 0.1, 0.05, 0.2 * (1 - 1e-12))]),
            _row([(0.4, 0.05, _DEG * (1 + 1e-3), 0.01)]),
            _row([(0.2, 0.2, _DEG * (1 - 1e-3), 0.3)]),  # separable
            _row([(0.125, 0.0625, 0.015625, 0.0625)]),
            _row([(0.2, 0.2, 0.0, 0.0)]),
        ],
        ssr.FormulaVariant.PSSR_GENERAL: [
            _row([(0.2, 0.02, 0.05 + _TOL * (1 - 1e-6), 0.05),
                  (0.3, 0.05, 0.1 + _TOL * (1 - 1e-6), 0.1)]),
            _row([(0.2, 0.02, 0.05 + _TOL * (1 + 1e-6), 0.05),
                  (0.3, 0.05, 0.1 + _TOL * (1 - 1e-6), 0.1)]),
            _row([(0.2, 0.02, 0.05 + _TOL * (1 - 1e-6), 0.05),
                  (0.3, 0.05, 0.1 + _TOL * (1 + 1e-6), 0.1)]),
            _row([(0.2, 0.02, 0.05 + _TOL * (1 + 1e-6), 0.05),
                  (0.3, 0.05, 0.1 + _TOL * (1 + 1e-6), 0.1)]),
            _row([(0.1, 0.3, 0.05, 0.2 * (1 - 1e-12)), (0.1, 0.05, 0.025, 0.025 * (1 + 1e-12))]),
            _row([(0.3, 0.05, _DEG * (1 + 1e-3), 0.01), (0.2, 0.02, 0.02, 0.02)]),
            _row([(0.125, 0.0625, 0.015625, 0.0625), (0.125, 0.0625, 0.03125, 0.03125)]),
            _row([(0.1, 0.1, 0.1, 0.1), (0.3, 0.02, 0.05, 0.05)]),
            _row([(0.3, 0.02, 0.05, 0.04), (0.1, 0.1, 0.1, 0.1)]),
            _row([(0.2, 0.2, 0.0, 0.0), (0.15, 0.15, 0.0, 0.0)]),
            _row([(0.2, 0.1, 0.0, 0.0), (0.15, 0.15, 0.0, 0.0)]),
            _row([(0.2, 0.1, 0.0, 0.0), (0.15 + 5e-11, 0.15, _TOL, 0.0)]),
        ],
    }
    DRAWS = {
        ssr.FormulaVariant.NSSR_SINGLET: ("singlet",),
        ssr.FormulaVariant.NSSR_GENERAL: ("general", "singlet"),
        ssr.FormulaVariant.PSSR_GENERAL: ("parity-general", "parity-symmetric"),
    }

    @pytest.mark.parametrize("variant", list(EDGE_ROWS))
    def test_rows_equal_the_scalar_front_end(self, variant):
        rng = np.random.default_rng(41)
        weights = np.vstack([random_weights(rng, kind, size=100) for kind in self.DRAWS[variant]]
                            + self.EDGE_ROWS[variant])
        values, closest = ent.closed_form_batch(weights, variant)
        assert values.shape == (len(weights),) and closest.shape == weights.shape
        results = [self.scalar(p, variant) for p in weights]
        assert values.tobytes() == np.array([r.value for r in results]).tobytes()
        assert closest.tobytes() == np.array([r.closest_weights for r in results]).tobytes()
        if variant.ssr == "parity":
            # the rows take both parity-rule variants
            assert {r.variant for r in results} == {ssr.FormulaVariant.PSSR_SYMMETRIC,
                                                    ssr.FormulaVariant.PSSR_GENERAL}

    @pytest.mark.parametrize("variant", list(EDGE_ROWS))
    def test_only_entangled_rows_reach_the_sector_solutions(self, variant, monkeypatch):
        # separable rows, those exactly on a boundary included, are settled
        # with no row-by-row solve
        weights = np.vstack(self.EDGE_ROWS[variant])
        entangled = []
        for p in weights:
            details = self.scalar(p, variant).details
            sectors = [details] if "separable" in details else details.values()
            if not all(sector["separable"] for sector in sectors):
                entangled.append(p.tolist())
        assert 0 < len(entangled) < len(weights)
        solved = []
        real = ent._solve

        def spy(p, q, solvers):
            solved.append(p.tolist())
            return real(p, q, solvers)

        monkeypatch.setattr(ent, "_solve", spy)
        ent.closed_form_batch(weights, variant)
        assert solved == entangled

    FAILING_ROWS = [
        (ssr.FormulaVariant.NSSR_SINGLET, _row([(0.4, 0.05, 0.01 + _TOL * (1 + 1e-6), 0.01)])),
        (ssr.FormulaVariant.NSSR_GENERAL, _row([(0.4, 0.05, _DEG * (1 - 1e-3), 0.01)])),
        (ssr.FormulaVariant.PSSR_GENERAL,
         _row([(0.2, 0.02, 0.05, 0.04), (0.3, 0.05, 0.0, 0.1)])),
        (ssr.FormulaVariant.NSSR_GENERAL, np.full(16, 0.9 / 16)),
        (ssr.FormulaVariant.NSSR_SINGLET, np.where(np.arange(16) == 4, -1e-9, 1 / 15 + 1e-9 / 15)),
        (ssr.FormulaVariant.PSSR_GENERAL, np.where(np.arange(16) == 2, np.nan, 1 / 16)),
        # separable, but the clipped weights miss unit sum by 1.07e-10
        (ssr.FormulaVariant.NSSR_SINGLET, _CLIPPED_OFF_SUM),
        (ssr.FormulaVariant.PSSR_GENERAL, _CLIPPED_OFF_SUM),
    ]

    @pytest.mark.parametrize("variant, bad", FAILING_ROWS)
    def test_failing_row_raises_the_scalar_error(self, variant, bad):
        with pytest.raises(Exception) as scalar_error:
            self.scalar(bad, variant)
        rng = np.random.default_rng(5)
        weights = random_weights(rng, self.DRAWS[variant][0], size=6)
        weights[3] = bad
        with pytest.raises(type(scalar_error.value), match=f"^{re.escape(str(scalar_error.value))}$"):
            ent.closed_form_batch(weights, variant)

    def test_first_failing_row_raises(self):
        # a later row that fails an earlier check does not mask the first
        weights = random_weights(np.random.default_rng(6), "general", size=5)
        weights[1] = _row([(0.4, 0.05, _DEG * (1 - 1e-3), 0.01)])
        weights[3] = np.full(16, 0.9 / 16)
        with pytest.raises(DegenerateSectorError):
            ent.closed_form_batch(weights, ssr.FormulaVariant.NSSR_GENERAL)

    def test_shapes(self):
        with pytest.raises(ValueError, match="one row of 16"):
            ent.closed_form_batch(np.full(16, 1 / 16), ssr.FormulaVariant.NSSR_GENERAL)
        values, closest = ent.closed_form_batch(np.empty((0, 16)), ssr.FormulaVariant.NSSR_GENERAL)
        assert values.shape == (0,) and closest.shape == (0, 16)
