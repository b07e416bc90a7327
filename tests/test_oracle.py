import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from orbent import fock, oracle, ssr
from orbent.errors import OracleConvergenceError
from orbent.free_fermion import correlation_block, pair_correlation_modes, two_site_rdm
from orbent.sampling import random_separable_symmetric_state, random_weights

LN2 = math.log(2.0)


def slsqp_sector_reference(p4, mass=None):
    """Independent sector solve for cross-checking the bisection path."""
    p = np.asarray(p4, dtype=float)
    mass = p.sum() if mass is None else mass

    def objective(q):
        safe = np.clip(q, 1e-14, None)
        return float(np.sum(np.where(p > 0, p * np.log(np.clip(p, 1e-300, None) / safe), 0.0)))

    constraints = [
        {"type": "eq", "fun": lambda q: q.sum() - mass},
        {"type": "ineq", "fun": lambda q: q[2] * q[3] - ((q[0] - q[1]) / 2.0) ** 2},
    ]
    best = None
    for start in (np.full(4, mass / 4.0), p + mass * 1e-3, np.array([mass, mass, mass, mass]) / 4.0):
        res = minimize(objective, np.clip(start, 1e-9, None), method="SLSQP",
                       bounds=[(0.0, mass)] * 4, constraints=constraints,
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success and (best is None or res.fun < best):
            best = res.fun
    return best


class TestKlMinOracle:
    def test_separable_target_is_fixed_point(self, rng):
        p = random_weights(rng, "singlet")
        while ((p[fock.SINGLET] - p[fock.TRIPLET_ZERO]) / 2.0) ** 2 > (
            p[fock.TRIPLET_UP] * p[fock.TRIPLET_DOWN]
        ):
            p = random_weights(rng, "singlet")
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        assert sol.value == 0.0
        assert_allclose(sol.weights, p, atol=1e-15)

    def test_pure_singlet_corner(self):
        p = np.zeros(16)
        p[fock.SINGLET] = 1.0
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        assert abs(sol.value - LN2) < 1e-14

    def test_never_beaten_by_feasible_points(self, rng):
        for _ in range(20):
            p = random_weights(rng, "general")
            problem = oracle.ConstrainedSimplexProblem(p, "parity")
            sol = oracle.kl_min_oracle(problem)
            found = 0
            while found < 100:
                q = rng.dirichlet(np.ones(16))
                spin_ok = q[fock.TRIPLET_UP] * q[fock.TRIPLET_DOWN] >= (
                    (q[fock.SINGLET] - q[fock.TRIPLET_ZERO]) / 2.0) ** 2
                pair_ok = q[fock.VACUUM] * q[fock.FULL] >= (
                    (q[fock.DOUBLE_A] - q[fock.DOUBLE_B]) / 2.0) ** 2
                if not (spin_ok and pair_ok):
                    continue
                found += 1
                kl = float(np.sum(p[p > 0] * np.log(p[p > 0] / q[p > 0])))
                assert sol.value <= kl + 1e-12

    def test_relabeling_invariance(self, rng):
        for _ in range(50):
            p = random_weights(rng, "parity-general")
            swapped = p.copy()
            swapped[[fock.SINGLET, fock.TRIPLET_ZERO]] = swapped[[fock.TRIPLET_ZERO, fock.SINGLET]]
            swapped[[fock.DOUBLE_A, fock.DOUBLE_B]] = swapped[[fock.DOUBLE_B, fock.DOUBLE_A]]
            a = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "parity"))
            b = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(swapped, "parity"))
            assert abs(a.value - b.value) < 1e-12

    @pytest.mark.parametrize("sector", [
        (0.6, 0.0, 0.0, 0.0),       # lone coherence weight
        (0.5, 0.1, 0.0, 0.0),       # no product mass at all
        (0.5, 0.0, 0.2, 0.0),       # one product weight zero, no partner
        (0.5, 0.1, 0.2, 0.0),       # one product weight zero
        (0.5, 0.1, 0.0, 0.2),       # the mirrored zero
        (0.5, 0.0, 0.15, 0.15),     # zero partner weight, full products
        (0.2, 7e-18, 3e-32, 1e-33),  # rounding-level partner and products
        (0.2, 0.0, 3e-32, 1e-33),   # rounding-level products, no partner
    ])
    def test_degenerate_sectors_match_slsqp(self, sector):
        p = np.zeros(16)
        p[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]] = sector
        p[fock.VACUUM] = 1.0 - p.sum()
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        reference = slsqp_sector_reference(sector)
        assert reference is not None
        assert abs(sol.value - reference) < 1e-6

    @pytest.mark.parametrize("sector", [(0.2, 7e-18, 3e-32, 1e-33), (0.2, 0.0, 3e-32, 1e-33),
                                        (0.2, 1e-10, 1e-17, 1e-17), (0.5, 1e-10, 1e-17, 1e-17),
                                        (0.2, 1e-10, 1e-40, 1e-40),
                                        (0.012721015645750167, 0.003528476416942447,
                                         5.822115654550071e-35, 1.8250210499963147e-40)])
    def test_rounding_level_sectors_match_singlet_formula(self, sector):
        # partner and product weights at rounding level beside the coherence
        # weight: the optimal split q_x - q_y lies below the resolution of q_x
        # in the fifth, and the product weights are 1e-35 beside 1e-2 in the last
        from orbent.entanglement import SectorSpectrum, nssr_entanglement_singlet

        p = np.zeros(16)
        p[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]] = sector
        p[fock.VACUUM] = 1.0 - p.sum()
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        formula = nssr_entanglement_singlet(SectorSpectrum(p))
        assert math.isfinite(sol.value)
        assert abs(sol.value - formula.value) < 1e-12
        # the singlet formula's linear solution is the optimum when u = v and
        # is off by about |u - v| in the product weights otherwise
        products = [fock.TRIPLET_UP, fock.TRIPLET_DOWN]
        if abs(sector[2] - sector[3]) <= 1e-9 * formula.closest_weights[products].min():
            assert_allclose(sol.weights[products], formula.closest_weights[products],
                            rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("rule, roles, rest, seed", [
        ("number", fock.SPIN_SECTOR, fock.VACUUM, 0),
        ("parity", fock.PAIR_SECTOR, 1, 3),
    ], ids=["spin-sector", "pair-sector"])
    def test_rounding_level_sweep_certifies(self, rule, roles, rest, seed):
        # 20,000 sectors with weights scaled by 10^U(-40, 0) and a 1,470-sector
        # grid of rounding-level partner and product weights; the rest of the
        # mass sits outside the constrained sectors (a sector that draws more
        # than unit mass is scaled to unit mass)
        rng = np.random.default_rng(seed)
        drawn = [rng.random(4) * 10.0 ** rng.uniform(-40, 0, 4) for _ in range(20_000)]
        tiny = (1e-40, 1e-35, 1e-30, 1e-25, 1e-20, 1e-17, 1e-15)
        grid = [(x, y, u, v) for x in (0.2, 0.5, 0.9)
                for y in [0.0] + [10.0 ** -n for n in range(18, 9, -1)]
                for u in tiny for v in tiny]
        assert len(grid) == 1470
        refused = []
        for sector in drawn + grid:
            p = np.zeros(16)
            p[list(roles)] = sector
            mass = p.sum()
            if mass > 1.0:
                p /= mass
            p[rest] = max(0.0, 1.0 - p.sum())
            try:
                sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
            except OracleConvergenceError:
                refused.append(tuple(sector))
                continue
            assert sol.value >= 0.0, sector
        assert refused == []

    @pytest.mark.parametrize("sector", [
        (0.3, 0.0, 1e-310, 0.0), (0.3, 0.0, 1e-310, 1e-320), (0.3, 0.1, 5e-324, 0.0),
        (0.3, 0.1, 5e-324, 5e-324), (0.3, 5e-324, 5e-324, 5e-324),
        (0.3, 0.29999999999999993, 1e-300, 1e-300), (0.3, 1e-310, 1e-200, 1e-250),
    ])
    @pytest.mark.parametrize("rule, roles, rest", [
        ("number", fock.SPIN_SECTOR, fock.VACUUM), ("parity", fock.PAIR_SECTOR, 1),
    ], ids=["spin-sector", "pair-sector"])
    def test_subnormal_sectors_certify_or_refuse(self, sector, rule, roles, rest):
        # subnormal weights round the root or the split to zero: a typed
        # refusal is an answer, any other exception is not
        p = np.zeros(16)
        p[list(roles)] = sector
        p[rest] = 1.0 - p.sum()
        try:
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
        except OracleConvergenceError:
            return
        assert sol.value >= 0.0

    def test_zero_weight_under_positive_target_is_not_certified(self, monkeypatch):
        # a solver that drops a rounding-level partner weight returns q_y = 0
        # under p_y > 0: its own residuals pass, but the value is infinite
        solve = oracle._solve_constrained_sector

        def drop_partner(p4):
            x, _, u, v = p4
            return solve((x, 0.0, u, v))

        monkeypatch.setattr(oracle, "_solve_constrained_sector", drop_partner)
        p = np.zeros(16)
        p[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]] = (
            0.2, 7e-18, 3e-32, 1e-33)
        p[fock.VACUUM] = 1.0 - p.sum()
        with pytest.raises(OracleConvergenceError, match="zero weight"):
            oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))

    def test_full_rank_matches_slsqp(self, rng):
        for _ in range(10):
            p = random_weights(rng, "general")
            sector = p[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]]
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
            reference = slsqp_sector_reference(sector)
            if reference is not None:
                assert sol.value <= reference + 1e-7

    def test_residuals_reported(self, rng):
        p = random_weights(rng, "general")
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        assert sol.feasibility_residual <= oracle.FEASIBILITY_TOL
        assert sol.stationarity_residual <= oracle.STATIONARITY_TOL

    def test_near_boundary_and_tiny_weights(self, rng):
        # spectra within eps of the separability boundary, and sectors with
        # weights close to the degeneracy threshold, must still certify
        from orbent.entanglement import SectorSpectrum, nssr_entanglement_general

        for eps in (1e-3, 1e-6, 1e-9):
            p = np.zeros(16)
            base = 0.1
            p[fock.TRIPLET_UP] = p[fock.TRIPLET_DOWN] = base
            p[fock.TRIPLET_ZERO] = 0.05
            p[fock.SINGLET] = 0.05 + 2 * base + eps  # just past the boundary
            p[fock.VACUUM] = 1.0 - p.sum()
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
            formula = nssr_entanglement_general(SectorSpectrum(p))
            assert 0.0 < sol.value < 1e-2
            assert abs(sol.value - formula.value) < 1e-9
            if eps == 1e-9:
                # leading order eps'^2 / m with eps' = eps/2 and m = 0.25 + eps'
                half = eps / 2.0
                assert abs(sol.value - half * half / (0.25 + half)) <= 1e-24
        for tiny in (1e-10, 1e-7):
            p = np.zeros(16)
            p[fock.SINGLET] = 0.5
            p[fock.TRIPLET_ZERO] = tiny
            p[fock.TRIPLET_UP] = 0.1
            p[fock.TRIPLET_DOWN] = tiny
            p[fock.VACUUM] = 1.0 - p.sum()
            sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
            assert sol.value > 0.0
            reference = slsqp_sector_reference(p[[7, 8, 9, 10]])
            if reference is not None:
                assert sol.value <= reference + 1e-6

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            oracle.ConstrainedSimplexProblem(np.full(16, 1.0), "number")
        with pytest.raises(ValueError):
            oracle.ConstrainedSimplexProblem(np.full(16, 1 / 16.0), "charge")
        with pytest.raises(ValueError, match="finite"):
            oracle.ConstrainedSimplexProblem(np.full(16, np.nan), "number")

    def test_uniform_target_feasible(self):
        sol = oracle.kl_min_oracle(
            oracle.ConstrainedSimplexProblem(np.full(16, 1 / 16.0), "parity")
        )
        assert sol.value == 0.0


class TestPptOracle:
    def test_product_state(self, rng):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        state = fock.TwoOrbitalState(np.kron(np.diag(a), np.diag(b)))
        is_ppt, _ = oracle.ppt_oracle(state)
        assert is_ppt

    def test_singlet(self, number_basis):
        state = fock.pure_state(number_basis.vector(fock.SINGLET))
        is_ppt, smallest = oracle.ppt_oracle(state)
        assert not is_ppt
        assert abs(smallest + 0.5) < 1e-12

    def test_twirled_separable_states(self, rng):
        for _ in range(100):
            sigma = random_separable_symmetric_state(rng)
            twirled = ssr.twirl(sigma, "total_spin")
            is_ppt, smallest = oracle.ppt_oracle(twirled)
            assert is_ppt, smallest


class TestWickRdmOracle:
    def test_diagonal_correlations_give_bernoulli_product(self):
        occupations = np.array([0.3, 0.3, 0.7, 0.7])
        state = oracle.wick_rdm_oracle(np.diag(occupations))
        occ = fock.occupation_table(2)
        expected = np.prod(np.where(occ, occupations, 1.0 - occupations), axis=1)
        assert_allclose(np.diag(state.matrix).real, expected, atol=1e-13)
        assert np.abs(state.matrix - np.diag(np.diag(state.matrix))).max() < 1e-13

    def test_zero_inter_site_correlation_is_product(self):
        state = oracle.wick_rdm_oracle(pair_correlation_modes(correlation_block(0.5, 2)))
        rho_a = fock.single_orbital_rdm(state, 0)
        rho_b = fock.single_orbital_rdm(state, 1)
        assert_allclose(state.matrix, np.kron(rho_a, rho_b), atol=1e-12)

    def test_matches_constructive_gaussian(self):
        for eta, distance in ((0.5, 1), (0.25, 3), (0.7, 2)):
            c = pair_correlation_modes(correlation_block(eta, distance))
            direct = two_site_rdm(eta, distance)
            from_wick = oracle.wick_rdm_oracle(c)
            assert np.abs(direct.matrix - from_wick.matrix).max() < 1e-12

    def test_single_mode_densities(self, rng):
        block_up = np.array([[0.42, 0.11], [0.11, 0.38]])
        block_dn = np.array([[0.55, -0.2], [-0.2, 0.61]])
        c = pair_correlation_modes(block_up, block_dn)
        state = oracle.wick_rdm_oracle(c)
        occ = fock.occupation_table(2).astype(float)
        for mode in range(4):
            density = float(np.sum(np.diag(state.matrix).real * occ[:, mode]))
            assert abs(density - c[mode, mode]) < 1e-12

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            oracle.wick_rdm_oracle(np.diag([1.2, 0.5, 0.5, 0.5]))
        bad = np.zeros((4, 4))
        bad[0, 1] = 0.3
        with pytest.raises(ValueError):
            oracle.wick_rdm_oracle(bad)
