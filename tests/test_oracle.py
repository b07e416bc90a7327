import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, minimize

from orbent import fock, oracle, ssr
from orbent.errors import OracleConvergenceError
from orbent.free_fermion import correlation_block, pair_correlation_modes, two_site_rdm
from orbent.sampling import random_separable_symmetric_state, random_weights

LN2 = math.log(2.0)

#: The rounding-level sweep per rule: (rule, sector roles, index of the rest
#: of the mass, seed).
SWEEPS = [("number", fock.SPIN_SECTOR, fock.VACUUM, 0), ("parity", fock.PAIR_SECTOR, 1, 3)]


def sweep_problems(rule, roles, rest, seed):
    """20,000 sectors with weights scaled by 10^U(-40, 0) and a 1,470-sector
    grid of rounding-level partner and product weights; the rest of the mass
    sits outside the constrained sectors (a sector that draws more than unit
    mass is scaled to unit mass)."""
    rng = np.random.default_rng(seed)
    drawn = [rng.random(4) * 10.0 ** rng.uniform(-40, 0, 4) for _ in range(20_000)]
    tiny = (1e-40, 1e-35, 1e-30, 1e-25, 1e-20, 1e-17, 1e-15)
    grid = [(x, y, u, v) for x in (0.2, 0.5, 0.9)
            for y in [0.0] + [10.0 ** -n for n in range(18, 9, -1)]
            for u in tiny for v in tiny]
    assert len(grid) == 1470
    for sector in drawn + grid:
        p = np.zeros(16)
        p[list(roles)] = sector
        mass = p.sum()
        if mass > 1.0:
            p /= mass
        p[rest] = max(0.0, 1.0 - p.sum())
        yield tuple(sector), oracle.ConstrainedSimplexProblem(p, rule)


def scipy_brentq(f, lo, hi):
    """The oracle's root through scipy, with the in-module settings."""
    root, info = brentq(f, lo, hi, xtol=5e-324, rtol=8.9e-16, maxiter=400,
                        full_output=True, disp=False)
    if not info.converged:
        raise OracleConvergenceError(f"sector solve did not converge: {info.flag}")
    return root


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
        # the singlet formula's weights are the optimum's, with u != v too:
        # the last sector's linear split put 6.70e-35 on both product weights
        # where the optimum has 8.56e-35 and 2.74e-35
        weights = [fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]
        assert_allclose(sol.weights[weights], formula.closest_weights[weights], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("rule, roles, rest, seed", SWEEPS, ids=["spin-sector", "pair-sector"])
    def test_rounding_level_sweep_certifies(self, rule, roles, rest, seed):
        refused = []
        for sector, problem in sweep_problems(rule, roles, rest, seed):
            try:
                sol = oracle.kl_min_oracle(problem)
            except OracleConvergenceError:
                refused.append(sector)
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

    @pytest.mark.parametrize("rule, roles, rest, sector", [
        ("parity", fock.PAIR_SECTOR, 1, (0.15271014034383706, 0.004243206452760705,
                                         0.02264821992984262, 0.03512830907341235)),
        ("number", fock.SPIN_SECTOR, fock.VACUUM, (0.16424427228877936, 0.004040263380143776,
                                                   0.049042111371423204, 0.015845537167299712)),
    ])
    def test_a_split_off_by_five_ulps_certifies_at_the_minimum(self, rule, roles, rest, sector):
        # the stored q_x - q_y misses the solve's 2 w by 5 ulps of q_x here:
        # within the rounding of the solve, and the weights are the minimum
        # of an 80-digit KKT solve
        import mpmath

        p = np.zeros(16)
        p[list(roles)] = sector
        p[rest] = 1.0 - p.sum()
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
        assert sol.stationarity_residual < 1e-15
        q = sol.weights[list(roles)]
        with mpmath.workdps(80):
            target = [mpmath.mpf(t) for t in sector]

            def kkt(*point):
                # stationarity of the KL terms plus lam times the gradient of
                # the active boundary w^2 - q_u q_v, and the boundary itself
                qx, qy, qu, qv, lam = point
                w = (qx - qy) / 2
                gradient = (w, -w, -qv, -qu)
                return [1 - t / qi + lam * g for t, qi, g in zip(target, point[:4], gradient)] + [
                    w * w - qu * qv]

            lam = (1 - target[2] / mpmath.mpf(q[2])) / mpmath.mpf(q[3])
            root = mpmath.findroot(kkt, [*map(mpmath.mpf, q), lam])
            # a convex objective on a convex cone: a KKT point with lam > 0 is the minimum
            assert root[4] > 0
            minimum = sum(t * mpmath.log(t / qi) - t + qi for t, qi in zip(target, root[:4]))
            assert_allclose(q, [float(qi) for qi in root[:4]], rtol=1e-14, atol=0.0)
        assert sol.value == pytest.approx(float(minimum), rel=1e-13, abs=0.0)

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


#: Sectors with subnormal weights, which the oracle certifies or refuses.
SUBNORMAL_SECTORS = [
    (0.3, 0.0, 1e-310, 0.0), (0.3, 0.0, 1e-310, 1e-320), (0.3, 0.1, 5e-324, 0.0),
    (0.3, 0.1, 5e-324, 5e-324), (0.3, 5e-324, 5e-324, 5e-324),
    (0.3, 0.29999999999999993, 1e-300, 1e-300), (0.3, 1e-310, 1e-200, 1e-250),
]
#: Rule, sector roles and the index of the rest of the mass, per rule.
SECTOR_RULES = [("number", fock.SPIN_SECTOR, fock.VACUUM), ("parity", fock.PAIR_SECTOR, 1)]


def sector_target(sector, roles, rest):
    """16 target weights: ``sector`` on ``roles``, the rest of the mass at ``rest``."""
    p = np.zeros(16)
    p[list(roles)] = sector
    p[rest] = 1.0 - p.sum()
    return p


def two_sector_target(spin, pair):
    """16 target weights: ``spin`` and ``pair`` on their sectors, the rest of
    the mass on a weight outside both."""
    p = np.zeros(16)
    p[list(fock.SPIN_SECTOR)] = spin
    p[list(fock.PAIR_SECTOR)] = pair
    p[1] = 1.0 - p.sum()
    return p


def scalar_outcome(p, rule):
    """The single-problem oracle's value bits, or its error type and message."""
    try:
        return oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule)).value.hex()
    except (OracleConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


class TestKlMinOracleBatch:
    """``kl_min_oracle_batch`` rows against the single-problem oracle."""

    @pytest.mark.parametrize("rule, roles, rest, seed", SWEEPS, ids=["spin-sector", "pair-sector"])
    def test_rows_match_the_scalar_bits_on_the_sweep(self, rule, roles, rest, seed):
        targets = np.array([problem.target for _, problem in sweep_problems(rule, roles, rest, seed)])
        values = oracle.kl_min_oracle_batch(targets, rule)
        assert [v.hex() for v in values.tolist()] == [scalar_outcome(p, rule) for p in targets]

    @pytest.mark.parametrize("sector", SUBNORMAL_SECTORS)
    @pytest.mark.parametrize("rule, roles, rest", SECTOR_RULES, ids=["spin-sector", "pair-sector"])
    def test_rows_match_the_scalar_outcome_on_subnormal_sectors(self, sector, rule, roles, rest):
        p = sector_target(sector, roles, rest)
        try:
            batch = oracle.kl_min_oracle_batch(p[None], rule)[0].hex()
        except OracleConvergenceError as exc:
            batch = type(exc), str(exc)
        assert batch == scalar_outcome(p, rule)

    @pytest.mark.parametrize("kind, rule", [("singlet", "number"), ("general", "number"),
                                            ("general", "parity"), ("parity-general", "parity"),
                                            ("parity-general", "number")])
    def test_rows_match_the_scalar_bits_on_random_spectra(self, kind, rule, rng):
        targets = random_weights(rng, kind, size=500)
        values = oracle.kl_min_oracle_batch(targets, rule)
        assert [v.hex() for v in values.tolist()] == [scalar_outcome(p, rule) for p in targets]

    def test_first_refused_row_raises_its_scalar_error(self, rng):
        valid = random_weights(rng, "general", size=2)
        refused = sector_target((0.3, 0.0, 1e-310, 0.0), fock.SPIN_SECTOR, fock.VACUUM)
        error, message = scalar_outcome(refused, "number")
        assert error is OracleConvergenceError
        with pytest.raises(OracleConvergenceError) as caught:
            oracle.kl_min_oracle_batch([valid[0], refused, valid[1]], "number")
        assert str(caught.value) == message

    def test_each_entangled_row_goes_through_the_single_problem_oracle(self, rng, monkeypatch):
        # a replaced kl_min_oracle sees every row with an entangled constrained
        # sector, in row order, as a fault injected there must; the separable
        # rows are settled to 0.0 without it
        targets = random_weights(rng, "general", size=20)
        entangled = [any(p[c] * p[d] < ((p[x] - p[y]) / 2.0) ** 2
                         for x, y, c, d in (fock.SPIN_SECTOR, fock.PAIR_SECTOR))
                     for p in targets.tolist()]
        assert 0 < sum(entangled) < len(targets)
        seen = []
        real = oracle.kl_min_oracle

        def spy(problem):
            seen.append((problem.target.tolist(), problem.rule))
            return dataclasses.replace(real(problem), value=1.0)

        monkeypatch.setattr(oracle, "kl_min_oracle", spy)
        values = oracle.kl_min_oracle_batch(targets, "parity")
        assert values.tolist() == [1.0 if e else 0.0 for e in entangled]
        assert seen == [(p.tolist(), "parity") for p, e in zip(targets, entangled) if e]

    #: Parity-rule rows beside the edges of the separability test, as (spin,
    #: pair) sectors in (x, y | c, d) order, and whether each is separable.
    EDGE_ROWS = [
        # c d == ((x - y)/2)^2 exactly, with unbalanced and balanced products
        (((0.125, 0.0625, 0.015625, 0.0625), (0.125, 0.0625, 0.03125, 0.03125)), True),
        # one sector separable, the other entangled
        (((0.1, 0.1, 0.1, 0.1), (0.3, 0.02, 0.05, 0.05)), False),
        (((0.3, 0.02, 0.05, 0.04), (0.1, 0.1, 0.1, 0.1)), False),
        # the c = d = 0 corner: separable only at x == y
        (((0.2, 0.2, 0.0, 0.0), (0.15, 0.15, 0.0, 0.0)), True),
        (((0.2, 0.1, 0.0, 0.0), (0.15, 0.15, 0.0, 0.0)), False),
        (((0.2, 0.2, 0.0, 0.0), (0.0, 0.15, 0.0, 0.0)), False),
    ]

    def test_edge_rows_match_the_scalar_bits(self, monkeypatch):
        targets = np.array([two_sector_target(*sectors) for sectors, _ in self.EDGE_ROWS])
        on_boundary = targets[0].tolist()
        for x, y, c, d in (fock.SPIN_SECTOR, fock.PAIR_SECTOR):
            assert on_boundary[c] * on_boundary[d] == ((on_boundary[x] - on_boundary[y]) / 2.0) ** 2
        expected = {rule: [scalar_outcome(p, rule) for p in targets] for rule in ("number", "parity")}
        solved = []
        real = oracle.kl_min_oracle

        def spy(problem):
            solved.append(problem.target.tolist())
            return real(problem)

        monkeypatch.setattr(oracle, "kl_min_oracle", spy)
        for rule in ("number", "parity"):
            solved.clear()
            values = oracle.kl_min_oracle_batch(targets, rule)
            assert [v.hex() for v in values.tolist()] == expected[rule]
        # under the parity rule, the separable rows, the one on the boundary
        # included, are settled without a scalar solve
        assert solved == [p.tolist() for p, (_, separable) in zip(targets, self.EDGE_ROWS)
                          if not separable]
        assert [v == 0.0 for v in values.tolist()] == [separable for _, separable in self.EDGE_ROWS]

    def test_separable_row_outside_the_feasibility_certificate_raises_in_row_order(self):
        # |sum - 1| = 5e-11 passes the target check but not FEASIBILITY_TOL, so
        # the separable row is not settled: the scalar path refuses it
        off = np.full(16, 1 / 16.0) * (1.0 + 5e-11)
        assert 1e-12 < abs(off.sum() - 1.0) <= 1e-10
        error, message = scalar_outcome(off, "parity")
        assert error is OracleConvergenceError and message.startswith("solution not certified")
        refused = sector_target((0.3, 0.0, 1e-310, 0.0), fock.SPIN_SECTOR, fock.VACUUM)
        entangled = two_sector_target((0.3, 0.02, 0.05, 0.04), (0.1, 0.1, 0.1, 0.1))
        for rows in ([entangled, off, refused], [off, refused], [off]):
            with pytest.raises(OracleConvergenceError) as caught:
                oracle.kl_min_oracle_batch(rows, "parity")
            assert str(caught.value) == message

    def test_fortran_ordered_rows_keep_the_scalar_sums(self):
        # a row whose sum is within FEASIBILITY_TOL of one in the scalar's
        # pairwise order and outside it when added column by column
        rng = np.random.default_rng(3)
        for _ in range(1000):
            row = rng.uniform(0.7, 1.3, 16)
            row /= row.sum()
            row[0] += oracle.FEASIBILITY_TOL
            ulp = math.ulp(row[0])
            rows = [row + np.eye(16)[0] * k * ulp for k in range(-8, 9)]
            sequential = np.asfortranarray(rows).sum(axis=1)
            apart = [k for k, r in enumerate(rows)
                     if abs(r.sum() - 1.0) > oracle.FEASIBILITY_TOL >= abs(sequential[k] - 1.0)]
            if apart:
                break
        assert apart
        chunk = np.asfortranarray([rows[apart[0]]] * 2)
        error, message = scalar_outcome(chunk[0], "number")
        assert error is OracleConvergenceError
        with pytest.raises(OracleConvergenceError, match=re.escape(message)):
            oracle.kl_min_oracle_batch(chunk, "number")

    def test_first_bad_target_raises_its_scalar_error(self, rng):
        valid = random_weights(rng, "general", size=2)
        negative = valid[1].copy()
        negative[[fock.VACUUM, 1]] += (-negative[fock.VACUUM] - 2e-12, negative[fock.VACUUM] + 2e-12)
        error, message = scalar_outcome(negative, "number")
        assert (error, message) == (ValueError, "target must be a probability vector")
        nan_row = np.full(16, np.nan)
        with pytest.raises(ValueError) as caught:
            oracle.kl_min_oracle_batch([valid[0], negative, nan_row], "number")
        assert str(caught.value) == message
        with pytest.raises(ValueError, match="finite"):
            oracle.kl_min_oracle_batch([valid[0], nan_row, negative], "number")

    def test_rejects_what_the_problem_rejects(self, rng):
        valid = random_weights(rng, "general", size=2)
        opposite_infinities = np.full(16, 1 / 16.0)
        opposite_infinities[:2] = (np.inf, -np.inf)  # a NaN sum, refused without a warning
        for rows in ([valid[0], opposite_infinities], [valid[0], np.full(16, 1.0)]):
            with pytest.raises(ValueError) as batch:
                oracle.kl_min_oracle_batch(rows, "number")
            with pytest.raises(ValueError) as scalar:
                oracle.ConstrainedSimplexProblem(rows[1], "number")
            assert str(batch.value) == str(scalar.value)
        with pytest.raises(ValueError, match="unknown superselection rule 'charge'"):
            oracle.kl_min_oracle_batch(valid, "charge")
        # the first row's target check comes before the rule, as for one problem
        with pytest.raises(ValueError, match="probability vector"):
            oracle.kl_min_oracle_batch([np.full(16, 1.0)], "charge")
        with pytest.raises(ValueError, match="rows of 16"):
            oracle.kl_min_oracle_batch(valid[0], "number")
        assert oracle.kl_min_oracle_batch(np.empty((0, 16)), "parity").shape == (0,)

    def test_float_sum_matches_numpy_bits(self, rng):
        rows = rng.random((20_000, 16)) * 10.0 ** rng.uniform(-40, 0, (20_000, 16))
        rows[::3, ::4] = -0.0
        rows[1::3, 5] = 5e-324
        rows[2::3, 2] = -1e-13
        rows[::7] = -0.0
        rows[1::7, :8] = 1e-310
        rows[2::7] /= rows[2::7].sum(axis=1, keepdims=True)
        sums = [oracle._sum16(row).hex() for row in rows.tolist()]
        assert sums == [row.sum().hex() for row in rows]

    def test_signed_zeros_from_the_clip_survive(self):
        p = np.full(16, 1 / 13.0)
        p[[1, 2, 3]] = (-0.0, -5e-13, 0.0)
        p[0] += 5e-13
        clipped = np.clip(p, 0.0, None)
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
        outside = [i for i in range(16) if i not in fock.SPIN_SECTOR]
        assert [w.hex() for w in sol.weights[outside]] == [w.hex() for w in clipped[outside]]
        assert sol.weights.dtype == np.float64


class TestBrentq:
    """The in-module Brent root against scipy's ``brentq``."""

    @pytest.mark.parametrize("rule, roles, rest, seed", SWEEPS, ids=["spin-sector", "pair-sector"])
    def test_matches_scipy_bits_on_the_sweep(self, rule, roles, rest, seed, monkeypatch):
        # every root the oracle takes on the sweep, on its own excess functions
        port = oracle._brentq
        roots = []

        def both(f, lo, hi):
            root = port(f, lo, hi)
            roots.append((root, scipy_brentq(f, lo, hi)))
            return root

        monkeypatch.setattr(oracle, "_brentq", both)
        for _, problem in sweep_problems(rule, roles, rest, seed):
            oracle.kl_min_oracle(problem)
        assert len(roots) > 10_000
        mismatches = [(a, b) for a, b in roots if a.hex() != b.hex()]
        assert mismatches == []

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda t: t * t - 2.0, 0.0, 2.0),
        (lambda t: math.exp(t) - 3.0, -5.0, 5.0),
        (lambda t: (t - 1e-300) * 1e10, 0.0, 1.0),
        (lambda t: t ** 3 - 0.5, -1.0, 2.0),
        (math.sin, 2.0, 4.0),
        # values near 1e-200: the extrapolation's denominator underflows to 0
        (lambda t: 1e-200 * (t ** 3 - 0.5), -1.0, 2.0),
        (lambda t: 1e-300 * (math.exp(t) - 3.0), -5.0, 5.0),
        (lambda t: t - 0.25, 0.25, 1.0),          # f(lo) == 0
        (lambda t: t - 1.0, 0.25, 1.0),           # f(hi) == 0
    ])
    def test_matches_scipy_bits(self, f, lo, hi):
        assert oracle._brentq(f, lo, hi).hex() == scipy_brentq(f, lo, hi).hex()

    def test_spent_budget_keeps_the_message(self):
        # a sign step at 0: bisection from 1 toward 0 needs about 1,075 halvings
        def step(t):
            return 1.0 if t > 0.0 else -1.0

        message = "sector solve did not converge: convergence error"
        with pytest.raises(OracleConvergenceError, match=message):
            scipy_brentq(step, -1.0, 1.0)
        with pytest.raises(OracleConvergenceError, match=message):
            oracle._brentq(step, -1.0, 1.0)

    @pytest.mark.parametrize("f", [lambda t: t + 1.0, lambda t: math.nan,
                                   lambda t: math.nan if t > 0.5 else t - 0.75])
    def test_refuses_a_bracket_without_sign_change_or_a_nan(self, f):
        with pytest.raises(OracleConvergenceError):
            oracle._brentq(f, 0.0, 1.0)


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
