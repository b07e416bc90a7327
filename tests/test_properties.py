"""Property tests at the tolerance edges: the closed formulas against the KL
oracle beside the separability boundary and beside ``DEGENERATE_TOL``,
superselection monotonicity, and the oracle's certify-or-refuse contract on
arbitrary sectors.  Derandomized, so every run draws the same examples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbent import entanglement as ent
from orbent import fock, oracle, sampling
from orbent.errors import DegenerateSectorError, OracleConvergenceError

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

#: One electron on orbital A: a weight outside both constrained sectors.
OUTSIDE = 1


def spectrum(sectors: dict) -> np.ndarray:
    """Sector weights in (x, y, u, v) order per sector; the rest of the mass
    sits outside the constrained sectors."""
    p = np.zeros(fock.DIM)
    for roles, sector in sectors.items():
        p[list(roles)] = sector
    p[OUTSIDE] = 1.0 - p.sum()
    return p


@st.composite
def boundary_sectors(draw):
    """A sector within 1e-12 of the separability boundary, on either side."""
    weight = st.floats(1e-6, 0.08)
    y, u, v = draw(weight), draw(weight), draw(weight)
    x = y + 2.0 * math.sqrt(u * v) + draw(st.floats(-1e-12, 1e-12))
    return (y, x, u, v) if draw(st.booleans()) else (x, y, u, v)


@PROPERTY
@given(spin=boundary_sectors(), pair=boundary_sectors(), rule=st.sampled_from(["number", "parity"]))
def test_formula_matches_oracle_beside_the_separability_boundary(spin, pair, rule):
    if rule == "number":
        p = spectrum({fock.SPIN_SECTOR: spin})
        formula = ent.nssr_entanglement_general(ent.SectorSpectrum(p))
    else:
        p = spectrum({fock.SPIN_SECTOR: spin, fock.PAIR_SECTOR: pair})
        formula = ent.pssr_entanglement(ent.SectorSpectrum(p, variant="parity"))
    sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
    assert sol.value >= 0.0
    assert abs(sol.value - formula.value) <= 1e-12


@PROPERTY
@given(x=st.floats(0.3, 0.5), others=st.lists(st.floats(1e-3, 0.1), min_size=3, max_size=3),
       which=st.sampled_from([1, 2, 3]), factor=st.floats(0.5, 2.0))
def test_formula_matches_oracle_beside_the_degeneracy_threshold(x, others, which, factor):
    # one of y, u, v at DEGENERATE_TOL times a factor either side of 1; the
    # sector is entangled, so below the threshold the general formula refuses
    # and its closed solution is checked without that guard
    sector = [x, *others]
    sector[which] = ent.DEGENERATE_TOL * factor
    p = spectrum({fock.SPIN_SECTOR: sector})
    sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, "number"))
    assert sol.value > 0.0
    if min(sector) >= ent.DEGENERATE_TOL:
        value = ent.nssr_entanglement_general(ent.SectorSpectrum(p)).value
    else:
        with pytest.raises(DegenerateSectorError):
            ent.nssr_entanglement_general(ent.SectorSpectrum(p))
        value, _, _ = ent._general_sector_solution(*p[list(fock.SPIN_SECTOR)], degenerate_tol=0.0)
    assert abs(sol.value - value) <= 1e-12


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), doublon=st.floats(0.0, 0.8))
def test_number_rule_never_exceeds_parity_rule(seed, doublon):
    state = sampling.random_symmetric_state(np.random.default_rng(seed), ("number", "sz"),
                                            reflect=True)
    # weight on a local doublon populates the even-parity corner sector,
    # which only the parity rule sees
    parity_basis = fock.build_symmetry_basis("parity")
    corner = fock.pure_state(parity_basis.vector(fock.DOUBLE_A))
    state = fock.TwoOrbitalState((1.0 - doublon) * state.matrix + doublon * corner.matrix)
    e_number = ent.orbital_entanglement(state, "number").value
    e_parity = ent.orbital_entanglement(state, "parity").value
    assert e_number <= e_parity + 1e-12


@PROPERTY
@given(sector=st.lists(st.floats(0.0, 0.25), min_size=4, max_size=4), parity=st.booleans())
def test_oracle_certifies_or_refuses_any_sector(sector, parity):
    # subnormal and zero weights included: a certified value is never
    # negative, and the only other outcome is the typed refusal
    roles, rule = (fock.PAIR_SECTOR, "parity") if parity else (fock.SPIN_SECTOR, "number")
    p = spectrum({roles: sector})
    try:
        sol = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
    except OracleConvergenceError:
        return
    assert sol.value >= 0.0
