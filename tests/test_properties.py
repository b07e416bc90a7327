"""Property tests at the tolerance edges: the closed formulas against the KL
oracle beside the separability boundary and beside ``DEGENERATE_TOL``,
superselection monotonicity, the twirl's non-increase of entanglement, the
oracle's certify-or-refuse contract on arbitrary sectors, the simplex guard
of the general sector solution and its refusal of a rounding-level closest
weight, and the state-file round trip and its rejection of malformed input.
Derandomized, so every run draws the same examples."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbent import cli, fock, oracle, sampling, ssr, stateio
from orbent import entanglement as ent
from orbent.errors import DegenerateSectorError, OracleConvergenceError, OrbentError

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
@given(seed=st.integers(0, 2**32 - 1), singlet=st.floats(0.0, 1.0))
def test_twirl_never_increases_entanglement(seed, singlet):
    # data processing: E(twirl(rho)) <= S(rho || sigma) for every separable
    # sigma; the tightest one at hand is the closest separable state of the
    # twirled input
    state = sampling.random_separable_symmetric_state(np.random.default_rng(seed))
    v = fock.build_symmetry_basis("number").vector(fock.SINGLET)
    mixed = fock.TwoOrbitalState((1.0 - singlet) * state.matrix + singlet * np.outer(v, v.conj()))
    projected = ssr.nssr_project(mixed)
    twirled = ssr.twirl(projected, "total_spin")
    weights = ent.sector_spectrum(twirled).weights
    e_twirled = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(weights, "number")).value
    sigma = ent.closest_separable_state(twirled, "number")
    assert e_twirled <= fock.relative_entropy(projected, sigma) + 1e-10


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


class _RaisedRoot:
    """``math`` for :mod:`orbent.entanglement` with every square root raised
    by ``shift``; the general sector solution takes one, of its ``C``."""

    log = staticmethod(math.log)

    def __init__(self, shift: float):
        self.shift = shift

    def sqrt(self, x: float) -> float:
        return math.sqrt(x) + self.shift


@PROPERTY
@given(a=st.floats(0.3, 0.6), u=st.floats(0.01, 0.1), v=st.floats(0.01, 0.1),
       factor=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)))
def test_simplex_guard_of_the_general_sector_solution(a, u, v, factor):
    # with y = 0 the smaller coherence-pair weight of the closest state is 0
    # up to rounding (about 1e-16 / (u + v) here); raising the root puts it
    # at -1e-13 * factor, on either side of the guard, which passes weights
    # down to -1e-13
    _, (_, qb, _, _), details = ent._general_sector_solution(a, 0.0, u, v, degenerate_tol=0.0)
    target = -1e-13 * factor
    raised = _RaisedRoot((qb - target) * 4.0 * (details["s"] - a))
    with mock.patch.object(ent, "math", raised):
        if factor > 1.0:
            with pytest.raises(OrbentError, match="left the simplex"):
                ent._general_sector_solution(a, 0.0, u, v, degenerate_tol=0.0)
            return
        value, q, _ = ent._general_sector_solution(a, 0.0, u, v, degenerate_tol=0.0)
    assert min(q) == q[1] and abs(q[1] - target) <= 0.05e-13
    assert value > 0.0


def test_negative_closest_weight_under_a_positive_target_is_degenerate(tmp_path):
    # the raised root puts the closest weight of y = 1e-3 at -5e-14, inside
    # the simplex guard, where log(p/q) is undefined: the formula refuses with
    # the typed error, the oracle fallback answers and the CLI exits 4
    sector = (0.4, 1e-3, 0.02, 0.03)
    _, (_, qb, _, _), details = ent._general_sector_solution(*sector)
    raised = _RaisedRoot((qb + 5e-14) * 4.0 * (details["s"] - sector[0]))
    with mock.patch.object(ent, "math", raised):
        with pytest.raises(DegenerateSectorError):
            ent._general_sector_solution(*sector)

    p = spectrum({fock.SPIN_SECTOR: sector})
    basis = fock.build_symmetry_basis("number")
    state = fock.TwoOrbitalState((basis.vectors * p) @ basis.vectors.conj().T)
    path = Path(tmp_path) / "state.json"
    stateio.save_state(path, state)
    with mock.patch.object(ent, "math", raised):
        result = ent.orbital_entanglement(state, "number")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["formula", str(path)])
    assert result.method == "oracle" and result.value > 0.0
    assert code == cli.EXIT_DEGENERATE_SECTOR, err.getvalue()


@st.composite
def density_matrices(draw):
    """Validated states from a random Ginibre matrix of rank 1 to 16, with
    some entries set to zero of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, fock.DIM))
    g = rng.normal(size=(fock.DIM, rank)) + 1j * rng.normal(size=(fock.DIM, rank))
    zeros = rng.random(g.shape) < draw(st.floats(0.0, 0.9))
    g[zeros] = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 0.0)
    return fock.TwoOrbitalState(m / trace)


@PROPERTY
@given(state=density_matrices())
def test_state_round_trip(state):
    # the first trip keeps every value but may read a -0 component as +0;
    # from the second trip on it keeps the bits
    loaded = stateio.state_from_dict(stateio.state_to_dict(state))
    assert np.array_equal(loaded.matrix, state.matrix)
    again = stateio.state_from_dict(json.loads(json.dumps(stateio.state_to_dict(loaded))))
    assert again.matrix.tobytes() == loaded.matrix.tobytes()


def _corrupt(data: dict, kind: str, where: int, size: float) -> None:
    """Break one property of a valid state document in place; ``size`` > 1
    is by how many times the corruption exceeds its tolerance."""
    i, j = divmod(where, fock.DIM)
    j = (i + 1 + j % (fock.DIM - 1)) % fock.DIM  # off the diagonal
    if kind == "dim":
        data["dim"] = [4, 15, 17, 256, None, "16"][where % 6]
    elif kind == "basis":
        data["basis"] = ["occupation-A↓A↑B↑B↓", "", None][where % 3]
    elif kind == "shape":
        [lambda: data["re"].pop(), lambda: data["im"][i].pop(),
         lambda: data["re"][i].append(0.0)][where % 3]()
    elif kind in ("nan", "inf"):
        data["re" if where % 2 else "im"][i][j] = float(kind) * (-1) ** where
    elif kind == "hermiticity":
        data["re" if where % 2 else "im"][i][j] += fock.HERMITICITY_TOL * size
    elif kind == "trace":
        data["re"][i][i] += fock.TRACE_TOL * size * (-1) ** where
    elif kind == "eigenvalue":
        m = np.array(data["re"]) + 1j * np.array(data["im"])
        values, vectors = np.linalg.eigh(m)
        lowest = np.outer(vectors[:, 0], vectors[:, 0].conj())
        # the lowest eigenvalue to -PSD_TOL * size; the trace moves to the rest
        drop = (values[0] + fock.PSD_TOL * size) * fock.DIM / (fock.DIM - 1)
        m = m - drop * lowest + drop / fock.DIM * np.eye(fock.DIM)
        data["re"], data["im"] = m.real.tolist(), m.imag.tolist()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["dim", "basis", "shape", "nan", "inf", "hermiticity", "trace",
                             "eigenvalue"]),
       where=st.integers(0, fock.DIM**2 - 1), size=st.floats(1.01, 1e6))
def test_malformed_state_is_a_usage_error(seed, kind, where, size):
    data = stateio.state_to_dict(sampling.random_state(np.random.default_rng(seed)))
    _corrupt(data, kind, where, size)
    with pytest.raises(ValueError):
        stateio.state_from_dict(data)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "state.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["formula", str(path)])
    assert code == cli.EXIT_USAGE, err.getvalue()
