"""Property tests at the tolerance edges: the closed formulas against the KL
oracle beside the separability boundary and beside ``DEGENERATE_TOL``,
superselection monotonicity, the twirl's non-increase of entanglement, the
oracle's certify-or-refuse contract on arbitrary sectors, the simplex guard
of the general sector solution and its refusal of a rounding-level closest
weight, the state-file round trip and its rejection of malformed input, and
the Lanczos ground state against dense diagonalization on small chains, the
matrix-free sector operator against the Kronecker-sum construction of the
sector Hamiltonian, and its spin-flip-even product and solve against the
full-space ones.
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbent import cli, fock, lattice, oracle, sampling, ssr, stateio
from orbent import entanglement as ent
from orbent.errors import DegenerateSectorError, OracleConvergenceError, OrbentError

from conftest import kronecker_hamiltonian

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


@st.composite
def boundary_spectra(draw):
    """Weights whose constrained sectors each sit within 1e-12 of the
    separability boundary, on either side, or on it up to rounding; each
    sector's product weights are equal, balanced within twice the detection
    tolerance, or drawn freely."""
    weight = st.floats(1e-6, 0.08)
    sectors = {}
    for roles in (fock.SPIN_SECTOR, fock.PAIR_SECTOR):
        y, u = draw(weight), draw(weight)
        balance = draw(st.sampled_from(["equal", "near", "free"]))
        if balance == "free":
            v = draw(weight)
        else:
            v = u + (draw(st.floats(-2 * ssr.DETECTION_TOL, 2 * ssr.DETECTION_TOL))
                     if balance == "near" else 0.0)
        x = y + 2.0 * math.sqrt(u * v) + draw(st.just(0.0) | st.floats(-1e-12, 1e-12))
        sectors[roles] = (y, x, u, v) if draw(st.booleans()) else (x, y, u, v)
    return spectrum(sectors)


def outcomes_match(batch, scalar, rows) -> bool:
    """Whether ``batch(rows)`` equals ``[scalar(row) for row in rows]``, or,
    when a row fails, raises the first failing row's error."""
    def outcome(call):
        try:
            return "returned", call()
        except (OrbentError, ValueError) as exc:
            return "raised", type(exc), str(exc)

    expected = [outcome(lambda row=row: scalar(row)) for row in rows]
    raised = [o for o in expected if o[0] == "raised"]
    return outcome(lambda: batch(rows)) == (
        raised[0] if raised else ("returned", [value for _, value in expected]))


@PROPERTY
@given(rows=st.lists(boundary_spectra(), min_size=1, max_size=6))
def test_batches_match_their_scalar_paths_beside_the_separability_boundary(rows):
    # the settling passes of both batches decide as the scalar paths do
    rows = np.array(rows)
    for rule in ("number", "parity"):
        assert outcomes_match(
            lambda p: [v.hex() for v in oracle.kl_min_oracle_batch(p, rule).tolist()],
            lambda p: oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule)).value.hex(),
            rows)
    for variant in (ssr.FormulaVariant.NSSR_SINGLET, ssr.FormulaVariant.NSSR_GENERAL,
                    ssr.FormulaVariant.PSSR_GENERAL):
        def scalar(p):
            result = ent.entanglement_from_spectrum(ent.SectorSpectrum(p, variant=variant.ssr),
                                                    variant)
            return result.value.hex(), result.closest_weights.tobytes()

        def batch(p):
            values, closest = ent.closed_form_batch(p, variant)
            return [(v.hex(), q.tobytes()) for v, q in zip(values.tolist(), closest)]

        assert outcomes_match(batch, scalar, rows)


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


@st.composite
def small_chains(draw):
    length = draw(st.integers(4, 6))
    return lattice.ChainSpec(
        length, draw(st.integers(0, length)), draw(st.integers(0, length)),
        u=draw(st.floats(0.0, 8.0)), v=draw(st.floats(0.0, 4.0)),
        boundary=draw(st.sampled_from(["open", "periodic"])),
    )


@PROPERTY
@given(chain=small_chains())
def test_lanczos_ground_state_matches_dense(chain):
    levels = np.linalg.eigvalsh(kronecker_hamiltonian(chain).toarray())
    gs = lattice.ground_state(lattice.build_hamiltonian(chain))
    assert abs(gs.energy - levels[0]) <= 1e-10
    assert gs.residual < lattice.RESIDUAL_TOL
    dense_gap = levels[1] - levels[0] if len(levels) > 1 else math.inf
    # between the two bounds the verdict may go either way at rounding level
    if dense_gap > 1e-6 or dense_gap < 1e-12:
        assert gs.degenerate == (dense_gap < lattice.DEGENERACY_TOL)


@st.composite
def any_chains(draw):
    length = draw(st.integers(2, 8))
    coupling = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))
    return lattice.ChainSpec(
        length, draw(st.integers(0, length)), draw(st.integers(0, length)),
        t_hop=draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
        u=draw(coupling), v=draw(coupling),
        boundary=draw(st.sampled_from(["open", "periodic"])),
    )


@PROPERTY
@given(chain=any_chains(), seed=st.integers(0, 2**32 - 1))
def test_sector_operator_matches_the_kronecker_hamiltonian(chain, seed):
    h = kronecker_hamiltonian(chain)
    operator = lattice.build_hamiltonian(chain)
    assert operator.shape == h.shape
    low, high = operator.interval
    norm = max(-low, high)
    # |x_j| <= 1, so each product entry sums terms whose moduli add up to at
    # most the Gershgorin norm, over at most 2 L + 1 terms in another order
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=h.shape[0])
    out = np.full(h.shape[0], np.nan)
    assert operator.apply(x, out) is out
    assert np.abs(out - h @ x).max() <= 1e-14 * norm
    assert np.array_equal(operator @ x, out)
    # the union of the matrix's Gershgorin discs
    diag = h.diagonal()
    radius = abs(h) @ np.ones(h.shape[0]) - np.abs(diag)
    csr_low, csr_high = float((diag - radius).min()), float((diag + radius).max())
    assert abs(low - csr_low) <= 1e-14 * norm and abs(high - csr_high) <= 1e-14 * norm
    # the matrix stores no zero entry; the operator counts every hopping and diagonal slot
    if chain.t_hop != 0.0 and diag.all():
        assert operator.nnz == h.nnz


@st.composite
def spin_flip_chains(draw, max_length=8):
    """Chains with ``n_up == n_dn``, whose operator has the spin-flip-even product."""
    length = draw(st.integers(2, max_length))
    filling = draw(st.integers(0, length))
    coupling = st.one_of(st.just(0.0), st.floats(-8.0, 8.0))
    return lattice.ChainSpec(
        length, filling, filling,
        t_hop=draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
        u=draw(coupling), v=draw(coupling),
        boundary=draw(st.sampled_from(["open", "periodic"])),
    )


@PROPERTY
@given(chain=spin_flip_chains(), seed=st.integers(0, 2**32 - 1))
def test_even_product_matches_the_full_product(chain, seed):
    operator = lattice._SectorOperator(chain)
    assert operator.spin_flip
    n = math.isqrt(operator.shape[0])
    low, high = operator.interval
    norm = max(-low, high)
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    x = ((a + a.T) / 2.0).ravel()
    out = np.full(n * n, np.nan)
    assert operator.apply_even(x, out) is out
    # halving a subnormal diagonal term rounds in steps of the smallest subnormal
    tiny = np.finfo(float).smallest_subnormal
    assert np.abs(out - operator.apply(x, np.empty_like(x))).max() <= 1e-12 * norm + 4 * tiny
    # a sum and its own transpose: the product never leaves the even sector
    product = out.reshape(n, n)
    assert np.array_equal(product, product.T)


@PROPERTY
@given(chain=spin_flip_chains(max_length=6))
# gaps that the gap run's 1e-8 residual cannot place: 7.5e-11, degenerate,
# and 7.5e-9, not; and a ten-fold t_hop = 0 level with a 7.2e-9 V
@example(chain=lattice.ChainSpec(6, 3, 3, t_hop=1e-5, u=4.0, v=1.0))
@example(chain=lattice.ChainSpec(6, 3, 3, t_hop=1e-4, u=4.0, v=1.0))
@example(chain=lattice.ChainSpec(5, 4, 4, t_hop=0.0, u=7.69, v=7.2e-9, boundary="periodic"))
def test_even_run_solve_matches_dense(chain):
    # the even run, the partner runs (odd ground states included) and the
    # diagonal operators of t_hop = 0 alike, every one solved
    operator = lattice._SectorOperator(chain)
    levels = np.linalg.eigvalsh(kronecker_hamiltonian(chain).toarray())
    gs = lattice.ground_state(operator)
    norm = max(-operator.interval[0], operator.interval[1])
    assert abs(gs.energy - levels[0]) <= 1e-10 * max(1.0, norm)
    dense_gap = levels[1] - levels[0] if len(levels) > 1 else math.inf
    if dense_gap > 1e-6 or dense_gap < 1e-12:
        assert gs.degenerate == (dense_gap < lattice.DEGENERACY_TOL)
    if dense_gap < lattice.DEGENERACY_TOL + lattice.GAP_RITZ_TOL:
        # the partner runs place a small gap to their own residual
        assert abs(gs.energy_gap - dense_gap) <= 1e-12 * max(1.0, norm)
    spread = levels - levels[0]
    if not np.any((spread >= 1e-12) & (spread <= 1e-6)):
        # every level clear of the tolerance: the multiplet is the whole level
        assert len(gs.multiplet) == np.count_nonzero(spread < 1e-12)
