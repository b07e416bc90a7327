"""Exact diagonalization of short Hubbard-type chains and their pair states.

States live in a fixed ``(N_up, N_down)`` sector spanned by per-spin
occupation bitstrings.  The global mode order is species-blocked (all up
modes by ascending site, then all down modes), which keeps every hopping
string within one species; the reduction to an orbital pair converts to the
interleaved per-orbital convention of :mod:`orbent.fock` with explicit
permutation parities.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from . import fock
from .entanglement import EntanglementResult, orbital_entanglement
from .errors import DegenerateGroundStateError, OrbentError
from .fock import TwoOrbitalState

__all__ = [
    "ChainSpec",
    "SectorBasis",
    "GroundState",
    "sector_basis",
    "build_hamiltonian",
    "ground_state",
    "total_spin_expectation",
    "two_orbital_rdm",
    "ground_state_rdm",
    "bond_scan",
    "dimer_analytics",
]

#: Child of the ``orbent`` logger, which has no handlers; its records are
#: DEBUG, below the level stdlib prints without a configured handler.
log = logging.getLogger(__name__)

MAX_SITES = 14
#: Largest sector Hamiltonian, in stored CSR bytes, that a build may start;
#: the build itself peaks at about twice this (measured at L = 12).
MAX_HAMILTONIAN_BYTES = 512 * 2**20
DENSE_CUTOFF = 2000
DEGENERACY_TOL = 1e-10
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ChainSpec:
    """Chain Hamiltonian ``t_hop * H_free + U sum n_up n_dn + V sum n_i n_i+1``.

    ``H_free`` is the nearest-neighbor hopping with the negative sign built
    in, so ``t_hop`` multiplies ``-(f+_i f_i+1 + h.c.)`` summed over bonds.
    """

    length: int
    n_up: int
    n_dn: int
    t_hop: float = 1.0
    u: float = 0.0
    v: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        if not 2 <= self.length <= MAX_SITES:
            raise ValueError(f"chain length must be between 2 and {MAX_SITES}")
        if not (0 <= self.n_up <= self.length and 0 <= self.n_dn <= self.length):
            raise ValueError("particle numbers must fit on the chain")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        pairs = [(s, s + 1) for s in range(self.length - 1)]
        if self.boundary == "periodic" and self.length > 2:
            pairs.append((self.length - 1, 0))
        return tuple(pairs)


@dataclass(frozen=True)
class SectorBasis:
    """Occupation bitstrings of a fixed ``(N_up, N_down)`` sector.

    Bitstrings are ascending integers (bit ``s`` is site ``s``); the combined
    index is ``up_index * len(dn_states) + dn_index``.
    """

    length: int
    up_states: np.ndarray
    dn_states: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.up_states) * len(self.dn_states)

    def index(self, up: int, dn: int) -> int:
        iu = int(np.searchsorted(self.up_states, up))
        idn = int(np.searchsorted(self.dn_states, dn))
        if iu >= len(self.up_states) or self.up_states[iu] != up:
            raise KeyError(f"up bitstring {up:b} not in sector")
        if idn >= len(self.dn_states) or self.dn_states[idn] != dn:
            raise KeyError(f"down bitstring {dn:b} not in sector")
        return iu * len(self.dn_states) + idn


def _states_with_popcount(length: int, count: int) -> np.ndarray:
    all_states = np.arange(1 << length, dtype=np.int64)
    return all_states[np.bitwise_count(all_states) == count]


def sector_basis(length: int, n_up: int, n_dn: int) -> SectorBasis:
    return SectorBasis(
        length=length,
        up_states=_states_with_popcount(length, n_up),
        dn_states=_states_with_popcount(length, n_dn),
    )


def _occupancy(states: np.ndarray, length: int) -> np.ndarray:
    """(n_states, length) array of site occupations."""
    sites = np.arange(length, dtype=np.int64)
    return ((states[:, None] >> sites[None, :]) & 1).astype(np.int8)


def _species_hopping(states: np.ndarray, length: int, bonds) -> sparse.csr_matrix:
    """Single-species operator ``sum_bonds (f+_i f_j + f+_j f_i)`` with JW signs."""
    n = len(states)
    rows, cols, vals = [], [], []
    for i, j in bonds:
        low, high = (i, j) if i < j else (j, i)
        between = ((1 << high) - 1) ^ ((1 << (low + 1)) - 1)
        has_j = (states >> j) & 1 == 1
        empty_i = (states >> i) & 1 == 0
        movable = np.nonzero(has_j & empty_i)[0]
        if len(movable) == 0:
            continue
        source = states[movable]
        target = source ^ ((1 << i) | (1 << j))
        parity = np.bitwise_count(source & between) & 1
        sign = 1.0 - 2.0 * parity
        dest = np.searchsorted(states, target)
        rows.append(dest)
        cols.append(movable)
        vals.append(sign)
    if not rows:
        return sparse.csr_matrix((n, n))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    hop = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return (hop + hop.T).tocsr()


def _hamiltonian_size(k_up: sparse.csr_matrix, k_dn: sparse.csr_matrix) -> tuple[int, int]:
    """Stored entries and CSR bytes of the sector Hamiltonian over these hoppings.

    The two Kronecker terms never overlap (a hopping has no diagonal), and the
    interaction adds the diagonal, so the count is exact unless an entry of
    the sum is zero (``t_hop = 0``, or a zero interaction diagonal entry),
    which the sum does not store.  Below 2**31 entries CSR stores 8-byte
    values and 4-byte column indices and row pointers.
    """
    n_up, n_dn = k_up.shape[0], k_dn.shape[0]
    dim = n_up * n_dn
    nnz = k_up.nnz * n_dn + n_up * k_dn.nnz + dim
    return nnz, 12 * nnz + 4 * (dim + 1)


def _kinetic(chain: ChainSpec, basis: SectorBasis) -> sparse.csr_matrix:
    """Hopping part ``-t (K_up x 1 + 1 x K_dn)``; independent of ``u`` and ``v``.

    Refuses, before any sector-sized allocation, a sector whose Hamiltonian
    would exceed :data:`MAX_HAMILTONIAN_BYTES`.
    """
    bonds = chain.bonds
    k_up = _species_hopping(basis.up_states, chain.length, bonds)
    k_dn = _species_hopping(basis.dn_states, chain.length, bonds)
    nnz, stored = _hamiltonian_size(k_up, k_dn)
    if stored > MAX_HAMILTONIAN_BYTES:
        raise OrbentError(
            f"sector Hamiltonian would store {nnz} nonzeros in {stored / 2**20:.0f} MiB, "
            f"above the {MAX_HAMILTONIAN_BYTES / 2**20:.0f} MiB limit"
        )
    n_up, n_dn = len(basis.up_states), len(basis.dn_states)
    return -chain.t_hop * (
        sparse.kron(k_up, sparse.identity(n_dn, format="csr"), format="csr")
        + sparse.kron(sparse.identity(n_up, format="csr"), k_dn, format="csr")
    )


def build_hamiltonian(chain: ChainSpec, basis: SectorBasis | None = None, *,
                      kinetic: sparse.csr_matrix | None = None) -> sparse.csr_matrix:
    """Sparse real-symmetric Hamiltonian on the sector basis.

    ``kinetic`` is the hopping part built once for a chain that differs from
    ``chain`` at most in ``u`` and ``v`` (as :func:`bond_scan` does); only
    the interaction diagonal is then added to it.
    """
    if basis is None:
        basis = sector_basis(chain.length, chain.n_up, chain.n_dn)
    if kinetic is None:
        kinetic = _kinetic(chain, basis)
    bonds = chain.bonds
    n_up, n_dn = len(basis.up_states), len(basis.dn_states)

    occ_up = _occupancy(basis.up_states, chain.length).astype(np.float64)
    occ_dn = _occupancy(basis.dn_states, chain.length).astype(np.float64)
    diag = np.zeros((n_up, n_dn))
    if chain.u != 0.0:
        diag += chain.u * (occ_up @ occ_dn.T)
    if chain.v != 0.0:
        shift = np.zeros((chain.length, chain.length))
        for i, j in bonds:
            shift[i, j] += 1.0
            shift[j, i] += 1.0
        same_up = np.einsum("ak,kl,al->a", occ_up, shift, occ_up) / 2.0
        same_dn = np.einsum("ak,kl,al->a", occ_dn, shift, occ_dn) / 2.0
        cross = occ_up @ shift @ occ_dn.T
        diag += chain.v * (same_up[:, None] + same_dn[None, :] + cross)
    return (kinetic + sparse.diags(diag.ravel())).tocsr()


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of a sector Hamiltonian.

    ``multiplet`` holds every computed eigenvector within the degeneracy
    tolerance of the lowest energy (the ground vector first).
    """

    energy: float
    amplitudes: np.ndarray
    residual: float
    degenerate: bool
    energy_gap: float
    multiplet: tuple

    def __post_init__(self):
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-12:
            raise ValueError("ground-state amplitudes must be normalized")
        if self.residual > RESIDUAL_TOL:
            raise OrbentError(f"eigensolver residual {self.residual:.3e} too large")


def _lowest_eigenpairs(hamiltonian: sparse.spmatrix, k: int, v0: np.ndarray):
    """The ``k`` lowest eigenpairs by Lanczos, in ascending order."""
    try:
        energies, vectors = sparse_linalg.eigsh(hamiltonian, k=k, which="SA", v0=v0)
    except sparse_linalg.ArpackNoConvergence as exc:
        raise OrbentError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def ground_state(hamiltonian: sparse.spmatrix, *, seed: int = 7,
                 degeneracy_tol: float = DEGENERACY_TOL,
                 dense_cutoff: int = DENSE_CUTOFF) -> GroundState:
    """Lowest eigenpair, dense below ``dense_cutoff``, else Lanczos with fixed seed.

    Lanczos asks for the two lowest eigenpairs, which give the energy, the
    gap and the degeneracy test.  When the test fires, it solves once more
    for the six lowest from the same start vector, so that ``multiplet``
    holds the whole degenerate multiplet (up to six vectors).
    """
    dim = hamiltonian.shape[0]
    if dim <= dense_cutoff:
        energies, vectors = np.linalg.eigh(hamiltonian.toarray())
    else:
        v0 = np.random.default_rng(seed).normal(size=dim)
        v0 /= np.linalg.norm(v0)
        k = min(2, dim - 1)
        energies, vectors = _lowest_eigenpairs(hamiltonian, k, v0)
        if k < min(6, dim - 1) and energies[1] - energies[0] < degeneracy_tol:
            energies, vectors = _lowest_eigenpairs(hamiltonian, min(6, dim - 1), v0)

    e0 = float(energies[0])
    psi = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    residual = float(np.linalg.norm(hamiltonian @ psi - e0 * psi))
    in_multiplet = np.nonzero(energies - e0 < degeneracy_tol)[0]
    gap = float(energies[1] - e0) if len(energies) > 1 else math.inf
    return GroundState(
        energy=e0,
        amplitudes=psi,
        residual=residual,
        degenerate=len(in_multiplet) > 1,
        energy_gap=gap,
        multiplet=tuple(vectors[:, i] / np.linalg.norm(vectors[:, i]) for i in in_multiplet),
    )


def total_spin_expectation(psi: np.ndarray, basis: SectorBasis) -> float:
    """Expectation of the total-spin operator in a fixed-magnetization sector.

    Uses ``S^2 = S- S+ + Sz (Sz + 1)``; the raising term maps into the
    neighboring ``(N_up + 1, N_down - 1)`` sector, so only the raised norm is
    needed.  Zero (within solver noise) certifies a singlet ground state.
    """
    length = basis.length
    n_up = int(np.bitwise_count(basis.up_states[0]))
    n_dn = int(np.bitwise_count(basis.dn_states[0]))
    sz = (n_up - n_dn) / 2.0
    amplitudes = np.asarray(psi).reshape(len(basis.up_states), len(basis.dn_states))

    raised_norm_sq = 0.0
    if n_dn > 0 and n_up < length:
        target = sector_basis(length, n_up + 1, n_dn - 1)
        raised = np.zeros((len(target.up_states), len(target.dn_states)), dtype=complex)
        below = [(1 << site) - 1 for site in range(length)]
        for site in range(length):
            bit = 1 << site
            movable_up = (basis.up_states & bit) == 0
            movable_dn = (basis.dn_states & bit) != 0
            if not movable_up.any() or not movable_dn.any():
                continue
            iu = np.nonzero(movable_up)[0]
            idn = np.nonzero(movable_dn)[0]
            new_up = np.searchsorted(target.up_states, basis.up_states[iu] | bit)
            new_dn = np.searchsorted(target.dn_states, basis.dn_states[idn] & ~bit)
            # string of f+_{i,up} f_{i,down} in species-blocked mode order
            sign_up = 1.0 - 2.0 * (np.bitwise_count(basis.up_states[iu] & below[site]) & 1)
            sign_dn = 1.0 - 2.0 * ((n_up + np.bitwise_count(basis.dn_states[idn] & below[site])) & 1)
            raised[np.ix_(new_up, new_dn)] += (
                (sign_up[:, None] * sign_dn[None, :]) * amplitudes[np.ix_(iu, idn)]
            )
        raised_norm_sq = float(np.vdot(raised, raised).real)
    return raised_norm_sq + sz * (sz + 1.0)


def _remove_bits(states: np.ndarray, positions: tuple[int, int]) -> np.ndarray:
    out = states.copy()
    for pos in sorted(positions, reverse=True):
        high = out >> (pos + 1)
        low = out & ((1 << pos) - 1)
        out = (high << pos) | low
    return out


def _species_reduction_data(states: np.ndarray, i: int, j: int):
    """Per-state kept-bit code, environment rank and extraction sign."""
    below_i = (1 << i) - 1
    below_j = (1 << j) - 1
    bit_i = ((states >> i) & 1).astype(np.int64)
    bit_j = ((states >> j) & 1).astype(np.int64)
    parity = bit_i * np.bitwise_count(states & below_i)
    crossings_j = np.bitwise_count(states & below_j)
    if i < j:
        crossings_j = crossings_j - bit_i
    parity = parity + bit_j * crossings_j
    signs = 1.0 - 2.0 * (parity & 1)
    env = _remove_bits(states, (i, j))
    _, env_rank = np.unique(env, return_inverse=True)
    kept = 2 * bit_i + bit_j
    return kept, env_rank, signs


def _pair_rdm_from_vector(psi: np.ndarray, basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """16x16 reduced matrix of orbitals (i, j) with full fermionic parities."""
    n_up_total = int(np.bitwise_count(basis.up_states[0]))
    ku, env_u, sign_u = _species_reduction_data(basis.up_states, i, j)
    kd, env_d, sign_d = _species_reduction_data(basis.dn_states, i, j)

    # local state code from kept occupations: (0,0)->0, (1,0)->1, (0,1)->2, (1,1)->3
    local = np.array([[0, 2], [1, 3]])
    code_u, code_d = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    u_i, u_j = code_u >> 1, code_u & 1
    d_i, d_j = code_d >> 1, code_d & 1
    kept16 = 4 * local[u_i, d_i] + local[u_j, d_j]
    # down kept operators cross the remaining up modes of the environment
    cross = 1.0 - 2.0 * ((d_i * (n_up_total - u_i) + d_j * (n_up_total - u_i - u_j)) % 2)

    amplitudes = psi.reshape(len(basis.up_states), len(basis.dn_states))
    values = (amplitudes * sign_u[:, None] * sign_d[None, :] * cross[ku[:, None], kd[None, :]])
    rows = kept16[ku[:, None], kd[None, :]]
    n_env_d = int(env_d.max()) + 1
    cols = env_u[:, None] * n_env_d + env_d[None, :]
    collected = sparse.coo_matrix(
        (values.ravel(), (rows.ravel(), cols.ravel())),
        shape=(fock.DIM, (int(env_u.max()) + 1) * n_env_d),
    ).tocsr()
    return (collected @ collected.conj().T).toarray()


def two_orbital_rdm(state: GroundState | np.ndarray, basis: SectorBasis,
                    i: int, j: int, on_degenerate: str = "raise") -> TwoOrbitalState:
    """Reduced two-orbital state of sites ``(i, j)``; site ``i`` becomes A.

    For a degenerate :class:`GroundState` the reduction refuses by default;
    ``on_degenerate="mixture"`` averages over the computed multiplet instead.
    """
    if i == j:
        raise ValueError("kept orbitals must be distinct")
    if not (0 <= i < basis.length and 0 <= j < basis.length):
        raise ValueError("site index out of range")
    if isinstance(state, GroundState):
        if state.degenerate:
            if on_degenerate == "raise":
                raise DegenerateGroundStateError(
                    "ground state is degenerate; request the symmetrized mixture explicitly"
                )
            if on_degenerate != "mixture":
                raise ValueError(f"unknown degeneracy policy {on_degenerate!r}")
            log.debug("averaging the pair state over a degenerate multiplet of %d states",
                      len(state.multiplet))
            matrices = [_pair_rdm_from_vector(v, basis, i, j) for v in state.multiplet]
            return TwoOrbitalState(sum(matrices) / len(matrices))
        vector = state.amplitudes
    else:
        vector = np.asarray(state)
    return TwoOrbitalState(_pair_rdm_from_vector(vector, basis, i, j))


def ground_state_rdm(chain: ChainSpec, i: int, j: int, *, seed: int = 7,
                     on_degenerate: str = "raise") -> TwoOrbitalState:
    """Convenience: chain to ground-state pair reduced density matrix."""
    basis = sector_basis(chain.length, chain.n_up, chain.n_dn)
    gs = ground_state(build_hamiltonian(chain, basis), seed=seed)
    return two_orbital_rdm(gs, basis, i, j, on_degenerate=on_degenerate)


def bond_scan(chain: ChainSpec, u_values, v_values, pivot: int, *, seed: int = 7):
    """Entanglement of the two bonds sharing the pivot site over a (U, V) grid.

    Requires an open chain at half filling with even length.  Returns one row
    per grid point with both bond values; the strong/weak assignment is by
    magnitude, which keeps the scan free of any bond-labeling convention.
    The hopping part does not depend on ``(U, V)``, so it is built once per
    scan and each grid point adds only its interaction diagonal.
    """
    if chain.boundary != "open":
        raise ValueError("bond scans are defined for open chains")
    if chain.length % 2 or chain.n_up != chain.length // 2 or chain.n_dn != chain.length // 2:
        raise ValueError("bond scans require half filling on an even chain")
    if not 1 <= pivot <= chain.length - 2:
        raise ValueError("pivot must have a bond on each side")
    basis = sector_basis(chain.length, chain.n_up, chain.n_dn)
    kinetic = _kinetic(chain, basis)
    rows = []
    for u in np.atleast_1d(u_values):
        for v in np.atleast_1d(v_values):
            point = replace(chain, u=float(u), v=float(v))
            gs = ground_state(build_hamiltonian(point, basis, kinetic=kinetic), seed=seed)
            left = two_orbital_rdm(gs, basis, pivot - 1, pivot)
            right = two_orbital_rdm(gs, basis, pivot, pivot + 1)
            e_left = orbital_entanglement(left, "number").value
            e_right = orbital_entanglement(right, "number").value
            rows.append({
                "u": float(u),
                "v": float(v),
                "e_strong": max(e_left, e_right),
                "e_weak": min(e_left, e_right),
                "delta": abs(e_left - e_right),
                "energy": gs.energy,
            })
    return rows


def dimer_analytics(u: float, v: float = 0.0, t_hop: float = 1.0, rule: str = "number") -> dict:
    """Half-filled two-site chain: exact energy and pair entanglement.

    The analytic ground energy ``(U+V)/2 - sqrt((U-V)^2/4 + 4 t^2)`` of the
    singlet sector cross-checks the numerics.
    """
    chain = ChainSpec(2, 1, 1, t_hop=t_hop, u=u, v=v)
    basis = sector_basis(2, 1, 1)
    gs = ground_state(build_hamiltonian(chain, basis))
    rdm = two_orbital_rdm(gs, basis, 0, 1)
    result: EntanglementResult = orbital_entanglement(rdm, rule)
    analytic = 0.5 * (u + v) - math.sqrt(0.25 * (u - v) ** 2 + 4.0 * t_hop**2)
    return {
        "u": u,
        "v": v,
        "t_hop": t_hop,
        "energy": gs.energy,
        "energy_analytic": analytic,
        "entanglement_nats": result.value,
        "variant": result.variant.value if result.variant else None,
        "method": result.method,
    }
