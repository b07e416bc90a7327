"""Fermionic Fock space conventions and linear algebra for orbital pairs.

Conventions, fixed once and used everywhere:

* Global fermionic mode order is ``(A-up, A-down, B-up, B-down)``; for a
  system of ``d`` orbitals it generalizes to
  ``(orb0-up, orb0-down, orb1-up, orb1-down, ...)``.
* A single orbital has the four local states ``|0>``, ``|up>``, ``|down>``,
  ``|updown>``, in this order.  The doubly occupied state is
  ``f+_up f+_down |vac>``.
* The product basis of ``d`` orbitals is indexed base-4 with orbital 0 most
  significant; for two orbitals ``index = 4 * (state of A) + (state of B)``.
* Canonical Fock states apply creation operators in global mode order, so
  every Jordan-Wigner sign in the package follows from the two orderings
  above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
import math

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "SUPPORT_CUTOFF",
    "DIM",
    "VACUUM",
    "DOUBLE_A",
    "DOUBLE_B",
    "SINGLET",
    "TRIPLET_ZERO",
    "TRIPLET_UP",
    "TRIPLET_DOWN",
    "FULL",
    "SPIN_SECTOR",
    "PAIR_SECTOR",
    "TwoOrbitalState",
    "SymmetryEigenbasis",
    "occupation_table",
    "annihilation_operators",
    "creation_operators",
    "number_operator",
    "sz_operator",
    "total_spin_operator",
    "orbital_number_operator",
    "build_operator",
    "build_symmetry_basis",
    "reflection_operator",
    "pure_state",
    "maximally_mixed_state",
    "partial_transpose",
    "partial_trace",
    "reduce_to_orbitals",
    "single_orbital_rdm",
    "relative_entropy",
]

# Numerical tolerances (double precision headroom above 16x16 eigensolves).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
SUPPORT_CUTOFF = 1e-14

DIM = 16

#: Occupations (n_up, n_down) of the four local orbital states, in basis order.
LOCAL_OCCUPATIONS = ((0, 0), (1, 0), (0, 1), (1, 1))
_LOCAL_INDEX = {occ: i for i, occ in enumerate(LOCAL_OCCUPATIONS)}

# Indices of the symmetry eigenbasis vectors, named by their physical content.
VACUUM = 0
DOUBLE_A = 5
DOUBLE_B = 6
SINGLET = 7
TRIPLET_ZERO = 8
TRIPLET_UP = 9
TRIPLET_DOWN = 10
FULL = 15

# The two constrained two-qubit sectors, each ordered as (coherence pair x, y |
# product pair u, v) with separability boundary u v >= ((x - y)/2)^2.
#: Single-occupancy sector hosting all spin entanglement.
SPIN_SECTOR = (SINGLET, TRIPLET_ZERO, TRIPLET_UP, TRIPLET_DOWN)
#: Even-parity corner sector hosting pair (doublon) entanglement.
PAIR_SECTOR = (DOUBLE_A, DOUBLE_B, VACUUM, FULL)


@lru_cache(maxsize=None)
def occupation_table(n_orbitals: int = 2) -> np.ndarray:
    """Mode occupations of every product-basis state.

    Returns an ``(4**n_orbitals, 2*n_orbitals)`` int8 array; row ``i`` holds
    the occupations of the global modes for basis index ``i``.
    """
    dim = 4**n_orbitals
    table = np.zeros((dim, 2 * n_orbitals), dtype=np.int8)
    for idx in range(dim):
        rem = idx
        for orb in reversed(range(n_orbitals)):
            n_up, n_dn = LOCAL_OCCUPATIONS[rem % 4]
            table[idx, 2 * orb] = n_up
            table[idx, 2 * orb + 1] = n_dn
            rem //= 4
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def annihilation_operators(n_orbitals: int = 2) -> tuple[np.ndarray, ...]:
    """Jordan-Wigner annihilation matrices for all ``2*n_orbitals`` modes."""
    occ = occupation_table(n_orbitals)
    dim = occ.shape[0]
    n_modes = occ.shape[1]
    # index lookup: occupation row -> basis index
    index_of = {tuple(row): i for i, row in enumerate(occ)}
    ops = []
    for m in range(n_modes):
        a = np.zeros((dim, dim))
        for i, row in enumerate(occ):
            if not row[m]:
                continue
            target = list(row)
            target[m] = 0
            j = index_of[tuple(target)]
            sign = (-1) ** int(row[:m].sum())
            a[j, i] = sign
        a.setflags(write=False)
        ops.append(a)
    return tuple(ops)


def creation_operators(n_orbitals: int = 2) -> tuple[np.ndarray, ...]:
    """Adjoints of :func:`annihilation_operators`."""
    return tuple(a.T.conj() for a in annihilation_operators(n_orbitals))


def number_operator(n_orbitals: int = 2) -> np.ndarray:
    occ = occupation_table(n_orbitals)
    return np.diag(occ.sum(axis=1).astype(float))


def sz_operator(n_orbitals: int = 2) -> np.ndarray:
    occ = occupation_table(n_orbitals)
    sz = 0.5 * (occ[:, 0::2].sum(axis=1) - occ[:, 1::2].sum(axis=1))
    return np.diag(sz.astype(float))


def orbital_number_operator(orbital: int, n_orbitals: int = 2) -> np.ndarray:
    occ = occupation_table(n_orbitals)
    n = occ[:, 2 * orbital] + occ[:, 2 * orbital + 1]
    return np.diag(n.astype(float))


@lru_cache(maxsize=None)
def total_spin_operator(n_orbitals: int = 2) -> np.ndarray:
    """Total-spin operator ``S^2 = S-S+ + Sz^2 + Sz`` with JW-exact matrices."""
    ann = annihilation_operators(n_orbitals)
    dim = ann[0].shape[0]
    s_plus = np.zeros((dim, dim))
    for orb in range(n_orbitals):
        up, dn = ann[2 * orb], ann[2 * orb + 1]
        s_plus = s_plus + up.T @ dn
    sz = sz_operator(n_orbitals)
    s2 = s_plus.T @ s_plus + sz @ sz + sz
    s2.setflags(write=False)
    return s2


def parity_operator(n_orbitals: int = 2) -> np.ndarray:
    occ = occupation_table(n_orbitals)
    return np.diag((-1.0) ** occ.sum(axis=1))


_OPERATOR_BUILDERS = {
    "number": lambda: number_operator(2),
    "sz": lambda: sz_operator(2),
    "total_spin": lambda: total_spin_operator(2),
    "number_a": lambda: orbital_number_operator(0, 2),
    "number_b": lambda: orbital_number_operator(1, 2),
    "parity": lambda: parity_operator(2),
}


def build_operator(tag: str) -> np.ndarray:
    """Named Hermitian observable on the two-orbital space.

    Supported tags: ``number``, ``sz``, ``total_spin``, ``number_a``,
    ``number_b``, ``parity``.
    """
    try:
        builder = _OPERATOR_BUILDERS[tag]
    except KeyError:
        raise ValueError(f"unknown operator tag {tag!r}") from None
    return builder()


@dataclass(frozen=True)
class TwoOrbitalState:
    """Density matrix of two fermionic orbitals in the fixed product basis.

    The matrix must be finite, Hermitian (entrywise within 1e-12), positive
    semidefinite (eigenvalues above -1e-10) and unit trace (within 1e-12);
    ``validate=False`` skips these checks for matrices valid by construction,
    such as pinchings of a validated state.  Instances are immutable and safe
    to share across threads.
    """

    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"expected a {DIM}x{DIM} matrix, got {m.shape}")
        adjoint = m.conj().T
        if self.validate:
            if not np.isfinite(m).all():
                raise ValueError("matrix has non-finite entries")
            # finite entries near the float limit overflow a difference or the
            # sum: the checks below then fail on inf or NaN, with no warning
            with np.errstate(over="ignore", invalid="ignore"):
                if np.abs(m - adjoint).max() > HERMITICITY_TOL:
                    raise ValueError("matrix is not Hermitian within tolerance")
                trace = np.trace(m)
            if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
                raise ValueError("matrix does not have unit trace")
            if np.linalg.eigvalsh(m).min() < -PSD_TOL:
                raise ValueError("matrix is not positive semidefinite within tolerance")
        m = (m + adjoint) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.trace(self.matrix @ operator).real)


def pure_state(vector: np.ndarray) -> TwoOrbitalState:
    """Projector onto a normalized 16-component amplitude vector."""
    v = np.asarray(vector, dtype=complex).reshape(DIM)
    v = v / np.linalg.norm(v)
    return TwoOrbitalState(np.outer(v, v.conj()))


def maximally_mixed_state() -> TwoOrbitalState:
    return TwoOrbitalState(np.eye(DIM) / DIM)


def _basis_vector(index: int) -> np.ndarray:
    v = np.zeros(DIM)
    v[index] = 1.0
    return v


def _product_index(a: int, b: int) -> int:
    return 4 * a + b


@dataclass(frozen=True)
class SymmetryEigenbasis:
    """Sixteen simultaneous symmetry eigenvectors of the two-orbital space.

    ``vectors[:, i]`` is the i-th eigenvector; quantum numbers are stored per
    vector (``nan`` marks numbers left undefined by the parity variant, whose
    doublon vectors are parity but not local-number eigenstates).
    """

    variant: str
    vectors: np.ndarray
    number: np.ndarray
    sz: np.ndarray
    spin: np.ndarray
    number_a: np.ndarray
    number_b: np.ndarray

    def vector(self, index: int) -> np.ndarray:
        return self.vectors[:, index]


@lru_cache(maxsize=None)
def build_symmetry_basis(variant: str = "number") -> SymmetryEigenbasis:
    """Symmetry-adapted eigenbasis of the two-orbital Fock space.

    ``variant="number"`` gives the local-particle-number basis; doubly
    occupied weight sits on the product vectors ``|updown,0>`` and
    ``|0,updown>``.  ``variant="parity"`` replaces those two vectors by their
    odd/even combinations ``(|0,updown> -/+ |updown,0>)/sqrt(2)``, the
    eigenvectors of the orbital-reflection symmetry compatible with the
    parity superselection rule.
    """
    if variant not in ("number", "parity"):
        raise ValueError(f"unknown basis variant {variant!r}")
    sq2 = 1.0 / math.sqrt(2.0)
    # occupation-state indices used below
    i_up_dn = _product_index(1, 2)   # |up, down>
    i_dn_up = _product_index(2, 1)   # |down, up>
    i_d0 = _product_index(3, 0)      # |updown, 0>
    i_0d = _product_index(0, 3)      # |0, updown>

    columns = [None] * DIM
    columns[VACUUM] = _basis_vector(_product_index(0, 0))
    columns[1] = _basis_vector(_product_index(0, 1))    # |0, up>
    columns[2] = _basis_vector(_product_index(1, 0))    # |up, 0>
    columns[3] = _basis_vector(_product_index(0, 2))    # |0, down>
    columns[4] = _basis_vector(_product_index(2, 0))    # |down, 0>
    if variant == "number":
        columns[DOUBLE_A] = _basis_vector(i_d0)
        columns[DOUBLE_B] = _basis_vector(i_0d)
    else:
        columns[DOUBLE_A] = sq2 * (_basis_vector(i_0d) - _basis_vector(i_d0))
        columns[DOUBLE_B] = sq2 * (_basis_vector(i_0d) + _basis_vector(i_d0))
    columns[SINGLET] = sq2 * (_basis_vector(i_up_dn) - _basis_vector(i_dn_up))
    columns[TRIPLET_ZERO] = sq2 * (_basis_vector(i_up_dn) + _basis_vector(i_dn_up))
    columns[TRIPLET_UP] = _basis_vector(_product_index(1, 1))
    columns[TRIPLET_DOWN] = _basis_vector(_product_index(2, 2))
    columns[11] = _basis_vector(_product_index(3, 1))   # |updown, up>
    columns[12] = _basis_vector(_product_index(1, 3))   # |up, updown>
    columns[13] = _basis_vector(_product_index(3, 2))   # |updown, down>
    columns[14] = _basis_vector(_product_index(2, 3))   # |down, updown>
    columns[FULL] = _basis_vector(_product_index(3, 3))

    number = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4], float)
    sz = np.array(
        [0, 0.5, 0.5, -0.5, -0.5, 0, 0, 0, 0, 1, -1, 0.5, 0.5, -0.5, -0.5, 0]
    )
    spin = np.array(
        [0, 0.5, 0.5, 0.5, 0.5, 0, 0, 0, 1, 1, 1, 0.5, 0.5, 0.5, 0.5, 0]
    )
    number_a = np.array([0, 0, 1, 0, 1, 2, 0, 1, 1, 1, 1, 2, 1, 2, 1, 2], float)
    number_b = np.array([0, 1, 0, 1, 0, 0, 2, 1, 1, 1, 1, 1, 2, 1, 2, 2], float)
    if variant == "parity":
        number_a = number_a.copy()
        number_b = number_b.copy()
        number_a[[DOUBLE_A, DOUBLE_B]] = np.nan
        number_b[[DOUBLE_A, DOUBLE_B]] = np.nan

    vectors = np.column_stack(columns)
    for arr in (vectors, number, sz, spin, number_a, number_b):
        arr.setflags(write=False)
    return SymmetryEigenbasis(
        variant=variant,
        vectors=vectors,
        number=number,
        sz=sz,
        spin=spin,
        number_a=number_a,
        number_b=number_b,
    )


@lru_cache(maxsize=None)
def reflection_operator() -> np.ndarray:
    """Fermionic swap of the two orbitals.

    Maps ``|a,b> -> (-1)^(N_a * N_b) |b,a>``; the sign is the parity of
    commuting the B creation string past the A string.
    """
    r = np.zeros((DIM, DIM))
    for a in range(4):
        for b in range(4):
            n_a = sum(LOCAL_OCCUPATIONS[a])
            n_b = sum(LOCAL_OCCUPATIONS[b])
            r[_product_index(b, a), _product_index(a, b)] = (-1.0) ** (n_a * n_b)
    r.setflags(write=False)
    return r


def partial_transpose(state: TwoOrbitalState | np.ndarray) -> np.ndarray:
    """Transpose the B-factor indices of a two-orbital operator.

    Element ``((a,b),(a',b'))`` maps to ``((a,b'),(a',b))``; Hermiticity and
    trace are preserved.
    """
    m = state.matrix if isinstance(state, TwoOrbitalState) else np.asarray(state)
    t = m.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(DIM, DIM)
    return t.copy()


def _extraction_parity(occ_row: np.ndarray, kept_modes: tuple[int, ...]) -> int:
    """Parity of reordering the occupied creation string kept-modes-first."""
    n_modes = len(occ_row)
    rank = {}
    env_rank = len(kept_modes)
    for m in range(n_modes):
        if m in kept_modes:
            rank[m] = kept_modes.index(m)
        else:
            rank[m] = env_rank
            env_rank += 1
    order = [rank[m] for m in range(n_modes) if occ_row[m]]
    inversions = sum(
        1 for x, y in combinations(range(len(order)), 2) if order[x] > order[y]
    )
    return inversions & 1


def reduce_to_orbitals(state: np.ndarray, keep: tuple[int, ...],
                       n_orbitals: int | None = None) -> np.ndarray:
    """Reduced density matrix of an ordered orbital subset.

    Parameters
    ----------
    state:
        Amplitude vector of length ``4**d`` or density matrix of shape
        ``(4**d, 4**d)`` in the product basis of ``d`` orbitals.
    keep:
        Distinct orbital indices to keep; they become the orbitals of the
        reduced system in the order given.
    n_orbitals:
        Number of orbitals ``d``; inferred from the state size by default.

    The fermionic signs from tracing out modes interleaved between the kept
    ones are computed by explicit operator-string parity counting, so the
    kept orbitals may be any ordered subset.
    """
    arr = np.asarray(state, dtype=complex)
    size = arr.shape[0]
    if n_orbitals is None:
        n_orbitals = round(math.log(size, 4))
    if 4**n_orbitals != size:
        raise ValueError("state size is not a power of four")
    if len(set(keep)) != len(keep):
        raise ValueError("kept orbitals must be distinct")
    if not all(0 <= k < n_orbitals for k in keep):
        raise ValueError("kept orbital index out of range")
    n_keep = len(keep)
    if arr.ndim == 1 and n_keep == n_orbitals and keep == tuple(range(n_orbitals)):
        return np.outer(arr, arr.conj())
    if arr.ndim == 2 and n_keep == n_orbitals and keep == tuple(range(n_orbitals)):
        return arr.copy()

    occ = occupation_table(n_orbitals)
    kept_modes = tuple(m for orb in keep for m in (2 * orb, 2 * orb + 1))
    env_mask = np.ones(2 * n_orbitals, dtype=bool)
    env_mask[list(kept_modes)] = False

    dim = occ.shape[0]
    dim_keep = 4**n_keep
    kept_code = np.empty(dim, dtype=np.int64)
    signs = np.empty(dim)
    env_keys = {}
    env_id = np.empty(dim, dtype=np.int64)
    for idx in range(dim):
        row = occ[idx]
        code = 0
        for orb in keep:
            code = 4 * code + _LOCAL_INDEX[(row[2 * orb], row[2 * orb + 1])]
        kept_code[idx] = code
        signs[idx] = (-1.0) ** _extraction_parity(row, kept_modes)
        key = tuple(row[env_mask])
        env_id[idx] = env_keys.setdefault(key, len(env_keys))

    n_env = len(env_keys)
    if arr.ndim == 1:
        t = np.zeros((dim_keep, n_env), dtype=complex)
        t[kept_code, env_id] = signs * arr
        return t @ t.conj().T
    if arr.ndim == 2:
        reduced = np.zeros((dim_keep, dim_keep), dtype=complex)
        order = np.argsort(env_id, kind="stable")
        bounds = np.searchsorted(env_id[order], np.arange(n_env + 1))
        for g in range(n_env):
            members = order[bounds[g]:bounds[g + 1]]
            codes = kept_code[members]
            s = signs[members]
            block = arr[np.ix_(members, members)] * np.outer(s, s)
            reduced[np.ix_(codes, codes)] += block
        return reduced
    raise ValueError("state must be a vector or a square matrix")


def partial_trace(state: np.ndarray, keep: tuple[int, int],
                  n_orbitals: int | None = None) -> TwoOrbitalState:
    """Reduce a d-orbital pure state or density matrix to an orbital pair.

    ``keep = (i, j)`` with distinct indices; orbital ``i`` becomes A.  See
    :func:`reduce_to_orbitals` for the sign conventions.
    """
    if len(keep) != 2:
        raise ValueError("keep must name exactly two orbitals")
    return TwoOrbitalState(reduce_to_orbitals(state, tuple(keep), n_orbitals))


def single_orbital_rdm(state: TwoOrbitalState, orbital: int) -> np.ndarray:
    """4x4 reduced state of one orbital of a two-orbital state.

    Plain partial trace of the product-basis factorization, matching the
    conventions of :func:`partial_transpose` and the separability notion; it
    agrees with the operator-string reduction on every state compatible with
    local parity.
    """
    m = state.matrix.reshape(4, 4, 4, 4)
    if orbital == 0:
        return np.einsum("abcb->ac", m)
    if orbital == 1:
        return np.einsum("abac->bc", m)
    raise ValueError("orbital must be 0 or 1")


def relative_entropy(rho: TwoOrbitalState | np.ndarray, sigma: TwoOrbitalState | np.ndarray) -> float:
    """Quantum relative entropy ``Tr[rho (log rho - log sigma)]`` in nats.

    Returns ``inf`` when the support of ``rho`` is not contained in the
    support of ``sigma``; eigenvalues below :data:`SUPPORT_CUTOFF` count as
    zero, and ``0 log 0`` is zero.
    """
    r = rho.matrix if isinstance(rho, TwoOrbitalState) else np.asarray(rho, dtype=complex)
    s = sigma.matrix if isinstance(sigma, TwoOrbitalState) else np.asarray(sigma, dtype=complex)
    if r.shape != s.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("states must be square matrices of equal dimension")
    lam, u = np.linalg.eigh(r)
    mu, v = np.linalg.eigh(s)
    lam = np.where(lam > SUPPORT_CUTOFF, lam, 0.0)
    mu_supported = mu > SUPPORT_CUTOFF

    overlap = np.abs(u.conj().T @ v) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    kernel_weight = float(lam @ overlap[:, ~mu_supported].sum(axis=1))
    if kernel_weight > 1e-12:
        return math.inf

    entropy_rho = float(np.sum(lam[lam > 0] * np.log(lam[lam > 0])))
    log_mu = np.log(mu[mu_supported])
    cross = float(lam @ overlap[:, mu_supported] @ log_mu)
    return entropy_rho - cross
