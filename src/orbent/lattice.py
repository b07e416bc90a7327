"""Exact diagonalization of short Hubbard-type chains and their pair states.

States live in a fixed ``(N_up, N_down)`` sector spanned by per-spin
occupation bitstrings.  The global mode order is species-blocked (all up
modes by ascending site, then all down modes), which keeps every hopping
string within one species; the reduction to an orbital pair converts to the
interleaved per-orbital convention of :mod:`orbent.fock` with explicit
permutation parities.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

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


def _compiled(name: str):
    """scipy's compiled module ``name``, loaded without its packages' ``__init__``.

    The packages ``scipy.linalg`` and ``scipy.sparse`` take a cold command
    about 0.18 s to import (mostly ``scipy._lib._array_api``, which loads
    ``numpy.f2py``) for the six routines below; their extension files take
    about 5 ms.  A module already in ``sys.modules`` is reused.  Otherwise the
    file is found in scipy's directory, which ``find_spec`` reports without
    running scipy's ``__init__``, and registered under its own name, so a
    later ``import scipy.sparse`` reuses it too.  The functions are the
    package's own, bit for bit.  Where scipy's private layout has no such
    file, the package import runs instead.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    root, *parts = name.split(".")
    for directory in importlib.util.find_spec(root).submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, *parts) + suffix
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
    return importlib.import_module(name)


_fblas = _compiled("scipy.linalg._fblas")
_flapack = _compiled("scipy.linalg._flapack")
daxpy, ddot, dnrm2 = _fblas.daxpy, _fblas.ddot, _fblas.dnrm2
dstebz, dstein = _flapack.dstebz, _flapack.dstein
csr_matvecs = _compiled("scipy.sparse._sparsetools").csr_matvecs

MAX_SITES = 14
#: Largest set of sector vectors, in bytes, that a solve may hold: its Krylov
#: block, ``SOLVE_VECTORS`` and its multiplet.
MAX_HAMILTONIAN_BYTES = 512 * 2**20
#: Bytes of Lanczos vectors a ground run keeps for its Ritz vector, in one
#: block; the steps past it are rebuilt by the three-term recurrence.
LANCZOS_BASIS_BYTES = 16 * 2**20
#: Sector vectors a matrix-free Lanczos solve holds besides its Krylov block
#: and its multiplet, at its peak (the Ritz sum): the start vector, the Ritz
#: sum and its three rebuild vectors, and the operator's diagonal and two
#: buffers.  The even run adds none: its start is made in the block's first
#: row and its product uses one of the two buffers.
SOLVE_VECTORS = 8
DEGENERACY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
#: A converged solve's residual is rounding times the operator's norm (about
#: 1e-15 of its Gershgorin bound, measured); where ``RESIDUAL_TOL`` is below
#: this fraction of the bound, a residual above it is refused as out of reach
#: of these couplings, not as a solver failure.
RESIDUAL_ROUNDING = 1e-12
#: Lanczos stops at these lowest Ritz residuals: the ground run, the gap run.
GROUND_RITZ_TOL = 1e-13
GAP_RITZ_TOL = 1e-8
#: Fractions of the operator's norm bound.  A Ritz residual near rounding
#: times the norm is where a plain Lanczos run loses orthogonality and ghost
#: copies start to mix into the lowest Ritz pair, so no run asks for less
#: than ``ROUNDING_RITZ`` times the norm.  A ``beta`` at or below
#: ``BREAKDOWN_TOL`` times the norm means the Krylov space has closed: what
#: is left is rounding, amplified by the lost orthogonality (2e-11 times the
#: norm on the periodic L = 4 ring at U = 4), while a genuine ``beta`` of the
#: L = 8 chains stays above 0.05 times it.
ROUNDING_RITZ = 1e-15
BREAKDOWN_TOL = 1e-10
LANCZOS_CHECK_EVERY = 10
LANCZOS_MAX_STEPS = 1000


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
        for name in ("t_hop", "u", "v"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

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
    #: Pair-reduction tables by orbital pair, filled by :func:`_pair_tables`.
    _pair_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _species_hopping(states: np.ndarray, length: int, bonds):
    """Single-species operator ``sum_bonds (f+_i f_j + f+_j f_i)`` with JW signs.

    Returns the ``(indptr, indices, data)`` arrays of its canonical CSR form
    (sorted columns, no duplicates), with 4-byte indices.
    """
    n = len(states)
    rows, cols, vals = [], [], []
    for i, j in bonds:
        low, high = (i, j) if i < j else (j, i)
        between = ((1 << high) - 1) ^ ((1 << (low + 1)) - 1)
        has_j = (states >> j) & 1 == 1
        empty_i = (states >> i) & 1 == 0
        movable = np.nonzero(has_j & empty_i)[0]
        source = states[movable]
        target = source ^ ((1 << i) | (1 << j))
        parity = np.bitwise_count(source & between) & 1
        sign = 1.0 - 2.0 * parity
        dest = np.searchsorted(states, target)
        # the hop and its conjugate; two bonds never join the same pair of states
        rows += [dest, movable]
        cols += [movable, dest]
        vals += [sign, sign]
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order].astype(np.int32), vals[order]


def _interaction_diagonal(chain: ChainSpec, occ_up: np.ndarray, occ_dn: np.ndarray) -> np.ndarray:
    """``U sum n_up n_dn + V sum_bonds n_i n_j`` on each basis state, as an (n_up, n_dn) array.

    ``occ_up`` and ``occ_dn`` are the float occupations of :func:`_occupancy`.
    A ``U`` or ``V`` that overflows an entry is refused by name, with no
    numpy warning on the way.
    """
    diag = np.zeros((len(occ_up), len(occ_dn)))
    with np.errstate(over="ignore", invalid="ignore"):
        if chain.u != 0.0:
            diag += chain.u * (occ_up @ occ_dn.T)
        if chain.v != 0.0:
            shift = np.zeros((chain.length, chain.length))
            for i, j in chain.bonds:
                shift[i, j] += 1.0
                shift[j, i] += 1.0
            same_up = np.einsum("ak,kl,al->a", occ_up, shift, occ_up) / 2.0
            same_dn = np.einsum("ak,kl,al->a", occ_dn, shift, occ_dn) / 2.0
            cross = occ_up @ shift @ occ_dn.T
            diag += chain.v * (same_up[:, None] + same_dn[None, :] + cross)
    if not np.isfinite(diag).all():
        raise ValueError(f"U = {chain.u} and V = {chain.v} overflow the interaction diagonal")
    return diag


def _float_occupancy(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    return tuple(_occupancy(states, basis.length).astype(np.float64)
                 for states in (basis.up_states, basis.dn_states))


def _krylov_rows(dim: int) -> int:
    """Rows of the Lanczos block a ground run keeps: ``LANCZOS_BASIS_BYTES`` of them, at least one."""
    return max(1, min(LANCZOS_MAX_STEPS, LANCZOS_BASIS_BYTES // (8 * dim)))


def _check_vectors(dim: int, members: int, subject: str) -> None:
    """Refuse, by ``subject``, a solve whose Krylov block, ``SOLVE_VECTORS`` and
    ``members`` multiplet vectors would exceed :data:`MAX_HAMILTONIAN_BYTES`."""
    vectors = _krylov_rows(dim) + SOLVE_VECTORS + members
    if 8 * dim * vectors > MAX_HAMILTONIAN_BYTES:
        raise OrbentError(f"{subject} needs {vectors} vectors in {8 * dim * vectors / 2**20:.0f} "
                          f"MiB to solve, above the {MAX_HAMILTONIAN_BYTES / 2**20:.0f} MiB limit")


class _SectorOperator:
    """The sector Hamiltonian as ``H X = -t (K_up X + X K_dn^T) + D o X``, with no matrix.

    ``X`` is the ``(n_up, n_dn)`` amplitude array of a sector vector (the
    basis's combined index, row-major), ``K_up`` and ``K_dn`` the species
    hoppings of :func:`_species_hopping` and ``D`` the interaction diagonal
    (Weiße & Fehske, Lect. Notes Phys. 739 (2008), §2-3): the Kronecker sum
    ``-t (K_up x 1 + 1 x K_dn) + diag(D)``, applied without building it.
    The hoppings depend on the chain's geometry and ``t_hop`` only, so
    :meth:`at` reuses them, and the buffers, for another ``(U, V)``.
    :func:`ground_state` solves through ``apply`` and ``interval``, and, when
    ``spin_flip`` holds (``n_up == n_dn``), through ``apply_even`` in the
    spin-flip-even sector ``X = X^T``; when ``is_diagonal`` holds (``t_hop =
    0``) it reads the levels off ``@``'s diagonal instead.  Like a matrix the
    operator also has ``shape`` and ``nnz``.  Refuses, before any
    sector-sized allocation, a sector whose Lanczos solve would hold more
    than :data:`MAX_HAMILTONIAN_BYTES` of vectors.
    """

    def __init__(self, chain: ChainSpec, basis: SectorBasis | None = None):
        if basis is None:
            basis = sector_basis(chain.length, chain.n_up, chain.n_dn)
        # one hopping for both species when n_up == n_dn
        k_up = _species_hopping(basis.up_states, chain.length, chain.bonds)
        k_dn = (k_up if chain.n_up == chain.n_dn
                else _species_hopping(basis.dn_states, chain.length, chain.bonds))
        (up_indptr, _, up_data), (dn_indptr, _, dn_data) = k_up, k_dn
        n_up, n_dn = len(up_indptr) - 1, len(dn_indptr) - 1
        dim = n_up * n_dn
        #: entries of the matrix form: each row's up and down hoppings and its
        #: diagonal slot (a hopping has none), counted where zero too (``t_hop = 0``)
        self.nnz = len(up_data) * n_dn + n_up * len(dn_data) + dim
        _check_vectors(dim, 0, f"sector of {dim} states ({self.nnz} nonzeros)")
        self.shape = (dim, dim)
        self._n = n_up, n_dn
        self._t_hop = chain.t_hop
        self._up, self._dn = ((indptr, indices, -chain.t_hop * data)
                              for indptr, indices, data in (k_up, k_dn))
        #: both species share one hopping, and spin flip is the transpose of ``X``
        self.spin_flip = chain.n_up == chain.n_dn
        #: no hopping, so the unit vectors are eigenvectors
        self.is_diagonal = chain.t_hop == 0.0
        self._degrees = np.diff(up_indptr), np.diff(dn_indptr)
        self._occupancy = _float_occupancy(basis)
        # the transposed input and the transposed diagonal and down hoppings' term
        self._xt, self._yt = np.empty((n_dn, n_up)), np.empty((n_dn, n_up))
        self._set_point(chain)

    def _set_point(self, chain: ChainSpec) -> None:
        """The diagonal and Gershgorin interval of ``chain``'s ``U`` and ``V``.

        The interval is ``D -+ |t_hop| (deg_up + deg_dn)`` over the states.
        Its ends, and the sum of its norm and width that bounds the gap run's
        deflated operator, must be finite; they are refused by name otherwise.
        """
        diag = _interaction_diagonal(chain, *self._occupancy)
        deg_up, deg_dn = self._degrees
        with np.errstate(over="ignore", invalid="ignore"):
            radius = abs(self._t_hop) * (deg_up[:, None] + deg_dn[None, :])
            low, high = float((diag - radius).min()), float((diag + radius).max())
        if not math.isfinite(max(-low, high) + (high - low)):
            raise ValueError(f"t_hop = {chain.t_hop}, U = {chain.u} and V = {chain.v} "
                             "overflow the Hamiltonian's Gershgorin bounds")
        self._diag_t = np.ascontiguousarray(diag.T)
        self.interval = low, high

    def at(self, chain: ChainSpec) -> _SectorOperator:
        """The operator of ``chain``, which differs from this one's at most in ``u`` and ``v``.

        It shares the hoppings and the buffers, so use one operator at a time.
        """
        point = copy.copy(self)
        point._set_point(chain)
        return point

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``H x`` into ``out``, with one kernel call per species.

        On the transposed copy ``X^T``, the first call adds ``K_dn X^T`` to
        ``D^T o X^T`` in a buffer, which is copied back transposed into
        ``out``; the second call adds ``K_up X`` there.  Working in the
        transposed frame first spares zeroing a buffer and a strided sum.
        ``x`` and ``out`` are distinct contiguous float64 sector vectors.
        """
        n_up, n_dn = self._n
        xt, yt = self._xt, self._yt
        np.copyto(xt, x.reshape(n_up, n_dn).T)
        np.multiply(self._diag_t, xt, out=yt)
        csr_matvecs(n_dn, n_dn, n_up, *self._dn, xt, yt)
        np.copyto(out.reshape(n_up, n_dn), yt.T)
        csr_matvecs(n_up, n_up, n_dn, *self._up, x, out)
        return out

    def apply_even(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``H x`` into ``out`` for a spin-flip-even ``x`` (``X = X^T``), with one kernel call.

        With one hopping ``K`` and ``D = D^T`` (``spin_flip``), ``H X = Z +
        Z^T`` for ``Z = D o X / 2 - t K X``.  A buffer receives ``Z``, the
        halved diagonal term and then one kernel call, and ``out`` the sum of
        ``Z`` and its transpose: symmetric bit for bit, so a run started in
        the sector stays there without projection.  Equal to :meth:`apply` on
        such an ``x`` up to rounding.  ``x`` and ``out`` are distinct
        contiguous float64 sector vectors.
        """
        n = self._n[0]
        z = self._yt
        # D is symmetric, so its stored transpose is D
        np.multiply(self._diag_t, x.reshape(n, n), out=z)
        z *= 0.5
        csr_matvecs(n, n, n, *self._up, x, z)
        np.add(z, z.T, out=out.reshape(n, n))
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(np.ascontiguousarray(x, dtype=np.float64).reshape(-1),
                          np.empty(self.shape[0]))


def build_hamiltonian(chain: ChainSpec, basis: SectorBasis | None = None) -> _SectorOperator:
    """The real-symmetric sector Hamiltonian of ``chain``, the input of :func:`ground_state`.

    It is the matrix-free :class:`_SectorOperator`; ``basis`` defaults to the
    chain's ``(N_up, N_down)`` sector.
    """
    return _SectorOperator(chain, basis)


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenpair of a sector Hamiltonian and the verdict on its degeneracy.

    ``degenerate`` says that a level within ``DEGENERACY_TOL`` of ``energy``
    has an eigenvector orthogonal to ``amplitudes``.  ``energy_gap`` is ``E1 -
    E0`` for the lowest level ``E1`` found with such an eigenvector: the
    level above for a gapped state, a partner's, below the tolerance, for a
    degenerate one.  ``matvecs`` counts the products of the
    Lanczos runs and of their Ritz rebuilds past the kept Lanczos block,
    spin-flip-even and full-space alike, up to the verdict (0 for a diagonal
    operator, which is read off; the residual check is not counted).

    ``multiplet`` holds the ground vector, then every other eigenvector found
    within ``DEGENERACY_TOL`` of ``energy``: ``(amplitudes,)`` when the state
    is gapped.  A degenerate state's is found on its first read, by the runs
    that the verdict stopped, and counts against ``MAX_HAMILTONIAN_BYTES``
    there; those products are not in ``matvecs``, and a failed read keeps the
    vectors found for the next.  A single-vector Lanczos run sees only one
    vector of an eigenspace, and its lost orthogonality shows converged
    levels again as ghost copies, so its tridiagonal can say nothing about
    multiplicity (Cullum & Willoughby, *Lanczos Algorithms for Large
    Symmetric Eigenvalue Computations*, 1985): the gap and the multiplet come
    from runs on deflated operators; see :func:`ground_state`.
    """

    energy: float
    amplitudes: np.ndarray
    residual: float
    degenerate: bool
    energy_gap: float
    matvecs: int
    #: builds ``multiplet`` on its first read
    _complete: Callable[[], tuple] = field(repr=False, compare=False)

    def __post_init__(self):
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-12:
            raise ValueError("ground-state amplitudes must be normalized")
        if self.residual > RESIDUAL_TOL:
            raise OrbentError(f"eigensolver residual {self.residual:.3e} too large")

    @cached_property
    def multiplet(self) -> tuple:
        return self._complete()


def _three_term(w, q, q_prev, alpha, beta_prev):
    """``w - alpha q - beta_prev q_prev`` in place: the unnormalized next vector."""
    daxpy(q, w, a=-alpha)
    if beta_prev:
        daxpy(q_prev, w, a=-beta_prev)
    return w


def _tridiagonal_lowest(alphas, betas):
    """Lowest eigenpair of the Lanczos tridiagonal.

    Makes the LAPACK calls of ``eigh_tridiagonal(alphas, betas, select="i",
    select_range=(0, 0))``, bisection (``stebz``) and inverse iteration
    (``stein``), with the same bits and without its argument handling.  Like
    it, a non-finite entry raises ``ValueError``.  LAPACK's squares overflow
    past about 1.3e154, so entries above ``2**500``, and only those, are first
    scaled exactly by a power of two.
    """
    d = np.asarray_chkfinite(alphas, dtype=np.float64)
    e = np.asarray_chkfinite(betas, dtype=np.float64)
    if len(d) == 1:
        return d[0], np.ones(1)
    scale = 1.0
    largest = max(np.abs(d).max(), np.abs(e).max())
    if largest > 2.0**500:
        scale = 2.0 ** math.frexp(largest)[1]
        d, e = d / scale, e / scale
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        s, info = dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise OrbentError(f"tridiagonal eigensolver failed (LAPACK info {info})")
    return w[0] * scale, s[:, 0]


def _lanczos_lowest(apply, start: np.ndarray, tol: float, norm: float,
                    krylov: np.ndarray | None = None):
    """Lowest Ritz pair of a plain Lanczos run, without reorthogonalization.

    Checks the tridiagonal every ``LANCZOS_CHECK_EVERY`` steps and stops when
    the lowest Ritz residual ``|beta_m s_m0|`` is below ``tol`` (at least
    ``ROUNDING_RITZ * norm``, where ``norm`` bounds the operator's norm).  A
    rounding-level ``beta`` means the Krylov space has closed: it bounds every
    Ritz residual, so the run ends there and never divides by it.
    ``apply(x, out)`` writes the product into ``out``.  Row ``k`` of
    ``krylov``, a ``(rows, dim)`` block whose row 0 is ``start``, receives
    the ``k``-th normalized Lanczos vector while ``k < rows``: the product is
    made in that row and normalized there.  Later steps rotate through three
    vectors of their own.  Returns the Ritz value, its coordinates ``s`` in
    the Lanczos basis and the ``alpha`` and ``beta`` that rebuild the vectors
    past the block.
    """
    tol = max(tol, ROUNDING_RITZ * norm)
    floor = max(tol, BREAKDOWN_TOL * norm)
    rows = 0 if krylov is None else len(krylov)
    spare = [np.empty_like(start) for _ in range(3)]
    alphas, betas = [], []
    q, q_prev, beta = start, start, 0.0
    for step in range(1, LANCZOS_MAX_STEPS + 1):
        # the vectors of steps - 1 and - 2 are never spare[step % 3]
        w = apply(q, krylov[step] if step < rows else spare[step % 3])
        alpha = ddot(q, w)
        _three_term(w, q, q_prev, alpha, beta)
        beta = dnrm2(w)
        alphas.append(alpha)
        closed = beta <= floor
        if closed or step % LANCZOS_CHECK_EVERY == 0:
            theta, s = _tridiagonal_lowest(alphas, betas)
            if closed or beta * abs(s[-1]) < tol:
                return float(theta), s, alphas, betas
        betas.append(beta)
        w *= 1.0 / beta
        q_prev, q = q, w
    raise OrbentError(f"eigensolver did not converge in {LANCZOS_MAX_STEPS} Lanczos steps")


def _ritz_vector(apply, krylov: np.ndarray, s: np.ndarray, alphas, betas) -> np.ndarray:
    """Sum ``Q s`` over the Lanczos vectors: the kept rows of ``krylov``, then the rest.

    The vectors past the block are rebuilt by the three-term recurrence from
    its last two rows, with the run's ``alpha`` and ``beta``, so they carry
    the first pass's bits; with one row this is the classic second pass.
    """
    kept = min(len(s), len(krylov))
    x = s[0] * krylov[0]
    for k in range(1, kept):
        daxpy(krylov[k], x, a=s[k])
    q_prev, q = krylov[max(kept - 2, 0)], krylov[kept - 1]
    beta = betas[kept - 2] if kept > 1 else 0.0
    spare = [np.empty_like(x) for _ in range(3)] if kept < len(s) else []
    for k in range(kept, len(s)):
        w = _three_term(apply(q, spare[k % 3]), q, q_prev, alphas[k - 1], beta)
        beta = betas[k - 1]
        w *= 1.0 / beta
        q_prev, q = q, w
        daxpy(q, x, a=s[k])
    return x


def ground_state(hamiltonian: _SectorOperator, *, seed: int = 7) -> GroundState:
    """Lowest eigenpair by Lanczos with a fixed seed, for every sector size.

    A plain three-term Lanczos run (Weiße & Fehske, Lect. Notes Phys. 739
    (2008), §3) from a seeded start finds ``E0`` to a Ritz residual of
    ``GROUND_RITZ_TOL``.  The run keeps its Lanczos vectors in one block of
    at most ``LANCZOS_BASIS_BYTES`` (every step of an L = 8 chain, 33 of an
    L = 10 one) and sums its Ritz vector from them; the steps past the block
    are rebuilt by the recurrence from its last two rows, which repeats
    their products and gives the same bits.  For an operator with
    ``spin_flip`` (``n_up == n_dn``), the run and the rebuild stay in the
    spin-flip-even sector, which holds the singlet ground states: they start
    from the even part of the seeded start and make each product with
    ``apply_even``, one kernel call instead of two, and even bit for bit.
    The gap comes from a one-pass run, in the full space, from an
    independent seeded start on ``H + s psi psi^T``, where ``s`` is a
    Gershgorin bound of the spectral width: the shift lifts ``psi`` above the
    spectrum and leaves every other level, so the lowest Ritz value of that
    run, to a residual of ``GAP_RITZ_TOL``, is ``E1``.  A degenerate partner
    of ``psi``, odd ones included, stays at ``E0`` there.

    Below ``E1 - E0 = DEGENERACY_TOL + GAP_RITZ_TOL``, which a Ritz value
    within its residual of a level cannot rule out, partner runs on ``H + s
    sum v v^T`` over every vector ``v`` found so far settle the verdict: in
    the full space, from fresh seeded starts, to ``GROUND_RITZ_TOL`` with the
    ground run's Krylov block and Ritz rebuild.  A level above the lowest
    found by ``DEGENERACY_TOL`` or more is ``E1``.  A level below it by more
    adds its Ritz vector, orthogonalized against the others, and the runs go
    on; a spin-flip-odd ground state comes out the same way.  The first level
    within ``DEGENERACY_TOL`` of the lowest adds its vector and settles the
    verdict, degenerate: the solve returns there, holding no Krylov block,
    and the first read of ``GroundState.multiplet`` resumes the runs until a
    level lies above or the vectors fill the sector.  A diagonal operator
    (``is_diagonal``: ``t_hop = 0``) makes no run: its levels are its sorted
    diagonal, exactly, and its multiplet, made on that read, the unit
    vectors at the lowest one.

    ``hamiltonian`` is the operator of :func:`build_hamiltonian`; anything
    else, a sparse matrix included, is refused with a ``TypeError``.  Every
    product the runs make is its ``apply`` (or ``apply_even``) into a vector
    the run owns, and the solver's norm bounds come from its Gershgorin
    ``interval``.  The residual check is one full-space product, its norm
    taken by ``dnrm2``, which scales and so never overflows.
    """
    if not isinstance(hamiltonian, _SectorOperator):
        raise TypeError(f"ground_state takes the sector operator of build_hamiltonian, "
                        f"not a {type(hamiltonian).__name__}")
    dim = hamiltonian.shape[0]
    matvecs = 0
    if hamiltonian.is_diagonal:
        diagonal = hamiltonian @ np.ones(dim)
        order = np.argsort(diagonal, kind="stable")
        levels = diagonal[order]
        psi = np.zeros(dim)
        psi[order[0]] = 1.0

        def complete():
            _check_vectors(dim, members, f"a ground multiplet of {members} states")
            partners = np.zeros((members - 1, dim))
            partners[np.arange(members - 1), order[1:members]] = 1.0
            return (psi, *partners)
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=dim)
        v0 /= np.linalg.norm(v0)
        low, high = hamiltonian.interval
        norm, width = max(-low, high), high - low

        def counted(product):
            def apply(x, out):
                nonlocal matvecs
                matvecs += 1
                return product(x, out)

            return apply

        apply = ground_apply = counted(hamiltonian.apply)
        krylov = np.empty((_krylov_rows(dim), dim))
        start = krylov[0]
        if hamiltonian.spin_flip:
            # the even part X + X^T of v0, normalized
            n = math.isqrt(dim)
            x = v0.reshape(n, n)
            np.add(x, x.T, out=start.reshape(n, n))
            start /= np.linalg.norm(start)
            ground_apply = counted(hamiltonian.apply_even)
        else:
            start[:] = v0
        e0, s, alphas, betas = _lanczos_lowest(ground_apply, start, GROUND_RITZ_TOL, norm, krylov)
        psi = _ritz_vector(ground_apply, krylov, s, alphas, betas)
        del krylov, start  # freed before the gap run, which keeps no basis
        psi /= np.linalg.norm(psi)
        found, vectors = [e0], [psi]

        def apply_deflated(x, out):
            apply(x, out)
            for v in vectors:
                daxpy(v, out, a=width * ddot(v, x))
            return out

        level = math.inf
        if dim > 1:
            v1 = rng.normal(size=dim)
            v1 /= np.linalg.norm(v1)
            level = _lanczos_lowest(apply_deflated, v1, GAP_RITZ_TOL, norm + width)[0]

        def partner_runs():
            """Partner runs up to the next vector within ``DEGENERACY_TOL`` of the lowest level,
            or to the level above them (``inf`` for a full sector), which ends ``found``."""
            while len(vectors) < dim:
                krylov = np.empty((_krylov_rows(dim), dim))
                krylov[0] = rng.normal(size=dim)
                krylov[0] /= np.linalg.norm(krylov[0])
                level, s, alphas, betas = _lanczos_lowest(apply_deflated, krylov[0],
                                                          GROUND_RITZ_TOL, norm + width, krylov)
                lowest = min(found)
                if level - lowest >= DEGENERACY_TOL:
                    found.append(level)
                    return
                _check_vectors(dim, len(vectors) + 1, f"a ground multiplet of over {len(vectors)} states")
                partner = _ritz_vector(apply_deflated, krylov, s, alphas, betas)
                for v in vectors:
                    daxpy(v, partner, a=-ddot(v, partner))
                partner /= np.linalg.norm(partner)
                found.append(level)
                vectors.append(partner)
                if level > lowest - DEGENERACY_TOL:
                    return
            found.append(math.inf)

        if level - e0 < DEGENERACY_TOL + GAP_RITZ_TOL:
            partner_runs()  # to the verdict
        else:
            found.append(level)

        first = int(np.argmin(found))
        levels, psi = np.sort(found), vectors[first] / np.linalg.norm(vectors[first])

        def complete():
            while len(found) == len(vectors):  # the runs stop at each vector on the level
                partner_runs()
            order = np.argsort(found[:len(vectors)], kind="stable")
            return (psi, *(vectors[i] for i in order
                           if i != first and abs(found[i] - levels[0]) < DEGENERACY_TOL))

    e0 = float(levels[0])
    members = int(np.count_nonzero(levels - e0 < DEGENERACY_TOL))
    residual = float(dnrm2(hamiltonian @ psi - e0 * psi))
    if residual > RESIDUAL_TOL:
        low, high = hamiltonian.interval
        norm = max(-low, high)
        if RESIDUAL_TOL < RESIDUAL_ROUNDING * norm:
            raise ValueError(
                f"eigensolver residual {residual:.3e} too large: these couplings put the "
                f"{RESIDUAL_TOL:g} residual certificate out of reach, below rounding at the "
                f"Hamiltonian's Gershgorin norm bound {norm:.3e}")
    gap = float(levels[1] - e0) if len(levels) > 1 else math.inf
    return GroundState(
        energy=e0,
        amplitudes=psi,
        residual=residual,
        degenerate=members > 1,
        energy_gap=gap,
        matvecs=matvecs,
        _complete=complete if members > 1 else lambda: (psi,),
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


def _pair_tables(basis: SectorBasis, i: int, j: int):
    """Scatter index, combined signs and environment count of the pair (i, j).

    The reduction of any vector on ``basis`` scatters its signed amplitudes
    into a ``(16, n_env)`` array at the same places, so the tables are built
    once per basis and pair and kept on the basis.
    """
    tables = basis._pair_tables.get((i, j))
    if tables is not None:
        return tables
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

    # every factor is +-1, so one combined sign gives the bits of the product
    signs = (sign_u[:, None] * sign_d[None, :] * cross[ku[:, None], kd[None, :]]).ravel()
    rows = kept16[ku[:, None], kd[None, :]]
    n_env_d = int(env_d.max()) + 1
    n_env = (int(env_u.max()) + 1) * n_env_d
    cols = env_u[:, None] * n_env_d + env_d[None, :]
    # each basis state is one (kept, environment) pair, so the scatter never collides
    flat = (rows * n_env + cols).ravel()
    tables = basis._pair_tables[(i, j)] = (flat, signs, n_env)
    return tables


def _pair_rdm_from_vector(psi: np.ndarray, basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """16x16 reduced matrix of orbitals (i, j) with full fermionic parities."""
    flat, signs, n_env = _pair_tables(basis, i, j)
    values = psi.reshape(basis.dim) * signs
    collected = np.zeros(fock.DIM * n_env, dtype=values.dtype)
    collected[flat] = values
    collected = collected.reshape(fock.DIM, n_env)
    return collected @ collected.conj().T


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
                    f"ground state is degenerate: its energy gap {state.energy_gap:.3e} is "
                    f"below DEGENERACY_TOL = {DEGENERACY_TOL:g}; the API argument "
                    'on_degenerate="mixture" of two_orbital_rdm averages over the multiplet'
                )
            if on_degenerate != "mixture":
                raise ValueError(f"unknown degeneracy policy {on_degenerate!r}")
            # a child of the ``orbent`` logger, which has no handlers: a DEBUG record
            # prints nothing unless the caller configures logging.  Imported here
            # because loading ``logging`` adds ~8 ms to start-up
            import logging
            logging.getLogger(__name__).debug(
                "averaging the pair state over a degenerate multiplet of %d states",
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
    gs = ground_state(_SectorOperator(chain, basis), seed=seed)
    return two_orbital_rdm(gs, basis, i, j, on_degenerate=on_degenerate)


def bond_scan(chain: ChainSpec, u_values, v_values, pivot: int, *, seed: int = 7):
    """Entanglement of the two bonds sharing the pivot site over a (U, V) grid.

    Requires an open chain at half filling with even length.  Returns one row
    per grid point with both bond values; the strong/weak assignment is by
    magnitude, which keeps the scan free of any bond-labeling convention.
    The species hoppings do not depend on ``(U, V)``, so one
    :class:`_SectorOperator` is built per scan and each grid point computes
    only its interaction diagonal.
    """
    if chain.boundary != "open":
        raise ValueError("bond scans are defined for open chains")
    if chain.length % 2 or chain.n_up != chain.length // 2 or chain.n_dn != chain.length // 2:
        raise ValueError("bond scans require half filling on an even chain")
    if not 1 <= pivot <= chain.length - 2:
        raise ValueError("pivot must have a bond on each side")
    basis = sector_basis(chain.length, chain.n_up, chain.n_dn)
    operator = _SectorOperator(chain, basis)
    rows = []
    for u in np.atleast_1d(u_values):
        for v in np.atleast_1d(v_values):
            point = replace(chain, u=float(u), v=float(v))
            gs = ground_state(operator.at(point), seed=seed)
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
    singlet sector cross-checks the numerics; ``hypot`` takes the root
    without squaring, so a hopping past 1e154 does not overflow it.
    """
    (row,) = _dimer_rows(u, v, t_hop, (rule,))
    return row


def _dimer_rows(u: float, v: float, t_hop: float, rules: tuple[str, ...]) -> list[dict]:
    """:func:`dimer_analytics` under each rule, from one solve and one pair state."""
    chain = ChainSpec(2, 1, 1, t_hop=t_hop, u=u, v=v)
    basis = sector_basis(2, 1, 1)
    gs = ground_state(_SectorOperator(chain, basis))
    rdm = two_orbital_rdm(gs, basis, 0, 1)
    analytic = 0.5 * (u + v) - math.hypot(0.5 * (u - v), 2.0 * t_hop)
    rows = []
    for rule in rules:
        result: EntanglementResult = orbital_entanglement(rdm, rule)
        rows.append({
            "u": u,
            "v": v,
            "t_hop": t_hop,
            "energy": gs.energy,
            "energy_analytic": analytic,
            "entanglement_nats": result.value,
            "variant": result.variant.value if result.variant else None,
            "method": result.method,
        })
    return rows
