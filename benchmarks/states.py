"""Seeded inputs of the benchmark, built with its own fermionic algebra.

Nothing here imports orbent: the states the ``pairs`` workload is given, and
the symmetry-basis weights its checks recompute, come from this module alone,
so a change to the program cannot change the work it is measured on.

Conventions are the documented ones of the package's JSON schema: product
basis index ``4 * (state of A) + (state of B)``, local states ``0, up, down,
updown``, global mode order ``(A-up, A-down, B-up, B-down)``, and creation
operators applied in that mode order.  Symmetry-basis vectors carry the
documented index labels (vacuum 0, doublons 5 and 6, singlet 7, triplets
8 to 10, full 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LN2 = math.log(2.0)

VACUUM, DOUBLE_A, DOUBLE_B, SINGLET, TRIPLET_ZERO, TRIPLET_UP, TRIPLET_DOWN, FULL = (
    0, 5, 6, 7, 8, 9, 10, 15)
#: (x, y | u, v) roles of the constrained sectors; separable iff u v >= ((x - y)/2)^2.
SPIN_ROLES = (SINGLET, TRIPLET_ZERO, TRIPLET_UP, TRIPLET_DOWN)
PAIR_ROLES = (DOUBLE_A, DOUBLE_B, VACUUM, FULL)

_LOCAL = ((0, 0), (1, 0), (0, 1), (1, 1))  # (n_up, n_down) of local states 0, up, down, updown

#: Deck make-up: category -> states per deck.
DECK_MAKEUP = {
    "gaussian": 48,        # 6 fillings x distances 1..8
    "singlet": 32,
    "reflection": 48,
    "rank-deficient": 16,
    "diagonal": 16,
    "even-singlet": 1,
}
#: Seed of the one ``even-singlet`` deck state, the same in every deck: its
#: parity-rule evaluation fails every time (the oracle fallback cannot bracket
#: its multiplier when sector weights sit at rounding level), so ``pairs``
#: has one failed operation per pass.
FAULT_SEED = [0, 0xE7E]
GAUSSIAN_FILLINGS = 6
GAUSSIAN_DISTANCES = 8


@lru_cache(maxsize=None)
def occupations(n_orbitals: int) -> np.ndarray:
    """(4**n, 2n) mode occupations; orbital 0 is the most significant base-4 digit."""
    dim = 4**n_orbitals
    occ = np.zeros((dim, 2 * n_orbitals), dtype=np.int64)
    for idx in range(dim):
        digits = np.base_repr(idx, 4).zfill(n_orbitals) if n_orbitals else ""
        for orb, digit in enumerate(digits):
            occ[idx, 2 * orb], occ[idx, 2 * orb + 1] = _LOCAL[int(digit)]
    return occ


@lru_cache(maxsize=None)
def annihilators(n_orbitals: int) -> tuple:
    """Jordan-Wigner annihilation matrices, one per mode in global order."""
    occ = occupations(n_orbitals)
    weights = 4 ** np.arange(n_orbitals - 1, -1, -1)
    local = {occ_pair: k for k, occ_pair in enumerate(_LOCAL)}

    def index(row):
        return int(sum(w * local[(row[2 * o], row[2 * o + 1])] for o, w in enumerate(weights)))

    ops = []
    for mode in range(2 * n_orbitals):
        a = np.zeros((len(occ), len(occ)))
        for src, row in enumerate(occ):
            if row[mode]:
                target = row.copy()
                target[mode] = 0
                a[index(target), src] = (-1.0) ** int(row[:mode].sum())
        ops.append(a)
    return tuple(ops)


def spin_operators(n_orbitals: int):
    """(N, Sz, S^2) on the Fock space of ``n_orbitals`` orbitals."""
    ann = annihilators(n_orbitals)
    occ = occupations(n_orbitals)
    number = np.diag(occ.sum(axis=1).astype(float))
    sz = np.diag(0.5 * (occ[:, 0::2].sum(axis=1) - occ[:, 1::2].sum(axis=1)))
    s_plus = sum(ann[2 * o].T @ ann[2 * o + 1] for o in range(n_orbitals))
    s2 = s_plus.T @ s_plus + sz @ sz + sz
    return number, sz, s2


def swap_first_orbitals(n_orbitals: int) -> np.ndarray:
    """Fermionic exchange of orbitals 0 and 1: ``|a,b,c..> -> (-1)^(N_a N_b) |b,a,c..>``."""
    dim = 4**n_orbitals
    rest = 4 ** (n_orbitals - 2)
    swap = np.zeros((dim, dim))
    for idx in range(dim):
        a, b, c = idx // (4 * rest), (idx // rest) % 4, idx % rest
        sign = (-1.0) ** (sum(_LOCAL[a]) * sum(_LOCAL[b]))
        swap[(b * 4 + a) * rest + c, idx] = sign
    return swap


def _ket(a: int, b: int) -> np.ndarray:
    v = np.zeros(16)
    v[4 * a + b] = 1.0
    return v


@lru_cache(maxsize=None)
def symmetry_basis(variant: str) -> np.ndarray:
    """16 symmetry eigenvectors as columns, in the documented label order."""
    s = 1.0 / math.sqrt(2.0)
    up_dn, dn_up, d0, zero_d = _ket(1, 2), _ket(2, 1), _ket(3, 0), _ket(0, 3)
    cols = [
        _ket(0, 0), _ket(0, 1), _ket(1, 0), _ket(0, 2), _ket(2, 0),
        d0, zero_d,
        s * (up_dn - dn_up), s * (up_dn + dn_up), _ket(1, 1), _ket(2, 2),
        _ket(3, 1), _ket(1, 3), _ket(3, 2), _ket(2, 3), _ket(3, 3),
    ]
    if variant == "parity":
        cols[DOUBLE_A], cols[DOUBLE_B] = s * (zero_d - d0), s * (zero_d + d0)
    elif variant != "number":
        raise ValueError(f"unknown basis variant {variant!r}")
    return np.column_stack(cols)


def basis_weights(matrix: np.ndarray, variant: str) -> np.ndarray:
    """Diagonal of a two-orbital matrix in a symmetry basis."""
    v = symmetry_basis(variant)
    return np.real(np.einsum("ji,jk,ki->i", v.conj(), matrix, v))


def free_fermion_margin(eta: float, distance: int) -> float:
    """The paper's margin ``2[(eta^2-c^2)((1-eta)^2-c^2) - c^2]``; negative iff entangled."""
    c = math.sin(math.pi * eta * distance) / (math.pi * distance)
    return 2.0 * ((eta**2 - c * c) * ((1.0 - eta) ** 2 - c * c) - c * c)


def gaussian_pair(eta: float, distance: int) -> np.ndarray:
    """Two sites of the infinite free-fermion chain, built mode by mode.

    Each spin has eigenmodes ``(f_A +- f_B)/sqrt(2)`` with occupations
    ``eta +- c``; the state is the product over the four modes of
    ``lambda n + (1 - lambda)(1 - n)``.
    """
    c = math.sin(math.pi * eta * distance) / (math.pi * distance)
    ann = annihilators(2)
    eye = np.eye(16)
    rho = eye.copy()
    for spin in (0, 1):
        for sign, occupation in ((1.0, eta + c), (-1.0, eta - c)):
            d = (ann[spin] + sign * ann[2 + spin]) / math.sqrt(2.0)
            n = d.T @ d
            rho = rho @ (occupation * n + (1.0 - occupation) * (eye - n))
    return rho


@lru_cache(maxsize=None)
def _singlet_projector(exchange: int) -> np.ndarray:
    """Projector onto the four-electron singlets of four orbitals with
    exchange parity ``exchange`` under the swap of orbitals 0 and 1."""
    number, sz, s2 = spin_operators(4)
    eye = np.eye(len(number))
    penalty = s2 + sz @ sz + (number - 4.0 * eye) @ (number - 4.0 * eye)
    penalty += eye - exchange * swap_first_orbitals(4)
    values, vectors = np.linalg.eigh(penalty)
    kernel = vectors[:, values < 1e-9]
    return kernel @ kernel.T


def _singlet_reduction(rng: np.random.Generator, exchange: int) -> np.ndarray:
    """Reduced state of orbitals (0, 1) of a random global singlet.

    The kept modes precede the traced ones, so the partial trace needs no
    fermionic signs.
    """
    psi = _singlet_projector(exchange) @ (rng.normal(size=256) + 1j * rng.normal(size=256))
    psi = (psi / np.linalg.norm(psi)).reshape(16, 16)
    return psi @ psi.conj().T


def singlet_pair(rng: np.random.Generator) -> np.ndarray:
    """Pair reduction of a random mixture of two global singlets.

    One singlet is even and one odd under the exchange of orbitals 0 and 1,
    so the mixture is reflection symmetric (as the parity rule needs) while
    every spin-sector weight stays nonzero.
    """
    share = rng.uniform(0.2, 0.8)
    return share * _singlet_reduction(rng, 1) + (1.0 - share) * _singlet_reduction(rng, -1)


def exchange_even_singlet_pair() -> np.ndarray:
    """Pair reduction of one fixed exchange-even global singlet.

    Its triplet and odd-doublon weights vanish up to rounding, and the
    parity-rule oracle fallback fails on such weights (see FAULT_SEED).
    """
    return _singlet_reduction(np.random.default_rng(FAULT_SEED), 1)


def reflection_state(rng: np.random.Generator) -> np.ndarray:
    """Random number-, magnetization- and reflection-symmetric state.

    A Ginibre matrix pinched onto (N, Sz) blocks, mixed with a random share of
    the singlet and symmetrized under the orbital exchange; its triplet
    weights are unbalanced.
    """
    occ = occupations(2)
    labels = occ.sum(axis=1) * 16 + (occ[:, 0] - occ[:, 1] + occ[:, 2] - occ[:, 3])
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = g @ g.conj().T
    m = np.where(labels[:, None] == labels[None, :], m, 0.0)
    r = swap_first_orbitals(2)
    m = (m + r @ m @ r.T) / 2.0
    m /= np.trace(m).real
    singlet = symmetry_basis("number")[:, SINGLET]
    share = rng.uniform(0.0, 0.8)
    return (1.0 - share) * m + share * np.outer(singlet, singlet)


def rank_deficient_state(rng: np.random.Generator) -> np.ndarray:
    """Symmetry-basis-diagonal state with one polarized triplet empty.

    Weights are equal on exchange partners, so the state is reflection
    symmetric; with ``u v = 0`` and unequal singlet/triplet-zero weights its
    spin sector is entangled and rank deficient.
    """
    w = rng.dirichlet(np.ones(16))
    for a, b in ((1, 2), (3, 4), (DOUBLE_A, DOUBLE_B), (11, 12), (13, 14)):
        w[a] = w[b] = (w[a] + w[b]) / 2.0
    empty, kept = (TRIPLET_DOWN, TRIPLET_UP) if rng.random() < 0.5 else (TRIPLET_UP, TRIPLET_DOWN)
    w[kept] += w[empty]
    w[empty] = 0.0
    w[SINGLET] += 0.5
    w /= w.sum()
    v = symmetry_basis("number")
    return (v * w) @ v.T


def diagonal_state(rng: np.random.Generator) -> np.ndarray:
    """Occupation-diagonal mixture of product states."""
    return np.diag(rng.dirichlet(np.ones(16))).astype(complex)


@dataclass(frozen=True)
class DeckEntry:
    """One input state of the ``pairs`` workload."""

    category: str
    payload: dict                    # the JSON document handed to the program
    weights: dict                    # basis variant -> benchmark-computed weights
    margin: float | None = None      # free-fermion margin, Gaussian entries only


def to_payload(matrix: np.ndarray) -> dict:
    """The JSON document of a two-orbital density matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "dim": 16,
        "basis": "occupation-A↑A↓B↑B↓",
        "re": matrix.real.tolist(),
        "im": matrix.imag.tolist(),
    }


def warm_up_payload() -> dict:
    """Half singlet, half maximally mixed: the state of the warm-up operation."""
    singlet = symmetry_basis("number")[:, SINGLET]
    return to_payload(0.5 * np.outer(singlet, singlet) + 0.5 * np.eye(16) / 16)


def _entry(category: str, matrix: np.ndarray, margin: float | None = None) -> DeckEntry:
    weights = {variant: basis_weights(matrix, variant) for variant in ("number", "parity")}
    return DeckEntry(category, to_payload(matrix), weights, margin)


def pairs_deck(seed: int) -> list[DeckEntry]:
    """The fixed deck of the ``pairs`` workload; one seed gives one deck."""
    rng = np.random.default_rng([seed, 0x5EED])
    deck = []
    for eta in np.sort(rng.uniform(0.05, 0.95, size=GAUSSIAN_FILLINGS)):
        for distance in range(1, GAUSSIAN_DISTANCES + 1):
            deck.append(_entry("gaussian", gaussian_pair(float(eta), distance),
                               free_fermion_margin(float(eta), distance)))
    makers = {
        "singlet": singlet_pair,
        "reflection": reflection_state,
        "rank-deficient": rank_deficient_state,
        "diagonal": diagonal_state,
    }
    for category, make in makers.items():
        deck.extend(_entry(category, make(rng)) for _ in range(DECK_MAKEUP[category]))
    deck.append(_entry("even-singlet", exchange_even_singlet_pair()))
    return deck
