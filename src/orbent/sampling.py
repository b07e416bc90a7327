"""Seedable random generators for verification and property testing.

Everything takes an explicit :class:`numpy.random.Generator`, so acceptance
runs are reproducible from a printed seed.
"""

from __future__ import annotations

import numpy as np

from . import fock, ssr
from .fock import FULL, TRIPLET_DOWN, TRIPLET_UP, VACUUM, TwoOrbitalState

__all__ = [
    "random_weights",
    "random_state",
    "random_symmetric_state",
    "random_separable_symmetric_state",
    "random_singlet_vector",
]


#: Draws one call of :func:`random_weights` makes before it gives up on a
#: full-rank spectrum.
MAX_ATTEMPTS = 1000


def random_weights(rng: np.random.Generator, variant: str = "general",
                   full_rank_floor: float = 1e-6, size: int | None = None) -> np.ndarray:
    """Random sector-weight vector for one closed-formula variant.

    ``singlet`` balances the two polarized triplet weights; ``general`` and
    ``parity-general`` resample until the constrained sectors are full rank;
    ``parity-symmetric`` additionally balances the vacuum/full pair.

    With ``size``, returns ``size`` rows: the vectors that ``size`` calls
    without it would return, with ``rng`` left in the same state, rejected
    draws and the failure after :data:`MAX_ATTEMPTS` rejections in a row
    included.
    """
    if variant not in ("singlet", "general", "parity-general", "parity-symmetric"):
        raise ValueError(f"unknown spectrum variant {variant!r}")
    if size is not None and size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    wanted = 1 if size is None else size
    if variant in ("singlet", "parity-symmetric"):
        p = rng.dirichlet(np.ones(fock.DIM), size=wanted)
        pairs = ((TRIPLET_UP, TRIPLET_DOWN),)
        if variant == "parity-symmetric":
            pairs += ((VACUUM, FULL),)
        for i, j in pairs:
            p[:, i] = p[:, j] = (p[:, i] + p[:, j]) / 2.0
        p /= p.sum(axis=1, keepdims=True)
    else:
        needed = list(fock.SPIN_SECTOR + (() if variant == "general" else fock.PAIR_SECTOR))
        accepted = []
        count = 0
        rejected_in_a_row = 0
        while count < wanted:
            # never more draws than the calls still to make, nor past the
            # draw on which the current call would give up
            draws = rng.dirichlet(np.ones(fock.DIM),
                                  size=min(wanted - count, MAX_ATTEMPTS - rejected_in_a_row))
            full_rank = draws[:, needed].min(axis=1) >= full_rank_floor
            hits = np.flatnonzero(full_rank)
            if len(hits):
                rejected_in_a_row = len(draws) - 1 - hits[-1]
            else:
                rejected_in_a_row += len(draws)
            if rejected_in_a_row == MAX_ATTEMPTS:
                raise RuntimeError("failed to draw a full-rank spectrum")
            accepted.append(draws[full_rank])
            count += len(hits)
        p = np.concatenate(accepted) if accepted else np.empty((0, fock.DIM))
    return p[0] if size is None else p


def random_state(rng: np.random.Generator) -> TwoOrbitalState:
    """Full-rank random density matrix (Ginibre ensemble)."""
    g = rng.normal(size=(fock.DIM, fock.DIM)) + 1j * rng.normal(size=(fock.DIM, fock.DIM))
    m = g @ g.conj().T
    return TwoOrbitalState(m / np.trace(m).real)


def random_symmetric_state(rng: np.random.Generator,
                           generators: tuple[str, ...] = ("number", "sz"),
                           reflect: bool = False) -> TwoOrbitalState:
    """Random state pinched onto the symmetric sectors of the given generators."""
    state = random_state(rng)
    for generator in generators:
        state = ssr.twirl(state, generator)
    if reflect:
        r = fock.reflection_operator()
        state = TwoOrbitalState((state.matrix + r @ state.matrix @ r.T) / 2.0)
    return state


def _random_local_number_state(rng: np.random.Generator) -> np.ndarray:
    """Random 4x4 orbital state block-diagonal in the local particle number."""
    weights = rng.dirichlet(np.ones(3))  # sectors N = 0, 1, 2
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    block = block @ block.conj().T
    block *= weights[1] / np.trace(block).real
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = weights[0]
    out[1:3, 1:3] = block
    out[3, 3] = weights[2]
    return out


def random_separable_symmetric_state(rng: np.random.Generator,
                                     n_terms: int = 6) -> TwoOrbitalState:
    """Random separable state with local-number and magnetization symmetry.

    Built as an explicit convex mixture of products of local-number-symmetric
    orbital states, then symmetrized by the magnetization and local-number
    twirls (both are mixtures of local unitaries, so separability is kept).
    The singlet/triplet coherence generically survives, with a complex part.
    """
    mix = np.zeros((fock.DIM, fock.DIM), dtype=complex)
    weights = rng.dirichlet(np.ones(n_terms))
    for w in weights:
        mix += w * np.kron(_random_local_number_state(rng), _random_local_number_state(rng))
    state = TwoOrbitalState(mix)
    state = ssr.twirl(state, "sz")
    return ssr.nssr_project(state)


def random_singlet_vector(rng: np.random.Generator, n_orbitals: int = 3) -> np.ndarray:
    """Random pure state with total spin zero and zero magnetization."""
    s2 = fock.total_spin_operator(n_orbitals)
    sz = fock.sz_operator(n_orbitals)
    eigenvalues, vectors = np.linalg.eigh(s2 + sz @ sz)
    kernel = vectors[:, eigenvalues < 1e-9]
    if kernel.shape[1] == 0:
        raise ValueError("no singlet subspace found")
    coeffs = rng.normal(size=kernel.shape[1]) + 1j * rng.normal(size=kernel.shape[1])
    psi = kernel @ coeffs
    return psi / np.linalg.norm(psi)
