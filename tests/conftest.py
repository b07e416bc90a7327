import numpy as np
import pytest
import scipy.sparse as sparse

from orbent import fock, lattice


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def number_basis():
    return fock.build_symmetry_basis("number")


@pytest.fixture(scope="session")
def parity_basis():
    return fock.build_symmetry_basis("parity")


def state_from_weights(weights, variant="number"):
    """Density matrix diagonal in a symmetry eigenbasis."""
    basis = fock.build_symmetry_basis(variant)
    v = basis.vectors
    return fock.TwoOrbitalState((v * np.asarray(weights)) @ v.conj().T)


def dense_form(operator) -> np.ndarray:
    """The operator's matrix, column by column: its products of the unit vectors."""
    return np.column_stack([operator @ unit for unit in np.eye(operator.shape[0])])


def kronecker_hamiltonian(chain: lattice.ChainSpec) -> sparse.csr_matrix:
    """The sector Hamiltonian as the sparse Kronecker sum ``-t (K_up x 1 + 1 x K_dn) + diag``.

    Built apart from orbent's matrix-free operator, it is the reference the
    tests check that operator's products, norm bounds, entry count and
    spectrum against.  Like any sparse sum it stores no entry that
    is exactly zero.
    """
    basis = lattice.sector_basis(chain.length, chain.n_up, chain.n_dn)

    def hopping(states):
        n = len(states)
        rows, cols, vals = [], [], []
        for i, j in chain.bonds:
            low, high = min(i, j), max(i, j)
            between = ((1 << high) - 1) ^ ((1 << (low + 1)) - 1)
            movable = np.nonzero(((states >> j) & 1 == 1) & ((states >> i) & 1 == 0))[0]
            source = states[movable]
            rows.append(np.searchsorted(states, source ^ ((1 << i) | (1 << j))))
            cols.append(movable)
            vals.append(1.0 - 2.0 * (np.bitwise_count(source & between) & 1))
        hop = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                shape=(n, n))
        return (hop + hop.T).tocsr()

    k_up, k_dn = hopping(basis.up_states), hopping(basis.dn_states)
    n_up, n_dn = k_up.shape[0], k_dn.shape[0]
    kinetic = -chain.t_hop * (
        sparse.kron(k_up, sparse.identity(n_dn, format="csr"), format="csr")
        + sparse.kron(sparse.identity(n_up, format="csr"), k_dn, format="csr")
    )
    occ_up = lattice._occupancy(basis.up_states, chain.length).astype(np.float64)
    occ_dn = lattice._occupancy(basis.dn_states, chain.length).astype(np.float64)
    diag = np.zeros((n_up, n_dn))
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
    return (kinetic + sparse.diags(diag.ravel())).tocsr()
