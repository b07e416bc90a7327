import logging
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orbent import entanglement as ent
from orbent import fock, free_fermion as ff, lattice, ssr
from orbent.errors import DegenerateGroundStateError, OrbentError

LN2 = math.log(2.0)


class TestSectorBasis:
    def test_sizes(self):
        basis = lattice.sector_basis(6, 2, 3)
        assert len(basis.up_states) == math.comb(6, 2)
        assert len(basis.dn_states) == math.comb(6, 3)
        assert basis.dim == math.comb(6, 2) * math.comb(6, 3)

    def test_index_roundtrip(self):
        basis = lattice.sector_basis(4, 2, 1)
        seen = set()
        for up in basis.up_states:
            for dn in basis.dn_states:
                seen.add(basis.index(int(up), int(dn)))
        assert seen == set(range(basis.dim))

    def test_bad_lookup(self):
        basis = lattice.sector_basis(4, 2, 1)
        with pytest.raises(KeyError):
            basis.index(0b1111, 0b0001)


class TestChainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            lattice.ChainSpec(1, 0, 0)
        with pytest.raises(ValueError):
            lattice.ChainSpec(4, 5, 1)
        with pytest.raises(ValueError):
            lattice.ChainSpec(4, 2, 2, boundary="twisted")

    def test_bonds(self):
        assert lattice.ChainSpec(4, 2, 2).bonds == ((0, 1), (1, 2), (2, 3))
        assert lattice.ChainSpec(4, 2, 2, boundary="periodic").bonds[-1] == (3, 0)


class TestHamiltonian:
    def test_atomic_limit_is_diagonal(self):
        chain = lattice.ChainSpec(4, 2, 2, t_hop=0.0, u=3.0, v=1.5)
        basis = lattice.sector_basis(4, 2, 2)
        h = lattice.build_hamiltonian(chain, basis).toarray()
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        # |updown, updown, 0, 0>: two doublons on adjacent sites
        idx = basis.index(0b0011, 0b0011)
        assert h[idx, idx] == pytest.approx(2 * 3.0 + 1.5 * 4.0)

    def test_hermitian(self):
        chain = lattice.ChainSpec(5, 2, 3, u=2.0, v=0.7, boundary="periodic")
        h = lattice.build_hamiltonian(chain)
        assert abs(h - h.T).max() == 0.0

    def test_dimer_free_energy(self):
        chain = lattice.ChainSpec(2, 1, 1, t_hop=1.3)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        assert gs.energy == pytest.approx(-2 * 1.3, abs=1e-12)

    def test_dimer_secular_equation(self):
        for u, v, t in ((4.0, 0.0, 1.0), (6.0, 2.0, 0.7), (1000.0, 0.0, 1.0)):
            chain = lattice.ChainSpec(2, 1, 1, t_hop=t, u=u, v=v)
            gs = lattice.ground_state(lattice.build_hamiltonian(chain))
            expected = 0.5 * (u + v) - math.sqrt(0.25 * (u - v) ** 2 + 4 * t * t)
            assert gs.energy == pytest.approx(expected, abs=1e-10)

    def test_free_chain_matches_single_particle_sum(self):
        chain = lattice.ChainSpec(8, 4, 4)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        hop = np.diag(np.full(7, -1.0), 1) + np.diag(np.full(7, -1.0), -1)
        levels = np.linalg.eigvalsh(hop)
        assert gs.energy == pytest.approx(2 * levels[:4].sum(), abs=1e-10)

    @pytest.mark.parametrize("chain", [lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0),
                                       lattice.ChainSpec(5, 2, 3, t_hop=0.7, u=2.0, v=0.7,
                                                         boundary="periodic")])
    def test_prebuilt_kinetic_gives_the_same_matrix(self, chain):
        basis = lattice.sector_basis(chain.length, chain.n_up, chain.n_dn)
        kinetic = lattice._kinetic(replace(chain, u=0.0, v=0.0), basis)
        reference = lattice.build_hamiltonian(chain, basis)
        reused = lattice.build_hamiltonian(chain, basis, kinetic=kinetic)
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(reused, field), getattr(reference, field))

    def test_strong_coupling_heisenberg_limit(self):
        chain = lattice.ChainSpec(2, 1, 1, u=1000.0)
        basis = lattice.sector_basis(2, 1, 1)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        target = np.zeros(4)
        target[basis.index(0b01, 0b10)] = 1 / math.sqrt(2)
        target[basis.index(0b10, 0b01)] = -1 / math.sqrt(2)
        tv = 0.5 * np.abs(gs.amplitudes**2 - target**2).sum()
        assert tv < 1e-3


class TestGroundState:
    def test_diagonal_matrix(self):
        import scipy.sparse as sparse

        h = sparse.diags([3.0, -1.0, 2.0, 5.0]).tocsr()
        gs = lattice.ground_state(h)
        assert gs.energy == -1.0
        assert abs(abs(gs.amplitudes[1]) - 1.0) < 1e-12
        assert not gs.degenerate

    def test_degeneracy_detected_and_refused(self):
        chain = lattice.ChainSpec(4, 2, 2, boundary="periodic")
        basis = lattice.sector_basis(4, 2, 2)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        assert gs.degenerate
        with pytest.raises(DegenerateGroundStateError):
            lattice.two_orbital_rdm(gs, basis, 0, 1)
        mixture = lattice.two_orbital_rdm(gs, basis, 0, 1, on_degenerate="mixture")
        assert abs(np.trace(mixture.matrix) - 1.0) < 1e-12

    def test_multiplet_average_is_logged_at_debug(self, caplog):
        chain = lattice.ChainSpec(4, 2, 2, boundary="periodic")
        basis = lattice.sector_basis(4, 2, 2)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        with caplog.at_level(logging.DEBUG, logger="orbent"):
            lattice.two_orbital_rdm(gs, basis, 0, 1, on_degenerate="mixture")
        (record,) = [r for r in caplog.records if r.name.startswith("orbent")]
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"averaging the pair state over a degenerate multiplet of {len(gs.multiplet)} states")

    def test_debug_records_print_nothing_by_default(self):
        # a fresh interpreter with logging unconfigured: the oracle fallback
        # and the multiplet average run, and stdlib's last-resort handler,
        # which prints warnings and above, prints nothing
        probe = textwrap.dedent("""
            import numpy as np
            from orbent import entanglement, fock, lattice
            w = np.zeros(16)
            w[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP]] = (0.55, 0.05, 0.12)
            w[fock.VACUUM] = 1.0 - w.sum()
            v = fock.build_symmetry_basis("number").vectors
            state = fock.TwoOrbitalState((v * w) @ v.conj().T)
            assert entanglement.orbital_entanglement(state, "number").method == "oracle"
            basis = lattice.sector_basis(4, 2, 2)
            chain = lattice.ChainSpec(4, 2, 2, boundary="periodic")
            gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
            assert gs.degenerate
            lattice.two_orbital_rdm(gs, basis, 0, 1, on_degenerate="mixture")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_lanczos_path_matches_dense(self):
        chain = lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0)
        h = lattice.build_hamiltonian(chain)
        dense = lattice.ground_state(h, dense_cutoff=10**6)
        sparse_gs = lattice.ground_state(h, dense_cutoff=10)
        assert sparse_gs.energy == pytest.approx(dense.energy, abs=1e-9)
        assert sparse_gs.energy_gap == pytest.approx(dense.energy_gap, abs=1e-9)
        assert not sparse_gs.degenerate and len(sparse_gs.multiplet) == 1

    @pytest.mark.parametrize("length, filling", [(4, 2), (6, 2), (8, 4)])
    def test_lanczos_resolves_four_fold_multiplet(self, length, filling):
        # free rings with one electron per spin in a two-fold level: the
        # ground multiplet has four states, more than the first Lanczos
        # solve returns, so four vectors mean the wider solve ran
        chain = lattice.ChainSpec(length, filling, filling, boundary="periodic")
        h = lattice.build_hamiltonian(chain)
        gs = lattice.ground_state(h, dense_cutoff=10)
        ring = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(length) / length))
        assert gs.energy == pytest.approx(2.0 * ring[:filling].sum(), abs=1e-10)
        assert gs.degenerate and len(gs.multiplet) == 4
        if h.shape[0] <= lattice.DENSE_CUTOFF:  # the L=8 dense solve takes seconds
            dense = lattice.ground_state(h)
            assert gs.energy == pytest.approx(dense.energy, abs=1e-10)
            assert len(dense.multiplet) == 4
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(4)).max() < 1e-10
        for v in gs.multiplet:
            assert np.linalg.norm(h @ v - gs.energy * v) < lattice.RESIDUAL_TOL


class TestTwoOrbitalRdm:
    def test_dimer_weights_and_entanglement(self):
        result = lattice.dimer_analytics(0.0)
        assert result["entanglement_nats"] == pytest.approx(0.5 * LN2, abs=1e-12)
        chain = lattice.ChainSpec(2, 1, 1)
        basis = lattice.sector_basis(2, 1, 1)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        spec = ent.sector_spectrum(ssr.nssr_project(lattice.two_orbital_rdm(gs, basis, 0, 1)))
        assert spec.weights[fock.DOUBLE_A] == pytest.approx(0.25, abs=1e-12)
        assert spec.weights[fock.DOUBLE_B] == pytest.approx(0.25, abs=1e-12)
        assert spec.weights[fock.SINGLET] == pytest.approx(0.5, abs=1e-12)

    def test_dimer_strong_coupling(self):
        result = lattice.dimer_analytics(1000.0)
        assert abs(result["entanglement_nats"] - LN2) < 1e-4

    def test_free_chain_matches_gaussian_construction(self):
        chain = lattice.ChainSpec(8, 4, 4)
        basis = lattice.sector_basis(8, 4, 4)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        corr = ff.finite_chain_correlation_matrix(8, 4, "open")
        for pair in ((0, 1), (3, 4), (6, 7), (1, 5), (6, 2)):
            reduced = lattice.two_orbital_rdm(gs, basis, *pair)
            gaussian = ff.gaussian_pair_state(corr[np.ix_(pair, pair)])
            assert np.abs(reduced.matrix - gaussian.matrix).max() < 1e-10

    def test_singlet_ground_state_inheritance(self):
        s2 = fock.build_operator("total_spin")
        sz = fock.build_operator("sz")
        for (u, v) in ((2.0, 0.0), (4.0, 1.0), (6.0, 3.0)):
            chain = lattice.ChainSpec(6, 3, 3, u=u, v=v)
            basis = lattice.sector_basis(6, 3, 3)
            gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
            assert lattice.total_spin_expectation(gs.amplitudes, basis) <= 1e-8
            rdm = lattice.two_orbital_rdm(gs, basis, 2, 3).matrix
            assert np.linalg.norm(rdm @ s2 - s2 @ rdm) < 1e-8
            assert np.linalg.norm(rdm @ sz - sz @ rdm) < 1e-8
            spec = ent.sector_spectrum(ssr.nssr_project(lattice.two_orbital_rdm(gs, basis, 2, 3)))
            assert abs(spec.weights[fock.TRIPLET_UP] - spec.weights[fock.TRIPLET_DOWN]) < 1e-10

    def test_translation_invariance_on_ring(self):
        chain = lattice.ChainSpec(6, 3, 3, u=2.0, v=0.5, boundary="periodic")
        basis = lattice.sector_basis(6, 3, 3)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        values = []
        for site in range(6):
            rdm = lattice.two_orbital_rdm(gs, basis, site, (site + 1) % 6)
            values.append(ent.orbital_entanglement(rdm, "number").value)
        assert max(values) - min(values) < 1e-9

    @pytest.mark.parametrize("n_up, n_dn, u, v", [(2, 2, 4.0, 1.0), (2, 1, 2.5, 0.5),
                                                  (1, 2, 6.0, 2.0)])
    def test_sector_reduction_matches_dense_reduction(self, n_up, n_dn, u, v):
        # the species-blocked ED vector written out in the interleaved Fock
        # basis of orbent.fock, then reduced by the dense operator-string route
        length = 4
        basis = lattice.sector_basis(length, n_up, n_dn)
        chain = lattice.ChainSpec(length, n_up, n_dn, u=u, v=v)
        psi = lattice.ground_state(lattice.build_hamiltonian(chain, basis)).amplitudes
        dense = np.zeros(4**length, dtype=complex)
        for iu, up in enumerate(basis.up_states):
            for idn, dn in enumerate(basis.dn_states):
                up_bits = [(int(up) >> s) & 1 for s in range(length)]
                dn_bits = [(int(dn) >> s) & 1 for s in range(length)]
                index = sum((up_bits[s] + 2 * dn_bits[s]) * 4 ** (length - 1 - s)
                            for s in range(length))
                # interleaving moves each down operator past the up operators
                # of later sites
                swaps = sum(up_bits[t] for s in range(length) if dn_bits[s]
                            for t in range(s + 1, length))
                dense[index] = (-1.0) ** swaps * psi[iu * len(basis.dn_states) + idn]
        for i in range(length):
            for j in range(length):
                if i == j:
                    continue
                reference = fock.reduce_to_orbitals(dense, (i, j), length)
                reduced = lattice._pair_rdm_from_vector(psi, basis, i, j)
                assert np.abs(reduced - reference).max() < 1e-14

    def test_index_validation(self):
        basis = lattice.sector_basis(4, 2, 2)
        gs = lattice.ground_state(lattice.build_hamiltonian(lattice.ChainSpec(4, 2, 2), basis))
        with pytest.raises(ValueError):
            lattice.two_orbital_rdm(gs, basis, 1, 1)
        with pytest.raises(ValueError):
            lattice.two_orbital_rdm(gs, basis, 0, 4)


class TestBondScan:
    def test_requires_half_filled_open_even_chain(self):
        with pytest.raises(ValueError):
            lattice.bond_scan(lattice.ChainSpec(4, 2, 2, boundary="periodic"), [0.0], [0.0], 1)
        with pytest.raises(ValueError):
            lattice.bond_scan(lattice.ChainSpec(4, 1, 1), [0.0], [0.0], 1)
        with pytest.raises(ValueError):
            lattice.bond_scan(lattice.ChainSpec(4, 2, 2), [0.0], [0.0], 0)

    def test_row_shape(self):
        rows = lattice.bond_scan(lattice.ChainSpec(4, 2, 2), [0.0], [0.0, 0.5], 2)
        assert len(rows) == 2
        for row in rows:
            assert row["e_strong"] >= row["e_weak"] >= 0.0
            assert row["delta"] == pytest.approx(row["e_strong"] - row["e_weak"])

    def test_rows_match_point_by_point_solves(self):
        # the scan reuses one hopping build; each point solved on its own
        # from a full build must give the same rows, bit for bit
        chain = lattice.ChainSpec(8, 4, 4)
        u_values, v_values = [4.0, 6.0], [2.5, 3.0]
        rows = lattice.bond_scan(chain, u_values, v_values, 4, seed=3)
        basis = lattice.sector_basis(8, 4, 4)
        expected = []
        for u in u_values:
            for v in v_values:
                point = lattice.ChainSpec(8, 4, 4, u=u, v=v)
                gs = lattice.ground_state(lattice.build_hamiltonian(point, basis), seed=3)
                left, right = (
                    ent.orbital_entanglement(lattice.two_orbital_rdm(gs, basis, i, j),
                                             "number").value
                    for i, j in ((3, 4), (4, 5))
                )
                expected.append({"u": u, "v": v, "e_strong": max(left, right),
                                 "e_weak": min(left, right), "delta": abs(left - right),
                                 "energy": gs.energy})
        assert rows == expected

    def test_deep_cdw_collapse(self):
        # a dominant neighbor repulsion freezes the chain into the classical
        # charge-density-wave mixture, so both bond entanglements collapse
        basis = lattice.sector_basis(6, 3, 3)
        values = []
        for v in (3.0, 8.0, 20.0):
            chain = lattice.ChainSpec(6, 3, 3, u=1.0, v=v)
            gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
            bonds = [
                ent.orbital_entanglement(
                    lattice.two_orbital_rdm(gs, basis, i, i + 1), "number"
                ).value
                for i in (2, 3)
            ]
            values.append(max(bonds))
        assert values[0] > values[1] > values[2]
        assert values[-1] < 0.01


class TestMemoryPreflight:
    @staticmethod
    def size_estimate(chain):
        basis = lattice.sector_basis(chain.length, chain.n_up, chain.n_dn)
        k_up, k_dn = (lattice._species_hopping(states, chain.length, chain.bonds)
                      for states in (basis.up_states, basis.dn_states))
        return lattice._hamiltonian_size(k_up, k_dn)

    @pytest.mark.parametrize("chain", [lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
                                       lattice.ChainSpec(5, 2, 3, u=2.0, v=0.7,
                                                         boundary="periodic")])
    def test_estimate_is_exact(self, chain):
        h = lattice.build_hamiltonian(chain)
        stored = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        assert self.size_estimate(chain) == (h.nnz, stored)

    def test_half_filled_l12_is_admitted(self):
        nnz, stored = self.size_estimate(lattice.ChainSpec(12, 6, 6))
        assert nnz == 11_099_088
        assert stored <= lattice.MAX_HAMILTONIAN_BYTES

    def test_half_filled_l14_is_refused(self):
        # the estimate is checked first, so code without the preflight fails
        # here instead of building the multi-gigabyte matrix
        chain = lattice.ChainSpec(14, 7, 7, u=6.0, v=3.0)
        nnz, stored = self.size_estimate(chain)
        assert stored > lattice.MAX_HAMILTONIAN_BYTES
        with pytest.raises(OrbentError, match=rf"{nnz} nonzeros .* above the 512 MiB limit"):
            lattice.build_hamiltonian(chain)
        with pytest.raises(OrbentError, match="above the 512 MiB limit"):
            lattice.bond_scan(chain, [6.0], [3.0], 7)
