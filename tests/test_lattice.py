import logging
import math
import os
import re
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

    @pytest.mark.parametrize("name", ["t_hop", "u", "v"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_are_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            lattice.ChainSpec(4, 2, 2, **{name: value})
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            replace(lattice.ChainSpec(4, 2, 2), **{name: value})

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

    def test_dense_path_spends_no_matvecs(self):
        gs = lattice.ground_state(lattice.build_hamiltonian(lattice.ChainSpec(4, 2, 2, u=4.0)))
        assert gs.matvecs == 0


def _arpack_reference(h, seed=7):
    v0 = np.random.default_rng(seed).normal(size=h.shape[0])
    energies, vectors, _ = lattice._lowest_eigenpairs(h, 2, v0 / np.linalg.norm(v0))
    return energies, vectors[:, 0]


class TestLanczosSolver:
    """The two-pass Lanczos ground state and its deflated gap run."""

    @staticmethod
    def assert_matches(gs, h, energies, vector):
        assert gs.energy == pytest.approx(energies[0], abs=1e-11)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert gs.residual < 1e-12
        assert np.linalg.norm(h @ gs.amplitudes - gs.energy * gs.amplitudes) == gs.residual
        assert abs(gs.amplitudes @ vector) == pytest.approx(1.0, abs=1e-12)
        assert not gs.degenerate and len(gs.multiplet) == 1

    @pytest.mark.parametrize("u, v", [(6.0, 3.0), (0.0, 4.0)])
    def test_l6_matches_dense_and_arpack(self, u, v):
        h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 3, u=u, v=v))
        gs = lattice.ground_state(h, dense_cutoff=10)
        assert gs.matvecs > 0
        energies, vectors = np.linalg.eigh(h.toarray())
        self.assert_matches(gs, h, energies, vectors[:, 0])
        self.assert_matches(gs, h, *_arpack_reference(h))

    @pytest.mark.parametrize("u, v", [(0.0, 0.0), (6.0, 3.0), (0.0, 4.0)])
    def test_l8_matches_arpack(self, u, v):
        # a dense solve of the 4,900 states takes seconds; ARPACK and, at
        # U = V = 0, the single-particle levels are the references
        h = lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=u, v=v))
        gs = lattice.ground_state(h)
        self.assert_matches(gs, h, *_arpack_reference(h))
        if u == v == 0.0:
            levels = np.linalg.eigvalsh(np.diag(np.full(7, -1.0), 1) + np.diag(np.full(7, -1.0), -1))
            assert gs.energy == pytest.approx(2 * levels[:4].sum(), abs=1e-11)
            # one electron lifted from the highest filled level to the lowest empty one
            assert gs.energy_gap == pytest.approx(levels[4] - levels[3], abs=1e-9)

    def test_gapped_chains_never_reach_arpack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK ran on a gapped chain")

        monkeypatch.setattr(lattice, "_lowest_eigenpairs", refuse)
        for chain in (lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0), lattice.ChainSpec(6, 3, 3, u=4.0)):
            gs = lattice.ground_state(lattice.build_hamiltonian(chain), dense_cutoff=10)
            assert not gs.degenerate and gs.energy_gap > 0.1

    def test_same_seed_gives_identical_amplitudes(self):
        h = lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0))
        first, second = lattice.ground_state(h, seed=11), lattice.ground_state(h, seed=11)
        assert np.array_equal(first.amplitudes, second.amplitudes)
        assert (first.energy, first.energy_gap, first.matvecs) == (
            second.energy, second.energy_gap, second.matvecs)

    def test_step_cap_raises_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "LANCZOS_MAX_STEPS", 15)
        h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0))
        with pytest.raises(OrbentError, match="did not converge in 15 Lanczos steps"):
            lattice.ground_state(h, dense_cutoff=10)

    @pytest.mark.parametrize("matrix_free", [False, True])
    @pytest.mark.parametrize("u, error, message", [
        # a norm bound of about 20 leaves the certificate far above rounding
        (4.0, OrbentError, r"^eigensolver residual \S+ too large$"),
        (1e9, ValueError, r"^eigensolver residual \S+ too large: these couplings put the 1e-08 "
                          r"residual certificate out of reach, below rounding at the "
                          r"Hamiltonian's Gershgorin norm bound 3\.000e\+09$"),
    ])
    def test_residual_refusal_names_its_cause(self, u, error, message, matrix_free, monkeypatch):
        # a Ritz value 1e-3 off: a solver failure, unless the couplings put the
        # residual certificate below rounding anyway
        run = lattice._lanczos_lowest

        def off(*args):
            theta, *rest = run(*args)
            return (theta + 1e-3, *rest)

        monkeypatch.setattr(lattice, "_lanczos_lowest", off)
        chain = lattice.ChainSpec(6, 3, 3, u=u)
        h = lattice._SectorOperator(chain) if matrix_free else lattice.build_hamiltonian(chain)
        with pytest.raises(error, match=message) as caught:
            lattice.ground_state(h, dense_cutoff=10)
        assert isinstance(caught.value, OrbentError) == (error is OrbentError)

    @pytest.fixture
    def run_steps(self, monkeypatch):
        """Steps of each Lanczos run, in order: the ground run, then the gap run."""
        steps = []
        run = lattice._lanczos_lowest

        def recorded(*args):
            result = run(*args)
            steps.append(len(result[2]))
            return result

        monkeypatch.setattr(lattice, "_lanczos_lowest", recorded)
        return steps

    def test_repeated_diagonal_closes_the_krylov_space(self, run_steps):
        import scipy.sparse as sparse

        # three distinct entries: each run ends when its Krylov space closes,
        # before the first periodic check, and never divides by the zero beta
        h = sparse.diags([3.0, 1.0, 3.0, -2.0, 1.0, 3.0]).tocsr()
        gs = lattice.ground_state(h, dense_cutoff=0)
        # the shift lifts the ground vector onto the top entry: two levels are left
        assert run_steps == [3, 2]
        assert gs.energy == pytest.approx(-2.0, abs=1e-14)
        assert gs.energy_gap == pytest.approx(3.0, abs=1e-14)
        assert abs(gs.amplitudes[3]) == pytest.approx(1.0, abs=1e-14)
        # the ground run keeps its three vectors, so the Ritz vector costs no product
        assert gs.matvecs == 3 + 2

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_tiny_sectors_match_dense(self, dim, run_steps):
        import scipy.sparse as sparse

        a = np.random.default_rng(dim).normal(size=(dim, dim))
        h = sparse.csr_matrix(a + a.T)
        gs = lattice.ground_state(h, dense_cutoff=0)
        # each run closes after dim steps, at a rounding-level beta
        assert run_steps == ([dim, dim] if dim > 1 else [1])
        energies, vectors = np.linalg.eigh(a + a.T)
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert abs(gs.amplitudes @ vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
        expected_gap = energies[1] - energies[0] if dim > 1 else math.inf
        assert gs.energy_gap == pytest.approx(expected_gap, abs=1e-12)
        assert not gs.degenerate

    def test_periodic_l4_ring_closes_and_falls_back(self, run_steps, monkeypatch):
        # the free ring's four-fold level: each Lanczos run ends when its
        # Krylov space closes, and ARPACK gives the whole multiplet
        h = lattice.build_hamiltonian(lattice.ChainSpec(4, 2, 2, boundary="periodic"))
        arpack = []
        solve = lattice._lowest_eigenpairs

        def recorded(*args):
            result = solve(*args)
            arpack.append((args[1], result[2]))
            return result

        monkeypatch.setattr(lattice, "_lowest_eigenpairs", recorded)
        gs = lattice.ground_state(h, dense_cutoff=0)
        dense = lattice.ground_state(h)
        assert len(run_steps) == 2 and max(run_steps) < lattice.LANCZOS_CHECK_EVERY
        [(k, arpack_matvecs)] = arpack
        assert k == 6
        assert gs.matvecs == run_steps[0] + run_steps[1] + arpack_matvecs
        assert gs.energy == pytest.approx(dense.energy, abs=1e-12)
        assert gs.degenerate and len(gs.multiplet) == len(dense.multiplet) == 4

    @staticmethod
    def keep_rows(monkeypatch, rows, dim):
        monkeypatch.setattr(lattice, "LANCZOS_BASIS_BYTES", rows * 8 * dim)

    @pytest.mark.parametrize("chain, dense_cutoff", [
        (lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0), 10),
        (lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0), lattice.DENSE_CUTOFF),
    ])
    def test_kept_rows_do_not_move_a_bit(self, chain, dense_cutoff, run_steps, monkeypatch):
        # the kept vectors are the ones the three-term rebuild makes, so
        # keeping 1, 3 or every row gives the same bits; only the rebuild's
        # products go away
        h = lattice.build_hamiltonian(chain)
        dim = h.shape[0]
        solves = []
        for rows in (1, 3, lattice.LANCZOS_MAX_STEPS):
            self.keep_rows(monkeypatch, rows, dim)
            run_steps.clear()
            gs = lattice.ground_state(h, dense_cutoff=dense_cutoff)
            ground, gap = run_steps
            assert gs.matvecs == ground + max(ground - rows, 0) + gap
            solves.append(gs)
        first = solves[0]
        for gs in solves[1:]:
            assert np.array_equal(gs.amplitudes, first.amplitudes)
            assert (gs.energy, gs.energy_gap, gs.residual, gs.degenerate) == (
                first.energy, first.energy_gap, first.residual, first.degenerate)

    def test_default_budget_keeps_every_l8_step(self, run_steps):
        h = lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0))
        gs = lattice.ground_state(h)
        assert lattice.LANCZOS_BASIS_BYTES // (8 * h.shape[0]) > run_steps[0]
        assert gs.matvecs == sum(run_steps)

    def test_partial_block_at_l10_matches_the_one_row_solve(self, monkeypatch):
        # the default budget keeps 33 of the L=10 ground run's ~130 vectors
        # and rebuilds the rest from the last two kept rows
        h = lattice.build_hamiltonian(lattice.ChainSpec(10, 5, 5, u=6.0, v=3.0))
        assert 1 < lattice.LANCZOS_BASIS_BYTES // (8 * h.shape[0]) < 100
        partial = lattice.ground_state(h)
        self.keep_rows(monkeypatch, 1, h.shape[0])
        single = lattice.ground_state(h)
        assert np.array_equal(partial.amplitudes, single.amplitudes)
        assert (partial.energy, partial.energy_gap, partial.residual) == (
            single.energy, single.energy_gap, single.residual)
        assert partial.matvecs < single.matvecs

    def test_tridiagonal_solve_matches_eigh_tridiagonal(self):
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(12)
        for m in range(1, 151):
            alphas = list(rng.normal(size=m) * 3.0)
            betas = list(rng.uniform(0.05, 2.0, size=m - 1))
            theta, s = lattice._tridiagonal_lowest(alphas, betas)
            ref_theta, ref_s = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
            assert theta == ref_theta[0]
            assert np.array_equal(s, ref_s[:, 0])

    def test_tridiagonal_failure_is_typed(self, monkeypatch):
        def failing(d, *args):
            n = len(d)
            return 0, np.zeros(n), np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int32), -3

        monkeypatch.setattr(lattice, "dstebz", failing)
        with pytest.raises(OrbentError, match="LAPACK info -3"):
            lattice._tridiagonal_lowest([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="infs or NaNs"):
            lattice._tridiagonal_lowest([1.0, math.nan], [0.5])

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_multiplet_filling_a_tiny_sector_comes_out_whole(self, dim, monkeypatch):
        import scipy.sparse as sparse

        # ARPACK's k = dim - 1 pairs cannot hold a level that fills the
        # sector, so the degenerate branch solves these sectors densely
        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK ran on a sector it cannot hold whole")

        monkeypatch.setattr(lattice, "_lowest_eigenpairs", refuse)
        gs = lattice.ground_state(sparse.diags(np.full(dim, 2.0)).tocsr(), dense_cutoff=0)
        assert gs.energy == 2.0
        assert gs.degenerate and gs.energy_gap == 0.0 and len(gs.multiplet) == dim
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(dim)).max() < 1e-12

    def test_interacting_l4_ring_stops_where_its_krylov_space_closes(self, run_steps):
        # the ring's symmetries keep the ground run in fewer levels than the
        # 36 states; it ends at the closing beta (about 2e-11 times the norm)
        # instead of dividing by it and running on among ghost copies
        h = lattice.build_hamiltonian(lattice.ChainSpec(4, 2, 2, u=4.0, boundary="periodic"))
        gs = lattice.ground_state(h, dense_cutoff=0)
        assert run_steps[0] < h.shape[0]
        energies = np.linalg.eigvalsh(h.toarray())
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert gs.residual < 1e-10 and not gs.degenerate


class TestSparseKernel:
    """The Lanczos runs call scipy's private ``csr_matvec`` kernel directly;
    a scipy release that changes what ``@`` computes shows up here."""

    @pytest.mark.parametrize("chain", [
        lattice.ChainSpec(4, 2, 2, u=4.0, v=1.0, boundary="periodic"),
        lattice.ChainSpec(6, 3, 2, t_hop=0.7, u=-2.0),
        lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
        lattice.ChainSpec(8, 4, 4, t_hop=0.0, u=6.0),
        lattice.ChainSpec(10, 5, 5, u=6.0, v=3.0),
    ])
    def test_products_match_scipy_bit_for_bit(self, chain):
        h = lattice.build_hamiltonian(chain)
        operator = lattice._CsrOperator(h)
        dim = h.shape[0]
        x = np.random.default_rng(chain.length).normal(size=dim)
        # the product zeroes what it writes into
        out = np.full(dim, np.nan)
        assert operator.apply(x, out) is out
        assert np.array_equal(out, h @ x)
        ones = np.ones(dim)
        sums = operator.apply(ones, np.full(dim, np.nan), data=np.abs(h.data))
        assert np.array_equal(sums, abs(h) @ ones)
        diag = h.diagonal()
        radius = abs(h) @ ones - np.abs(diag)
        assert operator.interval == (float((diag - radius).min()),
                                     float((diag + radius).max()))

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_adapter_presents_the_matrix_it_wraps(self, fmt):
        # the dense path reads toarray, the residual check reads @
        h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 2, t_hop=0.7, u=4.0, v=1.0))
        operator = lattice._CsrOperator(h.asformat(fmt))
        assert (operator.shape, operator.dtype) == (h.shape, h.dtype)
        x = np.random.default_rng(6).normal(size=h.shape[0])
        assert np.array_equal(operator @ x, h @ x)
        assert np.array_equal(operator.apply(x, np.empty_like(x)), h @ x)
        assert np.array_equal(operator.toarray(), h.toarray())

    def test_other_sparse_formats_solve_as_csr(self):
        h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0))
        as_csr = lattice.ground_state(h, dense_cutoff=10)
        as_csc = lattice.ground_state(h.tocsc(), dense_cutoff=10)
        assert np.array_equal(as_csr.amplitudes, as_csc.amplitudes)
        assert (as_csr.energy, as_csr.energy_gap, as_csr.matvecs) == (
            as_csc.energy, as_csc.energy_gap, as_csc.matvecs)


class TestSectorOperator:
    """The matrix-free operator the ED commands solve through, against the CSR matrix."""

    @pytest.mark.parametrize("chain, dense_cutoff", [
        (lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0), lattice.DENSE_CUTOFF),
        (lattice.ChainSpec(8, 4, 4, t_hop=-0.5, u=2.0, v=3.0), lattice.DENSE_CUTOFF),
        (lattice.ChainSpec(7, 4, 2, t_hop=0.7, u=4.0, v=-1.0, boundary="periodic"), 10),
        (lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0), 10),
        (lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0), lattice.DENSE_CUTOFF),
        (lattice.ChainSpec(10, 5, 5, u=6.0, v=3.0), lattice.DENSE_CUTOFF),
    ])
    def test_solves_match_csr_solves(self, chain, dense_cutoff):
        basis = lattice.sector_basis(chain.length, chain.n_up, chain.n_dn)
        h = lattice.build_hamiltonian(chain, basis)
        reference = lattice.ground_state(h, dense_cutoff=dense_cutoff)
        gs = lattice.ground_state(lattice._SectorOperator(chain, basis), dense_cutoff=dense_cutoff)
        assert gs.energy == pytest.approx(reference.energy, abs=1e-11)
        assert gs.energy_gap == pytest.approx(reference.energy_gap, abs=1e-9)
        assert gs.degenerate == reference.degenerate
        assert gs.residual < 1e-12
        assert np.linalg.norm(h @ gs.amplitudes - gs.energy * gs.amplitudes) < 1e-12
        if basis.dim <= dense_cutoff:
            # the same dense matrix: the same bits
            assert np.array_equal(gs.amplitudes, reference.amplitudes)
        # a degenerate multiplet's vectors differ between the solves, its average does not
        for i in range(chain.length - 1):
            rdm, expected = (lattice.two_orbital_rdm(state, basis, i, i + 1,
                                                     on_degenerate="mixture").matrix
                             for state in (gs, reference))
            assert np.abs(rdm - expected).max() < 1e-10

    @pytest.mark.parametrize("length, filling", [(4, 2), (6, 2), (8, 4)])
    def test_rings_fall_back_to_arpack_whole(self, length, filling, monkeypatch):
        chain = lattice.ChainSpec(length, filling, filling, boundary="periodic")
        arpack = []
        solve = lattice._lowest_eigenpairs

        def recorded(*args):
            arpack.append(args[1])
            return solve(*args)

        monkeypatch.setattr(lattice, "_lowest_eigenpairs", recorded)
        gs = lattice.ground_state(lattice._SectorOperator(chain), dense_cutoff=10)
        assert arpack == [6]
        ring = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(length) / length))
        assert gs.energy == pytest.approx(2.0 * ring[:filling].sum(), abs=1e-10)
        assert gs.degenerate and len(gs.multiplet) == 4
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(4)).max() < 1e-10
        h = lattice.build_hamiltonian(chain)
        for v in gs.multiplet:
            assert np.linalg.norm(h @ v - gs.energy * v) < lattice.RESIDUAL_TOL

    def test_matvecs_count_operator_products(self, monkeypatch):
        operator = lattice._SectorOperator(lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0))
        products = []
        apply = operator.apply

        def counted(x, out):
            products.append(1)
            return apply(x, out)

        monkeypatch.setattr(operator, "apply", counted)
        gs = lattice.ground_state(operator)
        # every product but the residual check's
        assert gs.matvecs == len(products) - 1 > 0

    def test_a_new_point_keeps_the_hoppings_and_moves_the_diagonal(self):
        chain = lattice.ChainSpec(6, 3, 2, t_hop=0.7, u=1.0, v=0.5, boundary="periodic")
        point = replace(chain, u=-3.0, v=2.0)
        reused = lattice._SectorOperator(chain).at(point)
        fresh = lattice._SectorOperator(point)
        assert reused.interval == fresh.interval
        assert reused.toarray().tobytes() == fresh.toarray().tobytes()
        x = np.random.default_rng(5).normal(size=reused.shape[0])
        assert np.array_equal(reused @ x, fresh @ x)

    def test_preflight_counts_the_solve_vectors(self):
        # L = 12 holds its two kept Lanczos rows and eight other sector
        # vectors; L = 14 keeps one row, and its nine vectors pass the budget
        admitted = lattice._SectorOperator(lattice.ChainSpec(12, 6, 6, u=6.0, v=3.0))
        dim = admitted.shape[0]
        assert lattice._krylov_rows(dim) == 2
        assert 8 * dim * (2 + lattice.SOLVE_VECTORS) <= lattice.MAX_HAMILTONIAN_BYTES
        with pytest.raises(OrbentError, match=r"^sector of 11778624 states \(176679360 nonzeros\) "
                                              r"needs 9 vectors in 809 MiB to solve, "
                                              r"above the 512 MiB limit$"):
            lattice._SectorOperator(lattice.ChainSpec(14, 7, 7))

    @pytest.mark.parametrize("fields, message", [
        # two doublons: 2 U overflows
        ({"u": 1e308}, "U = 1e+308 and V = 0.0 overflow the interaction diagonal"),
        ({"u": 1e308, "v": -1e308}, "U = 1e+308 and V = -1e+308 overflow the interaction diagonal"),
        ({"t_hop": 1e308}, "t_hop = 1e+308, U = 0.0 and V = 0.0 overflow the Hamiltonian's "
                           "Gershgorin bounds"),
        # a finite diagonal up to 1e308, whose spectral width and norm bound overflow together
        ({"u": 5e307}, "t_hop = 1.0, U = 5e+307 and V = 0.0 overflow the Hamiltonian's "
                       "Gershgorin bounds"),
    ])
    def test_overflowing_parameters_are_refused_by_name(self, fields, message):
        # warnings are errors here, so a numpy RuntimeWarning on the way fails the test
        chain = lattice.ChainSpec(4, 2, 2, **fields)
        pattern = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=pattern):
            lattice._SectorOperator(chain)
        with pytest.raises(ValueError, match=pattern):
            lattice._SectorOperator(lattice.ChainSpec(4, 2, 2, t_hop=chain.t_hop)).at(chain)


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

    @staticmethod
    def per_call_reduction(psi, basis, i, j):
        """The reduction with every table rebuilt per call, multiplied sign by sign."""
        n_up_total = int(np.bitwise_count(basis.up_states[0]))
        ku, env_u, sign_u = lattice._species_reduction_data(basis.up_states, i, j)
        kd, env_d, sign_d = lattice._species_reduction_data(basis.dn_states, i, j)
        local = np.array([[0, 2], [1, 3]])
        code_u, code_d = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        u_i, u_j = code_u >> 1, code_u & 1
        d_i, d_j = code_d >> 1, code_d & 1
        kept16 = 4 * local[u_i, d_i] + local[u_j, d_j]
        cross = 1.0 - 2.0 * ((d_i * (n_up_total - u_i) + d_j * (n_up_total - u_i - u_j)) % 2)
        amplitudes = psi.reshape(len(basis.up_states), len(basis.dn_states))
        values = amplitudes * sign_u[:, None] * sign_d[None, :] * cross[ku[:, None], kd[None, :]]
        rows = kept16[ku[:, None], kd[None, :]]
        n_env_d = int(env_d.max()) + 1
        cols = env_u[:, None] * n_env_d + env_d[None, :]
        collected = np.zeros((fock.DIM, (int(env_u.max()) + 1) * n_env_d), dtype=values.dtype)
        collected[rows, cols] = values
        return collected @ collected.conj().T

    @pytest.mark.parametrize("length, n_up, n_dn", [(6, 3, 3), (6, 2, 4), (8, 4, 4)])
    def test_kept_pair_tables_give_the_per_call_bits(self, length, n_up, n_dn):
        basis = lattice.sector_basis(length, n_up, n_dn)
        chain = lattice.ChainSpec(length, n_up, n_dn, u=4.0, v=1.0)
        psi = lattice.ground_state(lattice.build_hamiltonian(chain, basis)).amplitudes
        rng = np.random.default_rng(length + n_up)
        phased = psi * np.exp(1j * rng.uniform(0, 2 * np.pi, size=psi.size))
        pairs = [(1, 2), (2, 1), (0, length - 1), (3, 1)]
        for vector in (psi, phased, -psi):
            for i, j in pairs:
                reduced = lattice._pair_rdm_from_vector(vector, basis, i, j)
                assert np.array_equal(reduced, self.per_call_reduction(vector, basis, i, j))
        assert sorted(basis._pair_tables) == sorted(pairs)
        tables = basis._pair_tables[(1, 2)]
        lattice._pair_rdm_from_vector(psi, basis, 1, 2)
        assert basis._pair_tables[(1, 2)] is tables

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
        # the scan reuses one operator build; each point solved on its own
        # through a fresh operator must give the same rows, bit for bit
        chain = lattice.ChainSpec(8, 4, 4)
        u_values, v_values = [4.0, 6.0], [2.5, 3.0]
        rows = lattice.bond_scan(chain, u_values, v_values, 4, seed=3)
        basis = lattice.sector_basis(8, 4, 4)
        expected = []
        for u in u_values:
            for v in v_values:
                point = lattice.ChainSpec(8, 4, 4, u=u, v=v)
                gs = lattice.ground_state(lattice._SectorOperator(point, basis), seed=3)
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
