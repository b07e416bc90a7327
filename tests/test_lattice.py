import hashlib
import json
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

from conftest import dense_form, kronecker_hamiltonian

LN2 = math.log(2.0)


def assert_solves_without_arpack(solves):
    """Run ``solves`` in a fresh interpreter, warnings as errors, and check
    that ARPACK's ``scipy.sparse.linalg`` never loads: one eigensolver serves."""
    probe = ("import sys\nimport numpy as np\nimport scipy.sparse as sparse\n"
             "from orbent import lattice\n" + textwrap.dedent(solves)
             + "\nassert 'scipy.sparse.linalg' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


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
        h = dense_form(lattice.build_hamiltonian(chain, basis))
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        # |updown, updown, 0, 0>: two doublons on adjacent sites
        idx = basis.index(0b0011, 0b0011)
        assert h[idx, idx] == pytest.approx(2 * 3.0 + 1.5 * 4.0)

    def test_hermitian(self):
        chain = lattice.ChainSpec(5, 2, 3, u=2.0, v=0.7, boundary="periodic")
        h = dense_form(lattice.build_hamiltonian(chain))
        assert np.array_equal(h, h.T)

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
    def test_diagonal_operator(self):
        # t = 0: the lowest entry, 2 U for the two doublons on the end sites
        # of a three-site chain, lies below the others (10, 13 and 14); it is
        # read off the diagonal, without a Lanczos run
        chain = lattice.ChainSpec(3, 2, 2, t_hop=0.0, u=1.0, v=3.0)
        basis = lattice.sector_basis(3, 2, 2)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain, basis))
        assert gs.energy == 2.0
        assert abs(abs(gs.amplitudes[basis.index(0b101, 0b101)]) - 1.0) < 1e-12
        assert not gs.degenerate
        assert gs.matvecs == 0

    def test_a_sparse_matrix_is_refused_by_type(self):
        h = kronecker_hamiltonian(lattice.ChainSpec(4, 2, 2, u=4.0))
        with pytest.raises(TypeError, match="^ground_state takes the sector operator of "
                                            "build_hamiltonian, not a csr_matrix$"):
            lattice.ground_state(h)

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
        energies = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())[0]
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        assert gs.energy == pytest.approx(energies[0], abs=1e-9)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert not gs.degenerate and len(gs.multiplet) == 1

    @pytest.mark.parametrize("length, filling", [(4, 2), (6, 2), (8, 4)])
    def test_lanczos_resolves_four_fold_multiplet(self, length, filling):
        # free rings with one electron per spin in a two-fold level: the
        # ground multiplet has four states, more than the first Lanczos
        # solve returns, so four vectors mean the wider solve ran.  With the
        # spin-flip sector switched off, the ground run is the full-space one
        # of a sector with n_up != n_dn.
        chain = lattice.ChainSpec(length, filling, filling, boundary="periodic")
        h = lattice.build_hamiltonian(chain)
        h.spin_flip = False
        gs = lattice.ground_state(h)
        ring = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(length) / length))
        assert gs.energy == pytest.approx(2.0 * ring[:filling].sum(), abs=1e-10)
        assert gs.degenerate and len(gs.multiplet) == 4
        if length < 8:  # the L=8 dense solve takes seconds
            energies, vectors = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())
            assert gs.energy == pytest.approx(energies[0], abs=1e-10)
            exact = vectors[:, energies - energies[0] < lattice.DEGENERACY_TOL]
            assert exact.shape[1] == 4
            # the multiplet and the dense eigenvectors of the level span one space
            lanczos = np.array(gs.multiplet)
            assert np.abs(lanczos.T @ lanczos - exact @ exact.T).max() < 1e-8
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(4)).max() < 1e-10
        reference = kronecker_hamiltonian(chain)
        for v in gs.multiplet:
            assert np.linalg.norm(reference @ v - gs.energy * v) < lattice.RESIDUAL_TOL


def _arpack_reference(h, seed=7):
    """The two lowest levels and the ground vector of the matrix ``h`` by ARPACK,
    independent of orbent's solver."""
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(seed).normal(size=h.shape[0])
    energies, vectors = eigsh(h, k=2, which="SA", v0=v0 / np.linalg.norm(v0))
    order = np.argsort(energies)
    return energies[order], vectors[:, order[0]]


class TestLanczosSolver:
    """The two-pass Lanczos ground state and its deflated gap run."""

    @staticmethod
    def assert_matches(gs, operator, h, energies, vector):
        """``gs``, solved on ``operator``, against the levels and ground vector of
        the reference matrix ``h``."""
        assert gs.energy == pytest.approx(energies[0], abs=1e-11)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert gs.residual < 1e-12
        scaled = gs.energy * gs.amplitudes
        assert np.linalg.norm(operator @ gs.amplitudes - scaled) == gs.residual
        assert np.linalg.norm(h @ gs.amplitudes - scaled) < 1e-12
        assert abs(gs.amplitudes @ vector) == pytest.approx(1.0, abs=1e-12)
        assert not gs.degenerate and len(gs.multiplet) == 1

    @pytest.mark.parametrize("u, v", [(6.0, 3.0), (0.0, 4.0)])
    def test_l6_matches_dense_and_arpack(self, u, v):
        chain = lattice.ChainSpec(6, 3, 3, u=u, v=v)
        operator = lattice.build_hamiltonian(chain)
        gs = lattice.ground_state(operator)
        assert gs.matvecs > 0
        h = kronecker_hamiltonian(chain)
        energies, vectors = np.linalg.eigh(h.toarray())
        self.assert_matches(gs, operator, h, energies, vectors[:, 0])
        self.assert_matches(gs, operator, h, *_arpack_reference(h))

    @pytest.mark.parametrize("u, v", [(0.0, 0.0), (6.0, 3.0), (0.0, 4.0)])
    def test_l8_matches_arpack(self, u, v):
        # a dense solve of the 4,900 states takes seconds; ARPACK and, at
        # U = V = 0, the single-particle levels are the references
        chain = lattice.ChainSpec(8, 4, 4, u=u, v=v)
        operator = lattice.build_hamiltonian(chain)
        gs = lattice.ground_state(operator)
        h = kronecker_hamiltonian(chain)
        self.assert_matches(gs, operator, h, *_arpack_reference(h))
        if u == v == 0.0:
            levels = np.linalg.eigvalsh(np.diag(np.full(7, -1.0), 1) + np.diag(np.full(7, -1.0), -1))
            assert gs.energy == pytest.approx(2 * levels[:4].sum(), abs=1e-11)
            # one electron lifted from the highest filled level to the lowest empty one
            assert gs.energy_gap == pytest.approx(levels[4] - levels[3], abs=1e-9)

    def test_gapped_chains_make_no_partner_runs(self, run_steps):
        for chain in (lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0), lattice.ChainSpec(6, 3, 3, u=4.0)):
            run_steps.clear()
            gs = lattice.ground_state(lattice.build_hamiltonian(chain))
            assert not gs.degenerate and gs.energy_gap > 0.1
            # the ground run and the gap run
            assert len(run_steps) == 2
        assert_solves_without_arpack("""
            for chain in (lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0), lattice.ChainSpec(6, 3, 3, u=4.0)):
                gs = lattice.ground_state(lattice.build_hamiltonian(chain))
                assert not gs.degenerate and gs.energy_gap > 0.1
        """)

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
            lattice.ground_state(h)

    @pytest.mark.parametrize("spin_flip", [False, True])
    @pytest.mark.parametrize("u, error, message", [
        # a norm bound of about 20 leaves the certificate far above rounding
        (4.0, OrbentError, r"^eigensolver residual \S+ too large$"),
        (1e9, ValueError, r"^eigensolver residual \S+ too large: these couplings put the 1e-08 "
                          r"residual certificate out of reach, below rounding at the "
                          r"Hamiltonian's Gershgorin norm bound 3\.000e\+09$"),
    ])
    def test_residual_refusal_names_its_cause(self, u, error, message, spin_flip, monkeypatch):
        # a Ritz value 1e-3 off: a solver failure, unless the couplings put the
        # residual certificate below rounding anyway
        run = lattice._lanczos_lowest

        def off(*args):
            theta, *rest = run(*args)
            return (theta + 1e-3, *rest)

        monkeypatch.setattr(lattice, "_lanczos_lowest", off)
        # with the spin-flip sector off, the ground run is the full-space one
        h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 3, u=u))
        h.spin_flip = spin_flip
        with pytest.raises(error, match=message) as caught:
            lattice.ground_state(h)
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
        # t = 0 and four distinct entries, 2, 10, 13 and 14, on nine states:
        # each run ends when its Krylov space closes, before the first
        # periodic check, and never divides by the zero beta.  With the flag
        # off, the diagonal operator is solved by the runs, not read off.
        chain = lattice.ChainSpec(3, 2, 2, t_hop=0.0, u=1.0, v=3.0)
        basis = lattice.sector_basis(3, 2, 2)
        h = lattice.build_hamiltonian(chain, basis)
        h.is_diagonal = False
        gs = lattice.ground_state(h)
        # the shift lifts the ground vector onto the top entry: three levels are left
        assert run_steps == [4, 3]
        assert gs.energy == pytest.approx(2.0, abs=1e-14)
        assert gs.energy_gap == pytest.approx(8.0, abs=1e-14)
        assert abs(gs.amplitudes[basis.index(0b101, 0b101)]) == pytest.approx(1.0, abs=1e-14)
        # the ground run keeps its four vectors, so the Ritz vector costs no product
        assert gs.matvecs == 4 + 3

    @pytest.mark.parametrize("chain, steps", [
        # one state: two up electrons on two sites
        (lattice.ChainSpec(2, 2, 0, v=1.5), [1]),
        # one electron hopping along two sites: the shift lifts the ground
        # vector onto the other level, so the gap run sees one
        (lattice.ChainSpec(2, 1, 0, t_hop=0.7), [2, 1]),
        # along three and four sites
        (lattice.ChainSpec(3, 1, 0, t_hop=-1.3), [3, 3]),
        (lattice.ChainSpec(4, 1, 0, t_hop=0.4), [4, 4]),
    ], ids=["1", "2", "3", "4"])
    def test_tiny_sectors_match_dense(self, chain, steps, run_steps):
        h = lattice.build_hamiltonian(chain)
        dim = h.shape[0]
        gs = lattice.ground_state(h)
        # each run closes where its Krylov space does, at a rounding-level beta
        assert run_steps == steps
        energies, vectors = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert abs(gs.amplitudes @ vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
        expected_gap = energies[1] - energies[0] if dim > 1 else math.inf
        assert gs.energy_gap == pytest.approx(expected_gap, abs=1e-12)
        assert not gs.degenerate

    def test_periodic_l4_ring_closes_and_finds_its_multiplet(self, run_steps):
        # the free ring's four-fold level: each Lanczos run ends when its
        # Krylov space closes, and the partner runs give the whole multiplet
        chain = lattice.ChainSpec(4, 2, 2, boundary="periodic")
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        energies = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())[0]
        # the verdict: the ground and gap runs and the first partner, at the level
        assert len(run_steps) == 2 + 1 and gs.degenerate
        # every run keeps all its vectors, so no Ritz vector costs a product
        assert gs.matvecs == sum(run_steps)
        members = np.count_nonzero(energies - energies[0] < lattice.DEGENERACY_TOL)
        assert len(gs.multiplet) == members == 4
        # the read adds two partners and the run that finds the level above
        assert len(run_steps) == 2 + 3 + 1 and max(run_steps) < lattice.LANCZOS_CHECK_EVERY
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert_solves_without_arpack("""
            h = lattice.build_hamiltonian(lattice.ChainSpec(4, 2, 2, boundary="periodic"))
            assert len(lattice.ground_state(h).multiplet) == 4
        """)

    @staticmethod
    def keep_rows(monkeypatch, rows, dim):
        monkeypatch.setattr(lattice, "LANCZOS_BASIS_BYTES", rows * 8 * dim)

    @pytest.mark.parametrize("chain", [
        lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0),
        lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
    ])
    def test_kept_rows_do_not_move_a_bit(self, chain, run_steps, monkeypatch):
        # the kept vectors are the ones the three-term rebuild makes, so
        # keeping 1, 3 or every row gives the same bits; only the rebuild's
        # products go away
        h = lattice.build_hamiltonian(chain)
        dim = h.shape[0]
        solves = []
        for rows in (1, 3, lattice.LANCZOS_MAX_STEPS):
            self.keep_rows(monkeypatch, rows, dim)
            run_steps.clear()
            gs = lattice.ground_state(h)
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
        # the default budget keeps 33 of the L=10 ground run's ~110 vectors
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
            # slices of preallocated rows, as a Lanczos run hands them over
            rows = np.full((2, 160), np.nan)
            rows[0, :m], rows[1, :m - 1] = alphas, betas
            sliced_theta, sliced_s = lattice._tridiagonal_lowest(rows[0, :m], rows[1, :m - 1])
            assert sliced_theta == theta and np.array_equal(sliced_s, s)
            # past 2**500 the slices are rescaled by a power of two before LAPACK
            big_theta, big_s = lattice._tridiagonal_lowest(rows[0, :m] * 2.0**600,
                                                           rows[1, :m - 1] * 2.0**600)
            assert big_theta == pytest.approx(theta * 2.0**600, rel=1e-12)
            assert np.abs(np.abs(big_s) - np.abs(s)).max() < 1e-8

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
    def test_multiplet_filling_a_tiny_sector_comes_out_whole(self, dim):
        # one electron that cannot hop: the zero operator, whose unit vectors
        # fill the sector
        chain = lattice.ChainSpec(dim, 1, 0, t_hop=0.0)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        assert gs.energy == 0.0
        assert gs.degenerate and gs.energy_gap == 0.0 and len(gs.multiplet) == dim
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(dim)).max() < 1e-12
        assert_solves_without_arpack(f"""
            h = lattice.build_hamiltonian(lattice.ChainSpec({dim}, 1, 0, t_hop=0.0))
            assert len(lattice.ground_state(h).multiplet) == {dim}
        """)

    def test_degenerate_verdict_stops_at_the_first_partner_on_the_level(self, run_steps):
        # t = 1e-5: a gap of 5.8e-11, below the gap run's residual; the first
        # partner run lands within DEGENERACY_TOL and settles the verdict, and
        # reading the multiplet resumes the runs until one finds the level above
        chain = lattice.ChainSpec(8, 4, 4, t_hop=1e-5, u=4.0, v=1.0)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        assert gs.degenerate and len(run_steps) == 3
        assert gs.matvecs == sum(run_steps) == 530
        assert len(gs.multiplet) == 2 and len(run_steps) == 4

    def test_partner_runs_fill_a_sector_of_one_level(self, run_steps):
        # t = 1e-160 and U = V = 0: every level lies within DEGENERACY_TOL of
        # the lowest and the deflation's shift is far below it, so each
        # partner run finds the level again and its vector is orthogonalized
        # against the others, until they fill the 36 states
        chain = lattice.ChainSpec(4, 2, 2, t_hop=1e-160)
        gs = lattice.ground_state(lattice._SectorOperator(chain))
        assert gs.degenerate and len(gs.multiplet) == 36
        assert len(run_steps) == 2 + 35
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(36)).max() < 1e-12
        assert abs(gs.energy) < 1e-150 and abs(gs.energy_gap) < 1e-150

    @pytest.mark.parametrize("spin_flip", [False, True])
    def test_diagonal_operator_gives_its_lowest_unit_vectors(self, spin_flip):
        # t = 0: every unit vector at the lowest level, 38 of the 400, read
        # off the diagonal whether or not the operator has the even sector
        chain = lattice.ChainSpec(6, 3, 3, t_hop=0.0, u=2.0, v=1.0)
        h = lattice.build_hamiltonian(chain)
        h.spin_flip = spin_flip
        diagonal = h @ np.ones(h.shape[0])
        gs = lattice.ground_state(h)
        assert gs.energy == diagonal.min() == 5.0 and gs.matvecs == 0
        assert gs.degenerate and gs.energy_gap == 0.0
        assert len(gs.multiplet) == np.count_nonzero(diagonal == 5.0) == 38
        for v in gs.multiplet:
            assert np.count_nonzero(v) == 1 and diagonal[np.argmax(v)] == 5.0 and v.max() == 1.0
        assert_solves_without_arpack(f"""
            h = lattice.build_hamiltonian(lattice.ChainSpec(6, 3, 3, t_hop=0.0, u=2.0, v=1.0))
            h.spin_flip = {spin_flip}
            assert len(lattice.ground_state(h).multiplet) == 38
        """)

    def test_l8_diagonal_operator_gives_all_70_vectors(self):
        # t = 0, U = 6: the 70 states without a doublon share the level 0
        gs = lattice.ground_state(lattice._SectorOperator(lattice.ChainSpec(8, 4, 4, t_hop=0.0,
                                                                            u=6.0)))
        assert gs.energy == 0.0 and gs.energy_gap == 0.0
        assert gs.degenerate and len(gs.multiplet) == 70
        assert len({int(np.argmax(v)) for v in gs.multiplet}) == 70

    @pytest.mark.parametrize("chain, members", [
        (lattice.ChainSpec(6, 3, 3, t_hop=1e-160, v=1.0), 4),
        (lattice.ChainSpec(4, 2, 2, t_hop=1e-160, u=2.0, boundary="periodic"), 6),
    ])
    def test_nearly_diagonal_chains_match_dense(self, chain, members):
        # t = 1e-160 leaves the operator diagonal to rounding, but not flagged
        # so: the partner runs find the multiplet, whose level is 0
        energies = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())[0]
        gs = lattice.ground_state(lattice._SectorOperator(chain))
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        level = np.count_nonzero(energies - energies[0] < lattice.DEGENERACY_TOL)
        assert gs.degenerate and len(gs.multiplet) == level == members
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(members)).max() < 1e-12

    def test_diagonal_multiplet_mixture_matches_the_dense_mixture(self):
        # the pair state averaged over the 38 unit vectors of the L = 6, t = 0
        # level, against the average over the dense eigenvectors of the level
        # (400 states): any orthonormal basis of the level gives the same mixture
        chain = lattice.ChainSpec(6, 3, 3, t_hop=0.0, u=2.0, v=1.0)
        basis = lattice.sector_basis(6, 3, 3)
        gs = lattice.ground_state(lattice._SectorOperator(chain, basis))
        energies, vectors = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())
        level = vectors[:, energies - energies[0] < lattice.DEGENERACY_TOL].T
        assert len(gs.multiplet) == len(level) == 38
        for i, j in ((0, 1), (2, 3), (1, 4), (0, 5)):
            mixture = lattice.two_orbital_rdm(gs, basis, i, j, on_degenerate="mixture").matrix
            expected = sum(lattice.two_orbital_rdm(v, basis, i, j).matrix for v in level) / len(level)
            assert np.abs(mixture - expected).max() < 1e-12

    def test_multiplet_past_the_budget_is_refused_by_name(self, monkeypatch):
        # the zero operator at L = 10: a level of all 63,504 states, refused
        # when the multiplet is read
        gs = lattice.ground_state(lattice._SectorOperator(lattice.ChainSpec(10, 5, 5, t_hop=0.0)))
        assert gs.degenerate and gs.energy_gap == 0.0
        with pytest.raises(OrbentError, match=r"^a ground multiplet of 63504 states needs 63545 "
                                              r"vectors in 30787 MiB to solve, above the 512 MiB "
                                              r"limit$"):
            gs.multiplet
        # the free L = 6 ring keeps 1,000 Lanczos rows and eight other
        # vectors; a budget for two multiplet vectors settles the verdict on
        # the second and refuses the third
        chain = lattice.ChainSpec(6, 2, 2, boundary="periodic")
        monkeypatch.setattr(lattice, "MAX_HAMILTONIAN_BYTES", 8 * 225 * (1000 + 8 + 2))
        gs = lattice.ground_state(lattice._SectorOperator(chain))
        assert gs.degenerate
        with pytest.raises(OrbentError, match=r"^a ground multiplet of over 2 states needs 1011 "
                                              r"vectors in 2 MiB to solve"):
            gs.multiplet
        # the refused read keeps the two vectors it found; the next one goes on from them
        monkeypatch.undo()
        assert len(gs.multiplet) == 4

    def test_interacting_l4_ring_stops_where_its_krylov_space_closes(self, run_steps):
        # the ring's symmetries keep the ground run in fewer levels than the
        # 36 states; it ends at the closing beta (about 2e-11 times the norm)
        # instead of dividing by it and running on among ghost copies
        chain = lattice.ChainSpec(4, 2, 2, u=4.0, boundary="periodic")
        h = lattice.build_hamiltonian(chain)
        gs = lattice.ground_state(h)
        assert run_steps[0] < h.shape[0]
        energies = np.linalg.eigvalsh(kronecker_hamiltonian(chain).toarray())
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert gs.residual < 1e-10 and not gs.degenerate


class TestSparseKernel:
    """The operator's products call scipy's private ``csr_matvecs`` kernel
    directly; a scipy release that changes its arguments or what ``@``
    computes shows up here."""

    @pytest.mark.parametrize("chain", [
        lattice.ChainSpec(4, 2, 2, u=4.0, v=1.0, boundary="periodic"),
        lattice.ChainSpec(6, 3, 2, t_hop=0.7, u=-2.0),
        lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
        lattice.ChainSpec(8, 4, 4, t_hop=0.0, u=6.0),
        lattice.ChainSpec(10, 5, 5, u=6.0, v=3.0),
    ])
    def test_products_match_scipy_bit_for_bit(self, chain):
        import scipy.sparse as sparse

        operator = lattice.build_hamiltonian(chain)
        n_up, n_dn = operator._n
        x = np.random.default_rng(chain.length).normal(size=(n_up, n_dn))
        # each species' scaled hopping, as the operator hands it to the
        # kernel, times a block of vectors: added onto zeros, scipy's product
        for (indptr, indices, data), block in ((operator._up, x), (operator._dn, x.T.copy())):
            n, vectors = block.shape
            hopping = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
            out = np.zeros((n, vectors))
            lattice.csr_matvecs(n, n, vectors, indptr, indices, data, block, out)
            assert np.array_equal(out, hopping @ block)
        # the product zeroes what it writes into
        out = np.full(n_up * n_dn, np.nan)
        assert operator.apply(x.ravel(), out) is out
        assert np.array_equal(out, operator @ x)
        low, high = operator.interval
        h = kronecker_hamiltonian(chain)
        assert np.abs(out - h @ x.ravel()).max() <= 1e-14 * max(-low, high) * np.abs(x).max()


class TestCompiledModules:
    """``lattice`` loads scipy's three compiled modules from their files, and
    falls back to the package import where scipy's layout has none."""

    PROBE = textwrap.dedent("""
        import hashlib, importlib.machinery, importlib.util, json, sys
        find_spec = importlib.util.find_spec
        if len(sys.argv) > 1:
            # scipy's directory, as the loader sees it, is an empty one
            def without_files(name, package=None):
                if name != "scipy":
                    return find_spec(name, package)
                spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
                spec.submodule_search_locations = [sys.argv[1]]
                return spec
            importlib.util.find_spec = without_files
        from orbent import lattice
        importlib.util.find_spec = find_spec
        path = "package" if "scipy.linalg" in sys.modules else "direct"
        h = lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0))
        gs = lattice.ground_state(h)
        # a later package import reuses each module, whichever way it came
        import scipy.linalg.blas, scipy.linalg.lapack, scipy.sparse
        modules = [sys.modules[f"scipy.{m}"] for m in
                   ("linalg._fblas", "linalg._flapack", "sparse._sparsetools")]
        print(json.dumps({
            "path": path,
            "shared": [lattice.daxpy is scipy.linalg.blas.daxpy is modules[0].daxpy,
                       lattice.dstein is scipy.linalg.lapack.dstein is modules[1].dstein,
                       lattice.csr_matvecs is modules[2].csr_matvecs],
            "solve": [hashlib.sha256(gs.amplitudes.tobytes()).hexdigest(),
                      *map(float.hex, (gs.energy, gs.energy_gap, gs.residual)), gs.matvecs],
        }))
    """)

    @staticmethod
    def run(probe, *argv):
        """``probe``'s stdout in a fresh interpreter, warnings as errors."""
        env = dict(os.environ, PYTHONPATH=str(Path(lattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", probe, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    def test_both_paths_solve_to_the_same_bits(self, tmp_path):
        # the fallback returns the package's modules; the solve that
        # test_kept_rows_do_not_move_a_bit pins keeps its bits on either path
        direct = json.loads(self.run(self.PROBE))
        package = json.loads(self.run(self.PROBE, tmp_path))
        assert (direct["path"], package["path"]) == ("direct", "package")
        assert direct["shared"] == package["shared"] == [True, True, True]
        gs = lattice.ground_state(lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=6.0,
                                                                              v=3.0)))
        assert direct["solve"] == package["solve"] == [
            hashlib.sha256(gs.amplitudes.tobytes()).hexdigest(),
            *map(float.hex, (gs.energy, gs.energy_gap, gs.residual)), gs.matvecs]

    def test_a_loaded_package_module_is_reused(self):
        # with the packages imported first, the loader looks for no file
        self.run(textwrap.dedent("""
            import importlib.util, scipy.linalg.blas, scipy.linalg.lapack, scipy.sparse
            find_spec, from_file = importlib.util.find_spec, importlib.util.spec_from_file_location
            def looked_up(*args):
                raise AssertionError(f"a loaded module was looked up again: {args}")
            importlib.util.find_spec = importlib.util.spec_from_file_location = looked_up
            from orbent import lattice
            importlib.util.find_spec, importlib.util.spec_from_file_location = find_spec, from_file
            assert lattice.csr_matvecs is scipy.sparse._sparsetools.csr_matvecs
            assert lattice.ddot is scipy.linalg.blas.ddot
            assert lattice.dstebz is scipy.linalg.lapack.dstebz
        """))


class TestSectorOperator:
    """The matrix-free operator the ED commands solve through, against the Kronecker reference."""

    @pytest.mark.parametrize("length, n_up, n_dn", [(6, 3, 3), (8, 3, 4), (8, 4, 3)])
    def test_another_sectors_basis_is_refused(self, length, n_up, n_dn):
        basis = lattice.sector_basis(length, n_up, n_dn)
        with pytest.raises(ValueError, match=r"not the \(4, 4\) sector of the chain's 8 sites"):
            lattice.build_hamiltonian(lattice.ChainSpec(8, 4, 4, u=6.0), basis)

    @pytest.mark.parametrize("chain", [
        lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
        lattice.ChainSpec(8, 4, 4, t_hop=-0.5, u=2.0, v=3.0),
        lattice.ChainSpec(7, 4, 2, t_hop=0.7, u=4.0, v=-1.0, boundary="periodic"),
        lattice.ChainSpec(6, 3, 3, u=4.0, v=1.0),
        lattice.ChainSpec(10, 5, 5, u=6.0, v=3.0),
    ])
    def test_solves_match_the_kronecker_reference(self, chain):
        # the reference: the Kronecker matrix's dense eigenpairs below L = 8,
        # whose dense solve takes seconds, ARPACK's ground pair and next level above
        basis = lattice.sector_basis(chain.length, chain.n_up, chain.n_dn)
        h = kronecker_hamiltonian(chain)
        if chain.length < 8:
            energies, vectors = np.linalg.eigh(h.toarray())
        else:
            energies, vector = _arpack_reference(h)
            vectors = vector[:, None]
        members = int(np.count_nonzero(energies - energies[0] < lattice.DEGENERACY_TOL))
        gs = lattice.ground_state(lattice._SectorOperator(chain, basis))
        assert gs.energy == pytest.approx(energies[0], abs=1e-11)
        assert gs.energy_gap == pytest.approx(energies[1] - energies[0], abs=1e-9)
        assert gs.degenerate == (members > 1) and len(gs.multiplet) == members
        assert gs.residual < 1e-12
        assert np.linalg.norm(h @ gs.amplitudes - gs.energy * gs.amplitudes) < 1e-12
        # a degenerate multiplet's vectors differ between the solves, its average does not
        for i in range(chain.length - 1):
            rdm = lattice.two_orbital_rdm(gs, basis, i, i + 1, on_degenerate="mixture").matrix
            expected = sum(lattice.two_orbital_rdm(vectors[:, k], basis, i, i + 1).matrix
                           for k in range(members)) / members
            assert np.abs(rdm - expected).max() < 1e-10

    @staticmethod
    def record_levels(monkeypatch):
        """The Ritz value of each Lanczos run, in order."""
        levels = []
        run = lattice._lanczos_lowest

        def recorded(*args):
            result = run(*args)
            levels.append(result[0])
            return result

        monkeypatch.setattr(lattice, "_lanczos_lowest", recorded)
        return levels

    @pytest.mark.parametrize("length, filling", [(4, 2), (6, 2), (8, 4)])
    def test_rings_find_their_multiplet_whole(self, length, filling, monkeypatch):
        # free rings with one electron per spin in a two-fold level: the
        # ground multiplet has four states, more than the ground run returns,
        # so four vectors mean the partner runs ran
        chain = lattice.ChainSpec(length, filling, filling, boundary="periodic")
        levels = self.record_levels(monkeypatch)
        gs = lattice.ground_state(lattice._SectorOperator(chain))
        # the verdict: the even run, the gap run at its level and a partner
        # run there; the read of the multiplet adds two more there and one above
        assert len(levels) == 3 and gs.degenerate
        assert len(gs.multiplet) == 4
        assert len(levels) == 6
        assert max(levels[:5]) - min(levels[:5]) < lattice.DEGENERACY_TOL
        assert levels[5] - gs.energy > 0.1
        assert_solves_without_arpack(f"""
            chain = lattice.ChainSpec({length}, {filling}, {filling}, boundary="periodic")
            assert len(lattice.ground_state(lattice._SectorOperator(chain)).multiplet) == 4
        """)
        ring = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(length) / length))
        assert gs.energy == pytest.approx(2.0 * ring[:filling].sum(), abs=1e-10)
        assert gs.degenerate and len(gs.multiplet) == 4
        overlaps = np.array([[v @ w for w in gs.multiplet] for v in gs.multiplet])
        assert np.abs(overlaps - np.eye(4)).max() < 1e-10
        h = kronecker_hamiltonian(chain)
        for v in gs.multiplet:
            assert np.linalg.norm(h @ v - gs.energy * v) < lattice.RESIDUAL_TOL
        if length < 8:  # the L=8 dense solve takes seconds
            levels = np.linalg.eigvalsh(h.toarray())
            assert gs.energy == pytest.approx(levels[0], abs=1e-10)
            assert np.count_nonzero(levels - levels[0] < lattice.DEGENERACY_TOL) == 4

    @staticmethod
    def count_products(operator, monkeypatch):
        """Products by kind, full-space and spin-flip-even, as the operator makes them."""
        products = {"apply": 0, "apply_even": 0}
        for name in products:
            product = getattr(operator, name)

            def counted(x, out, name=name, product=product):
                products[name] += 1
                return product(x, out)

            monkeypatch.setattr(operator, name, counted)
        return products

    def test_matvecs_count_operator_products(self, monkeypatch):
        operator = lattice._SectorOperator(lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0))
        products = self.count_products(operator, monkeypatch)
        gs = lattice.ground_state(operator)
        # every product but the residual check's
        assert gs.matvecs == sum(products.values()) - 1 > 0

    def test_even_ground_run_spends_fewer_products(self, monkeypatch):
        # the ground run and its Ritz sum stay in the spin-flip-even sector;
        # the gap run and the residual check are full-space products.  The
        # reference is the same operator with the sector switched off.
        chain = lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0)
        steps = []
        run = lattice._lanczos_lowest

        def recorded(*args):
            result = run(*args)
            steps.append(len(result[2]))
            return result

        monkeypatch.setattr(lattice, "_lanczos_lowest", recorded)
        full_space = lattice._SectorOperator(chain)
        full_space.spin_flip = False
        reference = lattice.ground_state(full_space)
        full_ground, full_gap = steps
        steps.clear()
        operator = lattice._SectorOperator(chain)
        products = self.count_products(operator, monkeypatch)
        gs = lattice.ground_state(operator)
        ground, gap = steps
        assert products == {"apply_even": ground, "apply": gap + 1}
        assert ground <= 80 < full_ground and gap == full_gap
        assert gs.matvecs == ground + gap <= 170 < reference.matvecs
        n = operator._n[0]
        assert np.array_equal(gs.amplitudes.reshape(n, n), gs.amplitudes.reshape(n, n).T)

    def test_near_atomic_ground_state_is_even_bit_for_bit(self):
        # t = 1e-4 at L = 6: the even run's vector is X = X^T to the last
        # bit, so rounding cannot break the pair states' spin symmetry
        chain = lattice.ChainSpec(6, 3, 3, t_hop=1e-4, u=4.0, v=1.0)
        gs = lattice.ground_state(lattice.build_hamiltonian(chain))
        x = gs.amplitudes.reshape(20, 20)
        assert np.array_equal(x, x.T)

    @pytest.mark.parametrize("chain, even_level", [
        # dim 225: the lowest even level is -4.420, the odd ground state 0.278 below
        (lattice.ChainSpec(6, 2, 2, u=4.0, boundary="periodic"), -4.42014294995393),
        # dim 9: E0 = 2 is odd, the lowest even level is 2.6277
        (lattice.ChainSpec(3, 2, 2, u=4.0, boundary="periodic"), 2.627718676730984),
    ])
    def test_odd_ground_state_comes_out_of_the_partner_runs(self, chain, even_level,
                                                            monkeypatch):
        operator = lattice._SectorOperator(chain)
        energies = np.linalg.eigh(kronecker_hamiltonian(chain).toarray())[0]
        dense_gap = energies[1] - energies[0]
        levels = self.record_levels(monkeypatch)
        gs = lattice.ground_state(operator)
        # the even run, then the gap run below it; one partner run finds the
        # odd ground state, and the next the level above it
        assert len(levels) == 4
        assert levels[0] == pytest.approx(even_level, abs=1e-10)
        assert levels[1] < levels[0] - lattice.DEGENERACY_TOL
        assert levels[2] == pytest.approx(energies[0], abs=1e-11)
        assert levels[3] - levels[2] == pytest.approx(dense_gap, abs=1e-9)
        assert gs.energy == pytest.approx(energies[0], abs=1e-11)
        assert gs.energy_gap == pytest.approx(dense_gap, abs=1e-9)
        assert not gs.degenerate and dense_gap >= lattice.DEGENERACY_TOL
        assert gs.residual < 1e-12
        n = operator._n[0]
        odd = gs.amplitudes.reshape(n, n)
        assert np.abs(odd + odd.T).max() < 1e-10

    def test_a_new_point_keeps_the_hoppings_and_moves_the_diagonal(self):
        chain = lattice.ChainSpec(6, 3, 2, t_hop=0.7, u=1.0, v=0.5, boundary="periodic")
        point = replace(chain, u=-3.0, v=2.0)
        reused = lattice._SectorOperator(chain).at(point)
        fresh = lattice._SectorOperator(point)
        assert reused.interval == fresh.interval
        assert dense_form(reused).tobytes() == dense_form(fresh).tobytes()
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

    def test_public_path_is_the_command_path(self):
        # a point of the L = 8 window that ehm-scan solves: the public
        # constructor's solve is the one bond_scan makes on its reused operator
        chain = lattice.ChainSpec(8, 4, 4, u=6.0, v=2.5)
        point = replace(chain, v=3.1)
        basis = lattice.sector_basis(8, 4, 4)
        public = lattice.ground_state(lattice.build_hamiltonian(point, basis))
        scanned = lattice.ground_state(lattice._SectorOperator(chain, basis).at(point))
        assert np.array_equal(public.amplitudes, scanned.amplitudes)
        assert (public.energy, public.energy_gap, public.residual, public.matvecs) == (
            scanned.energy, scanned.energy_gap, scanned.residual, scanned.matvecs)
        (row,) = lattice.bond_scan(chain, [6.0], [3.1], 4)
        assert row["energy"] == public.energy

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
    @pytest.mark.parametrize("chain", [lattice.ChainSpec(8, 4, 4, u=6.0, v=3.0),
                                       lattice.ChainSpec(5, 2, 3, u=2.0, v=0.7,
                                                         boundary="periodic")])
    def test_estimate_is_exact(self, chain):
        # no entry of these chains is zero, so the reference stores every one
        assert lattice.build_hamiltonian(chain).nnz == kronecker_hamiltonian(chain).nnz

    def test_half_filled_l12_is_admitted(self):
        h = lattice.build_hamiltonian(lattice.ChainSpec(12, 6, 6))
        assert h.nnz == 11_099_088
        assert 8 * h.shape[0] * (lattice._krylov_rows(h.shape[0]) + lattice.SOLVE_VECTORS) <= (
            lattice.MAX_HAMILTONIAN_BYTES)

    def test_half_filled_l14_is_refused(self):
        # the vector budget is checked before any sector vector is allocated,
        # so code without the preflight fails here instead of allocating
        # gigabytes
        chain = lattice.ChainSpec(14, 7, 7, u=6.0, v=3.0)
        with pytest.raises(OrbentError, match=r"\(176679360 nonzeros\) needs 9 vectors .* "
                                              r"above the 512 MiB limit$"):
            lattice.build_hamiltonian(chain)
        with pytest.raises(OrbentError, match="above the 512 MiB limit"):
            lattice.bond_scan(chain, [6.0], [3.0], 7)
