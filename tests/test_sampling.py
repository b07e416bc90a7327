import numpy as np
import pytest

from orbent import fock, oracle, sampling, ssr


class TestRandomWeights:
    def test_singlet_balance(self, rng):
        for _ in range(50):
            p = sampling.random_weights(rng, "singlet")
            assert abs(p.sum() - 1.0) < 1e-12
            assert p[fock.TRIPLET_UP] == pytest.approx(p[fock.TRIPLET_DOWN], abs=1e-15)

    def test_general_full_rank(self, rng):
        for _ in range(50):
            p = sampling.random_weights(rng, "general")
            assert p[[fock.SINGLET, fock.TRIPLET_ZERO, fock.TRIPLET_UP, fock.TRIPLET_DOWN]].min() >= 1e-6

    def test_parity_variants(self, rng):
        p = sampling.random_weights(rng, "parity-symmetric")
        assert p[fock.VACUUM] == pytest.approx(p[fock.FULL], abs=1e-15)
        p = sampling.random_weights(rng, "parity-general")
        assert p[[fock.VACUUM, fock.DOUBLE_A, fock.DOUBLE_B, fock.FULL]].min() >= 1e-6

    def test_unknown_variant(self, rng):
        with pytest.raises(ValueError):
            sampling.random_weights(rng, "exotic")

    @staticmethod
    def one_draw_at_a_time(rng, variant, floor, n):
        """Reference: ``n`` calls drawing one Dirichlet vector per attempt."""
        rows = []
        for _ in range(n):
            for _ in range(sampling.MAX_ATTEMPTS):
                p = rng.dirichlet(np.ones(fock.DIM))
                if variant in ("singlet", "parity-symmetric"):
                    pairs = [(fock.TRIPLET_UP, fock.TRIPLET_DOWN)]
                    if variant == "parity-symmetric":
                        pairs.append((fock.VACUUM, fock.FULL))
                    for i, j in pairs:
                        p[i] = p[j] = (p[i] + p[j]) / 2.0
                    p /= p.sum()
                    break
                needed = fock.SPIN_SECTOR + (() if variant == "general" else fock.PAIR_SECTOR)
                if min(p[list(needed)]) >= floor:
                    break
            else:
                raise RuntimeError("failed to draw a full-rank spectrum")
            rows.append(p)
        return np.array(rows).reshape(n, fock.DIM)

    # a floor of 0.035 on the eight parity-rule sector weights rejects about
    # 140 draws per accepted one
    @pytest.mark.parametrize("variant, floor", [
        ("singlet", 1e-6), ("general", 1e-6), ("parity-general", 1e-6),
        ("parity-symmetric", 1e-6), ("general", 0.05), ("parity-general", 0.035)])
    @pytest.mark.parametrize("size", [0, 1, 40])
    def test_size_draws_what_as_many_calls_draw(self, variant, floor, size):
        rngs = [np.random.default_rng(3) for _ in range(3)]
        batch = sampling.random_weights(rngs[0], variant, floor, size=size)
        calls = [sampling.random_weights(rngs[1], variant, floor) for _ in range(size)]
        reference = self.one_draw_at_a_time(rngs[2], variant, floor, size)
        assert batch.shape == (size, fock.DIM)
        assert batch.tobytes() == np.array(calls).reshape(size, fock.DIM).tobytes()
        assert batch.tobytes() == reference.tobytes()
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state)

    def test_size_gives_up_where_the_calls_give_up(self):
        # at a floor of 0.04 one call in about twenty rejects MAX_ATTEMPTS
        # draws in a row
        for seed in range(3):
            batch_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with pytest.raises(RuntimeError, match="full-rank"):
                sampling.random_weights(batch_rng, "parity-general", 0.04, size=200)
            with pytest.raises(RuntimeError, match="full-rank"):
                self.one_draw_at_a_time(reference_rng, "parity-general", 0.04, 200)
            assert batch_rng.bit_generator.state == reference_rng.bit_generator.state


class TestRandomStates:
    def test_random_state_valid(self, rng):
        state = sampling.random_state(rng)
        assert abs(np.trace(state.matrix) - 1.0) < 1e-12

    def test_symmetric_state_flags(self, rng):
        state = sampling.random_symmetric_state(rng, ("number", "sz"), reflect=True)
        report = ssr.detect_symmetries(state)
        assert report.number.ok and report.magnetization.ok and report.reflection.ok

    def test_separable_symmetric_state_is_ppt_and_symmetric(self, rng):
        for _ in range(25):
            sigma = sampling.random_separable_symmetric_state(rng)
            report = ssr.detect_symmetries(sigma)
            assert report.number.ok and report.magnetization.ok
            is_ppt, smallest = oracle.ppt_oracle(sigma)
            assert is_ppt, smallest

    def test_singlet_vector_quantum_numbers(self, rng):
        s2 = fock.total_spin_operator(3)
        sz = fock.sz_operator(3)
        psi = sampling.random_singlet_vector(rng, 3)
        assert np.linalg.norm(s2 @ psi) < 1e-10
        assert np.linalg.norm(sz @ psi) < 1e-10
