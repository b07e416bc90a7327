import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbent import fock, stateio
from orbent.sampling import random_state


class TestRoundTrip:
    def test_complex_state(self, rng, tmp_path):
        state = random_state(rng)
        path = tmp_path / "state.json"
        stateio.save_state(path, state)
        loaded = stateio.load_state(path)
        assert_allclose(loaded.matrix, state.matrix, atol=1e-15)

    def test_real_matrix_without_im(self, tmp_path):
        data = stateio.state_to_dict(fock.maximally_mixed_state())
        del data["im"]
        loaded = stateio.state_from_dict(data)
        assert_allclose(loaded.matrix, np.eye(16) / 16, atol=1e-15)


class TestValidation:
    def test_wrong_dim(self):
        with pytest.raises(ValueError):
            stateio.state_from_dict({"dim": 4, "basis": stateio.SCHEMA_BASIS, "re": []})

    def test_wrong_basis(self):
        data = stateio.state_to_dict(fock.maximally_mixed_state())
        data["basis"] = "occupation-B first"
        with pytest.raises(ValueError):
            stateio.state_from_dict(data)

    def test_rejects_non_hermitian(self):
        data = stateio.state_to_dict(fock.maximally_mixed_state())
        data["re"][0][1] = 0.5
        with pytest.raises(ValueError):
            stateio.state_from_dict(data)

    def test_rejects_wrong_trace(self):
        data = stateio.state_to_dict(fock.maximally_mixed_state())
        data["re"] = (2 * np.eye(16) / 16).tolist()
        with pytest.raises(ValueError):
            stateio.state_from_dict(data)

    def test_rejects_ragged_entries(self):
        with pytest.raises(ValueError):
            stateio.state_from_dict(
                {"dim": 16, "basis": stateio.SCHEMA_BASIS, "re": [[1.0] * 4] * 4}
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_imaginary_entry_is_rejected_without_a_warning(self, value):
        # i * inf has a NaN real part; combining the parts must not warn
        data = stateio.state_to_dict(fock.maximally_mixed_state())
        data["im"][2][5] = value
        with pytest.raises(ValueError, match="non-finite"):
            stateio.state_from_dict(data)
