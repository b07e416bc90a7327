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


class TestDocumentShape:
    """Malformed documents are refused with a ``ValueError`` that names the field."""

    @staticmethod
    def document():
        return stateio.state_to_dict(fock.maximally_mixed_state())

    @pytest.mark.parametrize("top", [[], [1, 2], "state", 3.0, None])
    def test_top_level_must_be_an_object(self, top):
        with pytest.raises(ValueError, match="^the top level must be a JSON object, got "):
            stateio.state_from_dict(top)

    def test_missing_real_part_is_named(self):
        data = self.document()
        del data["re"]
        with pytest.raises(ValueError, match="^missing field 're'$"):
            stateio.state_from_dict(data)

    @pytest.mark.parametrize("key", ["re", "im"])
    def test_ragged_rows_are_named(self, key):
        data = self.document()
        data[key][3] = data[key][3][:15]
        with pytest.raises(ValueError, match=f"^field '{key}' must hold 16 rows of 16 numbers"):
            stateio.state_from_dict(data)

    @pytest.mark.parametrize("entry", ["0.5", "a", None, {}, [0.0]])
    def test_non_numeric_entries_are_named(self, entry):
        data = self.document()
        data["re"][2][7] = entry
        with pytest.raises(ValueError, match="^field 're' must hold 16 rows of 16 numbers"):
            stateio.state_from_dict(data)

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", [True, False])
    def test_boolean_entries_are_named(self, key, entry):
        # true on the diagonal of |0><0| would load as the pure state itself,
        # false off the diagonal as a zero; as whole fields, numpy reads them
        # as booleans
        data = self.document()
        data["re"] = np.diag([1.0] + [0.0] * 15).tolist()
        data["im"] = np.zeros((16, 16)).tolist()
        data[key][0][0 if entry else 1] = entry
        message = f"^field '{key}' must hold 16 rows of 16 numbers: entries of type bool$"
        with pytest.raises(ValueError, match=message):
            stateio.state_from_dict(data)
        data[key] = [[entry] * 16 for _ in range(16)]
        with pytest.raises(ValueError, match=message):
            stateio.state_from_dict(data)

    def test_integer_beyond_the_float_range_is_named(self):
        data = self.document()
        data["im"][0][1] = 10**400
        with pytest.raises(ValueError, match="^field 'im' must hold 16 rows of 16 numbers: "
                                             "int too large to convert to float$"):
            stateio.state_from_dict(data)

    def test_integer_entries_load(self):
        data = self.document()
        data["re"] = np.diag([1] + [0] * 15).tolist()
        del data["im"]
        loaded = stateio.state_from_dict(data)
        assert loaded.matrix[0, 0] == 1.0 and np.trace(loaded.matrix) == 1.0
        # entries all in [2**63, 2**64) make numpy read the field as uint64:
        # still numbers, refused only by the state's own trace check
        data["re"] = [[2**63] * 16 for _ in range(16)]
        with pytest.raises(ValueError, match="^matrix does not have unit trace$"):
            stateio.state_from_dict(data)

    # warnings are errors here: an overflow on the way would fail the test
    def test_diagonal_near_the_float_limit_fails_the_trace_check(self):
        data = self.document()
        data["re"] = (np.eye(16) * 1e308).tolist()
        with pytest.raises(ValueError, match="^matrix does not have unit trace$"):
            stateio.state_from_dict(data)

    def test_overflowing_trace_sum_is_not_a_unit_trace(self):
        # the pairwise sum reads inf - inf = NaN, which no tolerance holds
        data = self.document()
        data["re"] = np.diag([1e308, 1e308, -1e308, -1e308] + [0.0] * 12).tolist()
        with pytest.raises(ValueError, match="^matrix does not have unit trace$"):
            stateio.state_from_dict(data)

    def test_antisymmetric_pair_near_the_float_limit_is_not_hermitian(self):
        data = self.document()
        data["re"][0][1], data["re"][1][0] = 1e308, -1e308
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            stateio.state_from_dict(data)
