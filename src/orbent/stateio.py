"""JSON serialization of two-orbital density matrices.

Schema: ``{"dim": 16, "basis": "occupation-A↑A↓B↑B↓",
"re": [[...]], "im": [[...]]}`` with row-major 16x16 entry lists; ``im`` may
be omitted for real matrices.  Readers reject, with a ``ValueError`` that
names the field, a document that is not an object, wrong dimensions, a wrong
basis tag, a missing ``re``, entries that are not 16 rows of 16 numbers in
the float range (a JSON ``true`` or ``false`` is not a number), and matrices
violating the state tolerances (Hermiticity, unit trace, positivity).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from . import fock
from .fock import TwoOrbitalState

__all__ = ["SCHEMA_BASIS", "state_to_dict", "state_from_dict", "save_state", "load_state"]

SCHEMA_BASIS = "occupation-A↑A↓B↑B↓"


def state_to_dict(state: TwoOrbitalState) -> dict:
    return {
        "dim": fock.DIM,
        "basis": SCHEMA_BASIS,
        "re": state.matrix.real.tolist(),
        "im": state.matrix.imag.tolist(),
    }


def _entries(data: dict, key: str) -> np.ndarray:
    """The field ``key`` as a 16x16 float array, or a ``ValueError`` that names it."""
    try:
        values = np.asarray(data[key])
        if values.dtype.kind == "O":
            # integers past int64, or null and other non-numbers, which
            # numpy's own cast would let through as NaN
            values = np.frompyfunc(float, 1, 1)(values)
        elif values.dtype.kind not in "fiu":
            raise TypeError(f"entries of type {values.dtype}")
        values = values.astype(float, copy=False)
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        # ragged rows, non-numeric entries, integers beyond the float range
        raise ValueError(f"field {key!r} must hold 16 rows of 16 numbers: {exc}") from None
    if values.shape != (fock.DIM, fock.DIM):
        raise ValueError(f"field {key!r} must hold 16 rows of 16 numbers, got shape {values.shape}")
    # numpy reads a boolean among numbers as 0 or 1; only the entries' types show it
    if bool in set(map(type, itertools.chain.from_iterable(data[key]))):
        raise ValueError(f"field {key!r} must hold 16 rows of 16 numbers: entries of type bool")
    return values


def state_from_dict(data: dict) -> TwoOrbitalState:
    if not isinstance(data, dict):
        raise ValueError(f"the top level must be a JSON object, got {type(data).__name__}")
    if data.get("dim") != fock.DIM:
        raise ValueError(f"expected dim {fock.DIM}, got {data.get('dim')!r}")
    if data.get("basis") != SCHEMA_BASIS:
        raise ValueError(f"expected basis {SCHEMA_BASIS!r}, got {data.get('basis')!r}")
    real = _entries(data, "re")
    imag = _entries(data, "im") if "im" in data else np.zeros_like(real)
    # an infinite imaginary part makes 1j * imag read 0 * inf = NaN in its
    # real part; the state's own finiteness check reports the entry
    with np.errstate(invalid="ignore"):
        matrix = real + 1j * imag
    return TwoOrbitalState(matrix)


def save_state(path: str | Path, state: TwoOrbitalState) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state)) + "\n", encoding="utf-8")


def load_state(path: str | Path) -> TwoOrbitalState:
    return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
