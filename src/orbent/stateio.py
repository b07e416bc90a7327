"""JSON serialization of two-orbital density matrices.

Schema: ``{"dim": 16, "basis": "occupation-A↑A↓B↑B↓",
"re": [[...]], "im": [[...]]}`` with row-major 16x16 entry lists; ``im`` may
be omitted for real matrices.  Readers reject wrong dimensions, a wrong basis
tag, and matrices violating the state tolerances (Hermiticity, unit trace,
positivity).
"""

from __future__ import annotations

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


def state_from_dict(data: dict) -> TwoOrbitalState:
    if data.get("dim") != fock.DIM:
        raise ValueError(f"expected dim {fock.DIM}, got {data.get('dim')!r}")
    if data.get("basis") != SCHEMA_BASIS:
        raise ValueError(f"expected basis {SCHEMA_BASIS!r}, got {data.get('basis')!r}")
    real = np.asarray(data["re"], dtype=float)
    imag = np.asarray(data["im"], dtype=float) if "im" in data else np.zeros_like(real)
    if real.shape != (fock.DIM, fock.DIM) or imag.shape != (fock.DIM, fock.DIM):
        raise ValueError("matrix entries must form 16x16 arrays")
    # an infinite imaginary part makes 1j * imag read 0 * inf = NaN in its
    # real part; the state's own finiteness check reports the entry
    with np.errstate(invalid="ignore"):
        matrix = real + 1j * imag
    return TwoOrbitalState(matrix)


def save_state(path: str | Path, state: TwoOrbitalState) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state)) + "\n", encoding="utf-8")


def load_state(path: str | Path) -> TwoOrbitalState:
    return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
