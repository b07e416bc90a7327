"""Superselection-rule projections, twirl channels and symmetry detection.

The particle-number and parity superselection rules act as pinchings of the
two-orbital density matrix onto fixed local-number or local-parity blocks.
Symmetry twirls are implemented the same way, as finite sums of eigenspace
projectors; for the generators used here this is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .errors import InsufficientSymmetryError
from .fock import TwoOrbitalState

__all__ = [
    "DETECTION_TOL",
    "FormulaVariant",
    "SymmetryCheck",
    "SymmetryReport",
    "nssr_project",
    "pssr_project",
    "project",
    "twirl",
    "detect_symmetries",
    "select_formula",
]

#: Default tolerance for symmetry detection (ED/Wick outputs carry ~1e-13 noise).
DETECTION_TOL = 1e-10

TWIRL_GENERATORS = ("sz", "number", "total_spin", "local_number")


class FormulaVariant(enum.Enum):
    """Closed-formula variants, one per symmetry scenario."""

    NSSR_SINGLET = "number-ssr-singlet"
    NSSR_GENERAL = "number-ssr-general"
    PSSR_SYMMETRIC = "parity-ssr-symmetric"
    PSSR_GENERAL = "parity-ssr-general"

    @property
    def ssr(self) -> str:
        return "number" if self.value.startswith("number") else "parity"


_OCC = fock.occupation_table(2)
_N_A = _OCC[:, 0] + _OCC[:, 1]
_N_B = _OCC[:, 2] + _OCC[:, 3]
#: Pinching masks, one per channel: ``True`` between basis states that share
#: the quantum numbers the channel keeps.  ``total_spin`` acts in the
#: number-variant symmetry basis, every other channel in the product basis.
_PINCH_MASKS = {
    name: labels[:, None] == labels[None, :]
    for name, labels in {
        "local_number": _N_A * 8 + _N_B,
        "local_parity": (_N_A % 2) * 2 + _N_B % 2,
        "number": _N_A + _N_B,
        "sz": _OCC[:, 0] - _OCC[:, 1] + _OCC[:, 2] - _OCC[:, 3],
        "total_spin": np.rint(2 * fock.build_symmetry_basis("number").spin),
    }.items()
}


def _pinch(matrix: np.ndarray, channel: str) -> np.ndarray:
    """Zero every element between basis states the channel separates."""
    return np.where(_PINCH_MASKS[channel], matrix, 0.0)


def nssr_project(state: TwoOrbitalState) -> TwoOrbitalState:
    """Pinch onto fixed local-particle-number blocks (number superselection).

    Idempotent and trace preserving; kills all coherence between blocks of
    different ``(N_A, N_B)`` while leaving every within-block element alone.
    """
    return TwoOrbitalState(_pinch(state.matrix, "local_number"), validate=False)


def pssr_project(state: TwoOrbitalState) -> TwoOrbitalState:
    """Pinch onto fixed local-parity blocks (parity superselection).

    Strictly weaker than :func:`nssr_project`: composing the two in either
    order gives the number projection.
    """
    return TwoOrbitalState(_pinch(state.matrix, "local_parity"), validate=False)


def project(state: TwoOrbitalState, rule: str) -> TwoOrbitalState:
    """Superselection projection of ``rule`` (``"number"`` or ``"parity"``)."""
    if rule == "number":
        return nssr_project(state)
    if rule == "parity":
        return pssr_project(state)
    raise ValueError(f"unknown superselection rule {rule!r}")


def twirl(state: TwoOrbitalState, generator: str) -> TwoOrbitalState:
    """Average over the symmetry group of a generator (eigenspace pinching).

    Supported generators: ``sz``, ``number``, ``local_number`` and
    ``total_spin``.  The total-spin twirl removes the singlet/triplet
    coherence; the others pinch diagonal quantum-number blocks.
    """
    if generator not in TWIRL_GENERATORS:
        raise ValueError(f"unsupported twirl generator {generator!r}")
    if generator == "total_spin":
        v = fock.build_symmetry_basis("number").vectors
        pinched = _pinch(v.conj().T @ state.matrix @ v, generator)
        return TwoOrbitalState(v @ pinched @ v.conj().T, validate=False)
    return TwoOrbitalState(_pinch(state.matrix, generator), validate=False)


class SymmetryCheck(NamedTuple):
    ok: bool
    residual: float


@dataclass(frozen=True)
class SymmetryReport:
    """Measured symmetry violations of a two-orbital state.

    Commutator checks carry the Frobenius norm of ``[rho, Q]`` (for the
    reflection, of ``R rho R - rho``); weight checks carry the absolute
    difference of the two symmetry-basis weights they compare.
    """

    number: SymmetryCheck
    magnetization: SymmetryCheck
    total_spin: SymmetryCheck
    reflection: SymmetryCheck
    triplet_balance: SymmetryCheck      # equal up-up and down-down weights
    particle_hole_balance: SymmetryCheck  # equal vacuum and fully-occupied weights
    tol: float

    def to_dict(self) -> dict:
        out = {"tol": self.tol}
        for name in (
            "number",
            "magnetization",
            "total_spin",
            "reflection",
            "triplet_balance",
            "particle_hole_balance",
        ):
            check: SymmetryCheck = getattr(self, name)
            out[name] = {"ok": bool(check.ok), "residual": float(check.residual)}
        return out


# Product-basis indices of |up,up>, |down,down>, the vacuum and the filled
# state: these number-basis vectors are product states, so their weights are
# diagonal entries of the density matrix.
_UP_UP, _DOWN_DOWN, _EMPTY, _FILLED = 5, 10, 0, 15
# |up,down> and |down,up>: S^2 has 1 on their two diagonal entries and
# couples them with 1; it is diagonal everywhere else.
_UP_DOWN, _DOWN_UP = 6, 9
#: Diagonals of the particle-number, magnetization and total-spin operators,
#: complex as the products with a complex matrix cast them.
_DIAGONALS = np.stack([np.diag(fock.build_operator(tag))
                       for tag in ("number", "sz", "total_spin")]).astype(complex)
_LEFT, _RIGHT = _DIAGONALS[:, None, :], _DIAGONALS[:, :, None]


def _mirror_tables() -> tuple[np.ndarray, np.ndarray]:
    """The reflection is a signed permutation, ``R[i, p_i] = s_i``, so
    ``(R m R^T)[i, j] = s_i s_j m[p_i, p_j]``: the flat indices of those
    entries and their signs."""
    r = fock.reflection_operator()
    p = np.argmax(np.abs(r), axis=1)
    s = r[np.arange(fock.DIM), p]
    return p[:, None] * fock.DIM + p[None, :], (s[:, None] * s[None, :]).astype(complex)


_MIRRORED, _MIRROR_SIGNS = _mirror_tables()


def _commutator_norms(matrix: np.ndarray) -> list[float]:
    """Norms of ``matrix Q - Q matrix`` for the number, magnetization and
    total-spin operators ``Q``, with the bits of the dense products.

    Each entry of either product is one entry of ``matrix`` times a diagonal
    entry of ``Q``, except for S^2 in the two exchange columns of
    ``matrix S^2`` and the two exchange rows of ``S^2 matrix``: those are
    the sum of the two exchange columns (rows) of ``matrix``, since products
    by 1 are exact.
    """
    left = matrix * _LEFT
    right = _RIGHT * matrix
    left[2][:, _UP_DOWN] = left[2][:, _DOWN_UP] = matrix[:, _UP_DOWN] + matrix[:, _DOWN_UP]
    right[2][_UP_DOWN] = right[2][_DOWN_UP] = matrix[_UP_DOWN] + matrix[_DOWN_UP]
    return [float(np.linalg.norm(c)) for c in left - right]


def detect_symmetries(state: TwoOrbitalState, tol: float = DETECTION_TOL) -> SymmetryReport:
    """Measure the symmetries that gate the closed entanglement formulas.

    Every residual is read off fixed index tables of the product basis and
    has the bits of its dense form: ``np.linalg.norm`` of ``m Q - Q m`` for
    the number, magnetization and total-spin operators ``Q``
    (:func:`_commutator_norms`) and of ``R m R^T - m`` for the reflection
    ``R``, whose entries are signed entries of ``m``.  The two balances are
    differences of diagonal entries, which are the weights of the product
    states |up,up>, |down,down>, vacuum and filled.
    """
    m = state.matrix
    weights = m.diagonal().real
    number, magnetization, total_spin = _commutator_norms(m)

    checks = {
        "number": number,
        "magnetization": magnetization,
        "total_spin": total_spin,
        "reflection": float(np.linalg.norm(m.take(_MIRRORED) * _MIRROR_SIGNS - m)),
        "triplet_balance": abs(weights[_UP_UP] - weights[_DOWN_DOWN]),
        "particle_hole_balance": abs(weights[_EMPTY] - weights[_FILLED]),
    }
    return SymmetryReport(
        tol=tol,
        **{name: SymmetryCheck(resid <= tol, resid) for name, resid in checks.items()},
    )


def select_formula(report: SymmetryReport, ssr: str) -> FormulaVariant:
    """Most specific closed-formula variant admissible for a symmetry report.

    Raises :class:`InsufficientSymmetryError` when no variant applies; the
    caller must then fall back to the brute-force minimizer.  The singlet-case
    variant is preferred whenever the triplet weights balance, regardless of
    how that balance arose.
    """
    if ssr == "number":
        if not report.magnetization.ok:
            raise InsufficientSymmetryError(
                "state does not commute with the magnetization; no closed formula applies"
            )
        if report.triplet_balance.ok:
            return FormulaVariant.NSSR_SINGLET
        if report.total_spin.ok or report.reflection.ok:
            return FormulaVariant.NSSR_GENERAL
        raise InsufficientSymmetryError(
            "unbalanced triplet weights need total-spin or reflection symmetry"
        )
    if ssr == "parity":
        if not (report.number.ok and report.magnetization.ok):
            raise InsufficientSymmetryError(
                "parity-rule formulas need particle-number and magnetization symmetry"
            )
        if report.particle_hole_balance.ok and report.triplet_balance.ok:
            return FormulaVariant.PSSR_SYMMETRIC
        if report.reflection.ok:
            return FormulaVariant.PSSR_GENERAL
        raise InsufficientSymmetryError(
            "unbalanced sector weights need the orbital-reflection symmetry"
        )
    raise ValueError(f"unknown superselection rule {ssr!r}")
