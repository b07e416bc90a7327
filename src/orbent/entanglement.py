"""Closed-form relative entropy of entanglement for two fermionic orbitals.

For states with the right symmetries the superselected density matrix is
diagonal in the symmetry eigenbasis and the entanglement minimization reduces
to a Kullback-Leibler problem over sector weights with one quadratic
separability constraint per two-qubit sector.  This module extracts those
weights and evaluates the closed solutions; the independent brute-force path
lives in :mod:`orbent.oracle`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fock, oracle, ssr
from .errors import DegenerateSectorError, InsufficientSymmetryError, OrbentError
from .fock import (
    DOUBLE_A,
    DOUBLE_B,
    FULL,
    SINGLET,
    TRIPLET_DOWN,
    TRIPLET_UP,
    TRIPLET_ZERO,
    VACUUM,
    SymmetryEigenbasis,
    TwoOrbitalState,
)
from .ssr import FormulaVariant

__all__ = [
    "SectorSpectrum",
    "EntanglementResult",
    "SeniorityCost",
    "sector_spectrum",
    "is_spin_sector_separable",
    "is_pair_sector_separable",
    "nssr_entanglement_singlet",
    "nssr_entanglement_general",
    "pssr_entanglement",
    "entanglement_from_spectrum",
    "closed_form_batch",
    "orbital_entanglement",
    "closest_separable_state",
    "mutual_information",
    "classical_correlation",
    "seniority_cost",
]

#: Rank threshold below which an entangled sector counts as degenerate.
DEGENERATE_TOL = 1e-12


def _checked_weights(w: np.ndarray) -> np.ndarray:
    """Sector weights checked along the last axis, one spectrum or one per
    row, and clipped at zero."""
    total = w.sum(axis=-1)  # non-finite if any weight is
    if np.count_nonzero(~(abs(total - 1.0) <= 1e-10)):  # counts non-finite totals too
        if not np.isfinite(total).all():
            raise ValueError("sector weights and coherences must be finite")
        raise ValueError("sector weights must sum to one")
    if w.size and w.min() < -1e-12:
        raise ValueError("sector weights must be nonnegative")
    return w.clip(0.0, None)


@dataclass(frozen=True)
class SectorSpectrum:
    """Symmetry-basis weights and intra-sector coherences of a state.

    ``weights[i]`` is the expectation in the i-th basis vector of the chosen
    variant; ``spin_coherence`` is the singlet/triplet-zero matrix element and
    ``pair_coherence`` the one between the two doublon combinations.
    """

    weights: np.ndarray
    spin_coherence: complex = 0.0
    pair_coherence: complex = 0.0
    variant: str = "number"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (fock.DIM,):
            raise ValueError("expected 16 sector weights")
        if not (cmath.isfinite(self.spin_coherence) and cmath.isfinite(self.pair_coherence)):
            raise ValueError("sector weights and coherences must be finite")
        w = _checked_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        tol = 1e-10
        if abs(self.spin_coherence) ** 2 > w[SINGLET] * w[TRIPLET_ZERO] + tol:
            raise ValueError("spin coherence violates 2x2 block positivity")
        if abs(self.pair_coherence) ** 2 > w[DOUBLE_A] * w[DOUBLE_B] + tol:
            raise ValueError("pair coherence violates 2x2 block positivity")


class _BasisReads(NamedTuple):
    """Where the weights and coherences of a real symmetry basis sit in the
    product-basis matrix (see :func:`_basis_reads`)."""

    diagonal: np.ndarray   # product-basis index per basis vector
    entries: np.ndarray    # flat matrix indices the sums below read
    sums: tuple            # (vector, ((entry, v_j, v_k), ...)) in row-major (j, k) order
    coherences: tuple      # per coherence, ((entry, u_j) per j, w_k) per k


def _basis_reads(v: np.ndarray) -> _BasisReads:
    """Read tables of the basis with real columns ``v``.

    A column ``e_p`` weighs ``m[p, p]``; any other column's weight sums
    ``(v_j m_jk) v_k`` over its support.  A coherence ``<u|m|w>`` of two
    columns sums ``(sum_j u_j m_jk) w_k`` over their joint support.
    """
    entries: list[int] = []

    def entry(j: int, k: int) -> int:
        entries.append(j * fock.DIM + k)
        return len(entries) - 1

    support = [np.flatnonzero(v[:, i]).tolist() for i in range(fock.DIM)]
    v = v.tolist()
    sums = tuple(
        (i, tuple((entry(j, k), v[j][i], v[k][i]) for j in s for k in s))
        for i, s in enumerate(support) if len(s) > 1 or v[s[0]][i] != 1.0
    )
    coherences = []
    for left, right in ((SINGLET, TRIPLET_ZERO), (DOUBLE_A, DOUBLE_B)):
        joint = sorted(set(support[left] + support[right]))
        coherences.append(tuple(
            (tuple((entry(j, k), v[j][left]) for j in joint), v[k][right]) for k in joint))
    return _BasisReads(np.array([s[0] for s in support]), np.array(entries), sums,
                       tuple(coherences))


#: Read tables of the two bases of :func:`fock.build_symmetry_basis`.
_READS = {variant: _basis_reads(fock.build_symmetry_basis(variant).vectors)
          for variant in ("number", "parity")}


def sector_spectrum(state: TwoOrbitalState, basis: SymmetryEigenbasis | str = "number") -> SectorSpectrum:
    """Diagonal weights and coherences of a state in a symmetry eigenbasis,
    one of the two of :func:`fock.build_symmetry_basis` or its variant name.

    Both are read off fixed entries of the product-basis matrix ``m``, with
    the bits of the dense forms.  The weight of a product-state basis vector
    is a diagonal entry of ``m``, as in
    ``np.einsum("ji,jk,ki->i", v.conj(), m, v)``.  The weight of a
    two-component vector (singlet, triplet-zero and, in the parity basis,
    the two doublon combinations) sums ``(v_j m_jk) v_k`` over its four
    ``(j, k)`` in row-major order, as that einsum does.  A coherence
    ``<u|m|w>`` sums ``(sum_j u_j m_jk) w_k``, the product order of
    ``u @ m @ w``.
    """
    if isinstance(basis, str):
        basis = fock.build_symmetry_basis(basis)
    reads = _READS[basis.variant]
    m = state.matrix
    weights = m.diagonal().real[reads.diagonal]
    entries = m.take(reads.entries).tolist()
    for i, terms in reads.sums:
        total = 0.0
        for k, v_j, v_k in terms:
            total += (v_j * entries[k].real) * v_k
        weights[i] = total
    b, b_pair = (sum(sum(u_j * entries[k] for k, u_j in column) * w_k
                     for column, w_k in coherence)
                 for coherence in reads.coherences)
    return SectorSpectrum(weights, b, b_pair, basis.variant)


#: Constrained sectors by name, as weight indices in (x, y | u, v) order.
_SECTORS = {"spin": fock.SPIN_SECTOR, "pair": fock.PAIR_SECTOR}


def _sector_separable(x: float, y: float, u: float, v: float) -> bool:
    """Separability of a two-qubit sector with coherence pair ``(x, y)`` and
    product pair ``(u, v)``."""
    if min(x, y, u, v) < -1e-12:
        raise ValueError("sector weights must be nonnegative")
    return u * v >= ((x - y) / 2.0) ** 2


def is_spin_sector_separable(w_singlet: float, w_triplet0: float, w_up: float, w_dn: float) -> bool:
    """Separability of the single-occupancy sector of a symmetric state."""
    return _sector_separable(w_singlet, w_triplet0, w_up, w_dn)


def is_pair_sector_separable(w_vacuum: float, w_pair_a: float, w_pair_b: float, w_full: float) -> bool:
    """Separability of the even-parity corner sector (parity-basis weights)."""
    return _sector_separable(w_pair_a, w_pair_b, w_vacuum, w_full)


def _kl_terms(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


def _linear_sector_solution(x: float, y: float, u: float, v: float):
    """Closest-sector solution when the two product weights balance.

    ``(x, y)`` are the coherence-pair weights, ``(u, v)`` the product-pair
    weights with ``u = v`` assumed (the quadratic boundary degenerates to a
    linear one).  Returns ``(value, (qx, qy, qu, qv), details)``.
    """
    t = max(x, y)
    r = min(x, y) + u + v
    if r >= t:
        return 0.0, (x, y, u, v), {"r": r, "t": t, "separable": True}
    half = (r + t) / 2.0
    if r == 0.0:
        # pure-coherence corner: minimizer is not unique; put the balancing
        # mass on the partner weight so the sector mass is conserved
        value = t * math.log(2.0)
        q_large, q_small, qu, qv = half, half, 0.0, 0.0
    else:
        value = r * math.log(2.0 * r / (r + t)) + t * math.log(2.0 * t / (r + t))
        q_large = half
        q_small = half * min(x, y) / r
        qu = qv = half * (u + v) / (2.0 * r)
    q = (q_large, q_small, qu, qv) if x >= y else (q_small, q_large, qu, qv)
    return value, q, {"r": r, "t": t, "separable": False}


def _general_sector_solution(x: float, y: float, u: float, v: float,
                             degenerate_tol: float = DEGENERATE_TOL):
    """Closest-sector solution for unbalanced product weights (full rank)."""
    if _sector_separable(x, y, u, v):
        return 0.0, (x, y, u, v), {"separable": True}
    if min(x, y, u, v) < degenerate_tol:
        raise DegenerateSectorError(
            "entangled sector is rank deficient; use the brute-force minimizer"
        )
    a, b = (x, y) if x >= y else (y, x)
    s = x + y + u + v
    big_a = s * s - (u - v) ** 2
    big_b = (a - b) * s
    big_c = (u + v) ** 2 * (a - b) ** 2 + 8.0 * u * v * (
        2.0 * u * v + (u + v) * (a + b) + 2.0 * a * b
    )
    root = math.sqrt(big_c)
    qa = (big_a + big_b + root) / (4.0 * (s - b))
    qb = (big_a - big_b - root) / (4.0 * (s - a))
    shift = (a + b - qa - qb) / 2.0
    qu = u + shift
    qv = v + shift
    qx, qy = (qa, qb) if x >= y else (qb, qa)
    smallest = min(qx, qy, qu, qv)
    if smallest < -1e-13:
        raise OrbentError("closed-form sector solution left the simplex")
    if smallest <= 0.0 and any(pi > 0.0 >= qi for pi, qi in zip((x, y, u, v), (qx, qy, qu, qv))):
        # a rounding-level closest weight under a positive target weight: the
        # value would be infinite or undefined
        raise DegenerateSectorError(
            "closed-form sector solution has a zero weight where the target is positive; "
            "use the brute-force minimizer"
        )
    value = _kl_terms((x, y, u, v), (qx, qy, qu, qv))
    details = {"A": big_a, "B": big_b, "C": big_c, "s": s, "separable": False}
    return value, (qx, qy, qu, qv), details


def _check_closest(value: float, q: np.ndarray) -> None:
    """Checks on one result: its closest separable weights and its value."""
    if abs(q.sum() - 1.0) > 1e-10:
        raise ValueError("closest separable weights must sum to one")
    if value < -1e-12:
        raise ValueError("entanglement must be nonnegative")


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement value in nats, the closest separable weights and the sector
    weights they were computed from, both in the ``basis_variant`` basis."""

    value: float
    variant: FormulaVariant | None
    closest_weights: np.ndarray
    basis_variant: str
    weights: np.ndarray
    method: str = "closed-form"
    details: dict = field(default_factory=dict)
    coherence_twirled: bool = False

    def __post_init__(self):
        q = np.asarray(self.closest_weights, dtype=float)
        _check_closest(self.value, q)
        q.setflags(write=False)
        object.__setattr__(self, "closest_weights", q)


def _check_coherences(spectrum: SectorSpectrum, tol: float, twirl_coherence: bool,
                      which: tuple[str, ...]) -> bool:
    """Enforce the coherence policy; returns True when a twirl was absorbed.

    Imaginary coherence always disqualifies the closed formulas (it enters
    the separability boundary); real coherence may be removed by the
    corresponding twirl when the caller opts in, which only changes the state
    by the pinching the formulas presume anyway.
    """
    twirled = False
    values = {"spin": spectrum.spin_coherence, "pair": spectrum.pair_coherence}
    for name in which:
        b = values[name]
        if abs(b.imag) > tol:
            raise InsufficientSymmetryError(
                f"imaginary {name} coherence {b.imag:.3e} disqualifies the closed formulas"
            )
        if abs(b.real) > tol:
            if not twirl_coherence:
                raise InsufficientSymmetryError(
                    f"{name} coherence {b.real:.3e} present; pass twirl_coherence=True "
                    "to absorb it by the symmetry twirl"
                )
            twirled = True
    return twirled


#: Sector solutions by front end; under the parity rule, by (spin balanced,
#: pair balanced), with the linear solution where the product weights balance.
_SINGLET_PLAN = (FormulaVariant.NSSR_SINGLET, {"spin": _linear_sector_solution})
_GENERAL_PLAN = (FormulaVariant.NSSR_GENERAL, {"spin": _general_sector_solution})
_PARITY_PLANS = {
    (spin, pair): (
        FormulaVariant.PSSR_SYMMETRIC if spin and pair else FormulaVariant.PSSR_GENERAL,
        {sector: _linear_sector_solution if balanced else _general_sector_solution
         for sector, balanced in (("spin", spin), ("pair", pair))},
    )
    for spin in (False, True)
    for pair in (False, True)
}


def _plan(p: np.ndarray, formula: FormulaVariant, tol: float) -> tuple[FormulaVariant, dict]:
    """Variant and sector solutions of the front end of ``formula`` for one
    spectrum's weights ``p``.

    The balance tests compare ``|w_up - w_down|`` and, under the parity rule,
    ``|w_vacuum - w_full|`` with ``tol``.
    """
    if formula is FormulaVariant.NSSR_SINGLET:
        if abs(p[TRIPLET_UP] - p[TRIPLET_DOWN]) > tol:
            raise InsufficientSymmetryError(
                "triplet weights are unbalanced; use the general formula"
            )
        return _SINGLET_PLAN
    if formula is FormulaVariant.NSSR_GENERAL:
        return _GENERAL_PLAN
    return _PARITY_PLANS[bool(abs(p[TRIPLET_UP] - p[TRIPLET_DOWN]) <= tol),
                         bool(abs(p[VACUUM] - p[FULL]) <= tol)]


def _settled(q: np.ndarray, formula: FormulaVariant, tol: float) -> np.ndarray:
    """Rows of ``q``, C-ordered clipped weights, that the front end of
    ``formula`` solves to the value 0.0 with ``q`` as their own closest
    weights: every sector solution that :func:`_plan` picks passes its own
    separability test, and the row passes :func:`_check_closest`.
    """
    settled = abs(q.sum(axis=1) - 1.0) <= 1e-10  # the bits of _check_closest's q.sum()
    for sector in ("spin", "pair") if formula.ssr == "parity" else ("spin",):
        x, y, u, v = (q[:, i] for i in _SECTORS[sector])
        balanced = abs(u - v) <= tol  # _plan's balance test
        linear = np.minimum(x, y) + u + v >= np.maximum(x, y)  # _linear_sector_solution's
        general = u * v >= ((x - y) / 2.0) ** 2  # _sector_separable's
        if formula is FormulaVariant.NSSR_SINGLET:
            settled &= balanced & linear  # an unbalanced row is left to raise in _plan
        elif formula is FormulaVariant.NSSR_GENERAL:
            settled &= general
        else:
            settled &= np.where(balanced, linear, general)
    return settled


def _solve(p: np.ndarray, q: np.ndarray, solvers: dict) -> tuple[float, dict]:
    """Solve each constrained sector of one spectrum with its closed solution.

    Writes the sector's closest weights into ``q``, which holds the weights
    ``p`` elsewhere: they are their own closest separable weights.  Returns
    the value and the details of each sector.
    """
    value = 0.0
    details = {}
    for name, solve in solvers.items():
        x, y, u, v = _SECTORS[name]
        sector_value, (q[x], q[y], q[u], q[v]), details[name + "_sector"] = solve(
            p[x], p[y], p[u], p[v])
        value += sector_value
    return value, details


def _closed_form(spectrum: SectorSpectrum, formula: FormulaVariant, tol: float,
                 twirl_coherence: bool) -> EntanglementResult:
    """The front end of ``formula`` on one spectrum: the row-wise code of
    :func:`closed_form_batch` plus the coherence policy.

    A doublon coherence outside the solved sectors must vanish.  Number-rule
    results carry the spin sector's details, parity-rule results one entry
    per sector.
    """
    p = spectrum.weights
    variant, solvers = _plan(p, formula, tol)
    if "pair" not in solvers and abs(spectrum.pair_coherence) > tol:
        raise InsufficientSymmetryError(
            "doublon coherence present; apply the number-rule projection first"
        )
    twirled = _check_coherences(spectrum, tol, twirl_coherence, tuple(solvers))
    q = p.copy()
    value, details = _solve(p, q, solvers)
    if spectrum.variant == "number":
        details = details["spin_sector"]
    return EntanglementResult(
        value=value,
        variant=variant,
        closest_weights=q,
        basis_variant=spectrum.variant,
        weights=p,
        details=details,
        coherence_twirled=twirled,
    )


def nssr_entanglement_singlet(spectrum: SectorSpectrum, tol: float = ssr.DETECTION_TOL,
                              twirl_coherence: bool = False) -> EntanglementResult:
    """Number-rule entanglement for balanced triplet weights.

    Requires a number-variant spectrum with equal up-up and down-down triplet
    weights (automatic for reduced states of global singlets).
    """
    if spectrum.variant != "number":
        raise ValueError("singlet-case formula needs a number-variant spectrum")
    return _closed_form(spectrum, FormulaVariant.NSSR_SINGLET, tol, twirl_coherence)


def nssr_entanglement_general(spectrum: SectorSpectrum, tol: float = ssr.DETECTION_TOL,
                              twirl_coherence: bool = False) -> EntanglementResult:
    """Number-rule entanglement without the triplet-balance assumption.

    Needs a full-rank entangled spin sector; a rank-deficient one raises
    :class:`DegenerateSectorError` and the caller should fall back to the
    brute-force minimizer.  Reduces exactly to the singlet-case result when
    the triplet weights balance.
    """
    if spectrum.variant != "number":
        raise ValueError("number-rule formula needs a number-variant spectrum")
    return _closed_form(spectrum, FormulaVariant.NSSR_GENERAL, tol, twirl_coherence)


def pssr_entanglement(spectrum: SectorSpectrum, tol: float = ssr.DETECTION_TOL,
                      twirl_coherence: bool = False) -> EntanglementResult:
    """Parity-rule entanglement from a parity-variant spectrum.

    The two two-qubit sectors are independent: the single-occupancy sector is
    handled as in the number-rule case and the even-parity corner sector
    contributes through the vacuum/doublon/full weights.  Per sector, the
    balanced case uses the linear solution and the unbalanced case the
    general one.
    """
    if spectrum.variant != "parity":
        raise ValueError("parity-rule formula needs a parity-variant spectrum")
    return _closed_form(spectrum, FormulaVariant.PSSR_GENERAL, tol, twirl_coherence)


_FORMULA_DISPATCH = {
    FormulaVariant.NSSR_SINGLET: nssr_entanglement_singlet,
    FormulaVariant.NSSR_GENERAL: nssr_entanglement_general,
    FormulaVariant.PSSR_SYMMETRIC: pssr_entanglement,
    FormulaVariant.PSSR_GENERAL: pssr_entanglement,
}


def entanglement_from_spectrum(spectrum: SectorSpectrum, variant: FormulaVariant,
                               tol: float = ssr.DETECTION_TOL,
                               twirl_coherence: bool = False) -> EntanglementResult:
    """Evaluate a specific closed-formula variant on a sector spectrum."""
    return _FORMULA_DISPATCH[variant](spectrum, tol=tol, twirl_coherence=twirl_coherence)


def _closed_form_rows(p: np.ndarray, variant: FormulaVariant) -> tuple[np.ndarray, np.ndarray]:
    """:func:`closed_form_batch` without its error ordering."""
    p = _checked_weights(p)
    q = p.copy()
    values = np.zeros(len(p))
    for k in np.flatnonzero(~_settled(q, variant, ssr.DETECTION_TOL)).tolist():
        row, q_row = p[k], q[k]
        values[k], _ = _solve(row, q_row, _plan(row, variant, ssr.DETECTION_TOL)[1])
        _check_closest(values[k], q_row)
    return values, q


def closed_form_batch(weights: np.ndarray,
                      variant: FormulaVariant) -> tuple[np.ndarray, np.ndarray]:
    """Closed-formula values and closest separable weights of many spectra.

    ``weights`` holds one spectrum per row: 16 sector weights in the
    ``variant.ssr`` basis, without coherences.  Row ``k`` of the values and
    of the closest weights equals, bit for bit, the result of
    ``entanglement_from_spectrum(SectorSpectrum(weights[k], variant=variant.ssr),
    variant)``, and a failing row raises that call's error (the first
    failing row, when several fail).  The weight checks run over all rows at
    once, and so does a pass that settles every row whose planned sector
    solutions are all separable: its value is 0.0 and its closest weights
    are its own.  The other rows get their balance tests, sector solutions
    and result checks row by row.
    """
    # row sums have the scalar path's bits on C-ordered rows only
    p = np.ascontiguousarray(weights, dtype=float)
    if p.ndim != 2 or p.shape[1] != fock.DIM:
        raise ValueError("expected one row of 16 sector weights per spectrum")
    try:
        return _closed_form_rows(p, variant)
    except (OrbentError, ValueError):
        if len(p) > 1:
            for row in p:  # the row order of the scalar front end
                _closed_form_rows(row[None], variant)
        raise


#: Flat indices of the off-diagonal entries of a 16x16 matrix.
_OFF_DIAGONAL = np.flatnonzero(~np.eye(fock.DIM, dtype=bool))


def orbital_entanglement(state: TwoOrbitalState, rule: str = "number",
                         tol: float = ssr.DETECTION_TOL,
                         twirl_coherence: bool = False,
                         fallback_oracle: bool = True) -> EntanglementResult:
    """Superselection-compliant entanglement of a two-orbital state.

    Projects the state per the chosen rule, detects its symmetries, selects
    the most specific closed formula and evaluates it.  A rank-deficient
    entangled sector falls back to the brute-force minimizer unless
    ``fallback_oracle`` is disabled; missing symmetries always raise
    :class:`InsufficientSymmetryError`.

    The state is pinched once; the classical-mixture test, the symmetry
    detection and the spectrum all read the pinched matrix.  Results of the
    closed formula and of the oracle fallback carry the
    :class:`~orbent.ssr.SymmetryReport` they were selected by as
    ``details["symmetries"]``.
    """
    projected = ssr.project(state, rule)
    if np.abs(projected.matrix.take(_OFF_DIAGONAL)).max() <= tol:
        # occupation-diagonal states are classical mixtures of products:
        # unentangled, and their own closest separable state
        weights = sector_spectrum(projected, "number").weights
        return EntanglementResult(
            value=0.0,
            variant=None,
            closest_weights=weights,
            basis_variant="number",
            weights=weights,
            method="classical-mixture",
        )
    report = ssr.detect_symmetries(projected, tol)
    variant = ssr.select_formula(report, rule)
    spectrum = sector_spectrum(projected, variant.ssr)
    try:
        result = entanglement_from_spectrum(spectrum, variant, tol=tol,
                                            twirl_coherence=twirl_coherence)
    except DegenerateSectorError as exc:
        if not fallback_oracle:
            raise
        # a child of the ``orbent`` logger, which has no handlers: a DEBUG record
        # prints nothing unless the caller configures logging.  Imported here
        # because loading ``logging`` adds ~8 ms to start-up
        import logging
        logging.getLogger(__name__).debug(
            "%s formula refused (%s); falling back to the KL oracle", variant.value, exc)
        problem = oracle.ConstrainedSimplexProblem(spectrum.weights, rule)
        solution = oracle.kl_min_oracle(problem)
        return EntanglementResult(
            value=solution.value,
            variant=None,
            closest_weights=solution.weights,
            basis_variant=variant.ssr,
            weights=spectrum.weights,
            method="oracle",
            details={
                "selected_variant": variant.value,
                "feasibility_residual": solution.feasibility_residual,
                "stationarity_residual": solution.stationarity_residual,
                "symmetries": report,
            },
        )
    result.details["symmetries"] = report
    return result


def closest_separable_state(state: TwoOrbitalState, rule: str = "number",
                            tol: float = ssr.DETECTION_TOL,
                            twirl_coherence: bool = False) -> TwoOrbitalState:
    """Closest separable state to the superselected input, when a formula applies."""
    result = orbital_entanglement(state, rule, tol=tol,
                                  twirl_coherence=twirl_coherence)
    if result.method == "classical-mixture":
        return ssr.project(state, rule)
    basis = fock.build_symmetry_basis(result.basis_variant)
    v = basis.vectors
    sigma = (v * result.closest_weights) @ v.conj().T
    return TwoOrbitalState(sigma)


def mutual_information(state: TwoOrbitalState) -> float:
    """Total correlation ``S(rho_AB || rho_A x rho_B)`` in nats."""
    rho_a = fock.single_orbital_rdm(state, 0)
    rho_b = fock.single_orbital_rdm(state, 1)
    return fock.relative_entropy(state.matrix, np.kron(rho_a, rho_b))


def classical_correlation(state: TwoOrbitalState, rule: str = "number",
                          tol: float = ssr.DETECTION_TOL,
                          twirl_coherence: bool = False) -> float:
    """Correlation of the closest separable state with the product of marginals."""
    sigma = closest_separable_state(state, rule, tol=tol,
                                    twirl_coherence=twirl_coherence)
    rho_a = fock.single_orbital_rdm(state, 0)
    rho_b = fock.single_orbital_rdm(state, 1)
    return fock.relative_entropy(sigma.matrix, np.kron(rho_a, rho_b))


@dataclass(frozen=True)
class SeniorityCost:
    """Summed pair entanglement of a set of orbital-pair reduced states."""

    total: float
    per_pair: tuple
    failures: tuple
    partial: bool


def seniority_cost(pair_rdms, rule: str = "number", tol: float = ssr.DETECTION_TOL) -> SeniorityCost:
    """Sum of pair entanglements over a list of two-orbital reduced states.

    Pairs whose evaluation fails are reported individually; the total is then
    over the successes only and the result is flagged partial.
    """
    values = []
    failures = []
    for k, rdm in enumerate(pair_rdms):
        try:
            result = orbital_entanglement(rdm, rule, tol=tol)
            values.append(result.value)
        except OrbentError as exc:
            values.append(None)
            failures.append((k, str(exc)))
    total = sum(v for v in values if v is not None)
    return SeniorityCost(
        total=total,
        per_pair=tuple(values),
        failures=tuple(failures),
        partial=bool(failures),
    )
