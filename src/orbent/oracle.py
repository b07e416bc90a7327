"""Brute-force verification paths, independent of the closed formulas.

The Kullback-Leibler minimizer here never touches the closed solutions: per
constrained sector it first tests separability, then finds the point of the
separability boundary where the stationarity system holds, as the bracketed
root of one scalar equation.  The scalar is the distance from the symmetric
point or the constraint multiplier, whichever is smaller, so that weights of
1e-35 beside 1e-2 keep their relative precision; a sector without product
weights is an explicit corner.  The Wick builder computes every
density-matrix element as a sum over contraction pairings, independent of the
constructive Gaussian route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from . import fock
from .errors import OracleConvergenceError
from .fock import TwoOrbitalState

__all__ = [
    "ConstrainedSimplexProblem",
    "OracleSolution",
    "kl_min_oracle",
    "ppt_oracle",
    "wick_rdm_oracle",
]

FEASIBILITY_TOL = 1e-12
STATIONARITY_TOL = 1e-9


@dataclass(frozen=True)
class ConstrainedSimplexProblem:
    """KL minimization target over symmetric separable sector weights.

    Feasible set: the 16-simplex intersected with ``q_u q_v >= ((q_x-q_y)/2)^2``
    for each active sector (the single-occupancy sector always; the
    even-parity corner sector additionally under the parity rule).  The
    uniform distribution is always feasible.
    """

    target: np.ndarray
    rule: str = "number"

    def __post_init__(self):
        p = np.asarray(self.target, dtype=float)
        if p.shape != (fock.DIM,):
            raise ValueError("expected 16 target weights")
        total = p.sum()  # non-finite if any weight is
        if not math.isfinite(total):
            raise ValueError("target weights must be finite")
        if p.min() < -1e-12 or abs(total - 1.0) > 1e-10:
            raise ValueError("target must be a probability vector")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "target", p)
        if self.rule not in ("number", "parity"):
            raise ValueError(f"unknown superselection rule {self.rule!r}")

    @property
    def sectors(self) -> tuple[tuple[int, int, int, int], ...]:
        if self.rule == "number":
            return (fock.SPIN_SECTOR,)
        return (fock.SPIN_SECTOR, fock.PAIR_SECTOR)


@dataclass(frozen=True)
class OracleSolution:
    value: float
    weights: np.ndarray
    feasibility_residual: float
    stationarity_residual: float


def _kkt_residual(p, q, w, mu) -> float:
    """Stationarity residual of the sector KKT system with unit mass multiplier.

    On the active surface ``g = q_u q_v - w^2 = 0``, ``w = (q_x - q_y)/2``,
    the system reads ``-p_i/q_i + 1 + mu * dg/dq_i = 0`` for positive
    coordinates, and ``1 + mu * dg/dq_i >= 0`` for coordinates pressed against
    zero.  ``w`` is the solve's own split, which may lie below the resolution
    of the stored ``q_x`` and ``q_y``; the stored pair must reproduce it
    within 4 ulps of ``q_x``.
    """
    x, y, u, v = q
    if abs((x - y) - 2.0 * w) > 4.0 * math.ulp(x):
        return math.inf
    grads = (-w, w, v, u)
    resid = 0.0
    for pi, qi, gi in zip(p, q, grads):
        term = 1.0 + mu * gi
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            term -= pi / qi
        if qi > 0.0:
            resid = max(resid, abs(term))
        else:
            resid = max(resid, max(0.0, -term))
    return resid


def _brentq(f, lo: float, hi: float) -> float:
    root, info = brentq(f, lo, hi, xtol=5e-324, rtol=8.9e-16, maxiter=400,
                        full_output=True, disp=False)
    if not info.converged:
        raise OracleConvergenceError(f"sector solve did not converge: {info.flag}")
    return root


def _solve_constrained_sector(p4) -> tuple[tuple[float, float, float, float], float]:
    """Minimize the sector KL subject to the quadratic separability boundary.

    ``p4 = (x, y, u, v)`` with constraint ``u v >= ((x - y)/2)^2``; the sector
    mass is fixed by the block-decomposition argument, so the solve is local
    to the four weights.  Returns the optimal weights and the stationarity
    residual of their certificate.

    With ``a >= b`` the coherence pair, ``c, d`` the product weights,
    ``s = a + b`` and ``r = (a - b)/s``, stationarity puts the optimum at
    ``q = (a/(1+k), b/e, c + k w, d + k w)`` with ``e = 1 - k`` and
    ``w = s delta / (2 (1+k) e)``, where ``k`` runs from ``r`` at the
    symmetric point (``delta = r - k = 0``) to 0 at the target.  The boundary
    ``q_u q_v = w^2`` leaves one equation,
    ``s delta = k (c+d) + sqrt((k (c+d))^2 + 4 e (1+k) c d)``, whose excess
    increases in ``delta``.  It is bracketed in ``delta`` on the half of
    ``[0, r]`` next to the symmetric point and in ``k`` on the other half, so
    ``k``, ``e = 2b/s + delta`` and ``delta`` all keep full relative
    precision, and every weight is a sum of non-negative terms.
    """
    x0, y0, c, d = p4
    if c * d >= ((x0 - y0) / 2.0) ** 2:
        return (x0, y0, c, d), 0.0

    flip = y0 > x0
    a, b = (y0, x0) if flip else (x0, y0)
    s = a + b
    if c == 0.0 and d == 0.0:
        # Any feasible point obeys q_x <= mass/2 (from x - y <= u + v), so
        # both KL terms are minimized at the equal split; exact optimum.
        return (s / 2.0, s / 2.0, 0.0, 0.0), 0.0

    r = (a - b) / s
    e_low = 2.0 * b / s

    def excess(k: float, delta: float, e: float) -> float:
        kcd = k * (c + d)
        return s * delta - kcd - math.sqrt(kcd * kcd + 4.0 * e * (1.0 + k) * c * d)

    half = r / 2.0
    if excess(r - half, half, e_low + half) > 0.0:
        delta = _brentq(lambda t: excess(r - t, t, e_low + t), 0.0, half)
        k, e = r - delta, e_low + delta
    elif excess(0.0, r, 1.0) > 0.0:
        k = _brentq(lambda t: excess(t, r - t, 1.0 - t), 0.0, half)
        delta, e = r - k, 1.0 - k
    else:
        # the target sits on the boundary within rounding: the root is k = 0
        k, delta, e = 0.0, r, 1.0
    w = s * delta / (2.0 * (1.0 + k) * e) if delta > 0.0 else 0.0
    if not w > 0.0:
        raise OracleConvergenceError("sector solve collapsed to the symmetric point")
    qx, qy, qu, qv = a / (1.0 + k), b / e, c + k * w, d + k * w
    resid = _kkt_residual((a, b, c, d), (qx, qy, qu, qv), w, -k / w)
    if flip:
        qx, qy = qy, qx
    return (qx, qy, qu, qv), resid


def _kl_term(p: float, q: float) -> float:
    """``p log(p/q) - p + q``; the terms of a mass shell sum to its KL divergence.

    The exact term is never negative, so a negative rounding residue is
    dropped.
    """
    if p == 0.0:
        return q
    gap = p - q
    log_ratio = math.log1p(gap / q) if abs(gap) < q / 2.0 else math.log(p / q)
    return max(0.0, p * log_ratio - gap)


def kl_min_oracle(problem: ConstrainedSimplexProblem) -> OracleSolution:
    """Minimize ``sum_i p_i log(p_i / q_i)`` over the constrained simplex.

    Exploits sector independence: outside the constrained sectors the optimum
    copies the target weights; each constrained sector is solved on its own
    mass shell.  The solution is certified by its feasibility and
    stationarity residuals and by a positive weight wherever the target is
    positive (a finite value); certification failure raises, never returning
    a silent wrong answer.  The value sums ``p log(p/q) - p + q`` over the
    solved sectors, term by term, so it is never negative.
    """
    p = problem.target
    q = p.copy()
    stationarity = 0.0
    solved = []
    for roles in problem.sectors:
        p4 = tuple(float(p[i]) for i in roles)
        q4, resid = _solve_constrained_sector(p4)
        for i, pi, qi in zip(roles, p4, q4):
            if pi > 0.0 and not qi > 0.0:
                raise OracleConvergenceError(
                    "solution not certified: zero weight where the target is positive"
                )
            q[i] = qi
        solved.extend(zip(p4, q4))
        stationarity = max(stationarity, resid)

    feasibility = abs(q.sum() - 1.0)
    if q.min() < 0.0:
        feasibility = max(feasibility, -q.min())
    for roles in problem.sectors:
        x, y, u, v = (q[i] for i in roles)
        violation = ((x - y) / 2.0) ** 2 - u * v
        if violation > 0.0:
            feasibility = max(feasibility, violation)
    if feasibility > FEASIBILITY_TOL or stationarity > STATIONARITY_TOL:
        raise OracleConvergenceError(
            f"solution not certified: feasibility {feasibility:.3e}, "
            f"stationarity {stationarity:.3e}"
        )

    value = math.fsum(_kl_term(pi, qi) for pi, qi in solved)
    return OracleSolution(
        value=value,
        weights=q,
        feasibility_residual=feasibility,
        stationarity_residual=stationarity,
    )


def ppt_oracle(state: TwoOrbitalState) -> tuple[bool, float]:
    """Positive-partial-transpose check on the full 16x16 matrix."""
    eigenvalues = np.linalg.eigvalsh(fock.partial_transpose(state))
    smallest = float(eigenvalues.min())
    return smallest >= -1e-10, smallest


@lru_cache(maxsize=None)
def _wick_contraction(ops: tuple, corr: tuple) -> complex:
    """Expectation of a string of (dagger, mode) operators by Wick pairing."""
    n = len(ops)
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    first = ops[0]
    total = 0.0
    sign = -1.0
    for j in range(1, n):
        sign = -sign  # (-1)^(j-1) crossings to bring ops[j] next to ops[0]
        pair = _pair_value(first, ops[j], corr)
        if pair != 0.0:
            rest = ops[1:j] + ops[j + 1:]
            total += sign * pair * _wick_contraction(rest, corr)
    return total


def _pair_value(op1, op2, corr) -> complex:
    dag1, m1 = op1
    dag2, m2 = op2
    if dag1 and not dag2:
        return corr[m1][m2]                               # <f+_i f_j>
    if not dag1 and dag2:
        return (1.0 if m1 == m2 else 0.0) - corr[m2][m1]  # <f_i f+_j>
    return 0.0


def wick_rdm_oracle(correlations: np.ndarray) -> TwoOrbitalState:
    """Two-orbital density matrix of a number-conserving Gaussian state.

    ``correlations[i, j] = <f+_i f_j>`` over the four modes in global order.
    Every matrix element is evaluated as the expectation of the corresponding
    normal-ordered operator string (creation string, vacuum projector
    expanded over mode subsets, annihilation string), each term contracted by
    Wick's theorem.
    """
    c = np.asarray(correlations, dtype=complex)
    if c.shape != (4, 4):
        raise ValueError("expected a 4x4 mode correlation matrix")
    if np.abs(c - c.conj().T).max() > 1e-10:
        raise ValueError("correlation matrix must be Hermitian")
    eigenvalues = np.linalg.eigvalsh(c)
    if eigenvalues.min() < -1e-10 or eigenvalues.max() > 1.0 + 1e-10:
        raise ValueError("correlation eigenvalues must lie in [0, 1]")

    corr_key = tuple(tuple(complex(x) for x in row) for row in c)
    occ = fock.occupation_table(2)
    rho = np.zeros((fock.DIM, fock.DIM), dtype=complex)
    subsets = [tuple(t for t in range(4) if mask & (1 << t)) for mask in range(16)]
    for ket in range(fock.DIM):
        modes_ket = tuple(m for m in range(4) if occ[ket, m])
        for bra in range(fock.DIM):
            modes_bra = tuple(m for m in range(4) if occ[bra, m])
            if len(modes_bra) != len(modes_ket):
                continue  # number conservation
            element = 0.0
            for subset in subsets:
                string = (
                    tuple((True, m) for m in modes_ket)
                    + tuple(op for t in subset for op in ((True, t), (False, t)))
                    + tuple((False, m) for m in reversed(modes_bra))
                )
                element += (-1.0) ** len(subset) * _wick_contraction(string, corr_key)
            rho[bra, ket] = element
    _wick_contraction.cache_clear()
    return TwoOrbitalState(rho)
