"""Brute-force verification paths, independent of the closed formulas.

The Kullback-Leibler minimizer here never touches the closed solutions: per
constrained sector it first tests separability, then solves the stationarity
system on the constraint surface by bracketing a single scalar (the product
of the constraint multiplier and the sector asymmetry), with explicit corner
solutions when the sector is rank deficient.  The Wick builder computes every
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


def _kkt_residual(p, q, mu) -> float:
    """Stationarity residual of the sector KKT system with unit mass multiplier.

    On the active surface ``g = q_u q_v - ((q_x - q_y)/2)^2 = 0`` the system
    reads ``-p_i/q_i + 1 + mu * dg/dq_i = 0`` for positive coordinates, and
    ``1 + mu * dg/dq_i >= 0`` for coordinates pressed against zero.
    """
    x, y, u, v = q
    grads = (-(x - y) / 2.0, (x - y) / 2.0, v, u)
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


def _solve_near_corner(a: float, b: float, c: float, d: float):
    """Full-path solve for a root within rounding of ``m = -1``, in ``e = 1 + m``.

    With ``s = a + b`` and the symmetric point ``e_low = 2b/s``, stationarity
    reads ``2 e (2-e) w = s (e - e_low)`` and the boundary
    ``e (2-e) w^2 = (1-e)(c+d) w + c d``; their difference increases in ``e``
    and changes sign on ``[e_low, 1]``.  Returns the frame weights and the
    stationarity residual of their certificate.
    """
    s = a + b
    e_low = 2.0 * b / s

    def excess(e: float) -> float:
        k = (1.0 - e) * (c + d)
        return s * (e - e_low) - k - math.sqrt(k * k + 4.0 * e * (2.0 - e) * c * d)

    if not excess(1.0) > 0.0:
        raise OracleConvergenceError("could not bracket the shifted sector multiplier")
    e = brentq(excess, e_low, 1.0, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    qx = a / (2.0 - e)
    # the certificate reads w from the stored q_x, q_y: below their
    # resolution, keep the smallest representable split
    qy = min(b / e if b > 0.0 else 0.0, float(np.nextafter(qx, 0.0)))
    w = (qx - qy) / 2.0
    mu = (e - 1.0) / w
    q = (qx, qy, c + (1.0 - e) * w, d + (1.0 - e) * w)
    resid = _kkt_residual((a, b, c, d), q, mu)
    if resid > STATIONARITY_TOL and mu < 0.0:
        # A stored split above the exact one leaves the boundary's product
        # weights about 2e off stationarity.  Product weights stationary at
        # the stored split, q_u = c + h and q_v = d + h with
        # h^2 - (-1/mu - c - d) h + c d = 0, keep the boundary with slack.
        beta = -1.0 / mu - c - d
        disc = beta * beta - 4.0 * c * d
        if beta > 0.0 and disc >= 0.0:
            h = (beta + math.sqrt(disc)) / 2.0
            q_stationary = (qx, qy, c + h, d + h)
            resid_stationary = _kkt_residual((a, b, c, d), q_stationary, mu)
            if resid_stationary <= STATIONARITY_TOL:
                q, resid = q_stationary, resid_stationary
    return q, resid


def _solve_constrained_sector(p4) -> tuple[tuple[float, float, float, float], float]:
    """Minimize the sector KL subject to the quadratic separability boundary.

    ``p4 = (x, y, u, v)`` with constraint ``u v >= ((x - y)/2)^2``; the sector
    mass is fixed by the block-decomposition argument, so the solve is local
    to the four weights.  Returns the optimal weights and the stationarity
    residual of the certificate.
    """
    x0, y0, u0, v0 = p4
    if u0 * v0 >= ((x0 - y0) / 2.0) ** 2:
        return (x0, y0, u0, v0), 0.0

    flip_xy = y0 > x0
    a, b = (y0, x0) if flip_xy else (x0, y0)
    flip_uv = u0 == 0.0 and v0 > 0.0
    c, d = (v0, u0) if flip_uv else (u0, v0)

    mu = None
    if c == 0.0 and d == 0.0:
        # Any feasible point obeys q_x <= mass/2 (from x - y <= u + v), so
        # both KL terms are minimized at the equal split; exact optimum.
        s = a + b
        q_frame = (s / 2.0, s / 2.0, 0.0, 0.0)
        resid = 0.0
    elif d == 0.0:
        # One product weight structurally zero: stationarity becomes linear.
        k = (a - b) / (a + b + 2.0 * c)
        denom = 1.0 - k * k
        q_frame = (a / (1.0 + k), b / (1.0 - k), c / denom, c * k * k / denom)
        mu = -1.0 / q_frame[2]
        resid = _kkt_residual((a, b, c, 0.0), q_frame, mu)
    else:
        # Full path: stationarity with unit mass multiplier, parametrized by
        # m = mu * w where w = (q_x - q_y)/2.  The boundary gap changes sign
        # between the symmetric point (w = 0) and the unconstrained optimum
        # (m = 0), which brackets the root.
        def w_of(m: float) -> float:
            width = a / (1.0 - m)
            if b > 0.0:
                width -= b / (1.0 + m)
            return width / 2.0

        def boundary_gap(m: float) -> float:
            w = w_of(m)
            return (c - m * w) * (d - m * w) - w * w

        m_low = -(a - b) / (a + b) if b > 0.0 else -1.0
        # Rounding-level weights round 1 + m_low or the gap at m_low to zero;
        # their root lies within rounding of m = -1 and is solved in e = 1 + m.
        gap_low = boundary_gap(m_low) if b == 0.0 or m_low > -1.0 else 0.0
        if gap_low > 0.0:
            gap_high = boundary_gap(0.0)
            if not gap_high < 0.0:
                raise OracleConvergenceError(
                    f"could not bracket the sector multiplier: gaps ({gap_low:.3e}, {gap_high:.3e})"
                )
            m_star = brentq(boundary_gap, m_low, 0.0, xtol=1e-16, rtol=8.9e-16, maxiter=200)
            w = w_of(m_star)
            q_frame = (
                a / (1.0 - m_star),
                b / (1.0 + m_star) if b > 0.0 else 0.0,
                c - m_star * w,
                d - m_star * w,
            )
            mu = m_star / w
            resid = _kkt_residual((a, b, c, d), q_frame, mu)
            if resid > STATIONARITY_TOL:
                # Near rounding level the bracket resolves but the root in m
                # loses the accuracy the certificate needs; the shifted solve
                # may still certify.
                try:
                    q_corner, resid_corner = _solve_near_corner(a, b, c, d)
                except OracleConvergenceError:
                    pass
                else:
                    if resid_corner <= STATIONARITY_TOL:
                        q_frame, resid = q_corner, resid_corner
        else:
            q_frame, resid = _solve_near_corner(a, b, c, d)

    qx, qy, qu, qv = q_frame
    if flip_uv:
        qu, qv = qv, qu
    if flip_xy:
        qx, qy = qy, qx
    return (qx, qy, qu, qv), resid


def kl_min_oracle(problem: ConstrainedSimplexProblem) -> OracleSolution:
    """Minimize ``sum_i p_i log(p_i / q_i)`` over the constrained simplex.

    Exploits sector independence: outside the constrained sectors the optimum
    copies the target weights; each constrained sector is solved on its own
    mass shell.  The solution is certified by its feasibility and
    stationarity residuals and by a positive weight wherever the target is
    positive (a finite value); certification failure raises, never returning
    a silent wrong answer.
    """
    p = problem.target
    q = p.copy()
    stationarity = 0.0
    for roles in problem.sectors:
        p4 = tuple(float(p[i]) for i in roles)
        q4, resid = _solve_constrained_sector(p4)
        for i, pi, qi in zip(roles, p4, q4):
            if pi > 0.0 and not qi > 0.0:
                raise OracleConvergenceError(
                    "solution not certified: zero weight where the target is positive"
                )
            q[i] = qi
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

    mask = p > 0.0
    value = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
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
