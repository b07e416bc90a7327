"""Brute-force verification paths, independent of the closed formulas.

The Kullback-Leibler minimizer here never touches the closed solutions: per
constrained sector it first tests separability, then finds the point of the
separability boundary where the stationarity system holds, as the bracketed
root of one scalar equation.  The scalar is the distance from the symmetric
point or the constraint multiplier, whichever is smaller, so that weights of
1e-35 beside 1e-2 keep their relative precision; a sector without product
weights is an explicit corner.  One spectrum is solved and certified on plain
Python floats by :func:`kl_min_oracle`; :func:`kl_min_oracle_batch` checks
a whole batch of targets in one numpy pass and then hands every row to
:func:`kl_min_oracle`.  The Wick builder computes every density-matrix element as a sum over
contraction pairings, independent of the constructive Gaussian route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .errors import OracleConvergenceError
from .fock import TwoOrbitalState

__all__ = [
    "ConstrainedSimplexProblem",
    "OracleSolution",
    "kl_min_oracle",
    "kl_min_oracle_batch",
    "ppt_oracle",
    "wick_rdm_oracle",
]

FEASIBILITY_TOL = 1e-12
STATIONARITY_TOL = 1e-9


#: Superselection rule -> the constrained sectors it makes active.
_SECTORS = {
    "number": (fock.SPIN_SECTOR,),
    "parity": (fock.SPIN_SECTOR, fock.PAIR_SECTOR),
}


def _clipped_targets(p: np.ndarray, rule: str) -> np.ndarray:
    """Rows of 16 target weights, checked and clipped at zero.

    A row passes when it is finite, has no weight below -1e-12 and sums to
    one within 1e-10; the first row that fails raises, and then an unknown
    ``rule`` raises.
    """
    with np.errstate(invalid="ignore"):  # inf - inf gives a NaN sum, refused below
        totals = p.sum(axis=1)  # non-finite if any weight is
    for total, lowest in zip(totals.tolist(), p.min(axis=1).tolist()):
        if not math.isfinite(total):
            raise ValueError("target weights must be finite")
        if lowest < -1e-12 or abs(total - 1.0) > 1e-10:
            raise ValueError("target must be a probability vector")
    if not (isinstance(rule, str) and rule in _SECTORS):
        raise ValueError(f"unknown superselection rule {rule!r}")
    return np.maximum(p, 0.0)  # what np.clip(p, 0.0, None) calls


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
        p = _clipped_targets(p[None], self.rule)[0]
        p.setflags(write=False)
        object.__setattr__(self, "target", p)

    @classmethod
    def _checked(cls, target: np.ndarray, rule: str) -> ConstrainedSimplexProblem:
        """A problem over a target that has already been checked and clipped."""
        problem = object.__new__(cls)
        object.__setattr__(problem, "target", target)
        object.__setattr__(problem, "rule", rule)
        return problem

    @property
    def sectors(self) -> tuple[tuple[int, int, int, int], ...]:
        return _SECTORS[self.rule]


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


#: Brent's method: absolute and relative resolution of the root, and the
#: iteration budget.
_BRENT_XTOL = 5e-324
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 400


def _brentq(f, lo: float, hi: float) -> float:
    """The root of ``f`` in the sign-changing bracket ``[lo, hi]``.

    Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), step for step as scipy's C ``brentq``: keep a
    bracket ``[x_cur, x_blk]`` with ``f(x_cur)`` the smaller in magnitude; try
    a secant step (two distinct points) or an inverse quadratic one (three),
    take it when it moves less than half the step before last and stays well
    inside the bracket, and bisect otherwise.  Converged when half the bracket
    is below ``(_BRENT_XTOL + _BRENT_RTOL |x_cur|) / 2`` or ``f(x_cur) == 0``.
    A NaN value, a bracket without a sign change and a spent budget raise
    :class:`OracleConvergenceError`.
    """
    x_pre, x_cur = lo, hi
    f_pre, f_cur = f(x_pre), f(x_cur)
    if math.isnan(f_pre) or math.isnan(f_cur):
        raise OracleConvergenceError("sector solve met a NaN")
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise OracleConvergenceError("sector solve bracket does not change sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_MAXITER):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            try:
                if x_pre == x_blk:  # interpolate
                    s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
                else:  # extrapolate
                    d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                    d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                    s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
            except ZeroDivisionError:  # IEEE gives an infinity or a NaN: no short step
                s_try = math.inf
            inside = 3.0 * abs(s_bis) - delta
            if 2.0 * abs(s_try) < (abs(s_pre) if abs(s_pre) < inside else inside):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
        if math.isnan(f_cur):
            raise OracleConvergenceError("sector solve met a NaN")
    raise OracleConvergenceError("sector solve did not converge: convergence error")


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


def _sum16(q: list) -> float:
    """``sum(q)`` over 16 floats with numpy's bits: its pairwise order, added
    to the reduction's initial +0.0 (so all negative zeros sum to +0.0)."""
    r = [q[i] + q[i + 8] for i in range(8)]
    return 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def kl_min_oracle(problem: ConstrainedSimplexProblem) -> OracleSolution:
    """Minimize ``sum_i p_i log(p_i / q_i)`` over the constrained simplex.

    Exploits sector independence: outside the constrained sectors the optimum
    copies the target weights; each constrained sector is solved on its own
    mass shell.  The solution is certified by its feasibility and
    stationarity residuals and by a positive weight wherever the target is
    positive (a finite value); certification failure raises, never returning
    a silent wrong answer.  The value sums ``p log(p/q) - p + q`` over the
    solved sectors, term by term, so it is never negative.  The work runs on
    the target as a list of Python floats, with numpy's bits.
    """
    p = problem.target.tolist()
    sectors = problem.sectors
    q = p.copy()
    stationarity = 0.0
    solved = []
    for roles in sectors:
        p4 = tuple(p[i] for i in roles)
        q4, resid = _solve_constrained_sector(p4)
        for i, pi, qi in zip(roles, p4, q4):
            if pi > 0.0 and not qi > 0.0:
                raise OracleConvergenceError(
                    "solution not certified: zero weight where the target is positive"
                )
            q[i] = qi
        solved.extend(zip(p4, q4))
        stationarity = max(stationarity, resid)

    feasibility = abs(_sum16(q) - 1.0)
    lowest = min(q)
    if lowest < 0.0:
        feasibility = max(feasibility, -lowest)
    for roles in sectors:
        x, y, u, v = (q[i] for i in roles)
        violation = ((x - y) / 2.0) ** 2 - u * v
        if violation > 0.0:
            feasibility = max(feasibility, violation)
    if feasibility > FEASIBILITY_TOL or stationarity > STATIONARITY_TOL:
        raise OracleConvergenceError(
            f"solution not certified: feasibility {feasibility:.3e}, "
            f"stationarity {stationarity:.3e}"
        )

    return OracleSolution(
        value=math.fsum(_kl_term(pi, qi) for pi, qi in solved),
        weights=np.array(q),
        feasibility_residual=feasibility,
        stationarity_residual=stationarity,
    )


def kl_min_oracle_batch(targets, rule: str = "number") -> np.ndarray:
    """The certified minimum of every row of ``targets``, shape ``(n, 16)``.

    The rows are checked as :class:`ConstrainedSimplexProblem` checks one
    target, all before any is solved; each row is then solved by
    :func:`kl_min_oracle`, so it has the single problem's bits, and the first
    row whose certificate fails raises that row's error.
    """
    p = np.asarray(targets, dtype=float)
    if p.ndim != 2 or p.shape[1] != fock.DIM:
        raise ValueError("expected rows of 16 target weights")
    clipped = _clipped_targets(p, rule)
    clipped.setflags(write=False)
    return np.array([kl_min_oracle(ConstrainedSimplexProblem._checked(row, rule)).value
                     for row in clipped], dtype=float)


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
