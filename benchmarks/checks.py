"""Output checks of the benchmark workloads.

Each check compares a result with a separate computation or with a property
the method must have, never with stored output, and raises
:class:`CheckFailed` naming what went wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import states

ORACLE_TOL = 1e-6        # formula vs independent KL minimizer
KL_TOL = 1e-9            # reported value vs KL(p || q*) recomputed here
SIMPLEX_TOL = 1e-10
BOUNDARY_TOL = 1e-12     # q_u q_v >= ((q_x - q_y)/2)^2 up to rounding
ORDER_TOL = 1e-10        # E_number <= E_parity
LN2_TOL = 1e-11          # CSV values carry 12 significant digits
#: A free-fermion margin this close to zero decides nothing in floating point.
MARGIN_UNDECIDED = 1e-12


class CheckFailed(AssertionError):
    """A workload output contradicts its independent check."""


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def check_pair_result(entry: states.DeckEntry, rule: str, value: float,
                      closest_weights: np.ndarray, basis_variant: str,
                      certified: float | None) -> None:
    """One ``orbital_entanglement`` result against the deck entry's certificate
    (``None`` when the oracle could not certify the entry)."""
    if certified is not None and not abs(value - certified) <= ORACLE_TOL:
        raise CheckFailed(f"{entry.category}/{rule}: value {value!r} vs oracle {certified!r}")
    q = np.asarray(closest_weights, dtype=float)
    if q.shape != (16,) or not abs(q.sum() - 1.0) <= SIMPLEX_TOL or not q.min() >= -BOUNDARY_TOL:
        raise CheckFailed(f"{entry.category}/{rule}: closest weights leave the simplex")
    # in the number basis the doublons are product states; only the parity
    # basis carries the constrained pair sector
    sectors = (states.SPIN_ROLES, states.PAIR_ROLES) if basis_variant == "parity" else (
        states.SPIN_ROLES,)
    for x, y, u, v in sectors:
        if not q[u] * q[v] - ((q[x] - q[y]) / 2.0) ** 2 >= -BOUNDARY_TOL:
            raise CheckFailed(f"{entry.category}/{rule}: closest state is not separable")
    kl = kl_divergence(entry.weights[basis_variant], q)
    if not abs(kl - value) <= KL_TOL:
        raise CheckFailed(f"{entry.category}/{rule}: value {value!r} but KL(p||q*) = {kl!r}")


def check_pair_rules(entry: states.DeckEntry, e_number: float, e_parity: float) -> None:
    """Ordering of the two rules, the ln 2 ceiling and the free-fermion margin."""
    if not 0.0 <= e_number <= e_parity + ORDER_TOL:
        raise CheckFailed(f"{entry.category}: E_number {e_number!r} vs E_parity {e_parity!r}")
    if not e_parity <= states.LN2 + ORDER_TOL:
        raise CheckFailed(f"{entry.category}: E_parity {e_parity!r} exceeds ln 2")
    if entry.margin is not None and abs(entry.margin) > MARGIN_UNDECIDED:
        if (e_number > 0.0) != (entry.margin < 0.0):
            raise CheckFailed(
                f"free-fermion pair: E_number {e_number!r} but margin {entry.margin!r}")


def check_verify_output(code: int, text: str, n: int) -> None:
    """``oracle-verify`` batch output: every variant within 1e-6 over ``n``
    spectra, and exit code 0 (the command's own verdict on its deltas)."""
    payload = json.loads(text)
    for variant in ("singlet", "general", "parity"):
        report = payload[variant]
        if report["n"] != n:
            raise CheckFailed(f"oracle-verify {variant}: {report['n']} spectra, expected {n}")
        if not report["max_abs_delta_nats"] <= ORACLE_TOL:
            raise CheckFailed(
                f"oracle-verify {variant}: max delta {report['max_abs_delta_nats']!r}")
    if code != 0:
        raise CheckFailed(f"oracle-verify exited {code}")


def parse_scan(text: str) -> list[dict]:
    """Rows of an ``ehm-scan`` CSV as floats keyed by column."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def check_scan_rows(rows: list[dict], v_values) -> None:
    """One row per grid point with ``0 <= E_weak <= E_strong <= ln 2``."""
    if len(rows) != len(v_values):
        raise CheckFailed(f"ehm-scan: {len(rows)} rows for {len(v_values)} grid points")
    for row, v in zip(rows, v_values):
        if not math.isclose(row["V"], v, abs_tol=1e-9):
            raise CheckFailed(f"ehm-scan: row at V={row['V']!r}, expected {v!r}")
        weak, strong = row["E_weak_nats"], row["E_strong_nats"]
        if not 0.0 <= weak <= strong <= states.LN2 + LN2_TOL:
            raise CheckFailed(f"ehm-scan V={v}: E_weak {weak!r}, E_strong {strong!r}")


def check_interior_maximum(deltas) -> None:
    """The bond alternation peaks strictly inside the V window (bond-order wave)."""
    deltas = list(deltas)
    peak = max(range(len(deltas)), key=deltas.__getitem__)
    if not 0 < peak < len(deltas) - 1:
        raise CheckFailed(f"bond alternation has no interior maximum: {deltas}")
