"""The benchmark's own tests: every output check rejects a wrong result, and
one seed always generates the same inputs.

    python3 -m pytest benchmarks/tests -q
"""

import dataclasses
import json

import numpy as np
import pytest

import checks
import pace
import run
import states
from orbent import entanglement, oracle, stateio


@pytest.fixture(scope="module")
def deck():
    return states.pairs_deck(3)


def _evaluate(entry, rule):
    result = entanglement.orbital_entanglement(stateio.state_from_dict(entry.payload), rule)
    certified = oracle.kl_min_oracle(
        oracle.ConstrainedSimplexProblem(entry.weights[rule], rule)).value
    return result, certified


def _entangled(deck, category, rule="number"):
    for entry in deck:
        if entry.category == category:
            result, certified = _evaluate(entry, rule)
            if result.value > 1e-3:
                return entry, result, certified
    raise AssertionError(f"no entangled {category} state in the deck")


@pytest.mark.parametrize("category", ["gaussian", "singlet", "reflection", "rank-deficient"])
def test_correct_pair_result_passes(deck, category):
    entry, result, certified = _entangled(deck, category)
    checks.check_pair_result(entry, "number", result.value, result.closest_weights,
                             result.basis_variant, certified)


def test_value_off_by_1e_3_is_rejected(deck):
    entry, result, certified = _entangled(deck, "reflection")
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_pair_result(entry, "number", result.value + 1e-3, result.closest_weights,
                                 result.basis_variant, certified)


def test_closest_state_outside_separable_set_is_rejected(deck):
    entry, result, certified = _entangled(deck, "reflection")
    q = np.array(result.closest_weights)
    # move the polarized-triplet mass onto the singlet: same total, u v = 0 < ((x - y)/2)^2
    q[states.SINGLET] += q[states.TRIPLET_UP] + q[states.TRIPLET_DOWN]
    q[states.TRIPLET_UP] = q[states.TRIPLET_DOWN] = 0.0
    with pytest.raises(checks.CheckFailed, match="not separable"):
        checks.check_pair_result(entry, "number", result.value, q, result.basis_variant, certified)


def test_closest_weights_off_the_simplex_are_rejected(deck):
    entry, result, certified = _entangled(deck, "singlet")
    q = np.array(result.closest_weights) * 1.01
    with pytest.raises(checks.CheckFailed, match="simplex"):
        checks.check_pair_result(entry, "number", result.value, q, result.basis_variant, certified)


def test_value_that_is_not_kl_of_closest_state_is_rejected(deck):
    entry, result, _ = _entangled(deck, "singlet")
    shifted = result.value + 1e-7  # within the oracle tolerance, outside the KL one
    with pytest.raises(checks.CheckFailed, match="KL"):
        checks.check_pair_result(entry, "number", shifted, result.closest_weights,
                                 result.basis_variant, shifted)


def test_rule_ordering_and_free_fermion_margin(deck):
    with pytest.raises(checks.CheckFailed, match="E_parity"):
        checks.check_pair_rules(deck[0], 0.3, 0.2)
    with pytest.raises(checks.CheckFailed, match="ln 2"):
        checks.check_pair_rules(deck[0], 0.1, 0.8)
    entangled = next(e for e in deck if e.margin is not None and e.margin < -1e-6)
    with pytest.raises(checks.CheckFailed, match="margin"):
        checks.check_pair_rules(entangled, 0.0, 0.1)
    separable = next(e for e in deck if e.margin is not None and e.margin > 1e-6)
    with pytest.raises(checks.CheckFailed, match="margin"):
        checks.check_pair_rules(separable, 1e-4, 0.1)


def test_gaussian_states_match_the_paper_margin(deck):
    for entry in deck:
        if entry.margin is not None:
            value = _evaluate(entry, "number")[0].value
            checks.check_pair_rules(entry, value, _evaluate(entry, "parity")[0].value)


def _scan_text(deltas, v_values):
    lines = ["# config: {}", "U,V,E_strong_nats,E_weak_nats,delta"]
    lines += [f"6,{v},{0.1 + d},0.1,{d}" for v, d in zip(v_values, deltas)]
    return "\n".join(lines) + "\n"


def test_v_curve_without_interior_maximum_is_rejected():
    v_values = [float(v) for v in run.V_VALUES]
    rising = [0.01 * k for k in range(len(v_values))]
    rows = checks.parse_scan(_scan_text(rising, v_values))
    checks.check_scan_rows(rows, v_values)
    with pytest.raises(checks.CheckFailed, match="interior maximum"):
        checks.check_interior_maximum(row["delta"] for row in rows)
    peaked = [0.3 - 0.01 * abs(k - 6) for k in range(len(v_values))]
    checks.check_interior_maximum(peaked)


def test_scan_rows_out_of_order_or_missing_are_rejected():
    v_values = [2.5, 2.6]
    with pytest.raises(checks.CheckFailed, match="E_weak"):
        checks.check_scan_rows([{"V": 2.5, "E_weak_nats": 0.2, "E_strong_nats": 0.1},
                                {"V": 2.6, "E_weak_nats": 0.0, "E_strong_nats": 0.1}], v_values)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_scan_rows([{"V": 2.5, "E_weak_nats": 0.0, "E_strong_nats": 0.1}], v_values)


def test_verify_output_above_threshold_is_rejected():
    report = {"n": 10, "max_abs_delta_nats": 1e-9}
    payload = {"singlet": report, "general": report, "parity": dict(report)}
    checks.check_verify_output(0, json.dumps(payload), 10)
    with pytest.raises(checks.CheckFailed, match="spectra"):
        checks.check_verify_output(0, json.dumps(payload), 11)
    with pytest.raises(checks.CheckFailed, match="exited 1"):
        checks.check_verify_output(1, json.dumps(payload), 10)
    payload["parity"]["max_abs_delta_nats"] = 2e-6
    with pytest.raises(checks.CheckFailed, match="parity"):
        checks.check_verify_output(1, json.dumps(payload), 10)


def test_verify_run_with_a_wrong_formula_is_incorrect(monkeypatch):
    """A formula-oracle delta above the threshold makes ``oracle-verify`` exit 1;
    the run counts it as an incorrect result, not as a failed operation."""
    real = oracle.kl_min_oracle
    monkeypatch.setattr(oracle, "kl_min_oracle", lambda problem: dataclasses.replace(
        real(problem), value=real(problem).value + 1e-3))
    ops, end_of_pass = run.verify_workload(1)
    outcome = run.measure(ops[:1], end_of_pass, seconds=1e-9)
    summary = run.result(outcome, {})
    assert summary["correct"] is False and summary["failed"] == 0
    assert all("max delta" in error for error in outcome["errors"])


def test_only_the_even_singlet_may_go_uncertified():
    deck = run.certified_deck(3)
    uncertified = {e["category"] for e in deck if None in e["certified"].values()}
    assert uncertified <= {"even-singlet"}
    assert [e["payload"] for e in deck] == [e.payload for e in states.pairs_deck(3)]


def test_one_seed_gives_the_same_inputs():
    first, again, other = states.pairs_deck(5), states.pairs_deck(5), states.pairs_deck(6)
    assert [e.payload for e in first] == [e.payload for e in again]
    assert [e.payload for e in first] != [e.payload for e in other]
    assert [e.category for e in first] == [e.category for e in other]
    assert first[-1].category == "even-singlet" and first[-1].payload == other[-1].payload
    assert run.verify_seeds(5) == run.verify_seeds(5) != run.verify_seeds(6)


def test_deck_make_up():
    deck = states.pairs_deck(1)
    counts = {c: sum(e.category == c for e in deck) for c in states.DECK_MAKEUP}
    assert counts == states.DECK_MAKEUP


def test_timings_are_medians_at_the_reference_speed():
    ops = [run.Op(None, None, 1), run.Op(None, None, 2), run.Op(None, None, 1)]
    ref = pace.REF_MS
    # op 0: 1 ms at the reference speed, once on a host twice as slow; op 1: 3 ms
    refs = [ref, ref, 2 * ref, 2 * ref]
    times = run.at_reference_speed([1_000_000, 2_000_000, 1_000_000, 3_000_000],
                                   [0, 2, 0, 0], refs)
    assert times == pytest.approx([1.0, 1.0, 1.0, 3.0])
    outcome = {"times_ms": [times[:3], times[3:], []]}  # the third never succeeded
    metrics = run.end_to_end(outcome, ops, setup_s=0.5)
    assert metrics["items_per_s"]["value"] == pytest.approx(3 / 4e-3)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(2.0)
    assert metrics["op_p99_ms"]["value"] == pytest.approx(3.0)
