import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import orbent
from orbent import cli, entanglement, fock, lattice, oracle, sampling, stateio
from orbent.sampling import random_state

from conftest import state_from_weights

LN2 = math.log(2.0)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def singlet_file(tmp_path):
    basis = fock.build_symmetry_basis("number")
    path = tmp_path / "singlet.json"
    stateio.save_state(path, fock.pure_state(basis.vector(fock.SINGLET)))
    return str(path)


class TestFormulaCommand:
    def test_singlet_value(self, tmp_path, capsys):
        code, out, _ = run(["formula", singlet_file(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value_nats"] - LN2) < 1e-12
        assert payload["variant"] == "number-ssr-singlet"
        assert payload["units"] == "nats"
        assert payload["r"] == 0.0 and payload["t"] == 1.0
        assert abs(sum(payload["q_star"]) - 1.0) < 1e-9
        expected_keys = {"value_nats", "variant", "p", "q_star", "r", "t",
                         "r_prime", "t_prime"}
        assert expected_keys <= set(payload)
        assert len(payload["p"]) == 16

    def test_product_state_is_zero(self, tmp_path, capsys):
        path = tmp_path / "product.json"
        stateio.save_state(path, fock.TwoOrbitalState(np.diag(np.eye(16)[5])))
        code, out, _ = run(["formula", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value_nats"] == 0.0

    def test_bits_conversion(self, tmp_path, capsys):
        code, out, _ = run(["formula", singlet_file(tmp_path), "--bits"], capsys)
        payload = json.loads(out)
        assert abs(payload["value_bits"] - 1.0) < 1e-10
        assert payload["units"] == "bits"

    def test_insufficient_symmetry_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "generic.json"
        stateio.save_state(path, random_state(rng))
        code, _, err = run(["formula", str(path)], capsys)
        assert code == cli.EXIT_INSUFFICIENT_SYMMETRY
        assert "oracle" in err

    def test_degenerate_sector_exit_code(self, tmp_path, capsys):
        weights = np.zeros(16)
        weights[fock.SINGLET] = 0.55
        weights[fock.TRIPLET_ZERO] = 0.05
        weights[fock.TRIPLET_UP] = 0.12
        weights[fock.VACUUM] = 1.0 - weights.sum()
        path = tmp_path / "degenerate.json"
        stateio.save_state(path, state_from_weights(weights))
        code, _, err = run(["formula", str(path)], capsys)
        assert code == cli.EXIT_DEGENERATE_SECTOR
        assert "oracle" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["formula", "no-such-file.json"], capsys)
        assert code == cli.EXIT_USAGE

    def test_non_finite_entry_exit_code(self, tmp_path, capsys):
        data = json.loads(Path(singlet_file(tmp_path)).read_text())
        data["re"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        for command in ("formula", "inspect", "oracle-verify"):
            code, _, err = run([command, str(path)], capsys)
            assert code == cli.EXIT_USAGE
            assert "non-finite" in err

    @pytest.mark.parametrize("text, message", [
        ("[]", "the top level must be a JSON object, got list"),
        ('{"dim": 16, "basis": "occupation-A↑A↓B↑B↓"}', "missing field 're'"),
        ('{"dim": 16, "basis": "occupation-A↑A↓B↑B↓", "re": [[1e400]]}',
         "field 're' must hold 16 rows of 16 numbers, got shape (1, 1)"),
        ('{"dim": 16, "basis": "occupation-A↑A↓B↑B↓", "re": [[1' + "0" * 400 + ']]}',
         "field 're' must hold 16 rows of 16 numbers: int too large to convert to float"),
    ])
    def test_malformed_documents_are_usage_errors(self, text, message, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        for command in ("formula", "inspect", "oracle-verify"):
            code, out, err = run([command, str(path)], capsys)
            assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")

    def test_twirl_coherence_flag(self, tmp_path, capsys):
        basis = fock.build_symmetry_basis("number")
        weights = np.zeros(16)
        weights[[fock.SINGLET, fock.TRIPLET_ZERO]] = 0.5, 0.1
        weights[[fock.TRIPLET_UP, fock.TRIPLET_DOWN]] = 0.05, 0.05
        weights[fock.VACUUM] = 1.0 - weights.sum()
        v = basis.vectors
        m = (v * weights) @ v.conj().T
        m += 0.05 * (np.outer(v[:, fock.SINGLET], v[:, fock.TRIPLET_ZERO])
                     + np.outer(v[:, fock.TRIPLET_ZERO], v[:, fock.SINGLET]))
        path = tmp_path / "coherent.json"
        stateio.save_state(path, fock.TwoOrbitalState(m))
        code, _, _ = run(["formula", str(path)], capsys)
        assert code == cli.EXIT_INSUFFICIENT_SYMMETRY
        code, out, _ = run(["formula", str(path), "--twirl-coherence"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["coherence_twirled"] is True
        assert payload["value_nats"] > 0.0


class TestInspectCommand:
    def test_report_fields(self, tmp_path, capsys):
        code, out, _ = run(["inspect", singlet_file(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["symmetries"]["total_spin"]["ok"] is True
        assert len(payload["weights"]) == 16


class TestOracleVerifyCommand:
    def test_random_batch(self, capsys):
        code, out, _ = run(["oracle-verify", "--n", "50", "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_delta"] <= 1e-6
        for variant in ("singlet", "general", "parity"):
            assert payload[variant]["n"] == 50

    @pytest.mark.parametrize("seed", ["1459512921", "579374264", "198526064", "6411819",
                                      "72639870", "2141913565"])
    def test_splits_off_by_five_ulps_are_certified(self, seed, capsys):
        # each batch draws a sector whose stored q_x - q_y misses the solve's
        # 2 w by more than 4 ulps of q_x, all within the rounding of the solve
        code, out, err = run(["oracle-verify", "--n", "100", "--seed", seed], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["max_abs_delta"] <= 1e-6
        for variant in ("singlet", "general", "parity"):
            assert payload[variant]["max_abs_delta_nats"] <= 1e-6

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_fewer_than_one_spectrum(self, n, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["oracle-verify", "--n", n])
        assert stop.value.code == cli.EXIT_USAGE
        assert f"argument --n: must be at least 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk", [1000, 64])
    def test_batch_matches_the_scalar_loop(self, chunk, monkeypatch, capsys):
        # the formulas and the oracle run in batches of VERIFY_CHUNK spectra;
        # the reference draws, builds and evaluates one spectrum at a time,
        # each through its own ConstrainedSimplexProblem and kl_min_oracle
        monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
        code, out, _ = run(["oracle-verify", "--n", "200", "--seed", "13"], capsys)
        assert code == 0
        payload = json.loads(out)
        rng = np.random.default_rng(13)
        for variant, kind, rule, formula in (
                ("singlet", "singlet", "number", entanglement.nssr_entanglement_singlet),
                ("general", "general", "number", entanglement.nssr_entanglement_general),
                ("parity", "parity-general", "parity", entanglement.pssr_entanglement)):
            deltas = np.empty(200)
            for k in range(200):
                p = sampling.random_weights(rng, kind)
                value = formula(entanglement.SectorSpectrum(p, variant=rule)).value
                solution = oracle.kl_min_oracle(oracle.ConstrainedSimplexProblem(p, rule))
                deltas[k] = abs(value - solution.value)
            assert payload[variant]["max_abs_delta_nats"] == cli._sanitize(deltas.max())
            assert payload[variant]["mean_abs_delta_nats"] == cli._sanitize(deltas.mean())

    def test_threshold_failure_exit(self, capsys):
        code, out, _ = run(
            ["oracle-verify", "--n", "5", "--seed", "7", "--threshold", "1e-300"], capsys
        )
        assert code == cli.EXIT_FAILURE

    def test_a_wrong_oracle_value_fails_the_check(self, monkeypatch, capsys):
        # a fault injected into kl_min_oracle reaches every entangled spectrum;
        # each variant draws one among its five
        real = oracle.kl_min_oracle
        monkeypatch.setattr(oracle, "kl_min_oracle", lambda problem: dataclasses.replace(
            real(problem), value=real(problem).value + 1e-3))
        code, out, _ = run(["oracle-verify", "--n", "5", "--seed", "7"], capsys)
        assert code == cli.EXIT_FAILURE
        payload = json.loads(out)
        for variant in ("singlet", "general", "parity"):
            assert payload[variant]["max_abs_delta_nats"] > 9e-4

    def test_file_mode_with_degenerate_sector(self, tmp_path, capsys):
        weights = np.zeros(16)
        weights[fock.SINGLET] = 0.55
        weights[fock.TRIPLET_ZERO] = 0.05
        weights[fock.TRIPLET_UP] = 0.12
        weights[fock.VACUUM] = 1.0 - weights.sum()
        path = tmp_path / "degenerate.json"
        stateio.save_state(path, state_from_weights(weights))
        code, out, _ = run(["oracle-verify", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["formula_value_nats"] is None
        assert "formula_unavailable" in payload
        assert payload["oracle_value_nats"] > 0.0

    def test_file_mode_agreement(self, tmp_path, capsys):
        code, out, _ = run(["oracle-verify", singlet_file(tmp_path)], capsys)
        payload = json.loads(out)
        assert payload["abs_delta"] < 1e-12

    def test_file_mode_classical_mixture(self, tmp_path, capsys):
        # the projected state is diagonal in the product basis, so the
        # formula side takes its classical-mixture path, which has no variant
        path = tmp_path / "mixture.json"
        stateio.save_state(path, fock.TwoOrbitalState(np.eye(16) / 16))
        code, out, _ = run(["oracle-verify", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["variant"] is None
        assert payload["abs_delta"] < 1e-12
        assert payload["formula_value_nats"] == payload["oracle_value_nats"] == 0.0


class TestScanCommands:
    def test_ehm_scan_refuses_an_oversized_sector(self, capsys):
        # read the limit first, so that code without the preflight fails
        # here instead of allocating the L=14 sector's gigabytes of vectors
        assert lattice.MAX_HAMILTONIAN_BYTES < 2**30
        code, out, err = run(["ehm-scan", "--L", "14", "--U", "6", "--V", "3"], capsys)
        assert code == cli.EXIT_FAILURE
        assert out == ""
        assert "176679360 nonzeros" in err and "512 MiB limit" in err

    def test_free_fermion_scan_format(self, capsys):
        code, out, _ = run(
            ["free-fermion-scan", "--eta-grid", "0.5", "--l-max", "3"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "eta,l,E_nats"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert float(rows[1][2]) == 0.0  # l = 2 at half filling

    def test_lmin_grid(self, capsys):
        code, out, _ = run(["lmin", "--eta-grid", "0.1:0.9:9"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 + 9
        first = lines[2].split(",")
        assert first[0] == "0.1" and first[1] == "5"

    def test_ehm_scan(self, capsys):
        code, out, _ = run(
            ["ehm-scan", "--L", "4", "--U", "4", "--V", "0:1:2", "--pivot", "2"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "U,V,E_strong_nats,E_weak_nats,delta"
        assert len(lines) == 2 + 2

    def test_bond_alternation_window_is_unchanged(self, capsys):
        # recorded at commit 122f211; a change to the ED engine must keep
        # these rows byte for byte
        code, out, err = run(["ehm-scan", "--L", "8", "--U", "6", "--V", "2.5:3.5:11"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            "U,V,E_strong_nats,E_weak_nats,delta",
            "6,2.5,0.29495265511,0,0.29495265511",
            "6,2.6,0.30077724807,0,0.30077724807",
            "6,2.7,0.30592215773,0,0.30592215773",
            "6,2.8,0.309976650012,0,0.309976650012",
            "6,2.9,0.312557628734,0,0.312557628734",
            "6,3,0.313389525053,0,0.313389525053",
            "6,3.1,0.312367827686,0,0.312367827686",
            "6,3.2,0.309577624918,0,0.309577624918",
            "6,3.3,0.305260153347,0,0.305260153347",
            "6,3.4,0.299746299252,0,0.299746299252",
            "6,3.5,0.29338674262,0,0.29338674262",
        ]

    @pytest.mark.parametrize("argv, message", [
        (["ehm-scan", "--L", "8", "--U", "6", "--V", "inf"], "v must be finite, got inf"),
        (["ehm-scan", "--L", "8", "--U", "nan", "--V", "3"], "u must be finite, got nan"),
        (["ehm-scan", "--L", "8", "--U", "6", "--V", "3", "--t-hop", "inf"],
         "t_hop must be finite, got inf"),
        (["ehm-scan", "--L", "8", "--U", "6", "--V", "inf:1:3"],
         "grid endpoints must be finite, got 'inf:1:3'"),
        (["dimer", "--U", "nan"], "u must be finite, got nan"),
        # finite, but overflowing the Hamiltonian's diagonal or its spectral bounds
        (["ehm-scan", "--L", "8", "--U", "1e308", "--V", "3"],
         "U = 1e+308 and V = 3.0 overflow the interaction diagonal"),
        (["dimer", "--U", "1e308"],
         "t_hop = 1.0, U = 1e+308 and V = 0.0 overflow the Hamiltonian's Gershgorin bounds"),
        # named by the first grid point, where the scan builds its operator
        (["ehm-scan", "--L", "8", "--U", "6:7:2", "--V", "3", "--t-hop", "1e308"],
         "t_hop = 1e+308, U = 6.0 and V = 3.0 overflow the Hamiltonian's Gershgorin bounds"),
    ])
    def test_non_finite_parameters_are_refused_by_name(self, argv, message, capsys):
        # warnings are errors here, so a numpy RuntimeWarning on the way fails the test
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, norm", [
        (["ehm-scan", "--L", "8", "--U", "1e9", "--V", "0"], "4.000e+09"),
        # past about 1.3e154, where LAPACK's squares of the tridiagonal overflow
        (["ehm-scan", "--L", "8", "--U", "1e155", "--V", "0"], "4.000e+155"),
        (["dimer", "--U", "1e12"], "1.000e+12"),
        (["dimer", "--U", "1e155"], "1.000e+155"),
        (["dimer", "--U", "1e307"], "1.000e+307"),
    ])
    def test_couplings_beyond_the_residual_certificate_are_refused(self, argv, norm, capsys):
        # a converged solve's residual is rounding times the norm: above 1e-8
        # here, which the refusal blames on the couplings, with exit 2
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert re.fullmatch(r"error: eigensolver residual \S+ too large: these couplings put the "
                            r"1e-08 residual certificate out of reach, below rounding at the "
                            rf"Hamiltonian's Gershgorin norm bound {re.escape(norm)}\n", err)

    def test_zero_operator_is_refused_as_degenerate_at_every_length(self, capsys):
        # t = U = V = 0 is the zero operator, read off its diagonal at every
        # length; at L = 10 its one level of 63,504 states would not fit the
        # vector budget, but the refusal builds no multiplet
        refusals = []
        for length in ("4", "6", "8", "10"):
            code, out, err = run(["ehm-scan", "--L", length, "--U", "0", "--V", "0",
                                  "--t-hop", "0"], capsys)
            assert code == cli.EXIT_FAILURE and out == ""
            refusals.append(err)
        assert refusals[0].startswith("error: ground state is degenerate: its energy gap 0.000e+00")
        assert refusals == refusals[:1] * 4

    def test_zero_operator_refusal_allocates_no_multiplet(self):
        # the L = 8 refusal needs none of the 4,900 unit vectors (192 MB) of
        # the level, so it peaks below 128 MiB.  Linux carries the peak of the
        # process that starts an interpreter into the interpreter's own
        # ru_maxrss, so the command runs as the only child of a bare one
        probe = textwrap.dedent("""
            import resource, subprocess, sys
            argv = ["ehm-scan", "--L", "8", "--U", "0", "--V", "0", "--t-hop", "0"]
            code = subprocess.run([sys.executable, "-m", "orbent.cli", *argv],
                                  capture_output=True).returncode
            print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(orbent.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        code, peak_kib = map(int, proc.stdout.split())
        assert code == cli.EXIT_FAILURE
        assert peak_kib < 128 * 1024

    def test_a_gap_below_the_gap_runs_residual_is_settled_by_partner_runs(self, capsys):
        # t = 1e-5: a gap of 5.8e-11, which the gap run's 1e-8 residual read as
        # a gapped state; the partner runs find the degenerate partner
        code, out, err = run(["ehm-scan", "--L", "8", "--U", "4", "--V", "1", "--t-hop", "1e-5"],
                             capsys)
        assert code == cli.EXIT_FAILURE and out == ""
        assert err.startswith("error: ground state is degenerate: its energy gap 5.810e-11 is below")

    @pytest.mark.parametrize("length", ["6", "8"])
    def test_near_atomic_point_prints_a_row_at_l6_as_at_l8(self, length, capsys):
        # t = 1e-4: the ground vector is spin-flip-even bit for bit at both
        # lengths, so the pair states keep the symmetry the formula needs
        code, out, err = run(["ehm-scan", "--L", length, "--U", "4", "--V", "1",
                              "--t-hop", "1e-4"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[-1].startswith("4,1,")

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["ehm-scan", "--L", "4", "--U", "4", "--V", "1:2:{}"],
        ["ehm-scan", "--L", "4", "--U", "0:4:{}", "--V", "1"],
        ["free-fermion-scan", "--eta-grid", "0.1:0.9:{}", "--l-max", "3"],
        ["lmin", "--eta-grid", "0.1:0.9:{}"],
    ])
    def test_grid_counts_below_one_are_refused(self, argv, count, capsys):
        argv = [arg.format(count) for arg in argv]
        (grid,) = [arg for arg in argv if arg.endswith(f":{count}")]
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and err == f"error: grid count must be at least 1, got {grid!r}\n"

    def test_byte_identical_reruns(self, capsys):
        args = ["oracle-verify", "--n", "20", "--seed", "11"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second


class TestDimerCommand:
    def test_analytic_energy_of_a_huge_hopping_is_finite(self, capsys):
        # 4 t^2 overflows a float past t = 1e154; the solve itself passes here
        code, out, err = run(["dimer", "--U", "0", "--V", "0",
                              "--t-hop", "6.579491862369723e+278"], capsys)
        assert "Traceback" not in err
        if code == cli.EXIT_OK:
            assert math.isfinite(json.loads(out)["energy_analytic"])
        else:
            assert code == cli.EXIT_USAGE and out == "" and err.startswith("error: ")

    def test_both_rules_come_from_one_solve(self, capsys, monkeypatch):
        solves = []
        ground_state = lattice.ground_state

        def counted(*args, **kwargs):
            solves.append(args)
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(lattice, "ground_state", counted)
        code, out, _ = run(["dimer", "--U", "4"], capsys)
        assert code == cli.EXIT_OK and len(solves) == 1
        payload = json.loads(out)
        assert payload["variant_number_rule"] != payload["variant_parity_rule"]

    def test_values(self, capsys):
        code, out, _ = run(["dimer", "--U", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["energy"] - (-2.0)) < 1e-10
        assert abs(payload["energy_analytic"] - (-2.0)) < 1e-12
        assert abs(payload["entanglement_number_rule_nats"] - 0.5 * LN2) < 1e-10
        assert payload["entanglement_parity_rule_nats"] >= payload["entanglement_number_rule_nats"]

    def test_degenerate_refusal_names_the_gap_and_the_api_argument(self, capsys):
        # without hopping, the two singly occupied states share the lowest
        # level; no command averages over the multiplet, so the refusal names the API
        code, out, err = run(["dimer", "--U", "4", "--t-hop", "0"], capsys)
        assert code == cli.EXIT_FAILURE and out == ""
        assert re.fullmatch(r"error: ground state is degenerate: its energy gap \S+ is below "
                            r"DEGENERACY_TOL = 1e-10; the API argument on_degenerate=\"mixture\" "
                            r"of two_orbital_rdm averages over the multiplet\n", err)


class TestSeniorityCommand:
    def test_total(self, tmp_path, capsys):
        basis = fock.build_symmetry_basis("number")
        singlet_path = tmp_path / "a.json"
        stateio.save_state(singlet_path, fock.pure_state(basis.vector(fock.SINGLET)))
        trivial_path = tmp_path / "b.json"
        stateio.save_state(trivial_path, fock.TwoOrbitalState(np.diag(np.eye(16)[0])))
        code, out, _ = run(["seniority", str(singlet_path), str(trivial_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["total_nats"] - LN2) < 1e-10
        assert payload["partial"] is False

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run(["dimer", "--U", "1", "-o", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["version"]


class TestThreadPinning:
    def test_thread_variables_are_set_before_numpy_loads(self):
        # record the BLAS/OpenMP thread variables at the moment numpy's import starts
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        probe = textwrap.dedent(f"""
            import importlib.abc, json, os, sys
            seen = {{}}
            class Spy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.update({{k: os.environ.get(k) for k in {names!r}}})
            sys.meta_path.insert(0, Spy())
            import orbent.cli
            print(json.dumps(seen))
        """)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["ORBENT_NUM_THREADS"] = "3"
        env["PYTHONPATH"] = str(Path(orbent.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert json.loads(proc.stdout) == dict.fromkeys(names, "3")


class TestParser:
    def test_built_once_and_prints_to_the_current_streams(self, capsys):
        assert cli._parser() is cli._parser()
        for _ in range(2):
            with pytest.raises(SystemExit):
                cli.main(["--version"])
            assert capsys.readouterr().out == f"orbent {orbent.__version__}\n"
            with pytest.raises(SystemExit):
                cli.main(["formula"])
            assert "required: input" in capsys.readouterr().err


class TestImportCost:
    def test_only_the_ed_commands_load_scipy(self):
        # a fresh interpreter: importing the CLI loads no scipy and no logging
        # at all; the gapped ED commands load only scipy's three compiled
        # modules, none of its packages, and no logging; the partner runs'
        # degenerate solve loads no ARPACK's scipy.sparse.linalg either
        probe = textwrap.dedent("""
            import contextlib, io, json, sys
            import orbent.cli
            loaded = lambda: sorted(m for m in sys.modules
                                    if m.split(".")[0] in ("scipy", "logging"))
            cli = loaded()
            codes = []
            for argv in (["dimer", "--U", "4"], ["ehm-scan", "--L", "4", "--U", "4", "--V", "1"],
                         ["ehm-scan", "--L", "8", "--U", "6", "--V", "3"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(orbent.cli.main(argv))
            ed = loaded()
            from orbent import lattice
            ring = lattice.ChainSpec(8, 4, 4, boundary="periodic")
            lattice.ground_state_rdm(ring, 0, 1, on_degenerate="mixture")
            print(json.dumps({"loaded": cli, "ed": ed, "codes": codes,
                              "linalg": "scipy.sparse.linalg" in sys.modules}))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(orbent.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(proc.stdout) == {
            "loaded": [],
            "ed": ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.sparse._sparsetools"],
            "codes": [0, 0, 0],
            "linalg": False,
        }
