"""Reference figures: the ROADMAP baseline rows, one L=12 point and the small commands.

    python3 benchmarks/reference.py            # about three minutes on 2 cores

Prints a Markdown table and writes it as JSON to ``benchmarks/out/reference.json``.
These are reference figures, measured once per row (medians where a row is
cheap enough to repeat); the gated numbers come from ``run.py``.
"""

import os

# same thread pin as run.py, before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def timed(fn, repeat: int = 1) -> float:
    """Median wall time of ``fn()`` in seconds."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def per_call(fn, calls: int, repeat: int = 5) -> float:
    """Median over ``repeat`` batches of the mean time per call, in seconds."""
    def batch():
        for _ in range(calls):
            fn()
    return timed(batch, repeat) / calls


def cli_seconds(argv, repeat: int = 1) -> float:
    from orbent import cli

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"orbent {' '.join(argv)} exited {code}")
    return timed(call, repeat)


def pytest_seconds(*selection) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def main() -> int:
    import numpy as np
    import scipy

    import states
    from orbent import entanglement, fock, free_fermion, lattice, oracle, ssr, stateio

    rows = []

    def row(name, value, unit):
        rows.append({"row": name, "value": value, "unit": unit})
        text = f"{value:,}" if isinstance(value, int) else f"{value:.4g}"
        print(f"| {name} | {text} {unit} |", flush=True)

    print(f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
          f"nproc {os.cpu_count()}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print("| row | value |\n|---|---|")
    row("tier-1 suite, wall", pytest_seconds(), "s")
    row("criterion 9 alone, wall", pytest_seconds(
        "tests/test_acceptance.py::test_criterion_09_bond_alternation_maximum"), "s")
    row("criterion 2 alone, wall", pytest_seconds(
        "tests/test_acceptance.py::test_criterion_02_formula_oracle_agreement"), "s")

    entry = next(e for e in states.pairs_deck(1) if e.category == "reflection")
    matrix = np.array(entry.payload["re"]) + 1j * np.array(entry.payload["im"])
    state = stateio.state_from_dict(entry.payload)
    row("TwoOrbitalState validation", per_call(lambda: fock.TwoOrbitalState(matrix), 2000) * 1e6,
        "us")
    row("nssr_project", per_call(lambda: ssr.nssr_project(state), 2000) * 1e6, "us")
    row("sector_spectrum", per_call(lambda: entanglement.sector_spectrum(state, "number"), 2000)
        * 1e6, "us")
    row("detect_symmetries", per_call(lambda: ssr.detect_symmetries(state), 2000) * 1e6, "us")
    for rule in ("number", "parity"):
        row(f"orbital_entanglement ({rule} rule)",
            per_call(lambda: entanglement.orbital_entanglement(state, rule), 1000) * 1e6, "us")
    problem = oracle.ConstrainedSimplexProblem(entry.weights["number"], "number")
    row("kl_min_oracle, one spectrum", per_call(lambda: oracle.kl_min_oracle(problem), 2000) * 1e6,
        "us")
    corr = free_fermion.pair_correlation_modes(free_fermion.correlation_block(0.3, 2))
    row("wick_rdm_oracle", per_call(lambda: oracle.wick_rdm_oracle(corr), 5, repeat=3) * 1e3, "ms")

    for length in (8, 10, 12):
        chain = lattice.ChainSpec(length, length // 2, length // 2, u=6.0, v=3.0)
        basis = lattice.sector_basis(length, length // 2, length // 2)
        row(f"ED L={length} sector dim", basis.dim, "states")
        repeat = 3 if length < 12 else 1
        row(f"ED build_hamiltonian L={length}",
            timed(lambda: lattice.build_hamiltonian(chain, basis), repeat) * 1e3, "ms")
        h = lattice.build_hamiltonian(chain, basis)
        row(f"ED Hamiltonian nnz L={length}", h.nnz, "nonzeros")
        start = time.perf_counter()
        gs = lattice.ground_state(h)
        row(f"ED ground_state L={length}, U=6, V=3", time.perf_counter() - start, "s")
        del h
        row(f"ED pair RDM L={length}",
            timed(lambda: lattice.two_orbital_rdm(gs, basis, length // 2 - 1, length // 2),
                  repeat) * 1e3, "ms")
        del gs

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    state_file = out_dir / "reference-state.json"
    stateio.save_state(state_file, state)
    row("orbent formula <reflection state>", cli_seconds(["formula", str(state_file)], 5) * 1e3,
        "ms")
    row("orbent oracle-verify --n 10000", cli_seconds(["oracle-verify", "--n", "10000"]), "s")
    row("orbent free-fermion-scan --eta-grid 0.1:0.9:9 --l-max 8",
        cli_seconds(["free-fermion-scan", "--eta-grid", "0.1:0.9:9", "--l-max", "8"], 5) * 1e3,
        "ms")
    row("orbent lmin --eta-grid 0.1:0.9:9",
        cli_seconds(["lmin", "--eta-grid", "0.1:0.9:9"], 5) * 1e3, "ms")
    row("orbent dimer --U 4 --V 1", cli_seconds(["dimer", "--U", "4", "--V", "1"], 5) * 1e3, "ms")
    row("orbent ehm-scan --L 8 --U 6 --V 2.5:3.5:11",
        cli_seconds(["ehm-scan", "--L", "8", "--U", "6", "--V", "2.5:3.5:11"]), "s")
    row("orbent ehm-scan --L 10 --U 6 --V 2.5:3.5:11 --pivot 5",
        cli_seconds(["ehm-scan", "--L", "10", "--U", "6", "--V", "2.5:3.5:11", "--pivot", "5"]),
        "s")
    row("orbent ehm-scan --L 12 --U 6 --V 3 (one point)",
        cli_seconds(["ehm-scan", "--L", "12", "--U", "6", "--V", "3"]), "s")
    (out_dir / "reference.json").write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
