"""End-to-end benchmark of orbent with a per-layer breakdown.

    python3 benchmarks/run.py --workload pairs --seed 1 --seconds 10 --trace 0

Each workload is one process, one thread and a closed loop over whole rounds
of the same operations, run in-process through orbent's public functions and
CLI commands.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps orbent's public functions with spans and prints the per-layer metrics
instead (see README.md).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads, so the pin must
# precede every import that can pull numpy in.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import array
import collections
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
#: Operation time between two timings of the reference kernel (``pace``).
CHUNK_NS = 40_000_000
VERIFY_N = 100
VERIFY_SEEDS = 8
V_VALUES = tuple(f"{2.5 + 0.1 * k:.1f}" for k in range(11))
#: One L=8 scan, not the paper's L=10 one: a 16-s L=10 command is a single
#: sample that a slow phase of a shared host covers whole (its time swung
#: from 14 to 25 s between runs), while 0.6-s commands give each run many
#: samples.
SCAN_ARGV = ["ehm-scan", "--L", "8", "--U", "6", "--V", "2.5:3.5:11"]
POINT_ARGV = ["ehm-scan", "--L", "8", "--U", "6", "--V"]

END_TO_END_UNITS = {"items_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metric -> (unit, span names whose self time it sums, per, scale).
#: Times are per item (state, spectrum or grid point); ``cli.self_ms`` is per
#: command, since argument parsing and output happen once per command.
LAYER_TIMES = {
    "stateio.load_us": ("us", ("stateio.state_from_dict",), "item", 1e3),
    "ssr.project_us": ("us", ("ssr.nssr_project", "ssr.pssr_project"), "item", 1e3),
    "ssr.detect_us": ("us", ("ssr.detect_symmetries",), "item", 1e3),
    "entanglement.spectrum_us": (
        "us", ("entanglement.sector_spectrum", "entanglement.SectorSpectrum"), "item", 1e3),
    "entanglement.orbital_us": ("us", ("entanglement.orbital_entanglement",), "item", 1e3),
    "entanglement.formula_us": (
        "us", ("entanglement.entanglement_from_spectrum", "entanglement.nssr_entanglement_singlet",
               "entanglement.nssr_entanglement_general", "entanglement.pssr_entanglement"),
        "item", 1e3),
    "oracle.kl_min_us": ("us", ("oracle.kl_min_oracle", "oracle.ConstrainedSimplexProblem"),
                         "item", 1e3),
    "sampling.draw_us": ("us", ("sampling.random_weights",), "item", 1e3),
    "cli.self_ms": ("ms", ("cli.main",), "op", 1e6),
    "lattice.solve_ms": ("ms", ("lattice.ground_state",), "item", 1e6),
    "lattice.build_ms": ("ms", ("lattice.build_hamiltonian",), "item", 1e6),
    "lattice.basis_ms": ("ms", ("lattice.sector_basis",), "item", 1e6),
    "lattice.rdm_ms": ("ms", ("lattice.two_orbital_rdm",), "item", 1e6),
}
#: Per-layer count -> (span name whose calls it counts, or counter name; per).
LAYER_COUNTS = {
    "fock.validations_per_op": ("fock.validations", "op"),
    "oracle.calls_per_op": ("oracle.kl_min_oracle", "op"),
    "lattice.solves_per_point": ("lattice.ground_state", "item"),
    "lattice.builds_per_point": ("lattice.build_hamiltonian", "item"),
}


class OpFailed(RuntimeError):
    """An operation that returned no result (exception or unexpected exit code)."""


def run_cli(argv, accept=(0,)) -> tuple[int, str]:
    """``orbent <argv>`` in-process: its exit code and standard output.

    An exit code outside ``accept`` means the command gave no result.
    """
    from orbent import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in accept:
        raise OpFailed(f"orbent {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


class Op:
    """One operation: ``call()`` is timed, ``check(output)`` is not."""

    __slots__ = ("call", "check", "items")

    def __init__(self, call, check, items: int):
        self.call, self.check, self.items = call, check, items


def certified_deck(seed: int) -> list[dict]:
    """The ``pairs`` deck with the oracle's value of every entry under each rule.

    Only the ``even-singlet`` entry may go uncertified (``None``): the oracle
    fails on its rounding-level sector weights.  A failure on any other entry
    is raised.
    """
    from orbent import oracle
    from orbent.errors import OrbentError

    import states

    def certify(entry, rule):
        try:
            return oracle.kl_min_oracle(
                oracle.ConstrainedSimplexProblem(entry.weights[rule], rule)).value
        except (OrbentError, ArithmeticError):
            if entry.category != "even-singlet":
                raise
            return None

    return [{"category": entry.category, "payload": entry.payload,
             "weights": {variant: w.tolist() for variant, w in entry.weights.items()},
             "margin": entry.margin,
             "certified": {rule: certify(entry, rule) for rule in ("number", "parity")}}
            for entry in states.pairs_deck(seed)]


def load_certified_deck(seed: int) -> list[tuple]:
    """``(DeckEntry, certified values)`` per deck state, built in a child process.

    Building the deck takes far more memory than evaluating it (four-orbital
    Fock-space matrices), so the measuring process only reads the result and
    its ``peak_rss_mb`` stays the program's.
    """
    import numpy as np

    import states

    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--deck", str(seed)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"building the pairs deck failed ({proc.returncode}): "
                           f"{proc.stderr.strip()}")
    deck = []
    for doc in json.loads(proc.stdout):
        weights = {variant: np.array(w) for variant, w in doc["weights"].items()}
        deck.append((states.DeckEntry(doc["category"], doc["payload"], weights, doc["margin"]),
                     doc["certified"]))
    return deck


def pairs_workload(seed: int):
    """Deck states, each loaded from JSON and evaluated under both rules."""
    from orbent import entanglement, stateio

    import checks

    def make(entry, certified):
        def call():
            state = stateio.state_from_dict(entry.payload)
            return (entanglement.orbital_entanglement(state, "number"),
                    entanglement.orbital_entanglement(state, "parity"))

        def check(results):
            for rule, r in zip(("number", "parity"), results):
                checks.check_pair_result(entry, rule, r.value, r.closest_weights,
                                         r.basis_variant, certified[rule])
            checks.check_pair_rules(entry, results[0].value, results[1].value)

        return Op(call, check, 1)

    return [make(entry, certified) for entry, certified in load_certified_deck(seed)], None


def verify_seeds(seed: int) -> list[int]:
    """The cycle of ``oracle-verify --seed`` values drawn from the run seed."""
    import numpy as np

    return [int(s) for s in
            np.random.default_rng([seed, 0xC11]).integers(1, 2**31 - 1, size=VERIFY_SEEDS)]


def verify_workload(seed: int):
    """``orbent oracle-verify`` over a fixed cycle of seeds drawn from the run seed."""
    import checks

    def make(cmd_seed):
        argv = ["oracle-verify", "--n", str(VERIFY_N), "--seed", str(cmd_seed)]
        # exit 1 reports a formula-oracle delta above the threshold: the output
        # is complete and its check, not the exit code alone, judges it
        return Op(lambda: run_cli(argv, accept=(0, 1)),
                  lambda result: checks.check_verify_output(*result, VERIFY_N), 3 * VERIFY_N)

    return [make(s) for s in verify_seeds(seed)], None


def ehm_scan_workload(seed: int):
    """The 11-point V window of the L=8 chain as one ``ehm-scan`` command."""
    import checks

    def check(text):
        rows = checks.parse_scan(text)
        checks.check_scan_rows(rows, [float(v) for v in V_VALUES])
        checks.check_interior_maximum(row["delta"] for row in rows)

    return [Op(lambda: run_cli(SCAN_ARGV)[1], check, len(V_VALUES))], None


def ehm_point_workload(seed: int):
    """The same V window as single-point L=8 commands, one cold solve each."""
    import checks

    deltas = {}

    def make(v):
        def check(text):
            rows = checks.parse_scan(text)
            checks.check_scan_rows(rows, [float(v)])
            deltas[v] = rows[0]["delta"]

        return Op(lambda: run_cli(POINT_ARGV + [v])[1], check, 1)

    def end_of_pass():
        complete = len(deltas) == len(V_VALUES)  # a failed point leaves the pass incomplete
        curve = [deltas.get(v) for v in V_VALUES]
        deltas.clear()
        if complete:
            checks.check_interior_maximum(curve)

    return [make(v) for v in V_VALUES], end_of_pass


def warm_up_pairs():
    from orbent import entanglement, stateio

    import states

    state = stateio.state_from_dict(states.warm_up_payload())
    for rule in ("number", "parity"):
        entanglement.orbital_entanglement(state, rule)


def warm_up_verify():
    run_cli(["oracle-verify", "--n", "1", "--seed", "1"])


def warm_up_ed():
    run_cli(POINT_ARGV + ["3"])


WORKLOADS = {
    "pairs": (pairs_workload, warm_up_pairs),
    "verify": (verify_workload, warm_up_verify),
    "ehm-scan": (ehm_scan_workload, warm_up_ed),
    "ehm-point": (ehm_point_workload, warm_up_ed),
}


def measure_setup(workload: str) -> float:
    """Median wall time from spawning a fresh interpreter until it has
    imported orbent and finished one warm-up operation.

    Unlike the operations, the probes are not scaled by the reference kernel:
    a probe's start-up work (file reads, unmarshalling, imports) does not
    follow the kernel's speed, and scaling it widened the spread.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe", workload],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            _, err = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return statistics.median(samples)


def measure(ops, end_of_pass, seconds: float, tracer=None) -> dict:
    """Whole passes over ``ops`` until the timed operations add up to ``seconds``,
    and at least two.

    The reference kernel is timed before the first operation and after every
    ``CHUNK_NS`` of operations, so each chunk of samples has a reference on
    either side.  ``times_ms[i]`` holds the times of ``ops[i]`` at the
    reference speed (``at_reference_speed``), one per success.  Samples are
    kept in flat arrays, so that the measuring process's ``peak_rss_mb``
    grows little with the length of the run.
    """
    reference = pace.Pace()
    reference.time_ms()  # the first pass pays one-time costs
    passes, items, attempted, attempted_items, failed = 0, 0, 0, 0, 0
    sample_op, sample_ns, sample_chunk = array.array("l"), array.array("q"), array.array("l")
    refs = [reference.time_ms()]
    errors = []
    budget_ns = int(seconds * 1e9)
    measured_ns = chunk_ns = 0
    loop_start = time.perf_counter_ns()
    while True:
        if tracer is not None:
            tracer.recording = passes == 0
        for i, op in enumerate(ops):
            attempted += 1
            attempted_items += op.items
            if tracer is not None:
                tracer.op = attempted
            start = time.perf_counter_ns()
            try:
                output = op.call()
            except Exception as exc:  # any exception is a failed operation; the run goes on
                failed += 1
                errors.append(f"failed: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter_ns() - start
            sample_op.append(i)
            sample_ns.append(elapsed)
            sample_chunk.append(len(refs) - 1)
            measured_ns += elapsed
            chunk_ns += elapsed
            items += op.items
            try:
                op.check(output)
            except AssertionError as exc:
                errors.append(f"incorrect: {exc}")
            if chunk_ns >= CHUNK_NS:
                refs.append(reference.time_ms())
                chunk_ns = 0
        if end_of_pass is not None:
            try:
                end_of_pass()
            except AssertionError as exc:
                errors.append(f"incorrect: {exc}")
        passes += 1
        # the wall-clock cap ends a run whose operations keep failing
        if (passes >= 2 and measured_ns >= budget_ns
                or time.perf_counter_ns() - loop_start >= 4 * budget_ns):
            break
    refs.append(reference.time_ms())
    times = at_reference_speed(sample_ns, sample_chunk, refs)
    sample_op = np.frombuffer(sample_op, dtype=np.int_)
    times_ms = [times[sample_op == i] for i in range(len(ops))]
    return {"passes": passes, "times_ms": times_ms, "items": items,
            "attempted": attempted, "attempted_items": attempted_items, "failed": failed,
            "errors": errors, "measured_ns": measured_ns, "refs": refs}


def at_reference_speed(ns, chunk, refs) -> np.ndarray:
    """Samples of ``ns`` nanoseconds in milliseconds at the reference speed: each
    scaled by ``pace.REF_MS`` over the mean of the reference times on either
    side of its chunk, ``refs[chunk]`` and ``refs[chunk + 1]``."""
    refs, chunk = np.asarray(refs), np.asarray(chunk)
    return np.asarray(ns) / 1e6 * pace.REF_MS * 2 / (refs[chunk] + refs[chunk + 1])


def end_to_end(run: dict, ops, setup_s: float) -> dict:
    """Timings from each operation's median time at the reference speed.

    The percentiles run over the operations of one pass, that is over the
    inputs; ``items_per_s`` is the items of one pass over the sum of their
    operations' medians.
    """
    medians = [(float(np.median(times)), op.items)
               for times, op in zip(run["times_ms"], ops) if len(times)]
    latencies = sorted(ms for ms, _ in medians)
    values = {
        "items_per_s": sum(items for _, items in medians) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": latencies[math.ceil(0.99 * len(latencies)) - 1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: dict, tracer) -> dict:
    # failed operations did the layers' work too, so the layers count them
    per = {"op": run["attempted"], "item": run["attempted_items"]}
    metrics = {}
    for name, (unit, spans, base, scale) in LAYER_TIMES.items():
        total = sum(tracer.self_ns[span] for span in spans)
        metrics[name] = {"value": total / per[base] / scale, "unit": unit}
    for name, (source, base) in LAYER_COUNTS.items():
        metrics[name] = {"value": tracer.counts[source] / per[base], "unit": "count"}
    metrics["lattice.hamiltonian_mb"] = {"value": tracer.peaks["lattice.hamiltonian_mb"],
                                         "unit": "MB"}
    return metrics


def result(run: dict, metrics: dict) -> dict:
    """The result line: an output that contradicts its check makes it incorrect."""
    correct = not any(e.startswith("incorrect") for e in run["errors"])
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--deck", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.probe is None and args.deck is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbent" / "__init__.py").is_file():
        print(f"error: orbent sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe:
        WORKLOADS[args.probe][1]()
        print("ready", flush=True)
        return 0
    if args.deck is not None:
        print(json.dumps(certified_deck(args.deck)))
        return 0

    make_workload, warm_up = WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(args.workload)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    ops, end_of_pass = make_workload(args.seed)
    warm_up()
    if tracer is not None:
        tracer.reset()
    run = measure(ops, end_of_pass, args.seconds, tracer)

    if not run["measured_ns"]:
        print("\n".join(["error: every operation failed"] + sorted(set(run["errors"]))),
              file=sys.stderr)
        return 1
    metrics = per_layer(run, tracer) if tracer else end_to_end(run, ops, setup_s)
    for line, count in collections.Counter(run["errors"]).items():
        print(f"{count} x {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run['attempted']} ops in "
          f"{run['passes']} passes, {run['items'] / (run['measured_ns'] / 1e9):.6g} items/s "
          f"at the host's speed, reference kernel median {statistics.median(run['refs']):.4g} ms",
          file=sys.stderr)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
