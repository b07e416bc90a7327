"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload pairs --runs 10 [--first-seed 1]

Runs are untraced, so the metrics are the end-to-end ones.  For every
metric: the median of the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, which is
the distance between the quartiles as a share of the median.  The bound of
each end-to-end metric comes from BENCHMARK.json; a spread above a third of
it is marked.  Results are appended to ``benchmarks/out/spread.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: correct={all(r['correct'] for r in results)} "
          f"failed shares={sorted(shares)}")
    summary = {"workload": args.workload, "runs": len(results),
               "first_seed": args.first_seed, "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of its bound"
        print(f"  {name:28s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.2%}{flag}")
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
