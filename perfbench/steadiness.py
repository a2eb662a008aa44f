"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark --runs times on one workload, one run after another,
each for the run_seconds of BENCHMARK.json and with the next seed, and
prints for every end-to-end metric its median and its spread: the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median.  The bounds in BENCHMARK.json rest on
these spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(done.stdout, file=sys.stderr)
            raise SystemExit(f"seed {seed}: incorrect result")
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + json.dumps(line), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)

    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    for name, vals in values.items():
        s = spread(vals)
        print(
            f"  {name:14s} median {statistics.median(vals):.6g}"
            f"  spread {s:.4f}  bound {bounds[name]}  spread/bound {s / bounds[name]:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
