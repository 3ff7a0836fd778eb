"""Run the benchmark once per seed and print each metric's spread across seeds.

    python3 perfbench/spread.py --workload mesh --seeds 1-10 [--seconds 15]

Run from the root of a checkout.  For every end-to-end metric it prints the
median of the per-run values and the distance between their quartiles as a
share of that median, next to the metric's bound from BENCHMARK.json.  The
result lines of all runs are written to ``--save`` when given, one per line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, relative_spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    lines = []
    for seed in _seeds(args.seeds):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        lines.append(line)
        result = json.loads(line)
        shown = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {shown}",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    if args.save:
        args.save.write_text("\n".join(lines) + "\n")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        print(f"{args.workload:8s} {m['name']:14s} median {median(v):10.4f} {m['unit']:4s}"
              f" spread {relative_spread(v):.4f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
