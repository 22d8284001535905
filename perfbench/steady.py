#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs agree within the bounds.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads flow-smooth --runs 5 --sets 1

Each run is `run.py --workload W --seed S --trace 0` in a fresh process,
one at a time; set k uses seeds k*runs+1 .. (k+1)*runs.  Per workload and
end-to-end metric it prints each set's median and its quartile spread
(Q3 - Q1 of statistics.quantiles(n=4), as a share of the median) and
checks:

* every spread is within the metric's bound (the target is a third of
  it, marked "ok" below and "wide" above);
* the second set's median differs from the first's by at most the bound,
  either way;
* the share of failed operations is exactly the same in every run.

Raw results go to .bench_out/steady.json.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    result["elapsed_s"] = elapsed
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict = {}
    ok = True
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                runs.append(one_run(workload, seed, seconds))
                print(f"{workload} set {k + 1} seed {seed} ({runs[-1]['elapsed_s']:.0f} s): "
                      + ", ".join(f"{n} {m['value']:.4g}" for n, m in runs[-1]["metrics"].items()),
                      flush=True)
            sets.append(runs)
        raw[workload] = sets
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            ok = False
        print(f"{workload}: failed share {sorted(shares)}")
        for name, bound in bounds.items():
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
            wide = max(spreads) > bound
            drift = len(medians) > 1 and abs(medians[1] / medians[0] - 1.0) > bound
            ok &= not (wide or drift)
            tag = "FAIL" if wide or drift else ("ok" if max(spreads) <= bound / 3 else "wide")
            print(f"  {name:<14} bound {bound:<5g} medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.4f}" for s in spreads) + f"  {tag}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(raw))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
