#!/usr/bin/env python3
"""Run hkverify benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process: a set-up sample (a fresh interpreter
importing the package) and an untimed warm-up first, then whole rounds
until the round end nearest to --seconds, each round checked by oracle.py
outside its timed region, with further set-up samples between the rounds.  --seconds
defaults to run_seconds of BENCHMARK.json.  `--workload all` runs every
workload of BENCHMARK.json, each in its own fresh process.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  A traced run also writes its spans and per-layer figures
to .bench_out/trace-<workload>-seed<seed>.json.

Run from anywhere; the package is imported from ../src, never from an
installed copy, and scratch files go to ../.bench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up samples per run: one before the rounds, then one after each round
# until there are SETUP_SAMPLES, and more at the end if the rounds were fewer
SETUP_SAMPLES = 4
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hkverify; "
    "from hkverify import identities; identities.tolerance_table()"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HK_THREADS", None)
    return env


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the package and loading
    the tolerance table."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   env=child_env(), cwd=ROOT)
    return time.perf_counter() - start


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def run_workload(args) -> int:
    os.environ.pop("HK_THREADS", None)
    sys.path.insert(0, str(SRC))
    import hkverify

    if Path(hkverify.__file__).resolve().parent != SRC / "hkverify":
        raise SystemExit(f"imported hkverify from {hkverify.__file__}, not from {SRC}")
    import numpy as np

    import oracle
    import tracer as tracing
    from workloads import WORKLOADS, run_round, warm_up

    workload = WORKLOADS[args.workload]
    setup_sample()                  # discarded: it may compile bytecode
    setup = [setup_sample()]
    warm_up(workload)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    uninstall = tracing.install(tracer) if args.trace else None
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    rng = np.random.default_rng(args.seed)
    chk = oracle.Checks()
    collisions: dict = {}
    attempted = failed = 0
    samples: dict[str, list] = {"ladder_s": [], "cli_s": [], "flow_s": []}
    verify_s: dict[tuple, list] = {}      # (level, shape) -> seconds
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            rnd = run_round(workload, rng, scratch, tracer)
            with tracer.pause():
                failed += oracle.check_round(chk, workload, rnd, collisions)
            attempted += rnd.operations()
            rounds += 1
            samples["flow_s"].append(rnd.flow_s)
            for p in rnd.passes:
                samples["ladder_s"].append(p.ladder_s)
                samples["cli_s"].append(p.cli_s)
                for v in p.verified + p.extra:
                    if v.shape.n == 2:
                        verify_s.setdefault((v.level, v.shape.key), []).append(v.seconds)
            del rnd
            # stop at the round end nearest to --seconds: a run is whole
            # rounds, and a workload whose round is long (flow-smooth's is
            # ~30 s) would otherwise overrun by up to a whole round
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample())
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    finally:
        if uninstall is not None:
            uninstall()
        os.rmdir(scratch)

    # Timings are means over the run, not medians: a shared host alternates
    # between faster and slower spells lasting seconds, so a run's samples
    # fall in two clusters and their median jumps between them from run to
    # run, while their mean moves with the share of time spent in each
    end_to_end = {name: statistics.fmean(vals) for name, vals in samples.items()}
    for level in (128, 256):
        # the mean per shape, averaged over the workload's n = 2 shapes
        end_to_end[f"verify_s_{level}"] = statistics.fmean(
            statistics.fmean(vals) for (lv, _), vals in verify_s.items() if lv == level)
    end_to_end["setup_s"] = statistics.median(setup)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {workload.name}: seed {args.seed}, {rounds} rounds in "
          f"{time.perf_counter() - start:.1f} s, trace {args.trace}")
    units = metric_units("end_to_end")
    for name, unit in units.items():
        print(f"  {name:<14} {end_to_end[name]:.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}")
    print("  oracle: worst value/limit per check")
    for name, ratio in sorted(chk.worst.items()):
        print(f"    {ratio:9.3g}  {name}")
    for msg in chk.failures[:20]:
        print(f"  ORACLE FAILURE: {msg}")

    if args.trace:
        layer = tracing.layer_metrics(tracer.spans)
        out_path = trace_path(workload.name, args.seed)
        out_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "rounds": rounds,
            "end_to_end_traced": end_to_end, "per_layer": layer,
            "per_function": {str(r): dict(v) for r, v in
                             tracing.per_round_totals(tracer.spans).items()},
            "spans": tracer.spans,
        }))
        print(f"  wrote {out_path}")
        print_layer_table(tracing.per_round_totals(tracer.spans), rounds)
        units = metric_units("per_layer")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        for name in units:
            print(f"  {name:<44} {layer[name]:.6g} {units[name]}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not chk.failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_layer_table(per_round: dict, rounds: int) -> None:
    names = sorted({name for r in per_round.values() for name in r})
    print(f"  per function, median per round over {rounds} rounds: calls, inclusive s, self s")
    for name in names:
        rows = [r[name] for r in per_round.values() if name in r]
        calls = statistics.median(row[0] for row in rows)
        incl = statistics.median(row[1] for row in rows)
        self_s = statistics.median(row[2] for row in rows)
        print(f"    {name:<44} {calls:>8g} {incl:10.5f} {self_s:10.5f}")


def trace_path(workload: str, seed: int) -> Path:
    return OUT / f"trace-{workload}-seed{seed}.json"


def run_child(workload: str, args, trace: int) -> dict | None:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload {workload} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own fresh process; prints each one's metrics.

    With --trace 1 each workload runs untraced and then traced, and the
    ratio of the traced end-to-end figures to the untraced ones is
    printed as the tracing overhead.
    """
    results = {}
    status = 0
    for w in spec()["workloads"]:
        name = w["name"]
        result = run_child(name, args, 0)
        if result is None or not result["correct"]:
            status = 1
        if result is None:
            continue
        results[name] = result
        if args.trace:
            traced = run_child(name, args, 1)
            if traced is None or not traced["correct"]:
                status = 1
                continue
            overhead = json.loads(trace_path(name, args.seed).read_text())["end_to_end_traced"]
            print(f"tracing overhead on {name} (traced / untraced - 1):")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<14} {overhead[metric] / m['value'] - 1.0:+.2%}")
    print("summary:")
    for name, res in results.items():
        figures = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}; {figures}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hkverify" / "__init__.py").is_file():
        print(f"error: no hkverify package under {SRC}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
