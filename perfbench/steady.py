#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and print the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --rounds 5
    python3 perfbench/steady.py --rounds 5 --workloads ints_sum --trace 1

Each round runs every workload once, in alternating order (forward, then
reversed), each time with another seed and in a fresh process.  Before
each run, a fixed pure-Python loop runs for one second, so the table can
say how fast the machine itself was meanwhile.  For each metric the
table gives the median, the quartiles (``statistics.quantiles``), the
distance between the quartiles as a share of the median, and the
min-max range as a share of the median.  The bounds in ``BENCHMARK.json``
are set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_loop_rate(seconds: float = 1.0) -> float:
    """Passes per second of a fixed pure-Python loop."""
    passes = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        total = 0
        for i in range(10_000):
            total += i * i
        passes += 1
    return passes / seconds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread_row(name: str, values: list[float]) -> str:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    iqr = (q3 - q1) / med if med else float("nan")
    rng = (max(values) - min(values)) / med if med else float("nan")
    return (f"{name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
            f"{100 * iqr:>9.2f}%{100 * rng:>9.2f}%")


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from stack import SHAPES

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=listed,
                        choices=list(SHAPES))
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    loop_rates: list[float] = []
    seed = args.first_seed
    for r in range(args.rounds):
        order = args.workloads if r % 2 == 0 else list(reversed(args.workloads))
        for workload in order:
            loop_rates.append(machine_loop_rate())
            out = run_once(workload, seed, args.seconds, args.trace)
            if not out["correct"] or out["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {out}")
            results[workload].append(out)
            print(f"round {r + 1} {workload} seed {seed}: "
                  f"loop {loop_rates[-1]:.0f}/s, attempted {out['attempted']}",
                  file=sys.stderr, flush=True)
            seed += 1

    header = (f"{'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>10}{'range/med':>10}")
    print(f"{args.rounds} rounds of {args.seconds:g} s, --trace {args.trace}, "
          f"seeds {args.first_seed}..{seed - 1}")
    print("machine: fixed pure-Python loop, passes per second before each run")
    print(header)
    print(spread_row("loop_passes_per_s", loop_rates))
    for workload, outs in results.items():
        print(f"\n{workload} (attempted median "
              f"{statistics.median(o['attempted'] for o in outs):.0f}, "
              f"failed {sum(o['failed'] for o in outs)})")
        print(header)
        for name in outs[0]["metrics"]:
            print(spread_row(name, [o["metrics"][name]["value"] for o in outs]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
