#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--seconds 40] [--workload newton-surgery ...]

Runs bench/run.py once per workload and seed, one run at a time, untraced,
and prints for each metric the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  The raw results go to .bench_out/spread-<first>-<last>.json.
"""

import argparse
import json
import statistics
import sys

import run


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    spec = run.declared()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workload or list(run.WORKLOADS):
        runs = raw[workload] = []
        for seed in args.seeds:
            res, out = run.run_child(workload, seed, args.seconds, 0)
            if res is None:
                sys.exit("\n".join(out))
            runs.append(res)
            print(
                f"{workload} seed {seed}: correct={res['correct']} "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                + " | " + next((line for line in out if " passes" in line), ""),
                flush=True,
            )
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(
                f"  {workload:15s} {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                f"spread {(q3 - q1) / med:.4f}  bound {bound}",
                flush=True,
            )
    out = run.OUT / f"spread-{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
