"""Steadiness check: two sets of benchmark runs on the same commit.

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--sets 2] [--log FILE]

Runs perfbench/run.py once per seed, with the run length from
BENCHMARK.json; set s uses seeds s*runs+1 .. (s+1)*runs. For every
end-to-end metric and workload it prints each set's median and spread
(quartile distance over median, statistics.quantiles(n=4)) and whether
the spread is within the metric's bound (setup_s excepted) and whether
each later set's median is no worse than the first set's by more than the
bound. It also compares the share of failed operations between the sets.
Exits 1 if any of these fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--log", help="append every run's result line to this file")
    args = parser.parse_args(argv)
    # subprocess.run kills the current benchmark run when this one is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    results = {}  # (set, workload) -> list of result dicts
    for s in range(args.sets):
        for wl in args.workload or names:
            for seed in range(s * args.runs + 1, (s + 1) * args.runs + 1):
                cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"set {s + 1} {wl} seed {seed}: exit {proc.returncode}")
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                results.setdefault((s, wl), []).append(res)
                if args.log:
                    with open(args.log, "a") as fh:
                        fh.write(json.dumps({"set": s + 1, "workload": wl,
                                             "seed": seed, **res}) + "\n")
                print(f"set {s + 1} {wl} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':15s} {'metric':12s} {'bound':>5s}  "
          + "  ".join(f"set{s + 1} median  spread" for s in range(args.sets)) + "  verdict")
    for wl in args.workload or names:
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            cells, verdict = [], []
            first = None
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[(s, wl)]]
                med, spr = statistics.median(values), spread(values)
                cells.append(f"{med:12.5g} {spr:7.3f}")
                if name != "setup_s" and spr > bound:
                    verdict.append(f"set{s + 1} spread > bound")
                if first is None:
                    first = med
                elif (med - first) / first * (1 if lower else -1) > bound:
                    verdict.append(f"set{s + 1} median worse by > bound")
            ok &= not verdict
            print(f"{wl:15s} {name:12s} {bound:5.2f}  " + "  ".join(cells) + "  "
                  + ("; ".join(verdict) or "ok"))
        shares = {sum(r["failed"] for r in results[(s, wl)]) /
                  sum(r["attempted"] for r in results[(s, wl)]) for s in range(args.sets)}
        correct = all(r["correct"] for s in range(args.sets) for r in results[(s, wl)])
        ok &= len(shares) == 1 and correct
        print(f"{wl:15s} failed share per set: {sorted(shares)}; all correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
