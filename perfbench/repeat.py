#!/usr/bin/env python3
"""Repeat runner for the perfbench benchmark.

Spread mode (default) runs every workload of BENCHMARK.json --runs times,
one seed per round (--first-seed, --first-seed + 1, ...), alternating the
workload order between rounds. For each end-to-end metric it prints the
median and quartiles, and flags a metric whose spread (interquartile range
over the median) exceeds its bound ("OVER") or a third of it ("wide").

    python3 perfbench/repeat.py --runs 10 --first-seed 9001

The default first seed, 9001, is held out: no seed from 9001 on was used
while the benchmark was tuned, so a claim checked on it is checked on
inputs the benchmark was not fitted to.

Exact-repeat mode runs each workload twice on one seed with a fixed op
count and requires the counts named below to match exactly:

    python3 perfbench/repeat.py --check-repeat --ops 16

Run from the repository root. Exits 1 when a run fails or prints a wrong
answer, when a spread other than setup_s exceeds its bound, or when a
count fails to repeat. A setup_s spread above its bound is still flagged
but does not fail the check: its bound limits how far the median may
move between two builds, not the spread across seeds, because set-ups of
a few milliseconds each move with thread scheduling on a 2-CPU host.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts that repeat exactly for a seed at a fixed op count, with the
# trace mode that reports each.
EXACT = {
    0: ["bits_per_base"],
    1: ["router.shard_jobs_per_put", "frame.blocks_per_op",
        "algos.share.GenCompress", "algos.share.DNAX"],
}


def run(workload, seed, seconds, trace, ops=None):
    cmd = list(BENCH["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread_mode(args):
    workloads = args.workloads or [w["name"] for w in BENCH["workloads"]]
    seconds = args.seconds or BENCH["run_seconds"]
    values = {w: {} for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            metrics = run(w, args.first_seed + r, seconds, 0)
            for name, v in metrics.items():
                values[w].setdefault(name, []).append(v)
            print(f"round {r + 1}/{args.runs} {w} done", file=sys.stderr)
    bad = False
    print(f"{'workload':20} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for m in BENCH["end_to_end"]:
            vs = values[w].get(m["name"], [])
            if len(vs) < 2:
                print(f"{w:20} {m['name']:22} missing")
                bad = True
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "OVER"
                bad = bad or m["name"] != "setup_s"
            elif spread > m["bound"] / 3:
                flag = "wide"
            print(f"{w:20} {m['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {m['bound']:6.2f} {flag}")
    return 1 if bad else 0


def check_repeat_mode(args):
    workloads = args.workloads or [w["name"] for w in BENCH["workloads"]]
    bad = False
    for w in workloads:
        for trace, names in EXACT.items():
            a = run(w, args.first_seed, 60, trace, args.ops)
            b = run(w, args.first_seed, 60, trace, args.ops)
            for name in names:
                same = a.get(name) == b.get(name)
                bad = bad or not same
                print(f"{w:20} {name:28} {a.get(name)!r:>22} {b.get(name)!r:>22} "
                      f"{'exact' if same else 'DIFFERS'}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=9001)
    p.add_argument("--seconds", type=int, default=None,
                   help="timed window per run (default: run_seconds)")
    p.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    p.add_argument("--check-repeat", action="store_true")
    p.add_argument("--ops", type=int, default=16,
                   help="ops per phase in --check-repeat mode")
    args = p.parse_args()
    sys.exit(check_repeat_mode(args) if args.check_repeat else spread_mode(args))


if __name__ == "__main__":
    main()
