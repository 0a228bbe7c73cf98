#!/usr/bin/env python3
"""Run the benchmark over several seeds and every workload into one result set.

  python3 bench/e2e/sweep.py OUT_DIR [--seeds 1-10] [--trace 0|1]

Each run is `run.py --workload W --seed N --seconds S --trace T`, with S the
run_seconds of BENCHMARK.json, and its full result is written to
OUT_DIR/W-sN-tT.json; compare.py reads such directories.  Exits 1 when any
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in seed_list(args.seeds):
            out = os.path.join(args.out, "%s-s%d-t%s.json" % (workload, seed, args.trace))
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace, "--out", out]
            done = subprocess.run(cmd, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d: exit %d %s" % (workload, seed, done.returncode, last[0][:200]),
                  flush=True)
            if done.returncode != 0:
                ok = False
                sys.stderr.write(done.stdout + done.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
