#!/usr/bin/env python3
"""End-to-end benchmark of the wormhole routing reproduction.

Run from the repository root:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
  python3 bench/e2e/run.py --smoke

The script builds bench/e2e/wormbench.exe with dune, then starts one
wormbench process per pass, one at a time.  Passes run on one domain; the
probes process measures the Explorer sweep at one domain and at every CPU
the process may run on.

--trace 0 starts passes of workload W until S seconds have gone by (at
least one).  It reports the median over passes of: set-up time (process
start until the inputs are built), wall time of the workload's calls, and
peak resident memory of the pass process.

--trace 1 runs one traced pass of every workload and one probes process,
and reports the per-layer metrics; they do not depend on W.

Every output is checked against expected/<name>.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when a check fails, 2 on bad usage.  --out also writes
the whole result (provenance, every pass) to FILE.

--smoke runs every workload on shrunken inputs, traced and untraced,
against the wormbench.exe next to this script (dune's runtest rule), and
fails when a check fails or the emitted names differ from BENCHMARK.json.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKLOADS = ["campaign", "mesh-sat", "torus-recover", "certify-large"]
# a run must end within 180 s; children get what is left of this
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def build():
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ".", "./bench/e2e/wormbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        raise BenchError("dune not found")
    if done.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(ROOT, "_build", "default", "bench", "e2e", "wormbench.exe")


def run_child(cmd, deadline):
    """Run cmd to completion; return (stdout lines, seconds from start until
    the first line arrived, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0)
    fd = proc.stdout.fileno()
    out, first_line_at = b"", None
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("timed out: " + " ".join(cmd[1:]))
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            out += chunk
            if first_line_at is None and b"\n" in out:
                first_line_at = time.perf_counter()
    except BaseException:
        proc.kill()
        raise
    finally:
        # reap here rather than through proc.wait(): wait4 also returns the
        # child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd[1:])))
    lines = out.decode().splitlines()
    if len(lines) < 2 or lines[0] != "ready":
        raise BenchError("malformed output: " + " ".join(cmd[1:]))
    # ru_maxrss is in KiB on Linux
    return lines, first_line_at - start, usage.ru_maxrss / 1024.0


def child(ctx, what, seed, trace=False, domains=1):
    cmd = [ctx["exe"]] + what + ["--seed", str(seed), "--domains", str(domains)]
    if trace:
        cmd.append("--trace")
    if ctx["smoke"]:
        cmd.append("--smoke")
    lines, setup, rss = run_child(cmd, ctx["deadline"])
    rec = json.loads(lines[-1])
    rec.update(name=what[-1], seed=seed, trace=trace, setup_s=setup, peak_rss_mb=rss)
    return rec


def compare_checks(rec, smoke):
    """Compare a child's checks with expected/<name>.json; return
    (attempted, list of failures).  Pins under at_default_seed hold only
    at default_seed on full-size inputs."""
    with open(os.path.join(HERE, "expected", rec["name"] + ".json")) as f:
        exp = json.load(f)
    pinned = exp.get("at_default_seed", {})
    use_pinned = not smoke and rec["seed"] == exp.get("default_seed")
    expected = dict(exp["checks"], **(pinned if use_pinned else {}))
    attempted, failures, seen = 0, [], set()
    for key, value in rec["checks"]:
        if key in seen:
            failures.append("%s: duplicate check %s" % (rec["name"], key))
            continue
        seen.add(key)
        if key in pinned and not use_pinned:
            continue
        attempted += 1
        if expected.get(key) != value:
            failures.append("%s: %s = %r, expected %r" % (rec["name"], key, value, expected.get(key)))
    if not smoke:
        for key in expected.keys() - seen:
            attempted += 1
            failures.append("%s: %s missing" % (rec["name"], key))
    return attempted, failures


def measure(ctx, workload, seed, seconds, trace):
    """The passes of one run, and the metrics they give."""
    if not trace:
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(child(ctx, ["pass", workload], seed))
        metrics = {
            key: statistics.median(p[key] for p in passes)
            for key in ("setup_s", "wall_s", "peak_rss_mb")
        }
        return passes, metrics
    traced = [child(ctx, ["pass", w], seed, trace=True) for w in WORKLOADS]
    probes = child(ctx, ["probes"], seed, domains=ctx["nproc"])
    metrics = {}
    for rec in traced + [probes]:
        metrics.update(rec["layers"])
    for rec in traced:
        metrics["trace.wall_s." + rec["name"]] = rec["wall_s"]
        metrics["gc.minor_mwords." + rec["name"]] = rec["gc_minor_words"] / 1e6
        metrics["gc.major_collections." + rec["name"]] = rec["gc_major_collections"]
    return traced + [probes], metrics


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        raise BenchError("BENCHMARK.json workloads differ from " + ", ".join(WORKLOADS))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run(ctx, workload, seed, seconds, trace):
    """One run: measure and check; return the full result."""
    units = declared_units(trace)
    passes, metrics = measure(ctx, workload, seed, seconds, trace)
    missing = units.keys() - metrics.keys()
    if ctx["smoke"]:
        # the smoke campaign runs only exp-t4 and exp-detect
        missing = {k for k in missing if not k.startswith("experiments.exp-")}
    if missing or metrics.keys() - units.keys():
        raise BenchError(
            "emitted metrics differ from BENCHMARK.json: %s"
            % sorted(missing | (metrics.keys() - units.keys())))
    attempted, failures = 0, []
    for rec in passes:
        a, f = compare_checks(rec, ctx["smoke"])
        attempted += a
        failures += f
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": ctx["nproc"],
        "recommended_domains": passes[0]["recommended_domains"],
        "domains": passes[0]["domains"],
        "ocaml": passes[0]["ocaml"],
        "commit": git_commit(),
        "sanitizer": os.environ.get("WORMHOLE_SANITIZE", "off"),
        "passes": len(passes),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    return {"provenance": provenance, "passes": passes, "failures": failures, "result": result}


def report(full):
    for msg in full["failures"]:
        print("FAILED " + msg)
    if not full["provenance"]["trace"]:
        for p in full["passes"]:
            print("pass: setup %.4f s  wall %.4f s  peak rss %.1f MB"
                  % (p["setup_s"], p["wall_s"], p["peak_rss_mb"]))
    for k, m in full["result"]["metrics"].items():
        print("%-44s %16.6g %s" % (k, m["value"], m["unit"]))
    print("provenance: " + json.dumps(full["provenance"]))
    print(json.dumps(full["result"]))


def smoke(ctx):
    ok = True
    for workload, trace in [(w, False) for w in WORKLOADS] + [("campaign", True)]:
        full = run(ctx, workload, 1, 0, trace)
        for msg in full["failures"]:
            print("FAILED " + msg)
        r = full["result"]
        print("smoke %s trace=%d: %d metrics, %d checks, %d failed"
              % (workload, trace, len(r["metrics"]), r["attempted"], r["failed"]))
        ok &= r["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # a terminated run still stops and reaps its pass process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ctx = {"smoke": args.smoke, "nproc": len(os.sched_getaffinity(0))}
    try:
        if args.smoke:
            ctx.update(exe=os.path.join(HERE, "wormbench.exe"),
                       deadline=time.perf_counter() + RUN_DEADLINE_S)
            return 0 if smoke(ctx) else 1
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        if "WORMHOLE_SANITIZE" in os.environ:
            raise BenchError("refusing to measure with WORMHOLE_SANITIZE set")
        # the deadline starts after the build, which only the first run pays
        ctx.update(exe=build(), deadline=time.perf_counter() + RUN_DEADLINE_S)
        full = run(ctx, args.workload, args.seed, args.seconds, bool(args.trace))
        report(full)
    except BenchError as e:
        print("wormbench: " + str(e), file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump(full, f, indent=1)
    return 0 if full["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
