#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the tmwia libraries) as a Release CMake
tree, then runs the workload twice in turn: once with the engine pool
at its full size and once with a pool of one thread (the pool is sized
once per process). It checks the two against each other, prints a
readable summary with the provenance of the numbers, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

Exit codes: 0 measured and correct; 1 a correctness check failed (the
result line still prints); 2 the benchmark could not be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    """Workload and metric names with their units: BENCHMARK.json at the
    checkout root is the one list of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})

# The paper's costs and the outputs digest: both processes of a run
# solve the same inputs, so these must agree exactly.
SAME_IN_BOTH = ("rounds", "total_probes", "discrepancy")

MAIN_SHARE = 0.5  # of --seconds; the one-thread process gets the rest
# Both processes together, after the build: --seconds of measuring plus
# this much for set-up, the untimed reference solve, the layer probes,
# and the last serve cycle, which on a slow host can run well past the
# budget (a cycle is 3 passes and always completes).
DEADLINE_MARGIN_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    """Configure and build the benchmark; the executable's path. Configure
    runs every time: it is cheap when nothing changed, and CMake refuses a
    build tree that another checkout configured instead of building that
    checkout's code."""
    cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    cmd = ["cmake", "--build", build_dir, "--target", "tmwia_perfbench",
           "--parallel", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(build_dir, "tmwia_perfbench")
    return exe if os.path.exists(exe) else None


def run_child(exe, workload, seed, seconds, threads, trace, trace_out, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:.3f}",
           "--threads", str(threads), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} (pool {threads}) timed out")
        return None
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} (pool {threads}) exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def main():
    try:
        workloads, end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 2

    cores = nproc()
    # serve_mixed also runs one reader and one writer thread beside the pool.
    pool = max(1, cores - 2) if args.workload == "serve_mixed" else cores
    trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir, "traces", f"{args.workload}-seed{args.seed}.json")
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    main_run = run_child(exe, args.workload, args.seed, args.seconds * MAIN_SHARE, pool,
                         args.trace == 1, trace_out, deadline)
    if main_run is None:
        return 2
    one_run = run_child(exe, args.workload, args.seed, args.seconds * (1 - MAIN_SHARE), 1,
                        False, "", deadline)
    if one_run is None:
        return 2

    m, o = main_run["values"], one_run["values"]
    failures = main_run["failures"] + one_run["failures"]
    agree = main_run["texts"].get("digest") == one_run["texts"].get("digest") and all(
        k in m and m.get(k) == o.get(k) for k in SAME_IN_BOTH)
    if not agree:
        failures.append("pool 1 and pool %d disagree on outputs or paper costs" % pool)
    # Both processes' operations, plus the agreement check.
    attempted = main_run["attempted"] + one_run["attempted"] + 1
    failed = main_run["failed"] + one_run["failed"] + (not agree)
    mt, ot = main_run["texts"], one_run["texts"]
    # Set-up is timed in bursts over both processes' whole length.
    bursts = [float(b) for t in (mt, ot) for b in t.get("setup_bursts", "").split(",") if b]

    if args.trace:
        values = {k: m.get(k, 0.0) for k in per_layer}
        values["engine.speedup"] = (o.get("solve_s", 0.0) / m["solve_s"]
                                    if m.get("solve_s") else 0.0)
        units = per_layer
        idle = sorted(k for k in per_layer if k not in m and k != "engine.speedup")
    else:
        values = {k: m.get(k, 0.0) for k in end_to_end}
        values["solve_1t_s"] = o.get("solve_s", 0.0)
        values["setup_s"] = statistics.median(bursts) if bursts else 0.0
        units = end_to_end
        idle = []
    lost = [k for k in end_to_end if k not in m and k != "solve_1t_s"] + (
        [] if "solve_s" in o else ["solve_1t_s"])
    if lost:
        failures.append("no value measured for " + ", ".join(lost))
    correct = main_run["ok"] and one_run["ok"] and agree and not lost

    prov = {k: v for k, v in mt.items() if k not in ("digest", "solve_samples", "setup_bursts")}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"  pool {pool}: {m.get('solves', 0):.0f} solves "
          f"({m.get('disturbed', 0):.0f} disturbed by the host), "
          f"pool 1: {o.get('solves', 0):.0f} solves ({o.get('disturbed', 0):.0f} disturbed); "
          f"digest {mt.get('digest')}")
    print(f"  solve seconds, pool {pool}: {mt.get('solve_samples')}")
    print(f"  solve seconds, pool 1: {ot.get('solve_samples')}")
    print(f"  diagnostic, calm solves only: solve_s {m.get('calm_solve_s', 0):.6g} s, "
          f"solve_1t_s {o.get('calm_solve_s', 0):.6g} s ('!' above marks a disturbed solve; "
          f"the metrics count every solve)")
    print(f"  set-up bursts: {len(bursts)}")
    print(f"  paper costs: rounds={m.get('rounds', 0):.0f} "
          f"total_probes={m.get('total_probes', 0):.0f} discrepancy={m.get('discrepancy', 0):.0f} "
          f"(planted community: {m.get('community_discrepancy', 0):.0f})")
    print(f"  request samples: {m.get('request_samples', 0):.0f}")
    if args.trace:
        print(f"  engine.speedup = solve_1t_s {o.get('solve_s', 0):.4f} s / solve_s "
              f"{m.get('solve_s', 0):.4f} s (untraced solves of this run)")
    for k in units:
        note = "  (not measured on this workload)" if k in idle else ""
        print(f"  {k:28s} {values[k]:>16.6g} {units[k]}{note}")
    print(f"  ops_failed {failed} of {attempted} attempted")
    for f in failures:
        print(f"  FAILED: {f}")
    if trace_out:
        print(f"  spans: {trace_out}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
