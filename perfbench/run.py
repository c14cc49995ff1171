#!/usr/bin/env python3
"""Benchmark runner of the fsi repository.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which builds the
repository's libraries from src/ with the root project's flags) into
$CARGO_TARGET_DIR/perfbench-<hash of the checkout path>, or under
.bench_build/ when that is unset, then runs one workload in fresh
fsi_perfbench processes:

  --trace 0  four set-up-only processes plus the measured one (set-up time
             is the median of the five), then prints the end-to-end metrics;
  --trace 1  one process that alternates untraced and traced operations,
             probes every layer at the workload's shape, writes the spans to
             .bench_out/, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only when every output check passed and no operation failed.  Workloads,
metrics and the layer -> end-to-end map are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("gf_batch", "dqmc_sim", "dqmc_large_beta", "serve_open")
SETUP_ONLY_RUNS = 4
# Open-loop percentiles are taken per window of this many seconds of
# requests; the median over windows is reported (see stats.py).
WINDOW_SECONDS = 2.0


def child_timeout(seconds):
    """Seconds a child may run: its timed phase plus set-up, checks and probes."""
    return 2 * seconds + 120

END_TO_END = [  # name, unit: the gated metrics of the result line
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]
# Printed with the human lines but not gated: p95 moved by up to half its
# median between runs on a shared host (NOTES.md), and fail_ratio is 0 on a
# healthy run (the result line carries it as failed / attempted).
REPORTED = [("latency_ms_p95", "ms"), ("fail_ratio", "ratio")]

PER_LAYER = [  # name, unit
    ("dense.gemm_gflops_1t", "GFLOP/s"),
    ("dense.gemm_gflops_nt", "GFLOP/s"),
    ("dense.geqrf_gflops", "GFLOP/s"),
    ("dense.peak_gflops", "GFLOP/s"),
    ("pcyclic.build_ms", "ms"),
    ("selinv.cls_ms", "ms"),
    ("selinv.wrap_ms", "ms"),
    ("selinv.cls_gflops", "GFLOP/s"),
    ("selinv.wrap_gflops", "GFLOP/s"),
    ("selinv.flops_per_gf", "count"),
    ("bsofi.invert_ms", "ms"),
    ("bsofi.gflops", "GFLOP/s"),
    ("qmc.update_ms_per_sweep", "ms"),
    ("qmc.recompute_ms", "ms"),
    ("qmc.recomputes_per_sweep", "count"),
    ("qmc.greens_ms_per_measurement", "ms"),
    ("qmc.measure_ms", "ms"),
    ("qmc.acceptance", "ratio"),
    ("qmc.max_drift", "ratio"),
    ("stab.recompute_ms", "ms"),
    ("stab.qrp_per_recompute", "count"),
    ("stab.scale_spread_log10", "log10"),
    ("sched.parallel_efficiency", "ratio"),
    ("sched.critical_path_ms", "ms"),
    ("sched.balance", "ratio"),
    ("sched.stolen_tasks", "count"),
    ("sched.pool_hit_rate", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.policy_transitions", "count"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.gen_late_ms_max", "ms"),
    ("obs.trace_overhead", "ratio"),
]

# The paper-facing name of ops_per_s on each workload's unit of work.
THROUGHPUT_NAME = {"configuration": "gf_per_s", "sweep": "sweeps_per_s",
                   "request": "req_per_s"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once per checkout, then build incrementally; returns the
    binary path.  The build tree is keyed on the checkout's path, so two
    checkouts sharing CARGO_TARGET_DIR never build each other's sources."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no fsi source tree next to perfbench/ (need CMakeLists.txt and src/)")
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(base, "perfbench-" + key)
    log_path = build_dir + ".log"
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fsi_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path)
    return os.path.join(build_dir, "fsi_perfbench")


def git_sha():
    """HEAD of the checkout at run time, or "unknown" outside a git checkout
    (the binary's own SHA is fixed when its build tree is configured)."""
    def git(*argv):
        return subprocess.run(["git", "-C", ROOT] + list(argv), capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = git("rev-parse", "HEAD")
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def spawn(binary, args, out_path, extra=()):
    """Run one fsi_perfbench process; returns (raw record, spawn time in ns)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path] + list(extra)
    if os.path.exists(out_path):
        os.remove(out_path)
    t_spawn = time.monotonic_ns()  # CLOCK_MONOTONIC, the clock of ready_ns
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            timeout=child_timeout(args.seconds)).returncode
    except subprocess.TimeoutExpired:
        fail("fsi_perfbench timed out: " + " ".join(cmd))
    if rc != 0 or not os.path.isfile(out_path):
        fail("fsi_perfbench exited %d: %s" % (rc, " ".join(cmd)))
    with open(out_path) as f:
        return json.load(f), t_spawn


def setup_seconds(raw, t_spawn):
    return (raw["ready_ns"] - t_spawn) * 1e-9


def latencies(raw, traced):
    """Per-op latencies in seconds and the percentile window (in samples)."""
    key = "requests_traced" if traced else "requests"
    if raw.get(key):
        reqs = raw[key]
        lat = stats.due_time_latencies(reqs["due_ns"], reqs["recv_ns"])
        return lat, int(round(raw["rate_hz"] * WINDOW_SECONDS))
    return raw["op_seconds_traced" if traced else "op_seconds"], 0


def throughput(raw):
    if raw.get("elapsed_s"):
        return raw["completed"] / raw["elapsed_s"]
    return stats.throughput(raw["units_per_op"], raw["op_seconds"])


def end_to_end(raw, setups):
    """Gated metrics and reported-only metrics, each (value, samples)."""
    lat, window = latencies(raw, False)
    gated = {
        "setup_s": (stats.percentile(setups, 50), len(setups)),
        "ops_per_s": (throughput(raw), len(lat)),
        "latency_ms_p50": (stats.windowed_percentile(lat, window, 50) * 1e3, len(lat)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }
    reported = {
        "latency_ms_p95": (stats.windowed_percentile(lat, window, 95) * 1e3, len(lat)),
    }
    return gated, reported


# Per-layer p50s taken over the raw per-response times the binary records.
P50_OF = {
    "serve.queue_wait_ms_p50": "serve.queue_wait_ms",
    "serve.batch_wait_ms_p50": "serve.batch_wait_ms",
    "serve.exec_ms_p50": "serve.exec_ms",
    "serve.transport_ms_p50": "serve.transport_ms",
}


def per_layer(raw):
    """Per-layer metrics: the p50 of raw per-response times for P50_OF
    names, the median over per-call samples for the rest."""
    out = {}
    for name, _ in PER_LAYER:
        samples = raw["layers"].get(P50_OF.get(name, name))
        if samples:
            out[name] = (stats.percentile(samples, 50), len(samples))
    plain, window = latencies(raw, False)
    traced, _ = latencies(raw, True)
    if plain and traced:
        out["obs.trace_overhead"] = (
            stats.windowed_percentile(traced, window, 50)
            / stats.windowed_percentile(plain, window, 50), len(traced))
    return out


def print_spans(path):
    if not os.path.isfile(path):
        return
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [{"id": e["args"]["id"], "parent": e["args"]["parent"],
              "name": e["name"], "ts": e["ts"], "dur": e["dur"]} for e in events]
    print("# spans: %d written to %s; self time (s) by span:" % (len(spans), os.path.relpath(path, ROOT)))
    for name, us in sorted(stats.self_times(spans).items(), key=lambda kv: -kv[1])[:16]:
        print("#   %-36s %10.4f" % (name, us * 1e-6))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))

    setups = []
    if not args.trace:
        for i in range(SETUP_ONLY_RUNS):
            raw, t = spawn(binary, args, "%s.setup%d.json" % (stem, i), ["--setup-only"])
            setups.append(setup_seconds(raw, t))
    spans_path = stem + ".spans.json"
    extra = ["--spans", spans_path] if args.trace else []
    raw, t = spawn(binary, args, stem + ".json", extra)
    setups.append(setup_seconds(raw, t))

    if args.trace:
        metrics, reported = per_layer(raw), {}
    else:
        metrics, reported = end_to_end(raw, setups)
    if raw["attempted"]:
        reported["fail_ratio"] = (stats.fail_ratio(raw["failed"], raw["attempted"]),
                                  raw["attempted"])
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted, failed = raw["attempted"], raw["failed"]
    checks_ok = all(c["ok"] for c in raw["checks"]) and bool(raw["checks"])
    correct = checks_ok and failed == 0 and attempted > 0

    facts = dict(raw["facts"], git_sha=git_sha())
    print("# workload=%s seed=%d seconds=%g trace=%d unit=%s" % (
        args.workload, args.seed, args.seconds, args.trace, raw["unit"]))
    print("# host: " + " ".join("%s=%s" % kv for kv in sorted(facts.items())
                                if not kv[0].startswith("serve.")))
    if raw["unit"] == "request":
        regime = {k: v for k, v in facts.items() if k.startswith("serve.")}
        for name in ("serve.batch_occupancy_mean", "serve.policy_transitions"):
            if raw["layers"].get(name):
                regime[name] = "%g" % stats.percentile(raw["layers"][name], 50)
        print("# serve regime: " + " ".join("%s=%s" % kv for kv in sorted(regime.items())))
    for c in raw["checks"]:
        print("# check %-46s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    print("# %-34s %14s %-8s %s" % ("metric", "value", "unit", "samples"))
    for name, (value, n) in metrics.items():
        label = name
        if name == "ops_per_s":
            label = "%s (%s)" % (THROUGHPUT_NAME[raw["unit"]], name)
        print("  %-34s %14.6g %-8s n=%d" % (label, value, units[name], n))
    for name, (value, n) in reported.items():
        print("  %-34s %14.6g %-8s n=%d (not gated)" % (name, value, dict(REPORTED)[name], n))
    if args.trace:
        print_spans(spans_path)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in metrics.items()}}
    missing = [n for n in units if n not in metrics]
    if missing:
        print("perfbench: no samples for " + ", ".join(missing), file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if correct and not missing else 1)


if __name__ == "__main__":
    main()
