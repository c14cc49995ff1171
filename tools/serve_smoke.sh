#!/usr/bin/env bash
# Smoke test of the fsi::serve daemon as CI (and operators) run it: boot
# fsi_serve on a Unix socket, drive it with concurrent fsi_request clients
# of mixed sizes — every fp64 response verified bit-identical against the
# in-process qmc::run_fsi_batch reference, every --precision mixed response
# verified within the health gate's error budget — plus one past-deadline
# request that must be shed with an explicit DeadlineMiss, scrape the OpenMetrics
# endpoint and validate the exposition grammar, then stop the daemon with
# SIGTERM and check it exits cleanly and writes its telemetry.
#
# A second section boots one daemon on a tcp: endpoint, drives it with two
# concurrent verified clients whose requests carry different batch keys,
# and checks the daemon's telemetry accounts for every request.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)

set -euo pipefail

build=${1:-build}
sock="unix:/tmp/fsi_serve_smoke_$$.sock"
artifacts=$(mktemp -d)
server_pid=""
tcp_pid=""
trap 'kill "$server_pid" "$tcp_pid" 2>/dev/null || true; rm -rf "$artifacts"' EXIT

# --metrics with TCP port 0: the kernel picks a free port and the daemon
# prints the resolved endpoint on its "metrics on" line.
FSI_BENCH_DIR="$artifacts" "$build"/tools/fsi_serve \
    --socket "$sock" --queue 32 --max-batch 4 \
    --metrics tcp:127.0.0.1:0 > "$artifacts/serve.log" 2>&1 &
server_pid=$!

# Wait for the socket to appear (the daemon binds before serving).
for _ in $(seq 1 50); do
  [ -S "${sock#unix:}" ] && break
  sleep 0.1
done
[ -S "${sock#unix:}" ] || { echo "serve_smoke: daemon never bound $sock"; cat "$artifacts/serve.log"; exit 1; }

# Concurrent clients, mixed sizes; --verify diffs every response against
# the in-process selected inversion (bit-identical or non-zero exit).
pids=()
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 3 --seed 11 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$sock" --lx 6 --L 12 --count 2 --seed 23 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 3 --seed 37 --verify & pids+=($!)
# Mixed-precision requests: verified against the fp64 reference within the
# gate's error budget (or bit-identical if the health gate fell back).
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8  --count 2 --seed 41 \
    --precision mixed --verify --verify-tol 5e-3 & pids+=($!)
# One request with an already-expired deadline: must be rejected, not run.
"$build"/tools/fsi_request --socket "$sock" --lx 4 --L 8 \
    --deadline-us -1 --expect-status deadline-miss & pids+=($!)

fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
[ "$fail" -eq 0 ] || { echo "serve_smoke: a client failed"; exit 1; }

# One stats poll against the live daemon: the JSON must parse and show
# every verified request above as completed.
"$build"/tools/fsi_top --socket "$sock" --json | python3 -c '
import json, sys
stats = json.load(sys.stdin)
assert stats["served_ok"] >= 1, stats
assert stats["uptime_s"] > 0, stats
served, depth = stats["served_ok"], stats["queue_depth"]
print(f"serve_smoke: fsi_top sees {served} served, queue depth {depth}")
' || { echo "serve_smoke: fsi_top stats poll failed"; exit 1; }

# Scrape the OpenMetrics endpoint and validate the exposition: the port is
# on the daemon's "metrics on http://tcp:127.0.0.1:<port>/metrics" line.
metrics_port=$(sed -n 's|.*metrics on http://tcp:127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' \
    "$artifacts/serve.log" | head -n1)
[ -n "$metrics_port" ] || { echo "serve_smoke: no metrics endpoint in daemon log"; cat "$artifacts/serve.log"; exit 1; }

python3 - "$metrics_port" > "$artifacts/metrics.txt" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(
        "http://127.0.0.1:%s/metrics" % sys.argv[1], timeout=10) as resp:
    assert resp.status == 200, resp.status
    ctype = resp.headers.get("Content-Type", "")
    assert ctype.startswith("application/openmetrics-text"), ctype
    sys.stdout.write(resp.read().decode("utf-8"))
EOF
"$build"/tools/fsi_check_openmetrics "$artifacts/metrics.txt" \
    --require fsi_build --require fsi_serve_requests \
    --require fsi_serve_latency_s --require fsi_mixed_runs \
    || { echo "serve_smoke: /metrics failed the grammar check"; exit 1; }

# The mixed clients above ran under this daemon: its mixed-run counter must
# have moved (fallbacks allowed — the gate decides — but runs must count).
python3 - "$artifacts/metrics.txt" <<'EOF'
import sys
runs = 0.0
for line in open(sys.argv[1]):
    if line.startswith("fsi_mixed_runs_total "):
        runs = float(line.split()[1])
assert runs >= 2, f"expected >= 2 mixed runs in /metrics, saw {runs}"
print(f"serve_smoke: /metrics shows {int(runs)} mixed-precision runs")
EOF

# Liveness probe answers while the daemon is up.
python3 - "$metrics_port" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(
        "http://127.0.0.1:%s/healthz" % sys.argv[1], timeout=10) as resp:
    assert resp.status == 200 and b"ok" in resp.read(), "healthz failed"
print("serve_smoke: /healthz ok")
EOF

# Graceful shutdown on SIGTERM; the daemon prints stats and writes
# BENCH_fsi_serve.json telemetry into $FSI_BENCH_DIR.
kill -TERM "$server_pid"
wait "$server_pid" || { echo "serve_smoke: daemon exited non-zero"; exit 1; }
test -s "$artifacts/BENCH_fsi_serve.json" \
    || { echo "serve_smoke: daemon telemetry missing"; exit 1; }

python3 - "$artifacts/BENCH_fsi_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = {m["key"]: m["value"] for m in doc["metrics"]}
assert metrics["served_ok"] == 10, metrics
assert metrics["deadline_miss"] == 1, metrics
assert metrics["latency_p99_ms"] > 0, metrics
print(f"serve_smoke OK: {int(metrics['served_ok'])} served, "
      f"{int(metrics['deadline_miss'])} shed by deadline, "
      f"p99 {metrics['latency_p99_ms']:.2f} ms")
EOF

# ---------------------------------------------------------------------------
# One daemon on a tcp: endpoint, two concurrent clients with different
# batch keys.  Port 0: the daemon resolves a free port and prints it on its
# "listening on" line.
tcp_art=$(mktemp -d)
FSI_BENCH_DIR="$tcp_art" "$build"/tools/fsi_serve \
    --socket tcp:127.0.0.1:0 --queue 32 --max-batch 4 \
    > "$tcp_art/serve.log" 2>&1 &
tcp_pid=$!

tcp_sock=""
for _ in $(seq 1 50); do
  tcp_sock=$(sed -n 's|.*listening on \(tcp:[0-9.]*:[0-9]*\) .*|\1|p' \
      "$tcp_art/serve.log" | head -n1)
  [ -n "$tcp_sock" ] && break
  sleep 0.1
done
[ -n "$tcp_sock" ] || { echo "serve_smoke: tcp daemon never announced its port"; cat "$tcp_art/serve.log"; exit 1; }

pids=()
"$build"/tools/fsi_request --socket "$tcp_sock" --lx 4 --L 8 --count 3 --seed 51 --verify & pids+=($!)
"$build"/tools/fsi_request --socket "$tcp_sock" --lx 6 --L 12 --count 3 --seed 67 --verify & pids+=($!)
fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
[ "$fail" -eq 0 ] || { echo "serve_smoke: a tcp client failed"; cat "$tcp_art/serve.log"; exit 1; }

kill -TERM "$tcp_pid"
wait "$tcp_pid" || { echo "serve_smoke: tcp daemon exited non-zero"; exit 1; }
tcp_pid=""

# The daemon's telemetry must account for every request of both keys.
python3 - "$tcp_art/BENCH_fsi_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = {m["key"]: m["value"] for m in doc["metrics"]}
assert metrics["served_ok"] == 6, metrics
print(f"serve_smoke OK: tcp daemon served {int(metrics['served_ok'])} "
      "verified requests of two batch keys")
EOF
rm -rf "$tcp_art"
