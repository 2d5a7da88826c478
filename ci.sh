#!/usr/bin/env bash
# Local CI gate: formatting, lints, build and the full test suite.
# Everything runs offline against the vendored toolchain; a clean exit
# means the tree is mergeable.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> zeroconf audit --deny-warnings"
# The workspace static-analysis gate (crates/audit): unsafe-code audit,
# panic freedom, wire-format constant drift, the lockfile check, and the
# concurrency-safety rules (atomic-ordering, lock-order, reactor
# blocking-call reach, FFI surface). Runs before the test suite so
# policy violations fail fast. The bare `cargo build --release` above
# only builds the root package, so build the CLI explicitly before
# invoking it. The audit is a pre-commit-speed gate: its wall time is
# printed and must stay under 2 seconds.
cargo build --release -p zeroconf-cli
AUDIT_T0=$(date +%s%3N)
./target/release/zeroconf audit --deny-warnings
AUDIT_MS=$(( $(date +%s%3N) - AUDIT_T0 ))
echo "ci: audit completed in ${AUDIT_MS}ms"
if (( AUDIT_MS >= 2000 )); then
  echo "ci: audit took ${AUDIT_MS}ms — the gate must stay under 2000ms" >&2
  exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> serve daemon suite in release (cargo test --release -p zeroconf-serve --test serve_daemon)"
# The daemon tests race real sockets against engine work, and a release
# build finishes that work several times faster than the debug build
# above, so a test that only holds under debug timing fails here.
cargo test -q --release -p zeroconf-serve --test serve_daemon

echo "==> concurrency model tests (--cfg zeroconf_loom interleaving explorer)"
# The vendored loom replacement (crates/serve/src/model_tests.rs):
# exhaustive schedule enumeration over the FairBudget admission protocol
# and the eventfd wakeup handshake. The cfg keeps the default test pass
# fast; the lane always runs here since the explorer has no external
# dependency.
RUSTFLAGS="--cfg zeroconf_loom" cargo test -q -p zeroconf-serve --lib

if [[ "${ZEROCONF_CI_SANITIZE:-}" == "thread" ]]; then
  # -Zsanitizer is nightly-only; the pinned offline toolchain is stable,
  # so the lane is opt-in and degrades to an explicit notice rather than
  # a silent skip.
  if rustup toolchain list 2>/dev/null | grep -q nightly; then
    echo "==> ThreadSanitizer lane (ZEROCONF_CI_SANITIZE=thread, nightly)"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -p zeroconf-serve -p zeroconf-engine --lib \
      --target x86_64-unknown-linux-gnu
  else
    echo "ci: ZEROCONF_CI_SANITIZE=thread requested but no nightly toolchain is installed"
    echo "ci: skipping the ThreadSanitizer lane (-Zsanitizer=thread is nightly-only)"
  fi
else
  echo "ci: sanitizer lane off (opt in with ZEROCONF_CI_SANITIZE=thread)"
fi

echo "==> kernel suites under both forced backends (ZEROCONF_KERNEL)"
# The SIMD crates' parity tests iterate every tier the host supports;
# this pass additionally forces the *engine default* (KernelChoice::Auto)
# through both spellings of ZEROCONF_KERNEL, so the env-driven dispatch
# path is exercised end to end. Without AVX2 the simd spelling would
# just clamp to scalar, so it is skipped with a notice.
ZEROCONF_KERNEL=scalar cargo test -q -p zeroconf-simd -p zeroconf-dist \
  -p zeroconf-cost -p zeroconf-engine
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  ZEROCONF_KERNEL=simd cargo test -q -p zeroconf-simd -p zeroconf-dist \
    -p zeroconf-cost -p zeroconf-engine
else
  echo "ci: host lacks AVX2 — skipping the ZEROCONF_KERNEL=simd pass (would clamp to scalar)"
fi

echo "==> engine session smoke test (pipelined, 3 requests)"
cargo build --release -p zeroconf-cli
SMOKE_OUT="$(printf '%s\n' \
  '{"v":1,"id":"a","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":4,"r":[1.0,2.0]}}' \
  '{"v":1,"id":"b","rescore":{"of":"a","error_cost":1e9}}' \
  '{"v":1,"id":"c","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":2,"r":[3.0]}}' \
  | ./target/release/zeroconf engine --inflight 3 --stats)"
for id in a b c; do
  if [[ "$(grep -c "\"id\":\"$id\"" <<<"$SMOKE_OUT")" != 1 ]]; then
    echo "ci: engine smoke test missed response for id '$id'" >&2
    echo "$SMOKE_OUT" >&2
    exit 1
  fi
done
grep -q '"pipeline":{"depth":3' <<<"$SMOKE_OUT" || {
  echo "ci: engine smoke test stats line lacks the pipeline block" >&2
  echo "$SMOKE_OUT" >&2
  exit 1
}

echo "==> engine parametric verbs smoke test (calibrate + frontier)"
# A sweep with a calibrate and a frontier riding behind it, all three
# streamed before the sweep completes. Both parametric answers must
# reuse the sweep's sufficient statistic: zero π-tables recomputed.
PARAM_OUT="$(printf '%s\n' \
  '{"v":1,"id":"s","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":3,"r":[0.5,1.0,2.0]}}' \
  '{"v":1,"id":"k","calibrate":{"of":"s","n":2,"r":1.0}}' \
  '{"v":1,"id":"f","frontier":{"of":"s","x":{"axis":"error_cost","values":[1e3,1e6]},"y":{"axis":"probe_cost","values":[1.0,2.0]}}}' \
  | ./target/release/zeroconf engine --inflight 3)"
grep -q '"id":"k","calibrate":{"error_cost":' <<<"$PARAM_OUT" || {
  echo "ci: calibrate smoke answer lacks the recovered error cost" >&2
  echo "$PARAM_OUT" >&2
  exit 1
}
grep -q '"id":"f","frontier":{"candidates":4,"points":\[' <<<"$PARAM_OUT" || {
  echo "ci: frontier smoke answer lacks the Pareto points" >&2
  echo "$PARAM_OUT" >&2
  exit 1
}
for id in k f; do
  if ! grep "\"id\":\"$id\"" <<<"$PARAM_OUT" | grep -q '"cache_misses":0'; then
    echo "ci: parametric verb '$id' recomputed π-tables instead of reusing the statistic" >&2
    echo "$PARAM_OUT" >&2
    exit 1
  fi
done

echo "==> engine session smoke test (spill tier)"
# Same request twice against a spill directory: the second process must
# answer identically while reading every π-table from the first
# process's spill files.
SPILL_DIR="$PWD/target/ci-spills"
rm -rf "$SPILL_DIR"
SPILL_REQ='{"v":1,"id":"m","scenario":{"q":0.5,"probe_cost":2.0,"error_cost":1e6,"reply_time":{"kind":"exponential","loss":1e-6,"rate":10.0,"delay":1.0}},"grid":{"n_max":8,"r":[0.5,1.0,2.0]}}'
SPILL_COLD="$(printf '%s\n' "$SPILL_REQ" | ./target/release/zeroconf engine --cache-dir "$SPILL_DIR")"
SPILL_WARM="$(printf '%s\n' "$SPILL_REQ" | ./target/release/zeroconf engine --cache-dir "$SPILL_DIR")"
# The stats block (wall time, hit/miss counters) legitimately differs
# between the runs; the landscape cells must not.
strip_stats() { sed 's/,"stats":{[^}]*}//' <<<"$1"; }
if [[ "$(strip_stats "$SPILL_COLD")" != "$(strip_stats "$SPILL_WARM")" ]]; then
  echo "ci: spill-served warm run diverged from the cold run" >&2
  printf 'cold: %s\nwarm: %s\n' "$SPILL_COLD" "$SPILL_WARM" >&2
  exit 1
fi
grep -q '"cache_misses":0' <<<"$SPILL_WARM" || {
  echo "ci: warm run recomputed tables instead of reading spills" >&2
  echo "$SPILL_WARM" >&2
  exit 1
}
if ! ls "$SPILL_DIR"/pi-*.tbl >/dev/null 2>&1; then
  echo "ci: cold run left no spill files in $SPILL_DIR" >&2
  exit 1
fi
rm -rf "$SPILL_DIR"

echo "==> engine throughput bench smoke (--samples 2)"
# A 2-sample run keeps the gate fast; ZEROCONF_BENCH_THREADS pins the
# pool so the smoke is deterministic across hosts. The smoke writes to
# its own path — the committed BENCH_engine.json stays untouched.
# Absolute path: cargo runs the bench with the package dir as cwd.
SMOKE_BENCH="$PWD/target/BENCH_engine.smoke.json"
ZEROCONF_BENCH_THREADS="${ZEROCONF_BENCH_THREADS:-2}" \
  cargo bench -q -p zeroconf-bench --bench engine_throughput -- \
  --samples 2 --out "$SMOKE_BENCH"
# The serve bench merges its socket-measured rows into the same report
# (engine_throughput rewrites the file, so it must run first).
cargo bench -q -p zeroconf-bench --bench serve_throughput -- \
  --samples 2 --out "$SMOKE_BENCH"
# BENCH_engine.json (the full-sample report) is generated, not committed;
# validate it too when a prior `cargo bench` left one behind.
BENCH_REPORTS=("$SMOKE_BENCH")
[[ -f BENCH_engine.json ]] && BENCH_REPORTS+=(BENCH_engine.json)
python3 - "${BENCH_REPORTS[@]}" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        rows = json.load(f)
    ids = {row["id"] for row in rows}
    for needed in (
        "kernel/single-pass/columns",
        "kernel/legacy-per-n/columns",
        "kernel/block/columns",
        "kernel/block/simd",
        "engine/spill-start/threads=1",
        "engine/frontier/warm",
        "engine/frontier/per-point-recompute",
        "engine/calibrate/warm",
        "wire/encode/sweep",
        "wire/decode/sweep",
        "engine/serve/conns=1",
        "engine/serve/conns=4",
        "engine/serve/conns=64",
        "engine/serve/overload/max-conns",
    ):
        if needed not in ids:
            sys.exit(f"ci: {path} is missing the '{needed}' row")
    for row in rows:
        if row.get("cells_per_sec", 0) <= 0:
            sys.exit(f"ci: {path} row {row['id']} lacks a positive cells_per_sec")
    # The parametric-layer acceptance bar: answering the frontier from
    # the cached sufficient statistic must beat a cold sweep per
    # parameter point by >= 20x in parameter-cell throughput (both rows
    # normalize cells to candidates x grid cells). Measured headroom is
    # ~10x above this gate, so smoke noise cannot trip it.
    by_id2 = {row["id"]: row for row in rows}
    warm_frontier = by_id2["engine/frontier/warm"]
    recompute = by_id2["engine/frontier/per-point-recompute"]
    ratio = warm_frontier["cells_per_sec"] / recompute["cells_per_sec"]
    if ratio < 20.0:
        sys.exit(
            f"ci: {path} warm frontier is only {ratio:.1f}x the per-point "
            "recompute baseline (acceptance floor is 20x)"
        )
    # Small-sweep cutoff regression check: with the adaptive scheduler a
    # warm re-sweep must not get *slower* when the pool has threads. A
    # 2-sample smoke is noisy, so gate loosely (>= 0.75x) and only when
    # both rows are present (ZEROCONF_BENCH_THREADS=1 emits no pool row).
    by_id = {}
    for row in rows:
        by_id.setdefault(row["id"], row)
    warm1 = by_id.get("engine/warm/threads=1")
    warm_pool = next(
        (
            row
            for row_id, row in by_id.items()
            if row_id.startswith("engine/warm/threads=") and row is not warm1
        ),
        None,
    )
    if warm1 and warm_pool:
        ratio = warm_pool["cells_per_sec"] / warm1["cells_per_sec"]
        if ratio < 0.75:
            sys.exit(
                f"ci: {path} warm pool throughput regressed to {ratio:.2f}x "
                "of single-threaded (small-sweep cutoff broken?)"
            )
print("ci: bench reports validated:", ", ".join(sys.argv[1:]))
PY

# --- serve gates: both drive the daemon with the zeroconf-client binary,
# --- the same typed client the integration tests and serve benches use.
cargo build --release -p zeroconf-client

# Spawns the daemon on $SERVE_SOCK logging to $SERVE_LOG, waits for the
# socket, and leaves the pid in $SERVE_PID.
serve_spawn() {
  rm -f "$SERVE_SOCK" "$SERVE_LOG"
  ./target/release/zeroconf serve --unix "$SERVE_SOCK" --workers 2 --inflight 4 \
    >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 200); do
    [[ -S "$SERVE_SOCK" ]] && return 0
    sleep 0.05
  done
  echo "ci: serve daemon never created its socket" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}

# Waits for the daemon to exit 0 and checks the drain summary + socket
# cleanup. $1 names the gate for diagnostics.
serve_reap() {
  local status=0
  wait "$SERVE_PID" || status=$?
  if [[ "$status" != 0 ]]; then
    echo "ci: serve daemon exited $status instead of draining cleanly ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$SERVE_LOG" || {
    echo "ci: serve daemon summary lacks the drain line ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  # Both gates disconnect clients mid-flight, so the daemon summary must
  # report the withdrawn requests.
  grep -q "withdrawn at disconnect" "$SERVE_LOG" || {
    echo "ci: serve daemon summary lacks the withdrawal count ($1)" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  }
  if [[ -e "$SERVE_SOCK" ]]; then
    echo "ci: serve daemon left its socket file behind ($1)" >&2
    exit 1
  fi
  rm -f "$SERVE_LOG"
}

echo "==> zeroconf serve smoke test (unix socket, mid-flight disconnect, SIGTERM drain)"
# A victim connection pipelines expensive work and vanishes mid-flight
# (its requests must be withdrawn, nobody else's); a survivor pipelines a
# sweep, a rescore, a frontier and an inline calibration across a SIGTERM,
# and every one of them must be answered before the daemon exits 0.
SERVE_SOCK="$PWD/target/ci-serve.sock"
SERVE_LOG="$PWD/target/ci-serve.log"
serve_spawn
./target/release/zeroconf-client smoke --unix "$SERVE_SOCK" --pid "$SERVE_PID"
serve_reap "smoke"

echo "==> zeroconf serve flood gate (64 pipelined clients, mid-flight disconnects, SIGTERM drain)"
# The reactor scale gate: 64 concurrent clients pipeline 8 sweeps each on
# one event-loop thread, every eighth disconnecting with work in flight;
# a straggler must still be answered across the SIGTERM drain.
serve_spawn
./target/release/zeroconf-client flood --unix "$SERVE_SOCK" --pid "$SERVE_PID" \
  --clients 64 --requests 8
serve_reap "flood"

echo "ci: all gates passed"
