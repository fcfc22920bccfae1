#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p lint (cold scan + SARIF, empty lint-cache, budget <10s)"
rm -rf target/lint-cache
LINT_START=$(date +%s)
cargo run -q -p lint -- --sarif target/lint.sarif
LINT_SECS=$(( $(date +%s) - LINT_START ))
if [ "$LINT_SECS" -ge 10 ]; then
  echo "lint: cold workspace scan took ${LINT_SECS}s (budget: <10s)" >&2
  exit 1
fi
if ! [ -s target/lint.sarif ]; then
  echo "lint: --sarif produced no log" >&2
  exit 1
fi

echo "==> cargo run -p lint (warm scan via target/lint-cache, budget <5s)"
LINT_START=$(date +%s)
cargo run -q -p lint
LINT_SECS=$(( $(date +%s) - LINT_START ))
if [ "$LINT_SECS" -ge 5 ]; then
  echo "lint: warm workspace scan took ${LINT_SECS}s (budget: <5s)" >&2
  exit 1
fi

echo "==> lint-diff (fatal on new violations or property regressions)"
cargo run -q -p lint -- --diff

echo "==> lint --fix --check (fatal if --fix would rewrite anything)"
cargo run -q -p lint -- --fix --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> benchmark harness (perf/) builds against the current crates"
cargo build --offline --release --manifest-path perf/Cargo.toml --target-dir target

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> no-alloc proof on a single test thread (the run above uses N)"
cargo test -q -p megh-core --test no_alloc -- --test-threads=1

echo "==> cargo test --workspace --features check-invariants"
cargo test --workspace --features check-invariants -q

echo "==> sweep determinism under check-invariants"
cargo test -q -p megh-cli --features megh-core/check-invariants sweep_determinism

echo "==> streaming determinism (chunk-size invariance)"
cargo test -q -p megh-sim streaming_
cargo test -q -p megh-cli stream_

echo "==> streaming peak-RSS budget (500 VMs x 30 days, noop, budget <32768 kB)"
RSS_LINE=$(target/release/megh simulate --workload planetlab --hosts 250 --vms 500 \
  --days 30 --scheduler noop --stream --mem-stats | tail -n 1)
echo "$RSS_LINE"
RSS_KB=$(echo "$RSS_LINE" | awk '/^peak RSS/ {print $3}')
if ! [ "${RSS_KB:-99999999}" -lt 32768 ] 2>/dev/null; then
  echo "streaming RSS budget exceeded: ${RSS_KB:-unparsable} kB (budget: <32768 kB)" >&2
  exit 1
fi

echo "==> file-streaming peak-RSS budget (500 VMs x 30 days CSV, noop, budget <32768 kB)"
TRACE_DIR="$(mktemp -d)"
target/release/megh trace-gen --workload planetlab --vms 500 --days 30 --seed 11 \
  --out "$TRACE_DIR/trace.csv" >/dev/null
RSS_LINE=$(target/release/megh simulate --file "$TRACE_DIR/trace.csv" --hosts 250 \
  --scheduler noop --stream --mem-stats | tail -n 1)
rm -rf "$TRACE_DIR"
echo "$RSS_LINE"
RSS_KB=$(echo "$RSS_LINE" | awk '/^peak RSS/ {print $3}')
if ! [ "${RSS_KB:-99999999}" -lt 32768 ] 2>/dev/null; then
  echo "file-streaming RSS budget exceeded: ${RSS_KB:-unparsable} kB (budget: <32768 kB)" >&2
  exit 1
fi

echo "==> bench-diff (latency warnings advisory; shape/alloc checks fatal)"
cargo run -q -p megh-bench --bin bench-diff
cargo run -q -p megh-bench --bin bench-diff BENCH_serve_throughput.json
cargo run -q -p megh-bench --bin bench-diff BENCH_sim_step.json

echo "==> serve smoke: checkpoint, kill -9, restart, byte-identical decides"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
MEGH=target/release/megh
SOCK="unix:$SMOKE_DIR/megh.sock"
"$MEGH" serve --listen "$SOCK" --checkpoint "$SMOKE_DIR/cp.json" \
  --vms 8 --hosts 4 --checkpoint-every 0 &
SERVE_PID=$!
for i in $(seq 0 24); do
  "$MEGH" client --connect "$SOCK" --op observe --action "$i" --cost 0.1 >/dev/null
done
"$MEGH" client --connect "$SOCK" --op sync >/dev/null
"$MEGH" client --connect "$SOCK" --op checkpoint >/dev/null
for seed in $(seq 0 9); do
  "$MEGH" client --connect "$SOCK" --op decide --seed "$seed"
done > "$SMOKE_DIR/before.txt"
# Learning after the checkpoint must not survive the crash.
"$MEGH" client --connect "$SOCK" --op observe --action 3 --cost 0.9 >/dev/null
"$MEGH" client --connect "$SOCK" --op sync >/dev/null
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$MEGH" serve --listen "$SOCK" --checkpoint "$SMOKE_DIR/cp.json" \
  --vms 8 --hosts 4 --checkpoint-every 0 &
SERVE_PID=$!
for seed in $(seq 0 9); do
  "$MEGH" client --connect "$SOCK" --op decide --seed "$seed"
done > "$SMOKE_DIR/after.txt"
"$MEGH" client --connect "$SOCK" --op shutdown >/dev/null
wait "$SERVE_PID"
diff -u "$SMOKE_DIR/before.txt" "$SMOKE_DIR/after.txt"
echo "serve smoke: decisions identical across SIGKILL + restart"

echo "==> serve smoke at d = 10^8 (10k VMs x 10k hosts): state is O(nnz), not O(d)"
BIG_SOCK="unix:$SMOKE_DIR/big.sock"
BIG_ARGS=(--listen "$BIG_SOCK" --checkpoint "$SMOKE_DIR/big.json" \
  --vms 10000 --hosts 10000 --checkpoint-every 0)
"$MEGH" serve "${BIG_ARGS[@]}" &
SERVE_PID=$!
for i in $(seq 0 199); do
  "$MEGH" client --connect "$BIG_SOCK" --op observe \
    --action $(( (i * 499979) % 100000000 )) --cost "0.$(( i % 9 + 1 ))" >/dev/null
done
"$MEGH" client --connect "$BIG_SOCK" --op sync >/dev/null
"$MEGH" client --connect "$BIG_SOCK" --op decide --seed 7 > "$SMOKE_DIR/big_before.txt"
"$MEGH" client --connect "$BIG_SOCK" --op checkpoint >/dev/null
BIG_STATS=$("$MEGH" client --connect "$BIG_SOCK" --op stats)
HWM_KB=$(awk '/^VmHWM:/ {print $2}' "/proc/$SERVE_PID/status")
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$MEGH" serve "${BIG_ARGS[@]}" &
SERVE_PID=$!
"$MEGH" client --connect "$BIG_SOCK" --op decide --seed 7 > "$SMOKE_DIR/big_after.txt"
"$MEGH" client --connect "$BIG_SOCK" --op shutdown >/dev/null
wait "$SERVE_PID"
diff -u "$SMOKE_DIR/big_before.txt" "$SMOKE_DIR/big_after.txt"
STATE_BYTES=$(echo "$BIG_STATS" | sed -n 's/.*"state_bytes":\([0-9]*\).*/\1/p')
echo "d = 10^8: daemon VmHWM ${HWM_KB:-?} kB, state_bytes ${STATE_BYTES:-?}"
if ! [ "${HWM_KB:-99999999}" -lt 65536 ] 2>/dev/null; then
  echo "d = 10^8 serve: VmHWM ${HWM_KB:-unreadable} kB (budget: <65536 kB)" >&2
  exit 1
fi
if ! [ "${STATE_BYTES:-99999999}" -lt 1048576 ] 2>/dev/null; then
  echo "d = 10^8 serve: state_bytes ${STATE_BYTES:-unparsable} (budget: <1048576)" >&2
  exit 1
fi
echo "serve smoke: d = 10^8 decisions identical across SIGKILL + restart"

echo "CI OK"
