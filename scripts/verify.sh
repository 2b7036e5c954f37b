#!/usr/bin/env bash
# CI-style verification for the CLIC reproduction.
#
#   scripts/verify.sh                # tier-1, --smoke, examples, the
#                                    # benchmark (built and run), the grep
#                                    # gates, cargo fmt --check, clippy
#   scripts/verify.sh --quick        # tier-1 only:
#                                    #   cargo build --release && cargo test -q
#   scripts/verify.sh --smoke        # the smoke gates (part of a full run;
#                                    # the flag adds them to --quick)
#   scripts/verify.sh --smoke-bench  # additionally every figure at smoke
#                                    # scale, --jobs 1 against --jobs 2 and
#                                    # against the committed results/smoke
#
# Clippy fails on any warning (`-- -D warnings`).
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
smoke=0
smoke_bench=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --smoke) smoke=1 ;;
        --smoke-bench) smoke_bench=1 ;;
        *) echo "usage: scripts/verify.sh [--quick] [--smoke] [--smoke-bench]" >&2; exit 2 ;;
    esac
done
if [ "$quick" -eq 0 ]; then
    smoke=1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

if [ "$smoke_bench" -eq 1 ]; then
    # Fresh output dirs: stale CSVs from earlier commits must not leak into
    # the determinism comparison (bogus divergences after a stem rename,
    # silently-dead checks otherwise).
    rm -rf target/smoke-results-j1 target/smoke-results-j2
    for jobs in 1 2; do
        echo "== smoke: every figure via run_all, --jobs $jobs (smoke scale) =="
        cargo run --release -p clic-bench --bin run_all -- \
            --quick --jobs "$jobs" --out-dir "target/smoke-results-j$jobs" \
            --json "target/smoke-results-j$jobs/BENCH_results.json"
    done
    # Each --jobs 1 CSV must be bit-identical to its --jobs 2 twin and to its
    # committed copy in results/smoke; a change that moves a figure
    # regenerates those in the same commit with
    #   run_all --quick --out-dir results/smoke
    echo "== smoke: --jobs 1 against --jobs 2 and against the committed results/smoke =="
    diverged=0
    compared=0
    for f in target/smoke-results-j1/*.csv; do
        base="$(basename "$f")"
        # Wall-clock latencies legitimately differ between runs.
        [ "$base" = server_latency.csv ] && continue
        compared=$((compared + 1))
        if ! cmp -s "$f" "target/smoke-results-j2/$base"; then
            echo "DIVERGENCE: $base differs between --jobs 1 and --jobs 2" >&2
            diverged=1
        fi
        if ! cmp -s "$f" "results/smoke/$base"; then
            echo "CHANGED: $base differs from results/smoke/$base (or is not committed)" >&2
            diverged=1
        fi
    done
    committed="$(find results/smoke -name '*.csv' ! -name server_latency.csv | wc -l)"
    if [ "$committed" -ne "$compared" ]; then
        echo "CHANGED: results/smoke holds $committed figure CSVs, the run wrote $compared" >&2
        diverged=1
    fi
    if [ "$diverged" -ne 0 ]; then
        echo "verify: FAILED (smoke figures diverged between job counts or from results/smoke)" >&2
        exit 1
    fi
    echo "deterministic and unchanged: every smoke figure matches --jobs 2 and results/smoke"
fi

if [ "$smoke" -eq 1 ]; then
    echo "== smoke: page store write->crash->recover->verify cycle (all durability levels, fault-injection proptests) =="
    cargo test --release -q -p clic-store --test crash_recovery
    echo "== smoke: concurrent clients over per-shard stores vs serial replay =="
    cargo test --release -q -p clic --test store_concurrency
    echo "== smoke: storage_io (smoke scale, crash check) =="
    cargo run --release -q -p clic-bench --bin run_all -- storage_io \
        --quick --out-dir target/smoke-results
    # The assertions live inside the binary (see its module docs): `obs` —
    # deterministic counters bit-identical between 1- and 2-worker pools,
    # trace rings and metrics snapshots drain to valid JSON, the event loop
    # is woken rather than polling, mock-clock dumps are reproducible;
    # `chaos` — strict durability survives a seeded WAL fault storm
    # replayably, a faulted store degrades to typed OP_ERR answers with a
    # bounded error rate, a burst four windows long is answered in full
    # (the front-end blocks, never sheds), a retrying client rides out accept drops,
    # connection resets and torn sends.
    echo "== smoke: observability and robustness gates (smoke obs chaos) =="
    cargo run --release -q -p clic-bench --bin smoke -- --quick
    echo "== smoke: wire-protocol properties + loopback bit-identity tests =="
    cargo test --release -q -p clic-server --test wire_properties
    cargo test --release -q -p clic --test net_front_end
    # Lock hygiene: crates/store and crates/server must go through the
    # poison-tolerant guard helpers (cache_sim::sync: checked_lock,
    # recover_lock), never bare Mutex::lock, and use no RwLock at all (each
    # crate's clippy.toml bans Mutex::lock, RwLock::read and RwLock::write;
    # the crates turn the lint into an error).
    echo "== smoke: clippy lock-hygiene gates for crates/store and crates/server =="
    cargo clippy -q -p clic-store --all-targets
    cargo clippy -q -p clic-server --all-targets
fi

if [ "$quick" -eq 1 ]; then
    echo "verify: tier-1 OK (quick mode, examples/benchmark/fmt/clippy skipped)"
    exit 0
fi

echo "== cargo build --release --examples =="
cargo build --release --examples

# benchmark/ is a workspace of its own, so nothing above compiles it; build
# it here so that breaking the surface it calls (see ROADMAP, "frozen by
# benchmark/") fails verify rather than the benchmark pipeline. --locked
# because benchmark/Cargo.lock is frozen with the rest of benchmark/: a new
# dependency between the path crates would otherwise rewrite it silently.
echo "== cargo build benchmark/ (offline, locked, against the working tree) =="
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# A build proves the surface compiles; only a run proves the workloads still
# pass their own checks: both runs must exit 0 and print four result lines
# with "correct": true and "failed": 0. The metric values are not parsed.
# The end-to-end run gets one second per workload. The layer ladder needs
# three: below that its timed network rounds are empty, the rates it divides
# by are zero, and the benchmark's own finite-metric check fails the run.
run_benchmark() {
    echo "== benchmark/run.sh $* (four workloads, every check on) =="
    local out clean
    if ! out="$(bash benchmark/run.sh "$@")"; then
        grep -v '^{' <<<"$out" >&2 || true
        echo "verify: FAILED (benchmark/run.sh $* exited non-zero)" >&2
        exit 1
    fi
    clean="$(grep '"correct": true' <<<"$out" | grep -c '"failed": 0' || true)"
    if [ "$clean" -ne 4 ]; then
        grep -v '^{' <<<"$out" >&2 || true
        echo "verify: FAILED (benchmark/run.sh $*: $clean of 4 workloads correct with no failed operation)" >&2
        exit 1
    fi
}
run_benchmark --seconds 1
run_benchmark --seconds 3 --traced

# Each step of the request path has one owner. The frame reader is
# wire::FrameBuf, so no receive loop drains a Vec per frame; the policy->store
# mirror is PageStore::mirror, so the server never applies a policy verdict
# to the store by hand; the WAL sync is the store's (PageStore::sync_wal, run
# by each shard's log writer), and an acknowledgement waits for that sync and
# nothing else. Replies leave a shard through ReplySink::deliver alone, one
# channel message per shard step, so neither the worker nor the log writer
# can drift back to one message per reply.
echo "== single-owner gates (frame reader, policy->store mirror, WAL sync, reply delivery, write-back) =="
if grep -rnF '.drain(..consumed)' crates/server/src; then
    echo "verify: FAILED (a hand-rolled frame reader is back; use wire::FrameBuf)" >&2
    exit 1
fi
if grep -rnE 'store\.evict\(|store\.admit\(|\.write_through\(' crates/server/src; then
    echo "verify: FAILED (crates/server applies a policy verdict by hand; use PageStore::mirror)" >&2
    exit 1
fi
if grep -rnE 'sync_data|sync_all' crates/server/src; then
    echo "verify: FAILED (crates/server syncs a file itself; the log writer syncs through PageStore::sync_wal)" >&2
    exit 1
fi
if grep -nE 'recv_timeout|AckPacer|DURABLE_ACK_SPACING' crates/server/src/server.rs; then
    echo "verify: FAILED (a timed wait or the ack pacer is back in server.rs; acks wait only for the log writer's sync)" >&2
    exit 1
fi
sends="$(grep -cE '\.tx\.send\(' crates/server/src/server.rs || true)"
delivered="$(sed -n '/^impl ReplySink {/,/^}/p' crates/server/src/server.rs \
    | sed -n '/^    fn deliver(/,/^    }$/p' | grep -cE '\.tx\.send\(' || true)"
if [ "$sends" -ne 1 ] || [ "$delivered" -ne 1 ]; then
    grep -nE '\.tx\.send\(' crates/server/src/server.rs >&2 || true
    echo "verify: FAILED (server.rs sends replies outside ReplySink::deliver: $sends .tx.send( in the file, $delivered in deliver; want 1 and 1)" >&2
    exit 1
fi
# Write-back has one owner too: PageStore::flush_some, run inline by the
# flush threshold and by checkpoints. The store spawns no threads (its tests
# use thread::scope), and no background flusher or its stop timeout returns.
if grep -rnE 'thread::spawn|Flusher|flush_interval|ShutdownTimeout' \
        crates/store/src crates/server/src/sharded.rs; then
    echo "verify: FAILED (a background flusher is back; write-back runs inline through PageStore::flush_some)" >&2
    exit 1
fi

# The log is truncated in two places: PageStore::open, after replay, and the
# checkpoint (PageStore::checkpoint_frames, the body of PageStore::checkpoint
# and of a staging call's budget checkpoint), which holds the frames from its
# first write-back to the truncation, so no record is cut before its page
# reaches the data file. Test modules (from `#[cfg(test)]` to the end of a
# file) may truncate a log of their own.
echo "== one truncation site (the log: PageStore::open and the checkpoint) =="
truncates="$(find crates/*/src src examples -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n '\.truncate()' | sed "s|^|$f:|" || true
done)"
total="$(grep -c . <<<"$truncates" || true)"
allowed="$(sed -n '/^    pub fn open(/,/^    }$/p;/^    fn checkpoint_frames(/,/^    }$/p' \
    crates/store/src/store.rs | grep -c '\.truncate()' || true)"
if [ "$total" -ne 2 ] || [ "$allowed" -ne 2 ]; then
    echo "$truncates" >&2
    echo "verify: FAILED (the log is truncated outside PageStore::open and PageStore::checkpoint_frames: $total .truncate() calls, $allowed in those two; want 2 and 2)" >&2
    exit 1
fi

# The log file is synced in one place: the store's one log-sync function
# (PageStore::sync_log_to), which a staging call whose durability level wants
# a sync, a log writer (through PageStore::sync_wal) and a checkpoint all
# run, so a failed sync fails the log closed whoever ran it. Outside test
# modules, nothing else calls wal::sync_log, and the log itself has no sync
# method.
echo "== one log-sync site (the log: PageStore::sync_log_to) =="
log_syncs="$(find crates/*/src src examples -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'sync_log(' | grep -v 'fn sync_log(' | sed "s|^|$f:|" || true
done)"
total="$(grep -c . <<<"$log_syncs" || true)"
allowed="$(sed -n '/^    fn sync_log_to(/,/^    }$/p' crates/store/src/store.rs \
    | grep 'sync_log(' | grep -vc 'fn sync_log(' || true)"
if [ "$total" -ne 1 ] || [ "$allowed" -ne 1 ]; then
    echo "$log_syncs" >&2
    echo "verify: FAILED (the log is synced outside PageStore::sync_log_to: $total sync_log( calls, $allowed in it; want 1 and 1)" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/store/src/wal.rs | grep -nE 'fn sync\b'; then
    echo "verify: FAILED (the WAL has a sync method again; the store syncs the log through PageStore::sync_log_to)" >&2
    exit 1
fi

# Unsafe code in the store lives in one place: the CRC-32 kernel's
# dispatch, which runs the carry-less-multiply kernel only on a CPU that is
# detected to support it.
echo "== unsafe gate (crates/store: crc.rs only; crc.rs detects CPU features) =="
if grep -rnw 'unsafe' crates/store/src | grep -vE '^crates/store/src/crc\.rs:'; then
    echo "verify: FAILED (unsafe in crates/store/src outside crc.rs)" >&2
    exit 1
fi
if ! grep -q 'is_x86_feature_detected!' crates/store/src/crc.rs; then
    echo "verify: FAILED (crc.rs lost its is_x86_feature_detected! dispatch)" >&2
    exit 1
fi

# The event loop sleeps until it is woken (a socket, or a shard worker's
# eventfd wake-up): no tick inside EventLoop, no sleep in the poller, and no
# timed wait in sys.rs or its tests (a test that expects nothing polls).
echo "== wake-up gates (no timer in the event loop, no sleep or timed wait in sys.rs) =="
if sed -n '/^struct EventLoop/,/^pub struct RetryPolicy/p' crates/server/src/net.rs \
        | grep -n 'Duration::from_'; then
    echo "verify: FAILED (a timed wait is back inside net.rs's EventLoop; wake it instead)" >&2
    exit 1
fi
if grep -n 'thread::sleep' crates/server/src/sys.rs; then
    echo "verify: FAILED (crates/server/src/sys.rs sleeps; the poller must block in epoll_wait)" >&2
    exit 1
fi
if grep -n 'Duration::from_millis' crates/server/src/sys.rs; then
    echo "verify: FAILED (crates/server/src/sys.rs waits on a clock; its tests poll with Duration::ZERO or block untimed)" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings (any warning fails) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all checks passed"
