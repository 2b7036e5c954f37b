#!/usr/bin/env bash
# CI-style verification for the CLIC reproduction.
#
#   scripts/verify.sh                  # tier-1 + store smoke + examples +
#                                      # the benchmark package's build + the
#                                      # single-owner and wake-up grep gates
#                                      # + format + clippy
#   scripts/verify.sh --quick          # tier-1 only
#   scripts/verify.sh --smoke-server   # additionally crash-check the
#                                      # clic-server throughput harness (~1 s
#                                      # of load at smoke scale)
#   scripts/verify.sh --smoke-store    # data-plane smoke: the page store's
#                                      # write->crash->recover->verify cycle
#                                      # at every durability level, the
#                                      # concurrent smoke (client threads
#                                      # over per-shard stores vs the serial
#                                      # replay), the clippy lock-hygiene
#                                      # gate for crates/store, plus the
#                                      # storage_io bench at smoke scale;
#                                      # part of the default full run, this
#                                      # flag adds it to --quick runs
#   scripts/verify.sh --smoke-obs      # observability smoke: the obs_smoke
#                                      # gate (recorder-enabled load; asserts
#                                      # deterministic counters identical at
#                                      # pool sizes 1 and 2, trace rings
#                                      # drain to valid JSON, mock-clock
#                                      # dumps reproducible) plus the clippy
#                                      # lock-hygiene gate for crates/server;
#                                      # part of the default full run, this
#                                      # flag adds it to --quick runs
#   scripts/verify.sh --smoke-net      # network front-end smoke: the
#                                      # net_smoke gate (spawns the event-
#                                      # driven TCP front-end, offers ~1 s of
#                                      # open-loop Poisson load over
#                                      # localhost; asserts every request is
#                                      # answered, percentiles are non-empty
#                                      # and ordered, stats agree over the
#                                      # wire, and shutdown is clean) plus
#                                      # the wire-protocol and loopback
#                                      # integration tests; part of the
#                                      # default full run, this flag adds it
#                                      # to --quick runs
#   scripts/verify.sh --smoke-chaos    # robustness gate: the chaos_smoke
#                                      # binary (seeded fault injection;
#                                      # asserts strict durability survives a
#                                      # WAL fault storm deterministically,
#                                      # open-loop load over a faulted store
#                                      # degrades to typed OP_ERR/Busy
#                                      # answers with a bounded error rate,
#                                      # and a retrying client rides out
#                                      # injected accept drops, connection
#                                      # resets, and torn sends) plus the
#                                      # fault-injection crash-recovery
#                                      # proptests; part of the default full
#                                      # run, this flag adds it to --quick
#                                      # runs
#   scripts/verify.sh --smoke-bench    # additionally crash-check EVERY bench
#                                      # binary (via run_all) at smoke scale,
#                                      # BOTH with --jobs 1 and --jobs 2, and
#                                      # fail on any cross-thread result
#                                      # divergence (timing-dependent outputs
#                                      # excluded); iteration-budgeted
#                                      # microbenches (access_hotpath,
#                                      # server_throughput) clamp to ~1 s
#                                      # budgets. run_all prints per-
#                                      # experiment wall time in both runs.
#
# Tier-1 (the bar every PR must clear, see ROADMAP.md):
#   cargo build --release && cargo test -q
#
# On top of tier-1 this script builds every example, enforces formatting
# (cargo fmt --check), and requires clippy cleanliness at the error level
# (warnings are reported but allowed).
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
smoke_server=0
smoke_bench=0
smoke_store=0
smoke_obs=0
smoke_net=0
smoke_chaos=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --smoke-server) smoke_server=1 ;;
        --smoke-bench) smoke_bench=1 ;;
        --smoke-store) smoke_store=1 ;;
        --smoke-obs) smoke_obs=1 ;;
        --smoke-net) smoke_net=1 ;;
        --smoke-chaos) smoke_chaos=1 ;;
        *) echo "usage: scripts/verify.sh [--quick] [--smoke-server] [--smoke-bench] [--smoke-store] [--smoke-obs] [--smoke-net] [--smoke-chaos]" >&2; exit 2 ;;
    esac
done

# The data-plane, observability, network, and robustness smokes are part of
# the default full run; --smoke-store / --smoke-obs / --smoke-net /
# --smoke-chaos only need to be spelled out to add them to a --quick run.
if [ "$quick" -eq 0 ]; then
    smoke_store=1
    smoke_obs=1
    smoke_net=1
    smoke_chaos=1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

if [ "$smoke_server" -eq 1 ] && [ "$smoke_bench" -eq 0 ]; then
    # (--smoke-bench subsumes this: run_all already includes
    # server_throughput, so don't run it twice.)
    echo "== smoke: server_throughput (smoke scale, crash check) =="
    cargo run --release -p clic-bench --bin server_throughput -- \
        --quick --out-dir target/smoke-results
fi

if [ "$smoke_bench" -eq 1 ]; then
    # Fresh output dirs: stale CSVs from earlier commits must not leak into
    # the determinism comparison (bogus divergences after a stem rename,
    # silently-dead checks otherwise).
    rm -rf target/smoke-results-j1 target/smoke-results-j2 target/smoke-results-grid
    echo "== smoke: every bench binary via run_all, --jobs 1 (smoke scale) =="
    cargo run --release -p clic-bench --bin run_all -- \
        --quick --jobs 1 --out-dir target/smoke-results-j1 \
        --json target/smoke-results-j1/BENCH_results.json
    echo "== smoke: every bench binary via run_all, --jobs 2 (smoke scale) =="
    cargo run --release -p clic-bench --bin run_all -- \
        --quick --jobs 2 --out-dir target/smoke-results-j2 \
        --json target/smoke-results-j2/BENCH_results.json
    echo "== smoke: cross-thread determinism (jobs 1 vs jobs 2 outputs) =="
    diverged=0
    for f in target/smoke-results-j1/*.csv; do
        base="$(basename "$f")"
        case "$base" in
            # Timing-dependent outputs legitimately differ between runs.
            access_hotpath.csv|server_throughput.csv|server_latency.csv|chaos_smoke.csv) continue ;;
        esac
        if ! cmp -s "$f" "target/smoke-results-j2/$base"; then
            echo "DIVERGENCE: $base differs between --jobs 1 and --jobs 2" >&2
            diverged=1
        fi
    done
    if [ "$diverged" -ne 0 ]; then
        echo "verify: FAILED (parallel bench results diverged from serial)" >&2
        exit 1
    fi
    # run_all pins concurrent children to --jobs 1, so the comparison above
    # covers process-level concurrency only. Also exercise the *in-process*
    # parallel grids (compare_policies / par_map) of representative
    # experiments at --jobs 2 against the serial run's outputs.
    echo "== smoke: in-process grid determinism (--jobs 2 vs serial outputs) =="
    for exp in fig06_tpcc_policies fig10_noise ablation_params; do
        cargo run --release -q -p clic-bench --bin "$exp" -- \
            --quick --jobs 2 --out-dir target/smoke-results-grid > /dev/null
    done
    for f in target/smoke-results-grid/*.csv; do
        base="$(basename "$f")"
        if ! cmp -s "$f" "target/smoke-results-j1/$base"; then
            echo "DIVERGENCE: $base differs between in-process --jobs 2 and serial" >&2
            diverged=1
        fi
    done
    if [ "$diverged" -ne 0 ]; then
        echo "verify: FAILED (in-process parallel grid diverged from serial)" >&2
        exit 1
    fi
    echo "deterministic: every comparable result file is bit-identical"
fi

if [ "$smoke_store" -eq 1 ]; then
    echo "== smoke: page store write->crash->recover->verify cycle (all durability levels) =="
    cargo test --release -q -p clic-store --test crash_recovery
    echo "== smoke: concurrent clients over per-shard stores vs serial replay =="
    cargo test --release -q -p clic --test store_concurrency
    # Lock hygiene: crates/store must go through the poison-tolerant guard
    # helpers (cache_sim::sync), never bare Mutex::lock / RwLock::read /
    # RwLock::write (crates/store/clippy.toml lists the banned methods; the
    # crate turns the lint into an error).
    echo "== smoke: clippy lock-hygiene gate for crates/store =="
    cargo clippy -q -p clic-store --all-targets
    if [ "$smoke_bench" -eq 0 ]; then
        # (--smoke-bench subsumes this: run_all already includes
        # storage_io, so don't run it twice.)
        echo "== smoke: storage_io bench (smoke scale, crash check) =="
        cargo run --release -q -p clic-bench --bin storage_io -- \
            --quick --out-dir target/smoke-results
    fi
fi

if [ "$smoke_obs" -eq 1 ]; then
    # The gate's assertions live inside the binary: deterministic counters
    # bit-identical between 1- and 2-worker pools, recorder-enabled server
    # load leaves shard_batch spans, trace rings and metrics snapshots drain
    # to JSON that the strict validator accepts, and mock-clock trace dumps
    # are byte-identical run to run.
    echo "== smoke: observability gate (obs_smoke, smoke scale) =="
    cargo run --release -q -p clic-bench --bin obs_smoke -- \
        --quick --out-dir target/smoke-results
    # Lock hygiene now also covers crates/server (same banned methods as
    # crates/store; see crates/server/clippy.toml). The deny is crate-wide,
    # so the network front-end modules (net, sys, wire, openloop) are under
    # the same gate.
    echo "== smoke: clippy lock-hygiene gate for crates/server (incl. net modules) =="
    cargo clippy -q -p clic-server --all-targets
fi

if [ "$smoke_net" -eq 1 ]; then
    # The gate's assertions live inside the binary: the TCP front-end comes
    # up on localhost, ~1 s of seeded open-loop Poisson load all completes,
    # latency percentiles are non-empty and ordered, a stats probe over the
    # wire matches the generator's count, and shutdown returns the final
    # statistics cleanly.
    echo "== smoke: network front-end gate (net_smoke, open-loop load over localhost) =="
    cargo run --release -q -p clic-bench --bin net_smoke -- \
        --quick --out-dir target/smoke-results
    echo "== smoke: wire-protocol properties + loopback bit-identity tests =="
    cargo test --release -q -p clic-server --test wire_properties
    cargo test --release -q -p clic --test net_front_end
fi

if [ "$smoke_chaos" -eq 1 ]; then
    # The gate's assertions live inside the binary: phase A runs a strict
    # store through a seeded WAL fault storm twice and requires identical
    # acks, injector counts, synced prefixes, and recovered bytes after a
    # simulated kernel crash; phase B offers open-loop load over a store
    # whose WAL appends fault and requires every request answered (typed
    # OP_ERR/Busy, never silence) with a bounded error fraction; phase C
    # drives a retrying client through injected accept drops, connection
    # resets, and torn sends, and requires each fault type demonstrably
    # fired with zero client-visible failures.
    echo "== smoke: robustness gate (chaos_smoke, seeded fault injection) =="
    cargo run --release -q -p clic-bench --bin chaos_smoke -- \
        --quick --out-dir target/smoke-results
    if [ "$smoke_store" -eq 0 ]; then
        # (--smoke-store subsumes this: crash_recovery already carries the
        # fault-injection proptests, so don't run it twice.)
        echo "== smoke: fault-injection crash-recovery proptests =="
        cargo test --release -q -p clic-store --test crash_recovery
    fi
fi

if [ "$quick" -eq 1 ]; then
    echo "verify: tier-1 OK (quick mode, examples/fmt/clippy skipped)"
    exit 0
fi

echo "== cargo build --release --examples =="
cargo build --release --examples

# benchmark/ is a workspace of its own, so nothing above compiles it; build
# it here so that breaking the surface it calls (see ROADMAP, "frozen by
# benchmark/") fails verify rather than the benchmark pipeline.
echo "== cargo build benchmark/ (offline, against the working tree) =="
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Each step of the request path has one owner. The frame reader is
# wire::FrameBuf, so no receive loop drains a Vec per frame; the policy->store
# mirror is PageStore::mirror, so the server never applies a policy verdict
# to the store by hand.
echo "== single-owner gates (frame reader, policy->store mirror) =="
if grep -rnF '.drain(..consumed)' crates/server/src; then
    echo "verify: FAILED (a hand-rolled frame reader is back; use wire::FrameBuf)" >&2
    exit 1
fi
if grep -rnE 'store\.evict\(|store\.admit\(|\.write_through\(' crates/server/src; then
    echo "verify: FAILED (crates/server applies a policy verdict by hand; use PageStore::mirror)" >&2
    exit 1
fi

# The event loop sleeps until it is woken (a socket, or a shard worker's
# eventfd wake-up): no tick inside EventLoop, no sleep in the poller.
echo "== wake-up gates (no timer in the event loop, no sleep in sys.rs) =="
if sed -n '/^struct EventLoop/,/^pub struct RetryPolicy/p' crates/server/src/net.rs \
        | grep -n 'Duration::from_'; then
    echo "verify: FAILED (a timed wait is back inside net.rs's EventLoop; wake it instead)" >&2
    exit 1
fi
if grep -n 'thread::sleep' crates/server/src/sys.rs; then
    echo "verify: FAILED (crates/server/src/sys.rs sleeps; the poller must block in epoll_wait)" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets (errors fail, warnings allowed) =="
cargo clippy --workspace --all-targets

echo "verify: all checks passed"
