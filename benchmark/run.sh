#!/usr/bin/env bash
# The CLIC benchmark's one command.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#   benchmark/run.sh --aa N [--trace 0|1]
#
# Builds the benchmark package from source (offline; into $CARGO_TARGET_DIR,
# or benchmark/target when that is unset) and runs it from the repository
# root. The last line of standard output is the result object; the exit code
# is non-zero when the build or any correctness check failed. `--aa N` runs N
# sets of ten seeds per workload and checks every end-to-end spread against
# its bound in BENCHMARK.json (see aa.py).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# glibc adapts its mmap and trim thresholds to the allocation history, which
# moved peak_rss_mb by 50 % between identical runs; fixed thresholds make it
# repeat within 1 %.
export MALLOC_MMAP_THRESHOLD_=262144 MALLOC_TRIM_THRESHOLD_=262144
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
binary="$CARGO_TARGET_DIR/release/clic-benchmark"
if [[ "${1:-}" == "--aa" ]]; then
    exec python3 benchmark/aa.py "$binary" "${@:2}"
fi
exec "$binary" "$@"
