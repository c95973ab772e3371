#!/usr/bin/env bash
# Build the benchmark binary and hand it the arguments. From the root of a
# checkout:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; result on the last line
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--quick]    every workload, one process each
#   benchmark/run.sh --compare A.json B.json                         two such documents against the bounds
#
# Everything it writes stays under benchmark/ (target/, out/) or under
# $CARGO_TARGET_DIR when that is set. See README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"

# The crates under ../crates and ../vendor are path dependencies, so a
# directory holding only benchmark/ fails here, before any result is printed.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/probenet-benchmark" \
    --out-dir "$here/out" --spec "$here/../BENCHMARK.json" "$@"
