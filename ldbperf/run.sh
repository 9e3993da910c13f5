#!/usr/bin/env bash
# Build `ldb` and the benchmark from source, then run one workload.
#
#   bash ldbperf/run.sh --workload <tenant_tcp|fleet_triage|bigunit_cli> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from anywhere inside a checkout; builds go to $CARGO_TARGET_DIR
# (default .bench_build at the checkout root). The last line of standard
# output is the result as one JSON object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "ldbperf: $root is not an ldb checkout (no Cargo.toml or crates/)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --bin ldb >&2
cargo build --release --offline --quiet --manifest-path ldbperf/Cargo.toml >&2
work="$target/ldbperf-work/$$"
mkdir -p "$work"
status=0
"$target/release/ldbperf" --ldb "$target/release/ldb" --work "$work" "$@" || status=$?
rm -rf "$work"
exit "$status"
