#!/usr/bin/env bash
# The one benchmark command: builds dsbench, then runs it.
#
#   benchmark/run.sh                      every workload, untraced + traced
#   benchmark/run.sh --sets 2             twice over; compares the two sets
#                                         against the bounds (noise floor)
#   benchmark/run.sh --smoke              rows and request counts / 20
#   benchmark/run.sh --workload serve_hot --seed 7 --seconds 20 --trace 0
#                                         one run, as the PR driver makes it
#
# Sizing rule (see src/workloads.rs): the PR driver makes 4 + 22 x 4 runs
# inside 3420 s with two builds. If a full set no longer fits, cut reps
# and request counts first, then rows; never add a fifth workload.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build into the root target/ unless the caller chose a directory; a
# relative choice is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/dsbench" --commit "$commit" "$@"
