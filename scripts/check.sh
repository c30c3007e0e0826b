#!/usr/bin/env bash
# Repo gate: formatting, lints, tests (crates, the DS_SIMD=off pass, and
# dsbench's own tests, which smoke every workload through the real
# binary), and a release-mode dsqz CLI smoke. Timing lives in
# benchmark/run.sh, not here. Run from the repo root:
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh fast     # skip the release build + CLI smoke
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ds-lint (decode-safety, determinism and lock-scope gate)"
cargo run -q -p ds-lint
# A suppression is a place the checker is not checking: the count may go
# down, never up. Product crates only: the linter's own sources and
# fixtures spell out suppressions as test data.
allows="$(grep -r 'ds-lint: allow' crates --include=*.rs | grep -v '^crates/lint/' | wc -l)"
[ "$allows" -le 84 ] || {
  echo "ds-lint suppressions grew: $allows > 84"
  exit 1
}

# One in-memory form for a categorical column (pool + codes): no string
# payload, and no string sentinel on the decode path, in non-test code.
if sed -s '/^#\[cfg(test)\]/,$d' crates/table/src/column.rs crates/table/src/table.rs \
  crates/core/src/pipeline.rs | grep -nE 'RARE_SENTINEL|(Cat|Str)\(Vec<String>\)'; then
  echo "a Vec<String> column payload or RARE_SENTINEL is back"
  exit 1
fi

# One code width per archive, measured at fit (pipeline.rs): the shard
# encoder is straight-line and may not grow the per-shard candidate loop
# — or the tuple type it needed — back.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/materialize.rs \
  | grep -nE 'type_complexity|code_bits_candidates'; then
  echo "materialize.rs chooses among code widths again (the fit does that, once)"
  exit 1
fi

# The matmul schedules (DESIGN.md §3f) round every multiply and every add,
# at every SIMD level, and archive bytes may not depend on whether the host
# fuses them: no fused multiply-add anywhere in a product crate's non-test
# source.
fma="$(find crates -path crates/lint -prune -o -path '*/src/*.rs' -print | sort \
  | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" \
      | grep -nE '_mm(256)?_fn?m(add|sub)|vfm[as]q|vml[as]q|mul_add' \
      | sed "s|^|$f:|" || true
  done)"
[ -z "$fma" ] || {
  echo "$fma"
  echo "a fused multiply-add is in a product crate's source"
  exit 1
}

# First among the test steps: benchmark/ may not be edited by a PR that
# claims a gain, so an API break that would force an edit there should
# fail in seconds, not after the workspace suites.
echo "==> dsbench tests (benchmark/ builds against crates/ from outside the workspace)"
(cd benchmark && cargo test --offline -q)

echo "==> cargo test (every crate)"
cargo test -q --workspace

echo "==> cargo test (DS_SIMD=off: scalar reference kernels)"
DS_SIMD=off cargo test -q --workspace

if [ "$mode" = "full" ]; then
  echo "==> release build"
  cargo build --release -q --workspace

  echo "==> dsqz serve (stdio smoke: GET/STAT/METRICS)"
  smoke_dir="$(mktemp -d)"
  ./target/release/dsqz gen monitor 200 "$smoke_dir/s.csv"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/s.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  echo "==> three front ends, one pipeline: compress, compress --stream, recompress"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/s.stream.dsqz" \
    --epochs 3 --stream --shard-rows 50 --chunk-rows 33 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s.stream.dsqz"
  ./target/release/dsqz inspect "$smoke_dir/s.dsqz" \
    | grep -qE '^model: 1 expert\(s\), code size [0-9]+ × (4|8|16) bits$'
  ./target/release/dsqz recompress "$smoke_dir/s.csv" "$smoke_dir/s.re.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s.re.dsqz"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/one.dsqz" \
    --epochs 3 --quiet
  ./target/release/dsqz inspect "$smoke_dir/one.dsqz" \
    | grep -q 'container: sharded, 1 row group(s)'
  echo "==> dsqz recompress (archive-as-source: byte-identity + chains)"
  ./target/release/dsqz recompress "$smoke_dir/s.dsqz" "$smoke_dir/s2.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s2.dsqz"
  ./target/release/dsqz inspect "$smoke_dir/s2.dsqz" \
    | grep -q 'codec chains: legacy'
  ./target/release/dsqz recompress "$smoke_dir/s.dsqz" "$smoke_dir/s3.dsqz" \
    --epochs 3 --shard-rows 50 --numeric-probe --quiet
  ./target/release/dsqz inspect "$smoke_dir/s3.dsqz" \
    | grep -q 'codec chains (shard 0 column streams):'

  printf 'GET 10..20\nSTAT\nMETRICS\nQUIT\n' \
    | ./target/release/dsqz serve "$smoke_dir/s.dsqz" \
    > "$smoke_dir/stdio.out"
  grep -q '^OK rows=200' "$smoke_dir/stdio.out"
  grep -q 'errors=0' "$smoke_dir/stdio.out"
  grep -q 'codecs=legacy' "$smoke_dir/stdio.out"
  grep -q '^serve_archive_rows 200$' "$smoke_dir/stdio.out"
  grep -q '^serve_requests_by_verb_total{label="get"} 1$' "$smoke_dir/stdio.out"

  echo "==> dsqz on a v1 archive (one read path: decompress, --rows, serve)"
  # v1 is read-only: the CLI cannot write one, the committed fixture can.
  cp crates/core/tests/golden/v1.dsqz "$smoke_dir/v1.dsqz"
  ./target/release/dsqz inspect "$smoke_dir/v1.dsqz" | grep -q 'container: monolithic'
  ./target/release/dsqz decompress "$smoke_dir/v1.dsqz" "$smoke_dir/v1.csv"
  ./target/release/dsqz decompress "$smoke_dir/v1.dsqz" "$smoke_dir/v1.rows.csv" \
    --rows 10..20
  printf 'GET 10..20\nQUIT\n' \
    | ./target/release/dsqz serve "$smoke_dir/v1.dsqz" > "$smoke_dir/v1.out"
  # Data rows 10..20 of the full v1 decode (line 1 is the header).
  sed -n '12,21p' "$smoke_dir/v1.csv" > "$smoke_dir/v1.want"
  [ "$(wc -l < "$smoke_dir/v1.want")" -eq 10 ]
  tail -n +2 "$smoke_dir/v1.rows.csv" | cmp - "$smoke_dir/v1.want"
  head -n 1 "$smoke_dir/v1.out" | grep -qx 'OK 10'
  sed -n '2,11p' "$smoke_dir/v1.out" | cmp - "$smoke_dir/v1.want"

  echo "==> dsqz serve (--metrics HTTP scrape smoke)"
  sleep 5 | ./target/release/dsqz serve "$smoke_dir/s.dsqz" \
    --metrics 127.0.0.1:0 > /dev/null 2> "$smoke_dir/serve.err" &
  serve_pid=$!
  metrics_url=""
  for _ in $(seq 1 50); do
    metrics_url="$(sed -n 's#.*metrics on \(http://[^ ]*\).*#\1#p' \
      "$smoke_dir/serve.err")"
    [ -n "$metrics_url" ] && break
    sleep 0.1
  done
  [ -n "$metrics_url" ] || {
    echo "--metrics endpoint never came up:"
    cat "$smoke_dir/serve.err"
    exit 1
  }
  curl -sf "$metrics_url" | grep -q '^serve_archive_rows 200$'
  kill "$serve_pid" 2> /dev/null || true
  wait "$serve_pid" 2> /dev/null || true
  rm -rf "$smoke_dir"
fi

echo "OK"
