#!/usr/bin/env bash
# Repo gate: formatting, clippy, two simd.rs source checks, tests (crates,
# where ds-lint runs over the workspace, the DS_SIMD=off pass, and dsbench's
# own tests, which smoke every workload through the real binary), and a
# release-mode dsqz CLI smoke. Timing lives in
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

# ds-lint's rules, the suppression ceiling and the architecture rules run
# in `cargo test` (crates/lint/tests/workspace.rs). Two simd.rs checks need
# context a token pattern does not have, so they stay here: simd.rs writes
# each kernel once over `Lanes` (DESIGN.md §3f), with no AVX2 intrinsic
# outside the `__m256` lanes' module and no `unsafe fn` but the
# `#[target_feature]` entry, in its non-test source.
simd_rs="$(sed '/^#\[cfg(test)\]/,$d' crates/nn/src/simd.rs)"
if sed '/^mod avx2 {$/,/^}$/d' <<< "$simd_rs" | grep -n '_mm256_' \
  || awk '/unsafe fn/ && prev !~ /#\[target_feature/ { print NR ": " $0; bad = 1 }
      { prev = $0 } END { exit !bad }' <<< "$simd_rs"; then
  echo "simd.rs writes a kernel twice again (an AVX2 intrinsic outside the lanes, or an unsafe fn)"
  exit 1
fi

# First among the test steps: benchmark/ may not be edited by a PR that
# claims a gain, so an API break that would force an edit there should
# fail in seconds, not after the workspace suites.
echo "==> dsbench tests (benchmark/ builds against crates/ from outside the workspace)"
(cd benchmark && cargo test --offline -q)

echo "==> cargo test (every crate)"
cargo test -q --workspace

echo "==> cargo test (DS_SIMD=off: ds-nn's scalar kernels)"
DS_SIMD=off cargo test -q --workspace

if [ "$mode" = "full" ]; then
  echo "==> release build"
  cargo build --release -q --workspace

  echo "==> dsqz serve (stdio smoke: GET/STAT/METRICS)"
  smoke_dir="$(mktemp -d)"
  ./target/release/dsqz gen monitor 200 "$smoke_dir/s.csv"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/s.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  echo "==> two front ends, one pipeline: compress (any chunk size), recompress"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/s.chunk.dsqz" \
    --epochs 3 --shard-rows 50 --chunk-rows 33 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s.chunk.dsqz"
  ./target/release/dsqz inspect "$smoke_dir/s.dsqz" \
    | grep -qE '^model: 1 expert\(s\), code size [0-9]+ × (4|8|16) bits$'
  ./target/release/dsqz recompress "$smoke_dir/s.csv" "$smoke_dir/s.re.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s.re.dsqz"
  ./target/release/dsqz compress "$smoke_dir/s.csv" "$smoke_dir/one.dsqz" \
    --epochs 3 --quiet
  ./target/release/dsqz inspect "$smoke_dir/one.dsqz" \
    | grep -q 'container: sharded, 1 row group(s)'
  echo "==> dsqz on CSV escapes (quoted commas, newlines, doubled quotes, a bare \\r)"
  printf 'name,n\n"a,b",1\n"line\nbreak",2\n"say ""hi""",3\n"cr\rhere",4\nplain,5\n' \
    > "$smoke_dir/esc.csv"
  ./target/release/dsqz compress "$smoke_dir/esc.csv" "$smoke_dir/esc.dsqz" \
    --error 0 --epochs 2 --quiet
  ./target/release/dsqz compress "$smoke_dir/esc.csv" "$smoke_dir/esc.chunk.dsqz" \
    --error 0 --epochs 2 --chunk-rows 3 --quiet
  cmp "$smoke_dir/esc.dsqz" "$smoke_dir/esc.chunk.dsqz"
  ./target/release/dsqz decompress "$smoke_dir/esc.dsqz" "$smoke_dir/esc.out.csv"
  cmp "$smoke_dir/esc.csv" "$smoke_dir/esc.out.csv"
  echo "==> dsqz recompress (archive-as-source: byte-identity, no chains)"
  ./target/release/dsqz recompress "$smoke_dir/s.dsqz" "$smoke_dir/s2.dsqz" \
    --epochs 3 --shard-rows 50 --quiet
  cmp "$smoke_dir/s.dsqz" "$smoke_dir/s2.dsqz"
  ./target/release/dsqz inspect "$smoke_dir/s2.dsqz" \
    | grep -qx 'codec chains: not recorded (parq wire tags only)'
  echo "==> dsqz on a recorded chain section (read-only: inspect, STAT)"
  chains=crates/core/tests/golden/v2_chains.dsqz
  ./target/release/dsqz inspect "$chains" > "$smoke_dir/chains.txt"
  grep -qx 'codec chains (shard 0 column streams):' "$smoke_dir/chains.txt"
  [ "$(grep -c ': bitpack$' "$smoke_dir/chains.txt")" -eq 68 ]
  # Captured first: `grep -q` on the pipe could exit before `serve` writes
  # its last line, and the broken pipe failed the step now and then.
  printf 'STAT\nQUIT\n' | ./target/release/dsqz serve "$chains" \
    > "$smoke_dir/chains.stat"
  grep -q ' codecs=bitpack$' "$smoke_dir/chains.stat"

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

  echo "==> dsqz on a lossy numeric v2 archive (decompress and GET print the committed bytes)"
  numeric=crates/core/tests/golden/v2_numeric.dsqz
  numeric_csv=crates/core/tests/golden/expected_numeric.csv
  ./target/release/dsqz decompress "$numeric" "$smoke_dir/numeric.csv"
  cmp "$smoke_dir/numeric.csv" "$numeric_csv"
  n="$(($(wc -l < "$numeric_csv") - 1))"
  printf 'GET 0..%d\nQUIT\n' "$n" \
    | ./target/release/dsqz serve "$numeric" > "$smoke_dir/numeric.out"
  head -n 1 "$smoke_dir/numeric.out" | grep -qx "OK $n"
  tail -n +2 "$numeric_csv" > "$smoke_dir/numeric.want"
  sed -n "2,$((n + 1))p" "$smoke_dir/numeric.out" | cmp - "$smoke_dir/numeric.want"
  # A traced decode prints the same bytes, and every shard decode span
  # holds each stage of the shard-decode breakdown (DESIGN.md §3 ds-shard).
  ./target/release/dsqz decompress "$numeric" "$smoke_dir/numeric.traced.csv" \
    --trace "$smoke_dir/decode.jsonl"
  cmp "$smoke_dir/numeric.traced.csv" "$numeric_csv"
  shard_ids="$(sed -n 's/.*"id":"\([0-9a-f]*\)".*"name":"[a-z.]*decode_shard".*/\1/p' \
    "$smoke_dir/decode.jsonl")"
  [ -n "$shard_ids" ]
  for id in $shard_ids; do
    for stage in codes failures labels nn_forward fill; do
      if ! grep -q "\"parent\":\"$id\",\"name\":\"$stage\"" "$smoke_dir/decode.jsonl"; then
        echo "decode trace: no $stage span under shard span $id"
        exit 1
      fi
    done
  done

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
