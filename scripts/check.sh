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
[ "$allows" -le 3 ] || {
  echo "ds-lint suppressions grew: $allows > 3"
  exit 1
}
# ds-codec parses every untrusted byte, so its non-test source is checked
# by every rule with no exemption at all.
if sed -s '/^#\[cfg(test)\]/,$d' crates/codec/src/*.rs | grep -n 'ds-lint: allow'; then
  echo "ds-codec suppresses a ds-lint rule again"
  exit 1
fi

# One in-memory form for a categorical column (pool + codes): no string
# payload, and no string sentinel on the decode path, in non-test code.
if sed -s '/^#\[cfg(test)\]/,$d' crates/table/src/column.rs crates/table/src/table.rs \
  crates/core/src/pipeline.rs | grep -nE 'RARE_SENTINEL|(Cat|Str)\(Vec<String>\)'; then
  echo "a Vec<String> column payload or RARE_SENTINEL is back"
  exit 1
fi

# One CSV record form (csv::CsvChunk): both passes hold a chunk as one
# byte buffer plus field offsets, never a string per cell, in non-test code.
if sed -s '/^#\[cfg(test)\]/,$d' crates/table/src/*.rs crates/core/src/*.rs \
  | grep -n 'Vec<Vec<String>>'; then
  echo "a Vec<Vec<String>> of CSV records is back in ds-table or ds-core"
  exit 1
fi

# One Huffman decoder (DESIGN.md, ds-codec): a symbol is resolved from a
# peeked word, through the decode table or the canonical walk over that
# word, never read one bit at a time; and gzlike decodes in its one loop
# over a local bit buffer, not through a BitReader, in non-test code.
if sed '/^#\[cfg(test)\]/,$d' crates/codec/src/huffman.rs | grep -n 'read_bit('; then
  echo "huffman.rs decodes with a per-bit read_bit loop again"
  exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/codec/src/gzlike.rs | grep -n 'BitReader'; then
  echo "gzlike.rs decodes through a BitReader again (one loop over a local bit buffer)"
  exit 1
fi

# One loop per codec stage (DESIGN.md §3f): ds-codec's loops run the same
# on every host, in safe Rust, so its non-test source selects no SIMD level
# and its manifest does not depend on ds-simd. DS_SIMD picks ds-nn kernels.
if { sed -s '/^#\[cfg(test)\]/,$d' crates/codec/src/*.rs \
  | grep -nE 'ds_simd|target_feature|dispatch'; } \
  || grep -n 'ds-simd' crates/codec/Cargo.toml; then
  echo "ds-codec selects a loop by SIMD level again (one loop per stage)"
  exit 1
fi

# One adaptive range-coding path (DESIGN.md, ds-codec): parq's ARITH codec
# and the expert labels code a whole stream through AdaptiveModel's
# encode_all / decode_all loops; the per-symbol coder (RangeEncoder,
# RangeDecoder, AdaptiveModel::encode / decode) is Squish's and the
# loops' test reference, never called from their non-test source.
if sed -s '/^#\[cfg(test)\]/,$d' crates/codec/src/parq.rs crates/core/src/materialize.rs \
  | grep -nE 'RangeEncoder|RangeDecoder|\.(en|de)code\(&mut '; then
  echo "parq.rs or materialize.rs range-codes one symbol at a time again (use encode_all / decode_all)"
  exit 1
fi

# One body per ds-nn kernel (DESIGN.md §3f): simd.rs writes each kernel once
# over `Lanes`, so its non-test source holds no aarch64 variant, no AVX2
# intrinsic outside the `__m256` lanes' module, and no `unsafe fn` but the
# `#[target_feature]` entry.
simd_rs="$(sed '/^#\[cfg(test)\]/,$d' crates/nn/src/simd.rs)"
if grep -n 'target_arch = "aarch64"' <<< "$simd_rs" \
  || sed '/^mod avx2 {$/,/^}$/d' <<< "$simd_rs" | grep -n '_mm256_' \
  || awk '/unsafe fn/ && prev !~ /#\[target_feature/ { print NR ": " $0; bad = 1 }
      { prev = $0 } END { exit !bad }' <<< "$simd_rs"; then
  echo "simd.rs writes a kernel twice again (aarch64 code, an AVX2 intrinsic outside the lanes, or an unsafe fn)"
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

# One categorical head path (DESIGN.md §3f, "Row lanes"): the shared
# layer's logits, softmax, cross-entropy and backward run in ds-nn's simd
# kernels, for training, assignment and decode alike; the autoencoder hands
# them a column and computes none of it itself.
if sed '/^#\[cfg(test)\]/,$d' crates/nn/src/autoencoder.rs \
  | grep -nE '\.exp\(|NEG_INFINITY|\.max\(1e-7\)|shared\.w\.(row|get)|fn (softmax|shared_(probs|backward))'; then
  echo "autoencoder.rs computes a categorical logit or softmax outside the simd kernels"
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
