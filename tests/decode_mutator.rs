//! The decoder under attack: hostile bytes must give a typed error, never a
//! panic, and never an allocation the bytes do not back (DESIGN.md §3h).
//!
//! A counting global allocator records the largest single allocation made
//! while it is armed, from any thread, so ds-exec pool workers count too.
//! Every case checks one property:
//!
//! * no panic;
//! * an `Err` made no single allocation above [`ERR_BUDGET`] (16 MiB);
//! * an `Ok` made none above `max(ERR_BUDGET, 4 × output bytes)`.
//!
//! A budget derived from the input size cannot hold: one RLE pair
//! legitimately expands 2^28-fold. What the property catches is a declared
//! length that sizes an allocation before the data backs it.
//!
//! Two seeded parts share the property:
//!
//! * the **codec sweep** writes header bombs (huge varints) at every offset
//!   of valid encodings, for every codec decoder and for `parq`;
//! * the **archive mutator** runs ~1,500 mutated archives, built from the
//!   golden fixtures and a fresh monitor archive, through the read entry
//!   points round-robin: bit flips, bombs, truncations, shard-blob edits
//!   re-framed with a valid CRC, and shard swaps.
//!
//! Cases the mutator found are kept in [`RECIPES`].
//!
//! The tests share the allocator's counters, so a static mutex runs them
//! one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};

use ds_codec::dict::Dictionary;
use ds_codec::parq::{self, ParqColumn};
use ds_codec::{delta, gzlike, huffman, lzss, registry, ByteReader};
use ds_core::{compress, decompress, decompress_rows_with_stats, open_source, DsArchive, DsConfig};
use ds_serve::Archive;
use ds_shard::{ShardReader, ShardWriter};
use ds_table::gen;
use ds_table::stream::RowSource;
use rand::prelude::*;

/// The largest single allocation a failed decode may make.
const ERR_BUDGET: usize = 16 << 20;

// ---------------------------------------------------------------------------
// The counting allocator
// ---------------------------------------------------------------------------

/// Whether allocations are being measured.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The largest single allocation (or reallocation target) seen while armed.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic update.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One test at a time: they share [`ARMED`] and [`LARGEST`].
static SERIAL: Mutex<()> = Mutex::new(());
/// Where the last panic inside a case happened.
static PANIC_AT: Mutex<String> = Mutex::new(String::new());

/// Serializes the calling test and, once per process, installs a panic
/// hook that stays quiet inside a case (recording where it panicked) and
/// reports as usual outside one.
fn exclusive() -> MutexGuard<'static, ()> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ARMED.load(Ordering::SeqCst) {
                return report(info);
            }
            if let (Some(at), Ok(mut slot)) = (info.location(), PANIC_AT.lock()) {
                *slot = format!("{}:{}", at.file(), at.line());
            }
        }));
    });
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one decode with the allocator armed. `decode` returns its
/// output's size in bytes. The result is the decode's own outcome when the
/// property holds, or what broke it.
fn checked(
    decode: impl FnOnce() -> Result<usize, String>,
) -> Result<Result<usize, String>, String> {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    ARMED.store(false, Ordering::SeqCst);
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    let largest = LARGEST.load(Ordering::SeqCst);
    match outcome {
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let at = PANIC_AT.lock().map(|s| s.clone()).unwrap_or_default();
            Err(format!("panicked at {at}: {what}"))
        }
        Ok(Err(e)) if largest > ERR_BUDGET => Err(format!(
            "Err({e}) after a {:.0} MiB allocation",
            mib(largest)
        )),
        Ok(Ok(out)) if largest > ERR_BUDGET.max(out.saturating_mul(4)) => Err(format!(
            "Ok({out} bytes) after a {:.0} MiB allocation",
            mib(largest)
        )),
        Ok(result) => Ok(result),
    }
}

// ---------------------------------------------------------------------------
// Part 1: the codec sweep
// ---------------------------------------------------------------------------

/// Varint header bombs: declared counts and lengths no honest stream of
/// this size carries.
const BOMBS: &[&[u8]] = &[
    &[0xff, 0xff, 0xff, 0x7f],       // 2^28 - 1, just under MAX_DECODE_ELEMS
    &[0xff, 0xff, 0x7f],             // 2^21 - 1
    &[0x80, 0x80, 0x80, 0x40],       // 2^27
    &[0xff, 0xff, 0xff, 0xff, 0x0f], // 2^32 - 1
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f], // 2^63 - 1
];

/// `bytes` with `patch` written over it at `at`, growing it if needed.
fn overwritten(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out.resize(out.len().max(at + patch.len()), 0);
    out[at..at + patch.len()].copy_from_slice(patch);
    out
}

/// `bytes` with `patch` inserted at `at`.
fn inserted(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out.splice(at..at, patch.iter().copied());
    out
}

type Decoder = Box<dyn Fn(&[u8]) -> Result<usize, String>>;

/// A decoder and the valid encodings it is attacked through.
struct Target {
    name: String,
    encodings: Vec<Vec<u8>>,
    decode: Decoder,
}

fn bytes_of<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Text with repeats, so the LZ and Huffman coders have something to do.
fn sample_text() -> Vec<u8> {
    (0..40)
        .map(|i| format!("{},sensor-{},{}.{}\n", i, i % 3, i * 37 % 101, i % 10))
        .collect::<String>()
        .into_bytes()
}

/// A table with one column of each parq type. The f64 column is
/// low-cardinality and short, so it takes the value-dictionary layout with
/// no entropy stage: its declared distinct count is in reach of a bomb.
fn four_type_table() -> Vec<(String, ParqColumn)> {
    let n = 96;
    vec![
        (
            "u".into(),
            ParqColumn::U32((0..n).map(|i| i * 7 % 13).collect()),
        ),
        (
            "i".into(),
            ParqColumn::I64((0..n).map(|i| i64::from(i * i) - 40).collect()),
        ),
        (
            "f".into(),
            ParqColumn::F64(
                (0..n)
                    .map(|i| [0.5, -2.25, 1e9, 3.75][i as usize % 4])
                    .collect(),
            ),
        ),
        (
            "s".into(),
            ParqColumn::Str((0..n).map(|i| format!("k{}", i % 5)).collect()),
        ),
    ]
}

fn codec_targets() -> Vec<Target> {
    let samples: Vec<Vec<u32>> = vec![
        (0..200).map(|i| i * 3 % 11).collect(),
        (0..200).map(|i| u32::from(i % 7 == 0)).collect(),
        [vec![5; 50], vec![9; 40], vec![0; 30]].concat(),
    ];
    let mut targets: Vec<Target> = registry::u32_codecs()
        .iter()
        .map(|codec| Target {
            name: format!(
                "u32 codec {}",
                registry::name(codec.id.raw()).unwrap_or("?")
            ),
            encodings: samples.iter().filter_map(|v| (codec.encode)(v)).collect(),
            decode: Box::new(move |b| (codec.decode)(b).map(|v| bytes_of(&v)).map_err(text)),
        })
        .collect();
    let sample = sample_text();
    let ints: Vec<i64> = (0..200).map(|i| (i * i) % 977 - 300).collect();
    targets.push(Target {
        name: "delta::decode_i64".into(),
        encodings: vec![delta::encode_i64(&ints)],
        decode: Box::new(|b| delta::decode_i64(b).map(|v| bytes_of(&v)).map_err(text)),
    });
    targets.push(Target {
        name: "gzlike::decompress".into(),
        encodings: vec![gzlike::compress(&sample)],
        decode: Box::new(|b| gzlike::decompress(b).map(|v| v.len()).map_err(text)),
    });
    targets.push(Target {
        name: "lzss::decompress".into(),
        encodings: vec![lzss::compress(&sample)],
        decode: Box::new(|b| lzss::decompress(b).map(|v| v.len()).map_err(text)),
    });
    targets.push(Target {
        name: "huffman::decode_bytes".into(),
        encodings: vec![huffman::encode_bytes(&sample)],
        decode: Box::new(|b| huffman::decode_bytes(b).map(|v| v.len()).map_err(text)),
    });
    let words: Vec<String> = (0..30).map(|i| format!("value-{}", i * 13 % 17)).collect();
    targets.push(Target {
        name: "Dictionary::read_from".into(),
        encodings: vec![Dictionary::encode_column(&words).0.to_bytes()],
        decode: Box::new(|b| {
            Dictionary::read_from(&mut ByteReader::new(b))
                .map(|d| d.values().map(str::len).sum())
                .map_err(text)
        }),
    });
    let (table, stats) = parq::write_table(&four_type_table()).expect("writes");
    let f64_chain = &stats[2].chain;
    assert_eq!(
        f64_chain.first(),
        Some(&registry::DICT.raw()),
        "the f64 column must take the dictionary layout"
    );
    assert!(
        !f64_chain.contains(&registry::GZLIKE.raw()),
        "the f64 column must skip the entropy stage, or bombs never reach its header"
    );
    targets.push(Target {
        name: "parq::read_table".into(),
        encodings: vec![table],
        decode: Box::new(|b| {
            parq::read_table(b)
                .map(|cols| {
                    cols.iter()
                        .map(|(_, c)| match c {
                            ParqColumn::U32(v) => bytes_of(v),
                            ParqColumn::I64(v) => bytes_of(v),
                            ParqColumn::F64(v) => bytes_of(v),
                            ParqColumn::Str(v) => v.iter().map(String::len).sum(),
                        })
                        .sum()
                })
                .map_err(text)
        }),
    });
    targets
}

/// Every bomb, overwriting and inserted, at every offset of every valid
/// encoding of every target. A target's sweep stops at its first
/// violation, which is the one reported.
#[test]
fn header_bombs_at_every_offset_of_every_codec() {
    let _serial = exclusive();
    let mut failures = Vec::new();
    let mut cases = 0usize;
    'target: for t in codec_targets() {
        assert!(!t.encodings.is_empty(), "{}: no valid encoding", t.name);
        for (k, enc) in t.encodings.iter().enumerate() {
            assert!(
                matches!(checked(|| (t.decode)(enc)), Ok(Ok(_))),
                "{}: encoding {k} does not round-trip",
                t.name
            );
            for at in 0..=enc.len() {
                for bomb in BOMBS {
                    for (how, bytes) in [
                        ("over", overwritten(enc, at, bomb)),
                        ("into", inserted(enc, at, bomb)),
                    ] {
                        cases += 1;
                        if let Err(v) = checked(|| (t.decode)(&bytes)) {
                            let bomb_hex: Vec<String> =
                                bomb.iter().map(|b| format!("{b:02x}")).collect();
                            let line = format!(
                                "{}: encoding {k}, bomb {} written {how} offset {at}: {v}",
                                t.name,
                                bomb_hex.join(" ")
                            );
                            eprintln!("{line}");
                            failures.push(line);
                            continue 'target;
                        }
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(cases > 30_000, "the sweep shrank to {cases} cases");
}

// ---------------------------------------------------------------------------
// Part 2: the archive mutator
// ---------------------------------------------------------------------------

struct Fixture {
    name: &'static str,
    bytes: Vec<u8>,
    rows: usize,
}

fn golden(name: &'static str) -> Fixture {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/core/tests/golden")
        .join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Fixture {
        name,
        bytes,
        rows: 150,
    }
}

/// The goldens (v1 monolithic, v2 sharded, v2 with a forged codec id),
/// plus a two-expert monitor archive in six shards, built once.
fn fixtures() -> &'static [Fixture] {
    static ALL: OnceLock<Vec<Fixture>> = OnceLock::new();
    ALL.get_or_init(|| {
        let cfg = DsConfig {
            error_threshold: 0.05,
            max_epochs: 2,
            n_experts: 2,
            shard_rows: 50,
            seed: 5,
            ..DsConfig::default()
        };
        let monitor = compress(&gen::monitor_like(300, 11), &cfg).expect("compresses");
        vec![
            golden("v1.dsqz"),
            golden("v2.dsqz"),
            golden("v2_forged.dsqz"),
            Fixture {
                name: "monitor_like",
                bytes: monitor.as_bytes().to_vec(),
                rows: 300,
            },
        ]
    })
}

fn fixture(name: &str) -> &'static Fixture {
    fixtures()
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fixture {name}"))
}

/// A v2 container taken apart: shared blob, `(rows, blob)` per shard, and
/// the recorded codec chains, if any.
#[derive(Clone)]
struct Framed {
    shared: Vec<u8>,
    shards: Vec<(usize, Vec<u8>)>,
    chains: Option<Vec<Vec<Vec<u16>>>>,
}

/// `None` for bytes whose manifest does not open: a v1 archive, whose one
/// "shard" is the whole file with no CRC, or the forged chain id.
fn unframe(bytes: &[u8]) -> Option<Framed> {
    let reader = ShardReader::open(bytes).ok()?;
    let shards = (0..reader.n_shards())
        .map(|i| {
            let rows = reader.entries()[i].rows.len();
            (rows, reader.shard_bytes(i).expect("blob").to_vec())
        })
        .collect();
    let chains = reader.chains().map(|c| {
        (0..reader.n_shards())
            .map(|i| {
                (0..c.n_cols())
                    .map(|col| c.chain(i, col).expect("chain").to_vec())
                    .collect()
            })
            .collect()
    });
    Some(Framed {
        shared: reader.shared().to_vec(),
        shards,
        chains,
    })
}

/// Writes the container back with fresh, valid CRCs.
fn reframe(f: &Framed) -> Vec<u8> {
    let mut w = ShardWriter::new(Vec::new());
    w.set_shared(f.shared.clone());
    for (i, (rows, blob)) in f.shards.iter().enumerate() {
        match &f.chains {
            Some(chains) => w.push_shard_with_chains(*rows, blob, chains[i].clone()),
            None => w.push_shard(*rows, blob),
        }
        .expect("pushes");
    }
    w.finish().expect("finishes").0
}

/// `patch` written over shard `shard`'s blob at `offset`, re-framed so the
/// CRC holds; for an unframed fixture, over the file itself.
fn shard_edit(bytes: &[u8], shard: usize, offset: usize, patch: &[u8]) -> Vec<u8> {
    match unframe(bytes) {
        Some(mut f) => {
            let blob = &mut f.shards[shard].1;
            *blob = overwritten(blob, offset, patch);
            reframe(&f)
        }
        None => overwritten(bytes, offset, patch),
    }
}

/// The read entry points of `crates/cli/tests/forged_rows.rs`, minus the
/// CLI.
const ENTRY_POINTS: [&str; 5] = [
    "decompress",
    "decompress_rows_with_stats",
    "open_source(..).chunks()",
    "Archive::read_rows",
    "Archive::stream_csv",
];

/// Reads `bytes` through entry point `entry`, returning the output size.
/// `path` is where the file-based entry point finds the bytes.
fn read_through(
    entry: usize,
    bytes: &[u8],
    rows: Range<usize>,
    path: &Path,
) -> Result<usize, String> {
    match entry {
        0 => decompress(&DsArchive::from_bytes(bytes.to_vec()))
            .map(|t| t.mem_size())
            .map_err(text),
        1 => decompress_rows_with_stats(&DsArchive::from_bytes(bytes.to_vec()), rows)
            .map(|(t, _)| t.mem_size())
            .map_err(text),
        2 => {
            let source = open_source(path, 64).map_err(text)?;
            let chunks = source.chunks().map_err(text)?;
            chunks.map(|c| c.map(|t| t.mem_size()).map_err(text)).sum()
        }
        3 => Archive::open(bytes.to_vec())
            .and_then(|a| a.read_rows(rows))
            .map(|t| t.mem_size())
            .map_err(text),
        _ => {
            let a = Archive::open(bytes.to_vec()).map_err(text)?;
            let mut out = Vec::new();
            a.stream_csv(0..a.total_rows(), &mut out, true)
                .map_err(text)?;
            Ok(out.len())
        }
    }
}

/// A scratch file for the file-based entry point, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        Scratch(
            std::env::temp_dir().join(format!("dsqz_decode_mutator_{}.dsqz", std::process::id())),
        )
    }

    /// Reads `bytes` through `entry` under [`checked`].
    fn attack(
        &self,
        entry: usize,
        bytes: &[u8],
        rows: Range<usize>,
    ) -> Result<Result<usize, String>, String> {
        if entry == 2 {
            std::fs::write(&self.0, bytes).expect("writes the scratch file");
        }
        checked(|| read_through(entry, bytes, rows, &self.0))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// How much of a shard blob counts as its head for targeted edits.
const HEAD_BYTES: usize = 512;

/// One seeded mutation of `fx`, described for the report.
fn mutate(fx: &Fixture, framed: Option<&Framed>, rng: &mut StdRng) -> (String, Vec<u8>) {
    let bytes = &fx.bytes;
    let kind = rng.gen_range(0..5usize);
    match (kind, framed) {
        (3, Some(f)) => {
            let shard = rng.gen_range(0..f.shards.len());
            let blob = &f.shards[shard].1;
            // Half the edits land in the blob's head: the names, column
            // plans and code layout every decode parses before any data.
            let span = if rng.gen_bool(0.5) {
                blob.len().min(HEAD_BYTES)
            } else {
                blob.len()
            };
            let offset = rng.gen_range(0..span);
            let patch = if rng.gen_bool(0.5) {
                vec![blob[offset] ^ (1 << rng.gen_range(0..8u32))]
            } else {
                BOMBS[rng.gen_range(0..BOMBS.len())].to_vec()
            };
            let desc = format!("shard {shard} edit at {offset}: {patch:02x?}");
            (desc, shard_edit(bytes, shard, offset, &patch))
        }
        (4, Some(f)) if f.shards.len() > 1 => {
            let i = rng.gen_range(0..f.shards.len());
            let j = (i + rng.gen_range(1..f.shards.len())) % f.shards.len();
            let mut swapped = f.clone();
            swapped.shards[i].1.clone_from(&f.shards[j].1);
            swapped.shards[j].1.clone_from(&f.shards[i].1);
            (
                format!("shard blobs {i} and {j} swapped"),
                reframe(&swapped),
            )
        }
        (1, _) => {
            let at = rng.gen_range(0..bytes.len());
            let bomb = BOMBS[rng.gen_range(0..BOMBS.len())];
            (
                format!("bomb {bomb:02x?} at {at}"),
                overwritten(bytes, at, bomb),
            )
        }
        (2, _) => {
            let cut = rng.gen_range(0..bytes.len());
            (format!("truncated to {cut}"), bytes[..cut].to_vec())
        }
        _ => {
            let at = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            let mut out = bytes.clone();
            out[at] ^= 1 << bit;
            (format!("bit {bit} of byte {at} flipped"), out)
        }
    }
}

/// Cases per fixture.
const CASES: usize = 375;

#[test]
fn mutated_archives_give_typed_errors_within_budget() {
    let _serial = exclusive();
    let scratch = Scratch::new();
    let mut rng = StdRng::seed_from_u64(0x00d5_c0de);
    let mut failures = Vec::new();
    for fx in fixtures() {
        let framed = unframe(&fx.bytes);
        // The unmutated fixture keeps the property too.
        for (entry, entry_name) in ENTRY_POINTS.iter().enumerate() {
            if let Err(v) = scratch.attack(entry, &fx.bytes, 0..fx.rows) {
                failures.push(format!("{} as written, {entry_name}: {v}", fx.name));
            }
        }
        for case in 0..CASES {
            let (what, bytes) = mutate(fx, framed.as_ref(), &mut rng);
            let start = rng.gen_range(0..fx.rows);
            let rows = start..start + rng.gen_range(1..fx.rows);
            let entry = case % ENTRY_POINTS.len();
            if let Err(v) = scratch.attack(entry, &bytes, rows) {
                let line = format!(
                    "{} case {case} ({what}), {}: {v}",
                    fx.name, ENTRY_POINTS[entry]
                );
                eprintln!("{line}");
                failures.push(line);
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Mutations that once broke a decoder, as `(fixture, shard, offset,
/// bytes)`: `bytes` written over shard `shard`'s blob at `offset`, the
/// container re-framed with a valid CRC (for v1, over the file itself).
/// Each is now a typed error on every entry point.
const RECIPES: &[(&str, usize, usize, &[u8])] = &[
    // A categorical plan's class count zeroed: `model_card - 1` underflowed
    // while filling the column.
    ("v2.dsqz", 0, 80, &[0x00]),
    ("v2.dsqz", 1, 321, &[0x00]),
    // A plan tag turned categorical: the remaining plans no longer match
    // the shared decoder's heads, and a simple slot indexed past the
    // simple head (`Mat::get`).
    ("v2.dsqz", 1, 72, &[0x03]),
    ("v2.dsqz", 1, 452, &[0x01]),
    ("v1.dsqz", 0, 71, &[0x03]),
    // A forged weight stream: a categorical card wider than the shared
    // layer sliced past its row.
    ("v1.dsqz", 0, 2161, &[0x7c]),
    // A forged layer size: a 256 MiB weight buffer allocated before the
    // stream ran out.
    ("v1.dsqz", 0, 2287, &[0x7e]),
];

#[test]
fn recorded_recipes_are_typed_errors_on_every_entry_point() {
    let _serial = exclusive();
    let scratch = Scratch::new();
    let mut failures = Vec::new();
    for &(name, shard, offset, patch) in RECIPES {
        let fx = fixture(name);
        let bytes = shard_edit(&fx.bytes, shard, offset, patch);
        for (entry, entry_name) in ENTRY_POINTS.iter().enumerate() {
            let broke = match scratch.attack(entry, &bytes, 0..fx.rows) {
                Ok(Err(_)) => continue,
                Ok(Ok(_)) => "decoded without an error".to_string(),
                Err(v) => v,
            };
            failures.push(format!(
                "{name} shard {shard} offset {offset} {patch:02x?}, {entry_name}: {broke}"
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
