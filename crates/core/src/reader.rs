//! The one way to read an archive: a decoding handle over any
//! positioned-read source.
//!
//! Three layers, each adding exactly one thing (DESIGN §3b):
//!
//! 1. [`ds_shard::ShardReader`] — framing: footer, manifest, CRC-checked
//!    shard blobs.
//! 2. [`ArchiveReader`] (this module) — decoding: the shared decoder
//!    parsed once, "decode shard *i* and check its row count against the
//!    manifest", the range stitch, the ordered sweep.
//! 3. `ds_serve::Archive` — a cache of decoded shards.
//!
//! [`crate::decompress`], [`crate::decompress_rows_with_stats`],
//! [`crate::inspect`], [`crate::open_source`], `dsqz` and the server are
//! all thin calls into layer 2 or 3. A v1 `DSQZ` archive opens through
//! the same handle as a container of one shard (itself), so none of them
//! branches on the container kind.

use crate::archive::{MAGIC, VERSION};
use crate::pipeline::{ShardDecoder, ShardedDecodeStats};
use crate::Result;
use ds_codec::ByteReader;
use ds_obs::SpanId;
use ds_shard::{ReadAt, ShardEntry, ShardError, ShardReader};
use ds_table::Table;
use std::borrow::Cow;
use std::ops::Range;

/// Longest prefix of a v1 archive that holds its row count: magic,
/// version byte, one varint.
const V1_HEAD: usize = 4 + 1 + 10;

/// The row count a v1 archive declares in its header; `None` when `src`
/// does not start with the v1 magic.
fn v1_rows<R: ReadAt>(src: &R) -> std::result::Result<Option<usize>, ShardError> {
    let len = usize::try_from(src.size()?).map_or(V1_HEAD, |n| n.min(V1_HEAD));
    let head = src.read_at(0, len)?;
    let Some(rest) = head.strip_prefix(MAGIC) else {
        return Ok(None);
    };
    let mut r = ByteReader::new(rest);
    if r.read_u8()? != VERSION {
        return Err(ShardError::Corrupt("unsupported archive version"));
    }
    Ok(Some(r.read_varint_usize()?))
}

/// What reading one row range takes: the request clamped to the table,
/// and the shards that intersect it (none for an empty request).
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// The requested rows, clamped to the table.
    pub rows: Range<usize>,
    /// Indexes of the shards holding them.
    pub shards: Range<usize>,
}

impl ReadPlan {
    /// The part of [`rows`](Self::rows) that falls inside shard `entry`,
    /// in that shard's own row numbering.
    pub fn local(&self, entry: &ShardEntry) -> Range<usize> {
        let cut = |row: usize| row.min(entry.rows.end).saturating_sub(entry.rows.start);
        cut(self.rows.start)..cut(self.rows.end)
    }
}

/// The one ordered sweep: runs `work(k)` for every `k < n` on the ds-exec
/// pool and hands each result to `sink` on the calling thread in
/// ascending `k`, while later tasks are still running — so a full decode
/// holds one in-flight shard per worker, not the table. The first error
/// in that order, from either closure, is returned; nothing after it
/// reaches `sink`.
pub fn sweep<T: Send, E: Send>(
    n: usize,
    work: impl Fn(usize) -> std::result::Result<T, E> + Sync,
    mut sink: impl FnMut(usize, T) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut outcome = Ok(());
    ds_exec::parallel_map_consume(n, work, |k, result| {
        if outcome.is_ok() {
            outcome = result.and_then(|value| sink(k, value));
        }
    });
    outcome
}

/// An open archive — v2 container or v1 blob — ready to decode: the
/// container reader plus the shared decoder, imported once.
pub struct ArchiveReader<R: ReadAt> {
    shards: ShardReader<R>,
    decoder: ShardDecoder,
}

impl<R: ReadAt> ArchiveReader<R> {
    /// Opens `src` with two positioned reads (footer, manifest) and one
    /// decoder import. A source without the v2 footer that starts with a
    /// v1 header opens as one shard spanning all of it; anything else is
    /// [`ShardError::NotContainer`]. Every manifest defect, including a
    /// codec id this build does not know, fails here — the one place an
    /// archive is opened.
    pub fn open(src: R) -> Result<Self> {
        let shards = ShardReader::open_or_unframed(src, v1_rows)?;
        let decoder = ShardDecoder::from_shared_blob(shards.shared())?;
        Ok(ArchiveReader { shards, decoder })
    }

    /// The container view: row and shard counts, manifest entries,
    /// recorded codec chains.
    pub fn shards(&self) -> &ShardReader<R> {
        &self.shards
    }

    /// Fetches shard `i` (CRC-checked), decodes it inside a `span` child
    /// of `parent`, and checks the decoded row count against the
    /// manifest: a CRC-valid blob can still disagree with its entry, and
    /// stitching it anyway would silently misalign every later row.
    pub fn decode_shard(&self, i: usize, parent: SpanId, span: &'static str) -> Result<Table> {
        let blob = self.shards.shard_bytes(i)?;
        let _sp = ds_obs::span_under(parent, span, i as u64);
        let table = self.decoder.decode_shard(&blob)?;
        let declared = self.shards.entries().get(i).map(|e| e.rows.len());
        if declared != Some(table.nrows()) {
            return Err(
                ShardError::Corrupt("decoded shard row count disagrees with manifest").into(),
            );
        }
        Ok(table)
    }

    /// Clamps `rows` to the table and finds the shards it intersects.
    pub fn plan(&self, rows: Range<usize>) -> ReadPlan {
        let total = self.shards.total_rows();
        let start = rows.start.min(total);
        let rows = start..rows.end.min(total).max(start);
        ReadPlan {
            shards: self.shards.shards_intersecting(rows.clone()),
            rows,
        }
    }

    /// The one range stitch: cuts each decoded shard of `plan.shards`
    /// (`parts`, in shard order) to its overlap with `plan.rows` and
    /// concatenates the cuts. A wholly wanted part is used as it is, a
    /// partly wanted one is cut into a copy of the wanted rows. One part
    /// is then the answer — moved when it is the caller's to give away or
    /// already a cut, cloned when borrowed whole from a cache; several
    /// cost one `memcpy` of each one's numbers and categorical codes into
    /// the result. No cell's string is copied on any path: cuts, clones
    /// and the result share the parts' value pools.
    pub fn stitch(&self, plan: &ReadPlan, parts: Vec<Cow<'_, Table>>) -> Result<Table> {
        let entries = self
            .shards
            .entries()
            .get(plan.shards.clone())
            .filter(|entries| entries.len() == parts.len())
            .ok_or(ShardError::Corrupt("decoded shards do not match the plan"))?;
        let cuts: Vec<Cow<'_, Table>> = parts
            .into_iter()
            .zip(entries)
            .map(|(part, entry)| match plan.local(entry) {
                cut if cut == (0..part.nrows()) => part,
                cut => Cow::Owned(part.slice_rows(cut)),
            })
            .collect();
        match <[Cow<'_, Table>; 1]>::try_from(cuts) {
            Ok([only]) => Ok(only.into_owned()),
            Err(cuts) => Ok(Table::concat(&cuts)?),
        }
    }

    /// Uncached read of `rows`: decodes the intersecting shards in
    /// parallel (spans `decode_shard[i]` under `parent`) and stitches
    /// them. An empty range decodes shard 0 alone, for the schema its
    /// empty slice carries; that probe is not counted in the stats.
    pub fn read_rows(
        &self,
        rows: Range<usize>,
        parent: SpanId,
    ) -> Result<(Table, ShardedDecodeStats)> {
        let plan = self.plan(rows);
        let stats = ShardedDecodeStats {
            shards_total: self.shards.n_shards(),
            shards_decoded: plan.shards.len(),
        };
        if plan.shards.is_empty() {
            let probe = self.decode_shard(0, parent, "decode_shard")?;
            return Ok((probe.slice_rows(0..0), stats));
        }
        let mut parts = Vec::with_capacity(plan.shards.len());
        sweep(
            plan.shards.len(),
            |k| self.decode_shard(plan.shards.start + k, parent, "decode_shard"),
            |_, table| {
                parts.push(Cow::Owned(table));
                Ok(())
            },
        )?;
        Ok((self.stitch(&plan, parts)?, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, DsArchive, DsConfig, DsError};
    use ds_shard::ShardWriter;
    use ds_table::gen;

    fn cfg(shard_rows: usize) -> DsConfig {
        DsConfig {
            max_epochs: 2,
            shard_rows,
            ..DsConfig::default()
        }
    }

    /// 40 lossless rows in 4 shards of 10, with the table they decode to.
    fn four_shards() -> (DsArchive, Table) {
        let t = gen::census_like(40, 3);
        (compress(&t, &cfg(10)).expect("compresses"), t)
    }

    /// Re-frames `archive`'s shards, letting `edit` replace any shard's
    /// declared row count and blob (CRCs are recomputed, so they hold).
    fn reframe(
        archive: &DsArchive,
        edit: impl Fn(usize, usize, &[u8]) -> (usize, Vec<u8>),
    ) -> Vec<u8> {
        let reader = ShardReader::open(archive.as_bytes()).expect("opens");
        let mut writer = ShardWriter::new(Vec::new());
        writer.set_shared(reader.shared().to_vec());
        for (i, entry) in reader.entries().iter().enumerate() {
            let (rows, blob) = edit(i, entry.rows.len(), reader.shard_bytes(i).expect("blob"));
            writer.push_shard(rows, &blob).expect("pushes");
        }
        writer.finish().expect("finishes").0
    }

    #[test]
    fn read_rows_trims_and_counts_decoded_shards() {
        let (archive, t) = four_shards();
        let reader = ArchiveReader::open(archive.as_bytes()).expect("opens");
        let (got, stats) = reader.read_rows(15..32, ds_obs::ROOT).expect("reads");
        assert_eq!(got, t.slice_rows(15..32));
        assert_eq!((stats.shards_decoded, stats.shards_total), (3, 4));
        let plan = reader.plan(15..32);
        assert_eq!((plan.rows.clone(), plan.shards.clone()), (15..32, 1..4));
        let cuts: Vec<_> = reader.shards().entries()[1..4]
            .iter()
            .map(|e| plan.local(e))
            .collect();
        assert_eq!(cuts, [5..10, 0..10, 0..2]);
        // Clamped, out-of-range and empty requests: no shard counted, the
        // schema still there.
        let (tail, stats) = reader.read_rows(35..99, ds_obs::ROOT).expect("reads");
        assert_eq!((tail, stats.shards_decoded), (t.slice_rows(35..40), 1));
        for rows in [40..50, 7..7] {
            let (none, stats) = reader.read_rows(rows, ds_obs::ROOT).expect("reads");
            assert_eq!((none.nrows(), stats.shards_decoded), (0, 0));
            assert_eq!(none.schema(), t.schema());
        }
    }

    #[test]
    fn the_lowest_failing_shard_wins_at_any_thread_count() {
        let (archive, _) = four_shards();
        // Shard 1 lies about its rows; shards 2 and 3 are not archives.
        let bytes = reframe(&archive, |i, rows, blob| match i {
            1 => (rows + 5, blob.to_vec()),
            2 | 3 => (rows, b"junk".to_vec()),
            _ => (rows, blob.to_vec()),
        });
        for limit in [1, 2, 8] {
            let err = ds_exec::with_thread_limit(limit, || {
                ArchiveReader::open(&bytes)
                    .expect("the manifest itself is well formed")
                    .read_rows(0..45, ds_obs::ROOT)
                    .expect_err("three bad shards")
            });
            assert!(
                matches!(err, DsError::Shard(ShardError::Corrupt(what)) if what.contains("row count")),
                "limit {limit}: {err:?}"
            );
        }
    }

    #[test]
    fn sweep_stops_the_sink_at_the_first_error_in_index_order() {
        for limit in [1, 2, 8] {
            let mut seen = Vec::new();
            let got = ds_exec::with_thread_limit(limit, || {
                sweep(
                    6,
                    |k| if k % 2 == 1 { Err(k) } else { Ok(k) },
                    |k, v| {
                        seen.push((k, v));
                        Ok(())
                    },
                )
            });
            assert_eq!((got, seen), (Err(1), vec![(0, 0)]), "limit {limit}");
        }
        // An error from the sink ends the sweep the same way.
        let got = sweep(
            4,
            Ok::<_, usize>,
            |k, _| if k == 2 { Err(k) } else { Ok(()) },
        );
        assert_eq!(got, Err(2));
    }

    #[test]
    fn a_flipped_bit_fails_that_shard_and_no_other() {
        let (archive, t) = four_shards();
        let mut bytes = archive.as_bytes().to_vec();
        let entry = ShardReader::open(&bytes).expect("opens").entries()[2].clone();
        bytes[entry.offset + entry.len / 2] ^= 0x04;
        let reader = ArchiveReader::open(&bytes).expect("the manifest is intact");
        let err = reader.read_rows(0..40, ds_obs::ROOT).expect_err("bad CRC");
        assert!(
            matches!(err, DsError::Shard(ShardError::CrcMismatch { shard: 2 })),
            "{err:?}"
        );
        let (head, _) = reader
            .read_rows(0..20, ds_obs::ROOT)
            .expect("clean shards read");
        assert_eq!(head, t.slice_rows(0..20));
    }

    #[test]
    fn a_v1_archive_is_a_container_of_one_shard() {
        let t = gen::monitor_like(90, 8);
        let trained = crate::TrainedCompressor::train(
            &t,
            &DsConfig {
                error_threshold: 0.1,
                n_experts: 2,
                ..cfg(0)
            },
        )
        .expect("trains");
        for order_free in [false, true] {
            // `compress_batch` never writes order-free storage; old
            // order-free v1 files came from a direct materialize call.
            let v1 = if order_free {
                use crate::materialize::{materialize_with_patches, MaterializeOptions};
                let (prep, _) = crate::preprocess::apply_plans(&t, &trained.plans).expect("plans");
                let model = trained.model().expect("a model");
                let assigned = model
                    .assign_with_codes(&prep.x, &prep.cat_targets, None)
                    .expect("assigns");
                let opts = MaterializeOptions {
                    code_bits: trained.code_bits(),
                    order_free: true,
                    omit_decoder: false,
                };
                materialize_with_patches(&t, &prep, Some((model, &assigned)), &[], &opts)
                    .expect("materializes")
            } else {
                trained.compress_batch(&t).expect("compresses")
            };
            let full = decompress(&v1).expect("decodes");
            let reader = ArchiveReader::open(v1.as_bytes()).expect("opens");
            let shards = reader.shards();
            assert!(shards.is_unframed());
            assert_eq!((shards.n_shards(), shards.total_rows()), (1, 90));
            assert_eq!(shards.entries()[0].crc, None, "v1 records no CRC");
            let whole = reader.decode_shard(0, ds_obs::ROOT, "decode_shard");
            assert_eq!(whole.expect("decodes"), full, "order_free {order_free}");
            let (part, stats) = reader.read_rows(20..55, ds_obs::ROOT).expect("reads");
            assert_eq!(part, full.slice_rows(20..55));
            assert_eq!((stats.shards_decoded, stats.shards_total), (1, 1));
        }
    }

    #[test]
    fn unrecognised_and_half_recognised_inputs_fail_typed_at_open() {
        let open = |bytes: &[u8]| {
            ArchiveReader::open(bytes)
                .map(|_| ())
                .expect_err("not an archive")
        };
        for garbage in [&b""[..], b"DS", b"definitely not an archive"] {
            assert!(matches!(
                open(garbage),
                DsError::Shard(ShardError::NotContainer)
            ));
        }
        assert!(matches!(
            open(b"DSQZ\x63rest"),
            DsError::Shard(ShardError::Corrupt("unsupported archive version"))
        ));
        assert!(matches!(
            open(b"DSQZ"),
            DsError::Shard(ShardError::Codec(_))
        ));
    }

    #[test]
    fn a_file_reads_like_the_bytes_it_holds() {
        let (archive, t) = four_shards();
        let path = std::env::temp_dir().join(format!("ds_core_reader_{}", std::process::id()));
        std::fs::write(&path, archive.as_bytes()).expect("writes");
        let file = std::fs::File::open(&path).expect("opens");
        let reader = ArchiveReader::open(file).expect("opens");
        let (got, _) = reader.read_rows(5..38, ds_obs::ROOT).expect("reads");
        assert_eq!(got, t.slice_rows(5..38));
        let _ = std::fs::remove_file(&path);
    }
}
