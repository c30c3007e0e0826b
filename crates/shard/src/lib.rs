//! # ds-shard — sharded row-group archive container (v2)
//!
//! DeepSqueeze (§6) materializes one monolithic archive per table, so
//! decompression is all-or-nothing and peak memory scales with the table.
//! This crate adds a *container* layer that splits a table into
//! fixed-row-count row groups ("shards"), each compressed independently,
//! and lays them out so a reader can decode only the shards intersecting
//! a requested row range — in parallel — with per-shard CRC validation.
//!
//! The crate is deliberately semantics-free: shard blobs are opaque byte
//! strings (in practice each is a self-contained v1 DeepSqueeze archive
//! with its decoder weights hoisted into the shared blob), so the
//! container logic stays decoupled from the compression pipeline in
//! `ds-core`.
//!
//! ## Byte layout (container v2)
//!
//! ```text
//! ┌──────────────┬──────────────┬─────┬────────────────┬────────────────┐
//! │ shard blob 0 │ shard blob 1 │ ... │ manifest       │ footer (9 B)   │
//! └──────────────┴──────────────┴─────┴────────────────┴────────────────┘
//!
//! manifest := varint total_rows
//!           | len-prefixed shared blob          (opaque; may be empty)
//!           | len-prefixed parq table with columns
//!               "rows" U32  per-shard row count
//!               "len"  I64  per-shard byte length
//!               "crc"  U32  per-shard CRC-32 (IEEE) of the blob bytes
//!           | section*                          (optional, appended)
//!
//! section  := tag u8 | len-prefixed body
//!   tag 1  := per-shard per-column codec chains (see [`ShardChains`]):
//!             varint n_cols | varint n_dict
//!             | n_dict x (varint chain_len | chain_len x varint codec_id)
//!             | (n_shards * n_cols) x varint dict_index
//!
//! footer   := manifest_len u32 LE | version u8 | magic b"DSRG"
//! ```
//!
//! Sections are a *backward-compatible* manifest extension (still
//! container v2): readers skip section tags they do not know. The writer
//! appends none. Older builds wrote the tag-1 chain section under an
//! opt-in codec probe; this reader still parses it for `inspect` and
//! `STAT`, and decoding never consults it (parq's own wire bytes say how
//! each stream was encoded). Codec ids inside a chain section are
//! validated against [`ds_codec::registry`] at parse time — an id from
//! the future surfaces as the typed [`CodecError::UnknownCodec`], never a
//! panic.
//!
//! Shard byte offsets are not stored — they are the prefix sums of the
//! `len` column, which the reader reconstructs and cross-checks against
//! the actual container size. Detection is **footer-based**: a v2
//! container *starts* with its first shard blob (itself a v1 `DSQZ`
//! archive), so only the trailing magic distinguishes the formats.
//!
//! ## Reading
//!
//! [`ShardReader`] is the one reader of this layout, over any positioned-read
//! source ([`ReadAt`]): opening costs two reads (footer, manifest), each shard
//! blob one more, CRC-checked as it is fetched. Borrowed in-memory bytes are a
//! zero-copy source; a `File` is read with `pread` and never loaded whole.

use std::io::{self, Write};
use std::ops::{Deref, Range};

use ds_codec::{crc32, parq, registry, ByteReader, ByteWriter, CodecError};

/// Trailing magic identifying a v2 sharded container.
pub const FOOTER_MAGIC: &[u8; 4] = b"DSRG";

/// Container format version this crate reads and writes.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed footer size: `manifest_len: u32` + `version: u8` + magic.
pub const FOOTER_LEN: usize = 9;

/// Manifest section tag carrying per-shard per-column codec chains.
pub const SECTION_CODEC_CHAINS: u8 = 1;

/// Hard ceiling on one recorded codec chain's length. Real chains are
/// 1–4 stages; beyond this the manifest is corrupt, not ambitious.
pub const MAX_CHAIN_LEN: usize = 16;

/// Hard ceiling on distinct chains in one manifest's dictionary.
const MAX_CHAIN_DICT: usize = 1 << 16;

/// Hard ceiling on columns named by a chain section.
const MAX_CHAIN_COLS: usize = 1 << 20;

/// Errors surfaced by the container layer itself (framing, manifest,
/// integrity). Decode errors from shard *contents* are the caller's type.
#[derive(Debug)]
pub enum ShardError {
    /// The sink failed during a write, or the source during a read.
    Io(std::io::Error),
    /// The source does not end in the v2 footer magic, and the caller
    /// offered no other way to read it (see
    /// [`ShardReader::open_or_unframed`]): it is not a container at all.
    NotContainer,
    /// The manifest's parq section or varint framing was malformed.
    Codec(CodecError),
    /// A structural invariant of the container was violated (with detail).
    Corrupt(&'static str),
    /// A caller-supplied parameter was out of the supported range.
    Invalid(&'static str),
    /// A shard's bytes did not match the manifest checksum.
    CrcMismatch {
        /// Index of the failing shard.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard container i/o error: {e}"),
            ShardError::NotContainer => {
                write!(
                    f,
                    "not an archive: no container footer, no bare-blob header"
                )
            }
            ShardError::Codec(e) => write!(f, "shard manifest codec error: {e}"),
            ShardError::Corrupt(what) => write!(f, "corrupt shard container: {what}"),
            ShardError::Invalid(what) => write!(f, "invalid shard parameter: {what}"),
            ShardError::CrcMismatch { shard } => {
                write!(f, "shard {shard} failed CRC-32 validation")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<CodecError> for ShardError {
    fn from(e: CodecError) -> Self {
        ShardError::Codec(e)
    }
}

/// One manifest entry, with the byte offset reconstructed from prefix
/// sums at open time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Global row range this shard covers.
    pub rows: Range<usize>,
    /// Byte offset of the blob from the start of the container.
    pub offset: usize,
    /// Blob length in bytes.
    pub len: usize,
    /// CRC-32 (IEEE) of the blob bytes; `None` for the one shard of an
    /// unframed source, which has no manifest to record one in.
    pub crc: Option<u32>,
}

/// True when `bytes` carries the v2 sharded-container footer. Cheap
/// (magic + version + length plausibility); a positive answer still
/// requires [`ShardReader::open`] to validate the manifest.
pub fn is_sharded(bytes: &[u8]) -> bool {
    matches!(read_footer(&bytes), Ok(Some(_)))
}

/// Validates the fixed 9-byte footer and returns the manifest length it
/// declares; `None` when the magic is absent (not a container at all,
/// as opposed to a damaged one).
fn footer_manifest_len(footer: &[u8]) -> Result<Option<u64>, ShardError> {
    let Some((&[l0, l1, l2, l3, version], magic)) = footer.split_first_chunk::<5>() else {
        return Ok(None);
    };
    if magic != FOOTER_MAGIC {
        return Ok(None);
    }
    if version != FORMAT_VERSION {
        return Err(ShardError::Corrupt("unsupported container version"));
    }
    Ok(Some(u64::from(u32::from_le_bytes([l0, l1, l2, l3]))))
}

/// Reads the trailing footer of `src`: the length of the shard region
/// and of the manifest behind it, or `None` when `src` is not a
/// container. The first of the two positioned reads of an open.
fn read_footer<R: ReadAt>(src: &R) -> Result<Option<(u64, u64)>, ShardError> {
    let Some(body) = src.size()?.checked_sub(FOOTER_LEN as u64) else {
        return Ok(None);
    };
    let Some(manifest_len) = footer_manifest_len(&src.read_at(body, FOOTER_LEN)?)? else {
        return Ok(None);
    };
    if manifest_len > body {
        return Err(ShardError::Corrupt("manifest length exceeds container"));
    }
    Ok(Some((body - manifest_len, manifest_len)))
}

/// Per-shard, per-column codec chains recorded in a manifest's chain
/// section (tag [`SECTION_CODEC_CHAINS`]).
///
/// Chains repeat heavily across shards, so the wire format stores a
/// dictionary of distinct chains plus one dictionary index per
/// `(shard, column)` cell. Only archives older builds wrote under their
/// codec probe carry the section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChains {
    n_cols: usize,
    dict: Vec<Vec<u16>>,
    /// `n_shards * n_cols` dictionary indexes, shard-major.
    index: Vec<u32>,
}

impl ShardChains {
    /// Number of columns each shard records a chain for.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The distinct chains referenced by the index, in first-use order.
    pub fn dict(&self) -> &[Vec<u16>] {
        &self.dict
    }

    /// The codec-id chain of `col` in `shard`, outermost stage first.
    /// `None` when either index is out of range.
    pub fn chain(&self, shard: usize, col: usize) -> Option<&[u16]> {
        if col >= self.n_cols {
            return None;
        }
        let cell = shard.checked_mul(self.n_cols)?.checked_add(col)?;
        let ix = *self.index.get(cell)?;
        self.dict.get(ix as usize).map(|c| c.as_slice())
    }
}

/// Parses one chain-section body. Every count, chain length, codec id
/// and dictionary index is untrusted: bounds-checked, overflow-checked,
/// and the ids validated against the registry — an unknown id surfaces
/// as [`CodecError::UnknownCodec`] through [`ShardError::Codec`].
fn parse_chain_section(body: &[u8], n_shards: usize) -> Result<ShardChains, ShardError> {
    let mut r = ByteReader::new(body);
    let n_cols = r.read_varint_usize()?;
    if n_cols == 0 || n_cols > MAX_CHAIN_COLS {
        return Err(ShardError::Corrupt(
            "chain section column count implausible",
        ));
    }
    let n_dict = r.read_varint_usize()?;
    if n_dict > MAX_CHAIN_DICT {
        return Err(ShardError::Corrupt("chain dictionary implausibly large"));
    }
    let mut dict = Vec::with_capacity(n_dict.min(1024));
    for _ in 0..n_dict {
        let len = r.read_varint_usize()?;
        if len > MAX_CHAIN_LEN {
            return Err(ShardError::Corrupt("codec chain too long"));
        }
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            let id = u16::try_from(r.read_varint()?)
                .map_err(|_| ShardError::Corrupt("codec id exceeds u16"))?;
            chain.push(id);
        }
        registry::validate_chain(&chain)?;
        dict.push(chain);
    }
    let n_cells = n_shards
        .checked_mul(n_cols)
        .ok_or(ShardError::Corrupt("chain index size overflows"))?;
    let mut index = Vec::with_capacity(n_cells.min(1 << 20));
    for _ in 0..n_cells {
        let ix = r.read_varint_u32()?;
        if ix as usize >= dict.len() {
            return Err(ShardError::Corrupt("chain index out of dictionary range"));
        }
        index.push(ix);
    }
    if !r.is_empty() {
        return Err(ShardError::Corrupt("trailing bytes in chain section"));
    }
    Ok(ShardChains {
        n_cols,
        dict,
        index,
    })
}

/// A parsed manifest: the structural metadata of a v2 container,
/// decoupled from the shard blobs so it can be built from a positioned
/// read of just the manifest region.
struct ParsedManifest {
    total_rows: usize,
    /// Where the opaque shared blob sits inside the manifest region.
    shared: Range<usize>,
    /// Per-shard entries with offsets reconstructed from prefix sums.
    entries: Vec<ShardEntry>,
    chains: Option<ShardChains>,
}

/// Parses and validates the manifest region of a container whose shard
/// region (everything before the manifest) is `shard_region` bytes.
/// Validates every structural invariant: lengths non-negative and summing
/// to the shard region, row counts summing to the declared total. Typed
/// errors on any corruption — never panics.
fn parse_manifest(manifest: &[u8], shard_region: u64) -> Result<ParsedManifest, ShardError> {
    let shard_region = usize::try_from(shard_region)
        .map_err(|_| ShardError::Corrupt("shard region exceeds address space"))?;
    let mut r = ByteReader::new(manifest);
    let total_rows = usize::try_from(r.read_varint()?)
        .map_err(|_| ShardError::Corrupt("total row count overflows usize"))?;
    if total_rows > ds_codec::MAX_DECODE_ELEMS {
        return Err(ShardError::Corrupt("total row count exceeds decode limit"));
    }
    let shared_len = r.read_len_prefixed()?.len();
    let shared = r.position().saturating_sub(shared_len)..r.position();
    let parq_bytes = r.read_len_prefixed()?;
    let mut columns = parq::read_table(parq_bytes)?.into_iter();
    let (rows, lens, crcs) = match (
        columns.next(),
        columns.next(),
        columns.next(),
        columns.next(),
    ) {
        (
            Some((rn, parq::ParqColumn::U32(rows))),
            Some((ln, parq::ParqColumn::I64(lens))),
            Some((cn, parq::ParqColumn::U32(crcs))),
            None,
        ) if rn == "rows" && ln == "len" && cn == "crc" => (rows, lens, crcs),
        _ => return Err(ShardError::Corrupt("manifest table has wrong schema")),
    };
    if rows.len() != lens.len() || rows.len() != crcs.len() {
        return Err(ShardError::Corrupt("manifest column lengths disagree"));
    }
    let mut entries = Vec::with_capacity(rows.len());
    let mut offset = 0usize;
    let mut row_start = 0usize;
    for ((&nr, &len_raw), &crc) in rows.iter().zip(lens.iter()).zip(crcs.iter()) {
        let len =
            usize::try_from(len_raw).map_err(|_| ShardError::Corrupt("negative shard length"))?;
        let row_count = usize::try_from(nr)
            .map_err(|_| ShardError::Corrupt("shard row count overflows usize"))?;
        let row_end = row_start
            .checked_add(row_count)
            .ok_or(ShardError::Corrupt("shard row ranges overflow"))?;
        let end = offset
            .checked_add(len)
            .ok_or(ShardError::Corrupt("shard offsets overflow"))?;
        if end > shard_region {
            return Err(ShardError::Corrupt("shard lengths exceed shard region"));
        }
        entries.push(ShardEntry {
            rows: row_start..row_end,
            offset,
            len,
            crc: Some(crc),
        });
        offset = end;
        row_start = row_end;
    }
    if offset != shard_region {
        return Err(ShardError::Corrupt("shard lengths do not cover container"));
    }
    if row_start != total_rows {
        return Err(ShardError::Corrupt("shard rows do not sum to total"));
    }
    // Optional appended sections: tag byte + len-prefixed body. Unknown
    // tags are skipped so future manifest extensions stay readable by
    // this build (the reverse of the codec-id rule: sections are
    // advisory metadata, codec ids gate decodability).
    let mut chains = None;
    while !r.is_empty() {
        let tag = r.read_u8()?;
        let body = r.read_len_prefixed()?;
        if tag == SECTION_CODEC_CHAINS {
            if chains.is_some() {
                return Err(ShardError::Corrupt("duplicate chain section"));
            }
            chains = Some(parse_chain_section(body, entries.len())?);
        }
    }
    Ok(ParsedManifest {
        total_rows,
        shared,
        entries,
        chains,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends shard blobs to a sink and emits the manifest + footer on
/// [`finish`](ShardWriter::finish). Blobs must be pushed in index order.
pub struct ShardWriter<W: Write> {
    sink: W,
    written: u64,
    shared: Vec<u8>,
    rows: Vec<u32>,
    lens: Vec<i64>,
    crcs: Vec<u32>,
    total_rows: u64,
}

impl<W: Write> ShardWriter<W> {
    /// Starts a container over `sink`.
    pub fn new(sink: W) -> Self {
        ShardWriter {
            sink,
            written: 0,
            shared: Vec::new(),
            rows: Vec::new(),
            lens: Vec::new(),
            crcs: Vec::new(),
            total_rows: 0,
        }
    }

    /// Sets the opaque shared blob stored once in the manifest (e.g.
    /// decoder weights hoisted out of the per-shard archives).
    pub fn set_shared(&mut self, blob: Vec<u8>) {
        self.shared = blob;
    }

    /// Number of shards pushed so far.
    pub fn n_shards(&self) -> usize {
        self.rows.len()
    }

    /// Appends one shard blob covering `row_count` rows.
    pub fn push_shard(&mut self, row_count: usize, blob: &[u8]) -> Result<(), ShardError> {
        let index = self.rows.len() as u64;
        let mut sp = ds_obs::span_at("shard_flush", index);
        sp.add("bytes", blob.len() as u64);
        let row_count =
            u32::try_from(row_count).map_err(|_| ShardError::Invalid("shard row count > u32"))?;
        let len =
            i64::try_from(blob.len()).map_err(|_| ShardError::Invalid("shard blob > i64 bytes"))?;
        // CRC before the write so the blob is still hot in cache and the
        // two costs can be attributed separately.
        let t0 = ds_obs::now_us();
        let crc = crc32::crc32(blob);
        let t1 = ds_obs::now_us();
        ds_obs::hist_rt("shard.crc_us", t1.saturating_sub(t0));
        self.sink.write_all(blob)?;
        ds_obs::hist_rt("shard.flush_us", ds_obs::now_us().saturating_sub(t1));
        ds_obs::counter_at("shard.bytes", index, blob.len() as u64);
        self.written += blob.len() as u64;
        self.rows.push(row_count);
        self.lens.push(len);
        self.crcs.push(crc);
        self.total_rows += u64::from(row_count);
        Ok(())
    }

    /// Writes the manifest and footer, returning the sink and the total
    /// container size in bytes.
    pub fn finish(mut self) -> Result<(W, u64), ShardError> {
        let (parq_bytes, _stats) = parq::write_table(&[
            ("rows".to_string(), parq::ParqColumn::U32(self.rows)),
            ("len".to_string(), parq::ParqColumn::I64(self.lens)),
            ("crc".to_string(), parq::ParqColumn::U32(self.crcs)),
        ])?;
        let mut w = ByteWriter::new();
        w.write_varint(self.total_rows);
        w.write_len_prefixed(&self.shared);
        w.write_len_prefixed(&parq_bytes);
        let manifest = w.into_vec();
        let manifest_len = u32::try_from(manifest.len())
            .map_err(|_| ShardError::Invalid("manifest > u32 bytes"))?;
        self.sink.write_all(&manifest)?;
        self.sink.write_all(&manifest_len.to_le_bytes())?;
        self.sink.write_all(&[FORMAT_VERSION])?;
        self.sink.write_all(FOOTER_MAGIC)?;
        self.sink.flush()?;
        let total = self.written + manifest.len() as u64 + FOOTER_LEN as u64;
        Ok((self.sink, total))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A positioned-read byte source: the random-access analogue of `Read`.
///
/// Implementations must be safe to call from many threads at once
/// (`read_at` takes `&self`); `File` qualifies because pread does not
/// touch the shared cursor.
pub trait ReadAt: Send + Sync {
    /// What a read hands back: a borrow for in-memory bytes (zero-copy),
    /// an owned buffer for a file.
    type Bytes: Deref<Target = [u8]> + Send + Sync;

    /// Total size of the source in bytes.
    fn size(&self) -> io::Result<u64>;

    /// Reads exactly `len` bytes at `offset`, erroring (rather than
    /// short-reading) if the source ends first. `len` is the caller's to
    /// bound: an owning source allocates it.
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Self::Bytes>;
}

fn past_end() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of source")
}

/// Any borrowed in-memory bytes (`&[u8]`, `&Vec<u8>`, a mapping): reads
/// are sub-slices with the lifetime of the borrow, not of the reader.
impl<'a, T: AsRef<[u8]> + Sync + ?Sized> ReadAt for &'a T {
    type Bytes = &'a [u8];

    fn size(&self) -> io::Result<u64> {
        u64::try_from((*self).as_ref().len()).map_err(|_| past_end())
    }

    fn read_at(&self, offset: u64, len: usize) -> io::Result<&'a [u8]> {
        let start = usize::try_from(offset).map_err(|_| past_end())?;
        let end = start.checked_add(len).ok_or_else(past_end)?;
        (*self).as_ref().get(start..end).ok_or_else(past_end)
    }
}

/// Owned bytes are a source too (a server holding its archive in memory);
/// reads copy out, as a file's do.
impl ReadAt for Vec<u8> {
    type Bytes = Vec<u8>;

    fn size(&self) -> io::Result<u64> {
        self.as_slice().size()
    }

    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.as_slice().read_at(offset, len).map(<[u8]>::to_vec)
    }
}

impl ReadAt for std::fs::File {
    type Bytes = Vec<u8>;

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        std::os::unix::fs::FileExt::read_exact_at(self, &mut buf, offset)?;
        Ok(buf)
    }

    #[cfg(windows)]
    fn read_at(&self, mut offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::os::windows::fs::FileExt;
        let mut buf = vec![0u8; len];
        let mut rest = buf.as_mut_slice();
        while !rest.is_empty() {
            let n = self.seek_read(rest, offset)?;
            if n == 0 {
                return Err(past_end());
            }
            rest = rest.get_mut(n..).ok_or_else(past_end)?;
            offset = offset.saturating_add(n as u64);
        }
        Ok(buf)
    }
}

/// *The* reader of a v2 container, over any positioned-read source.
/// Opening reads and validates the footer and the manifest only; shard
/// blobs are fetched — and CRC-checked — one at a time, per
/// [`shard_bytes`](Self::shard_bytes) call.
pub struct ShardReader<R: ReadAt> {
    src: R,
    /// The manifest region as read at open, and where the shared blob
    /// sits inside it; `None` for an unframed source.
    manifest: Option<(R::Bytes, Range<usize>)>,
    entries: Vec<ShardEntry>,
    total_rows: usize,
    chains: Option<ShardChains>,
}

impl<R: ReadAt> ShardReader<R> {
    /// Reads the footer and the manifest (two positioned reads) and
    /// validates all structural invariants: lengths non-negative and
    /// summing to the shard region, row counts summing to the declared
    /// total. Returns a typed error on any truncated or corrupted input —
    /// never panics.
    pub fn open(src: R) -> Result<Self, ShardError> {
        Self::open_or_unframed(src, |_| Ok(None))
    }

    /// [`open`](Self::open), except that a source without the footer
    /// magic is offered to `unframed_rows`: if that recognises it as one
    /// bare shard blob and says how many rows it holds, the whole source
    /// is presented as a one-shard container with no shared blob, no
    /// chains and no CRC (there is no manifest to hold one). This is how
    /// ds-core reads its pre-container archive format through the same
    /// reader; the crate itself stays ignorant of what a blob contains.
    pub fn open_or_unframed(
        src: R,
        unframed_rows: impl FnOnce(&R) -> Result<Option<usize>, ShardError>,
    ) -> Result<Self, ShardError> {
        let Some((shard_region, manifest_len)) = read_footer(&src)? else {
            let rows = unframed_rows(&src)?.ok_or(ShardError::NotContainer)?;
            let len = usize::try_from(src.size()?)
                .map_err(|_| ShardError::Corrupt("source exceeds address space"))?;
            return Ok(ShardReader {
                src,
                manifest: None,
                entries: vec![ShardEntry {
                    rows: 0..rows,
                    offset: 0,
                    len,
                    crc: None,
                }],
                total_rows: rows,
                chains: None,
            });
        };
        let manifest_len = usize::try_from(manifest_len)
            .map_err(|_| ShardError::Corrupt("manifest exceeds address space"))?;
        let bytes = src.read_at(shard_region, manifest_len)?;
        let parsed = parse_manifest(&bytes, shard_region)?;
        Ok(ShardReader {
            src,
            manifest: Some((bytes, parsed.shared)),
            entries: parsed.entries,
            total_rows: parsed.total_rows,
            chains: parsed.chains,
        })
    }

    /// Total logical rows across all shards.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Number of shards in the container.
    pub fn n_shards(&self) -> usize {
        self.entries.len()
    }

    /// The opaque shared blob (empty if none was set).
    pub fn shared(&self) -> &[u8] {
        self.manifest
            .as_ref()
            .and_then(|(bytes, shared)| bytes.get(shared.clone()))
            .unwrap_or(&[])
    }

    /// Bytes of manifest read at open (0 for an unframed source).
    pub fn manifest_len(&self) -> usize {
        self.manifest.as_ref().map_or(0, |(bytes, _)| bytes.len())
    }

    /// Whether this is the one-shard view of a source with no container
    /// framing (see [`open_or_unframed`](Self::open_or_unframed)).
    pub fn is_unframed(&self) -> bool {
        self.manifest.is_none()
    }

    /// Per-shard per-column codec chains, when an older build recorded
    /// them; `None` otherwise (this build's writer never does).
    pub fn chains(&self) -> Option<&ShardChains> {
        self.chains.as_ref()
    }

    /// The parsed manifest entries, in shard order.
    pub fn entries(&self) -> &[ShardEntry] {
        &self.entries
    }

    /// The contiguous range of shard indexes whose row ranges intersect
    /// `rows` (clamped to the table; empty request → empty range).
    pub fn shards_intersecting(&self, rows: Range<usize>) -> Range<usize> {
        let start = rows.start.min(self.total_rows);
        let end = rows.end.min(self.total_rows);
        if start >= end {
            return 0..0;
        }
        let first = self.entries.partition_point(|e| e.rows.end <= start);
        let last = self.entries.partition_point(|e| e.rows.start < end);
        first..last
    }

    /// Reads shard `i`'s blob (one positioned read; its extent was
    /// validated against the source size at open) and checks its CRC.
    pub fn shard_bytes(&self, i: usize) -> Result<R::Bytes, ShardError> {
        let entry = self
            .entries
            .get(i)
            .ok_or(ShardError::Corrupt("shard index out of range"))?;
        let offset = u64::try_from(entry.offset)
            .map_err(|_| ShardError::Corrupt("shard offset exceeds u64"))?;
        let blob = self.src.read_at(offset, entry.len)?;
        if entry.crc.is_some_and(|crc| crc32::crc32(&blob) != crc) {
            return Err(ShardError::CrcMismatch { shard: i });
        }
        Ok(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(shards: &[(usize, &[u8])], shared: &[u8]) -> Vec<u8> {
        let mut w = ShardWriter::new(Vec::new());
        w.set_shared(shared.to_vec());
        for (rows, blob) in shards {
            w.push_shard(*rows, blob).unwrap();
        }
        let (sink, total) = w.finish().unwrap();
        assert_eq!(sink.len() as u64, total);
        sink
    }

    #[test]
    fn roundtrip_multi_shard() {
        let bytes = build(
            &[(10, b"alpha"), (10, b"bravo-bravo"), (3, b"c")],
            b"shared-decoder",
        );
        assert!(is_sharded(&bytes));
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 23);
        assert_eq!(r.n_shards(), 3);
        assert_eq!(r.shared(), b"shared-decoder");
        assert_eq!(r.shard_bytes(0).unwrap(), b"alpha");
        assert_eq!(r.shard_bytes(1).unwrap(), b"bravo-bravo");
        assert_eq!(r.shard_bytes(2).unwrap(), b"c");
        assert_eq!(r.entries()[1].rows, 10..20);
        assert_eq!(r.entries()[2].rows, 20..23);
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = build(&[], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.n_shards(), 0);
        assert_eq!(r.shards_intersecting(0..100), 0..0);
    }

    #[test]
    fn zero_row_shard_is_allowed() {
        let bytes = build(&[(0, b"empty-table-archive")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.n_shards(), 1);
    }

    #[test]
    fn is_sharded_rejects_foreign_bytes() {
        assert!(!is_sharded(b""));
        assert!(!is_sharded(b"DSRG"));
        assert!(!is_sharded(b"DSQZ-some-v1-archive-body"));
        // Right magic, wrong version.
        let mut bytes = build(&[(1, b"x")], b"");
        let n = bytes.len();
        bytes[n - 5] = FORMAT_VERSION + 1;
        assert!(!is_sharded(&bytes));
        assert!(matches!(
            ShardReader::open(&bytes),
            Err(ShardError::Corrupt(_))
        ));
    }

    #[test]
    fn shards_intersecting_cases() {
        let bytes = build(&[(10, b"a"), (10, b"b"), (10, b"c")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.shards_intersecting(0..30), 0..3);
        assert_eq!(r.shards_intersecting(0..10), 0..1);
        assert_eq!(r.shards_intersecting(9..11), 0..2);
        assert_eq!(r.shards_intersecting(10..20), 1..2);
        assert_eq!(r.shards_intersecting(25..26), 2..3);
        assert_eq!(r.shards_intersecting(25..1000), 2..3);
        assert_eq!(r.shards_intersecting(30..40), 0..0);
        assert_eq!(r.shards_intersecting(5..5), 0..0);
        #[allow(clippy::reversed_empty_ranges)]
        let rev = r.shards_intersecting(20..10);
        assert_eq!(rev, 0..0);
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut bytes = build(&[(5, b"hello"), (5, b"world")], b"");
        // Flip one bit inside the second blob ("world" starts at offset 5).
        bytes[7] ^= 0x04;
        let r = ShardReader::open(&bytes).unwrap();
        assert!(r.shard_bytes(0).is_ok());
        assert!(matches!(
            r.shard_bytes(1),
            Err(ShardError::CrcMismatch { shard: 1 })
        ));
    }

    #[test]
    fn every_truncation_errors_without_panic() {
        let bytes = build(&[(4, b"abcd"), (4, b"efgh")], b"sh");
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            match ShardReader::open(prefix) {
                Err(_) => {}
                Ok(r) => {
                    // A prefix that still parses (possible only if the cut
                    // landed on another self-consistent framing) must not
                    // panic on access either.
                    for i in 0..r.n_shards() {
                        let _ = r.shard_bytes(i);
                    }
                }
            }
        }
    }

    /// `bytes`, a container, with one more manifest section appended and
    /// the footer's manifest length moved to cover it.
    fn with_section(mut bytes: Vec<u8>, tag: u8, body: &[u8]) -> Vec<u8> {
        let footer = bytes.split_off(bytes.len() - FOOTER_LEN);
        let old_len = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let mut section = ByteWriter::new();
        section.write_u8(tag);
        section.write_len_prefixed(body);
        let extra = section.into_vec();
        bytes.extend_from_slice(&extra);
        bytes.extend_from_slice(&(old_len + extra.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&footer[4..]);
        bytes
    }

    /// A chain-section body as older builds wrote it: the column count,
    /// the distinct chains, then one dictionary index per (shard, column).
    fn chain_body(n_cols: u64, dict: &[&[u16]], index: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_varint(n_cols);
        w.write_varint(dict.len() as u64);
        for chain in dict {
            w.write_varint(chain.len() as u64);
            for &id in *chain {
                w.write_varint(u64::from(id));
            }
        }
        for &ix in index {
            w.write_varint(ix);
        }
        w.into_vec()
    }

    #[test]
    fn a_recorded_chain_section_parses() {
        let c_rle = [registry::RLE.raw(), registry::GZLIKE.raw()];
        let c_dict = [registry::DICT.raw(), registry::BITPACK.raw()];
        let body = chain_body(2, &[&c_rle, &c_dict], &[0, 1, 0, 0]);
        let plain = build(&[(3, b"s0"), (3, b"s1")], b"");
        let bytes = with_section(plain, SECTION_CODEC_CHAINS, &body);
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.shard_bytes(1).unwrap(), b"s1");
        let chains = r.chains().expect("chains recorded");
        assert_eq!(chains.n_cols(), 2);
        // Three cells share c_rle: the dictionary holds 2 entries only.
        assert_eq!(chains.dict().len(), 2);
        assert_eq!(chains.chain(0, 0), Some(c_rle.as_slice()));
        assert_eq!(chains.chain(0, 1), Some(c_dict.as_slice()));
        assert_eq!(chains.chain(1, 1), Some(c_rle.as_slice()));
        assert_eq!(chains.chain(2, 0), None);
        assert_eq!(chains.chain(0, 2), None);
    }

    #[test]
    fn the_writer_records_no_chains() {
        let bytes = build(&[(5, b"blob")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert!(r.chains().is_none());
    }

    #[test]
    fn forged_codec_id_is_typed_unknown_on_open() {
        // An archive naming a codec from the future: the reader must
        // reject it with the typed error, not a panic.
        let body = chain_body(1, &[&[0xBEEF]], &[0]);
        let bytes = with_section(build(&[(2, b"blob")], b""), SECTION_CODEC_CHAINS, &body);
        assert!(matches!(
            ShardReader::open(&bytes),
            Err(ShardError::Codec(CodecError::UnknownCodec(0xBEEF)))
        ));
    }

    #[test]
    fn unknown_manifest_sections_are_skipped() {
        // A section with an unassigned tag on a plain manifest: the
        // reader must ignore it and still decode the container.
        let plain = build(&[(2, b"blob")], b"");
        let bytes = with_section(plain, 200, b"future metadata");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.shard_bytes(0).unwrap(), b"blob");
        assert!(r.chains().is_none());
    }

    #[test]
    fn corrupt_chain_sections_error_not_panic() {
        let body = chain_body(1, &[&[registry::DICT.raw(), registry::RLE.raw()]], &[0]);
        let bytes = with_section(build(&[(2, b"blob")], b""), SECTION_CODEC_CHAINS, &body);
        assert!(ShardReader::open(&bytes).is_ok());
        // Flip every byte of the manifest region one at a time.
        for i in (bytes.len().saturating_sub(64))..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = ShardReader::open(&bad); // error or success, never panic
        }
    }

    #[test]
    fn every_source_kind_reads_the_same_container() {
        let bytes = build(&[(3, b"abc"), (2, b"de")], b"sh");
        let path = std::env::temp_dir().join(format!("ds_shard_src_{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        fn check<R: ReadAt>(r: ShardReader<R>) {
            assert_eq!((r.total_rows(), r.n_shards()), (5, 2));
            assert_eq!(r.shared(), b"sh");
            assert_eq!(&*r.shard_bytes(1).unwrap(), b"de");
            assert!(r.shard_bytes(2).is_err());
        }
        check(ShardReader::open(&bytes[..]).unwrap());
        check(ShardReader::open(&bytes).unwrap());
        check(ShardReader::open(bytes.clone()).unwrap());
        check(ShardReader::open(file).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_source_without_the_footer_is_not_a_container_unless_recognised() {
        for bytes in [&b""[..], b"DSRG", b"some-bare-blob-without-a-footer"] {
            assert!(matches!(
                ShardReader::open(bytes),
                Err(ShardError::NotContainer)
            ));
        }
        let blob = b"some-bare-blob-without-a-footer";
        let r = ShardReader::open_or_unframed(&blob[..], |src| {
            Ok(src.starts_with(b"some").then_some(7))
        })
        .unwrap();
        assert_eq!((r.total_rows(), r.n_shards()), (7, 1));
        assert_eq!(r.entries()[0].crc, None);
        assert_eq!(r.shard_bytes(0).unwrap(), blob);
        assert!(r.shared().is_empty() && r.chains().is_none());
        // A real container never reaches the fallback.
        let bytes = build(&[(1, b"x")], b"");
        let r = ShardReader::open_or_unframed(&bytes, |_| panic!("not consulted")).unwrap();
        assert_eq!(r.entries()[0].crc, Some(crc32::crc32(b"x")));
    }
}
