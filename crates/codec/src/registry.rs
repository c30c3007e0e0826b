//! `registry` — the stable codec-id table that makes containers
//! self-describing.
//!
//! Every codec stage in this crate owns a stable `u16` id. Containers
//! record, per column, the *chain* of ids its bytes went through
//! (e.g. `dict → rle → gzlike`), so decode dispatches on recorded ids
//! instead of hardwired calls and a new codec is a registry entry, not a
//! format break. An id this build does not know surfaces as the typed
//! [`CodecError::UnknownCodec`] — "upgrade your decoder", never a panic
//! and never a misparse.
//!
//! ## Id stability rules
//!
//! * Ids are append-only: once shipped, an id never changes meaning and
//!   is never reused, even if the codec is retired.
//! * `0` is reserved and always invalid (it doubles as an "absent"
//!   marker in manifests).
//! * The numeric values are part of the archive format; the unit tests
//!   pin them.
//!
//! ## u32-stream codecs
//!
//! The subset of codecs that encode dense `u32` streams (the workhorse
//! of parq's column sections) additionally registers probe/encode/decode
//! entry points here. [`select_u32`] replays parq's historical
//! "try every candidate, keep the strictly smaller" selection through
//! the table — in table order, which is exactly the legacy wire-tag
//! order, so default selections (and therefore archive bytes) are
//! unchanged. The [`FOR_MODEL`] probe is opt-in: it only competes when
//! the caller asks, because any win changes the emitted bytes.

use crate::roaring::RoaringBitmap;
use crate::{bitpack, delta, formodel, parq, rle, CodecError, Result};

/// Stable identifier of one codec stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodecId(pub u16);

impl CodecId {
    /// The raw wire value.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match name(self.0) {
            Some(n) => f.write_str(n),
            None => write!(f, "#{}", self.0),
        }
    }
}

/// Run-length encoding ([`crate::rle`]).
pub const RLE: CodecId = CodecId(1);
/// Delta + zigzag varints ([`crate::delta`]).
pub const DELTA: CodecId = CodecId(2);
/// Fixed-width bit packing ([`crate::bitpack`]).
pub const BITPACK: CodecId = CodecId(3);
/// Roaring bitmap of 1-positions ([`crate::roaring`]).
pub const ROARING: CodecId = CodecId(4);
/// Adaptive range coding ([`crate::rangecoder`] via parq's u32 model).
pub const ARITH: CodecId = CodecId(5);
/// Per-chunk constant / frame-of-reference model ([`crate::formodel`]).
pub const FOR_MODEL: CodecId = CodecId(6);
/// Dictionary encoding ([`crate::dict`]).
pub const DICT: CodecId = CodecId(7);
/// DEFLATE-shaped entropy stage ([`crate::gzlike`]).
pub const GZLIKE: CodecId = CodecId(8);
/// Canonical Huffman coding ([`crate::huffman`]).
pub const HUFFMAN: CodecId = CodecId(9);
/// LZ77-family sliding-window matcher ([`crate::lzss`]).
pub const LZSS: CodecId = CodecId(10);
/// Error-bounded scalar quantization ([`crate::quant`]).
pub const QUANT: CodecId = CodecId(11);
/// XOR-with-previous raw f64 bits (Gorilla-style float layout).
pub const XOR_F64: CodecId = CodecId(12);
/// Zigzag i64 -> u32 reinterpretation ahead of a u32 codec.
pub const ZIGZAG: CodecId = CodecId(13);

/// Broad role of a codec stage, for tooling output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Encodes a dense u32 stream (registered in the [`u32_codecs`] table).
    U32Model,
    /// Transforms bytes to bytes (entropy stages).
    ByteStream,
    /// Reshapes values ahead of another stage (dict, zigzag, xor).
    Transform,
}

/// One registry row.
#[derive(Debug, Clone, Copy)]
pub struct CodecDescriptor {
    /// Stable id.
    pub id: CodecId,
    /// Human-readable name, shown by `dsqz inspect` and ds-serve.
    pub name: &'static str,
    /// Broad role.
    pub kind: CodecKind,
}

static DESCRIPTORS: &[CodecDescriptor] = &[
    CodecDescriptor {
        id: RLE,
        name: "rle",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: DELTA,
        name: "delta",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: BITPACK,
        name: "bitpack",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: ROARING,
        name: "roaring",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: ARITH,
        name: "arith",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: FOR_MODEL,
        name: "for",
        kind: CodecKind::U32Model,
    },
    CodecDescriptor {
        id: DICT,
        name: "dict",
        kind: CodecKind::Transform,
    },
    CodecDescriptor {
        id: GZLIKE,
        name: "gzlike",
        kind: CodecKind::ByteStream,
    },
    CodecDescriptor {
        id: HUFFMAN,
        name: "huffman",
        kind: CodecKind::ByteStream,
    },
    CodecDescriptor {
        id: LZSS,
        name: "lzss",
        kind: CodecKind::ByteStream,
    },
    CodecDescriptor {
        id: QUANT,
        name: "quant",
        kind: CodecKind::Transform,
    },
    CodecDescriptor {
        id: XOR_F64,
        name: "xor-f64",
        kind: CodecKind::Transform,
    },
    CodecDescriptor {
        id: ZIGZAG,
        name: "zigzag",
        kind: CodecKind::Transform,
    },
];

/// Every registered codec, in id order.
pub fn descriptors() -> &'static [CodecDescriptor] {
    DESCRIPTORS
}

/// Looks up one registry row by raw id.
pub fn descriptor(raw: u16) -> Option<&'static CodecDescriptor> {
    DESCRIPTORS.iter().find(|d| d.id.raw() == raw)
}

/// Human-readable name for a raw id, if this build knows it.
pub fn name(raw: u16) -> Option<&'static str> {
    descriptor(raw).map(|d| d.name)
}

/// True when this build can decode streams tagged with `raw`.
pub fn is_known(raw: u16) -> bool {
    descriptor(raw).is_some()
}

/// Validates a recorded codec chain, surfacing the first id from the
/// future (or a forged one) as [`CodecError::UnknownCodec`].
pub fn validate_chain(ids: &[u16]) -> Result<()> {
    for &id in ids {
        if !is_known(id) {
            return Err(CodecError::UnknownCodec(id));
        }
    }
    Ok(())
}

/// Renders a chain as `dict→rle→gzlike`; unknown ids render as `#<id>`.
pub fn chain_names(ids: &[u16]) -> String {
    if ids.is_empty() {
        return "(identity)".to_owned();
    }
    let parts: Vec<String> = ids
        .iter()
        .map(|&id| match name(id) {
            Some(n) => n.to_owned(),
            None => format!("#{id}"),
        })
        .collect();
    parts.join("\u{2192}")
}

/// What a u32 codec's probe learned about a stream: the encoded size it
/// would reach, and — for codecs whose only way to size is to encode —
/// the finished bytes, so the winner is never encoded twice.
pub struct U32Candidate {
    /// Encoded payload size in bytes.
    pub size: usize,
    /// Finished encoding, when sizing required producing it.
    pub bytes: Option<Vec<u8>>,
}

/// Registry entry for a dense-u32 codec: stable id, legacy parq wire
/// tag, and the three entry points selection and decode dispatch on.
pub struct U32Codec {
    /// Stable registry id.
    pub id: CodecId,
    /// Legacy single-byte wire tag inside parq column sections.
    pub tag: u8,
    /// Sizes the stream; `None` when the codec does not apply.
    pub probe: fn(&[u32]) -> Option<U32Candidate>,
    /// Produces the encoding; `None` when the codec does not apply.
    pub encode: fn(&[u32]) -> Option<Vec<u8>>,
    /// Decodes an encoded payload.
    pub decode: fn(&[u8]) -> Result<Vec<u32>>,
}

fn probe_rle(values: &[u32]) -> Option<U32Candidate> {
    Some(U32Candidate {
        size: rle::encoded_size(values),
        bytes: None,
    })
}

fn encode_rle(values: &[u32]) -> Option<Vec<u8>> {
    Some(rle::encode(values))
}

fn widen_i64(values: &[u32]) -> Vec<i64> {
    values.iter().map(|&v| i64::from(v)).collect()
}

fn probe_delta(values: &[u32]) -> Option<U32Candidate> {
    Some(U32Candidate {
        size: delta::encoded_size_i64(&widen_i64(values)),
        bytes: None,
    })
}

fn encode_delta(values: &[u32]) -> Option<Vec<u8>> {
    Some(delta::encode_i64(&widen_i64(values)))
}

fn widen_u64(values: &[u32]) -> Vec<u64> {
    values.iter().map(|&v| u64::from(v)).collect()
}

fn probe_bitpack(values: &[u32]) -> Option<U32Candidate> {
    Some(U32Candidate {
        size: bitpack::encoded_size(&widen_u64(values)),
        bytes: None,
    })
}

fn encode_bitpack(values: &[u32]) -> Option<Vec<u8>> {
    Some(bitpack::encode(&widen_u64(values)))
}

fn decode_bitpack(payload: &[u8]) -> Result<Vec<u32>> {
    bitpack::decode(payload)?
        .into_iter()
        .map(|v| u32::try_from(v).map_err(|_| CodecError::Corrupt("parq: u32 overflow")))
        .collect()
}

fn probe_roaring(values: &[u32]) -> Option<U32Candidate> {
    if values.iter().all(|&v| v <= 1) {
        let bytes = RoaringBitmap::encode_bit_stream(values);
        Some(U32Candidate {
            size: bytes.len(),
            bytes: Some(bytes),
        })
    } else {
        None
    }
}

fn encode_roaring(values: &[u32]) -> Option<Vec<u8>> {
    values
        .iter()
        .all(|&v| v <= 1)
        .then(|| RoaringBitmap::encode_bit_stream(values))
}

fn probe_arith(values: &[u32]) -> Option<U32Candidate> {
    parq::encode_u32_arith(values).map(|bytes| U32Candidate {
        size: bytes.len(),
        bytes: Some(bytes),
    })
}

fn probe_for(values: &[u32]) -> Option<U32Candidate> {
    let bytes = formodel::encode(values);
    Some(U32Candidate {
        size: bytes.len(),
        bytes: Some(bytes),
    })
}

fn encode_for(values: &[u32]) -> Option<Vec<u8>> {
    Some(formodel::encode(values))
}

/// The dense-u32 codec table, in legacy wire-tag order. Selection walks
/// it front to back with a strict `<`, so earlier entries win ties —
/// exactly the historical preference order.
static U32_CODECS: &[U32Codec] = &[
    U32Codec {
        id: RLE,
        tag: 0,
        probe: probe_rle,
        encode: encode_rle,
        decode: rle::decode,
    },
    U32Codec {
        id: DELTA,
        tag: 1,
        probe: probe_delta,
        encode: encode_delta,
        decode: delta::decode_u32,
    },
    U32Codec {
        id: BITPACK,
        tag: 2,
        probe: probe_bitpack,
        encode: encode_bitpack,
        decode: decode_bitpack,
    },
    U32Codec {
        id: ROARING,
        tag: 3,
        probe: probe_roaring,
        encode: encode_roaring,
        decode: RoaringBitmap::decode_bit_stream,
    },
    U32Codec {
        id: ARITH,
        tag: 4,
        probe: probe_arith,
        encode: parq::encode_u32_arith,
        decode: parq::decode_u32_arith,
    },
    U32Codec {
        id: FOR_MODEL,
        tag: 5,
        probe: probe_for,
        encode: encode_for,
        decode: formodel::decode,
    },
];

/// The dense-u32 codec table (legacy wire-tag order).
pub fn u32_codecs() -> &'static [U32Codec] {
    U32_CODECS
}

/// Looks up a u32 codec by its parq wire tag.
pub fn u32_codec_for_tag(tag: u8) -> Option<&'static U32Codec> {
    U32_CODECS.iter().find(|c| c.tag == tag)
}

/// Looks up a u32 codec by registry id.
pub fn u32_codec(id: CodecId) -> Option<&'static U32Codec> {
    U32_CODECS.iter().find(|c| c.id == id)
}

/// Outcome of [`select_u32`]: the winning codec's wire tag, registry id
/// and payload.
pub struct U32Selection {
    /// Legacy parq wire tag of the winner.
    pub tag: u8,
    /// Registry id of the winner (recorded in codec chains).
    pub id: CodecId,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

/// Encodes a u32 stream with the smallest applicable codec from the
/// registry table.
///
/// Walks the table in wire-tag order keeping the strictly-smaller
/// candidate, so with `numeric_probe` off the winner — and the bytes —
/// match the historical hardcoded selection exactly. With it on, the
/// [`FOR_MODEL`] probe competes too (and its wins change the bytes,
/// which is why it is opt-in and its id is recorded in the chain).
pub fn select_u32(values: &[u32], numeric_probe: bool) -> Result<U32Selection> {
    let mut best: Option<(&'static U32Codec, usize, Option<Vec<u8>>)> = None;
    for codec in U32_CODECS {
        if codec.id == FOR_MODEL && !numeric_probe {
            continue;
        }
        let Some(candidate) = (codec.probe)(values) else {
            continue;
        };
        let better = match &best {
            Some((_, size, _)) => candidate.size < *size,
            None => true,
        };
        if better {
            best = Some((codec, candidate.size, candidate.bytes));
        }
    }
    let (codec, _, cached) = best.ok_or(CodecError::InvalidParameter(
        "registry: no applicable u32 codec",
    ))?;
    let payload = match cached {
        Some(bytes) => bytes,
        None => (codec.encode)(values).ok_or(CodecError::InvalidParameter(
            "registry: winning codec refused to encode",
        ))?,
    };
    Ok(U32Selection {
        tag: codec.tag,
        id: codec.id,
        payload,
    })
}

/// Decodes a u32 payload by its recorded wire tag. A tag this build has
/// no codec for is an archive from the future: typed
/// [`CodecError::UnknownCodec`], never a panic.
pub fn decode_u32(tag: u8, payload: &[u8]) -> Result<Vec<u32>> {
    let codec = u32_codec_for_tag(tag).ok_or(CodecError::UnknownCodec(u16::from(tag)))?;
    (codec.decode)(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_pinned_forever() {
        // These values are archive format; a failure here means a
        // format break, not a test to update.
        let pinned: &[(CodecId, u16, &str)] = &[
            (RLE, 1, "rle"),
            (DELTA, 2, "delta"),
            (BITPACK, 3, "bitpack"),
            (ROARING, 4, "roaring"),
            (ARITH, 5, "arith"),
            (FOR_MODEL, 6, "for"),
            (DICT, 7, "dict"),
            (GZLIKE, 8, "gzlike"),
            (HUFFMAN, 9, "huffman"),
            (LZSS, 10, "lzss"),
            (QUANT, 11, "quant"),
            (XOR_F64, 12, "xor-f64"),
            (ZIGZAG, 13, "zigzag"),
        ];
        assert_eq!(pinned.len(), descriptors().len());
        for &(id, raw, nm) in pinned {
            assert_eq!(id.raw(), raw);
            assert_eq!(name(raw), Some(nm));
        }
        assert!(!is_known(0), "id 0 is reserved");
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in descriptors() {
            assert!(seen.insert(d.id.raw()), "duplicate id {}", d.id.raw());
        }
    }

    #[test]
    fn tags_map_to_ids_and_back() {
        for codec in u32_codecs() {
            let by_tag = u32_codec_for_tag(codec.tag).unwrap();
            assert_eq!(by_tag.id, codec.id);
            assert_eq!(u32_codec(codec.id).unwrap().tag, codec.tag);
        }
        assert!(u32_codec_for_tag(200).is_none());
    }

    #[test]
    fn validate_chain_flags_first_unknown() {
        assert!(validate_chain(&[]).is_ok());
        assert!(validate_chain(&[RLE.raw(), GZLIKE.raw()]).is_ok());
        assert_eq!(
            validate_chain(&[RLE.raw(), 0xBEEF, 0xCAFE]).unwrap_err(),
            CodecError::UnknownCodec(0xBEEF)
        );
        assert_eq!(
            validate_chain(&[0]).unwrap_err(),
            CodecError::UnknownCodec(0)
        );
    }

    #[test]
    fn chain_names_render() {
        assert_eq!(
            chain_names(&[DICT.raw(), RLE.raw(), GZLIKE.raw()]),
            "dict\u{2192}rle\u{2192}gzlike"
        );
        assert_eq!(chain_names(&[0xBEEF]), "#48879");
        assert_eq!(chain_names(&[]), "(identity)");
    }

    #[test]
    fn select_roundtrips_through_every_winner() {
        let streams: Vec<Vec<u32>> = vec![
            vec![],
            vec![7; 5000],       // rle
            (0..5000).collect(), // delta
            (0..5000)
                .map(|i| (i * 2654435761u64) as u32 & 0x7FF)
                .collect(), // bitpack-ish
            (0..5000).map(|i| u32::from(i % 97 == 0)).collect(), // roaring
            (0..5000).map(|i| (i % 7) as u32).collect(), // arith candidate
        ];
        for values in &streams {
            for probe in [false, true] {
                let sel = select_u32(values, probe).unwrap();
                assert_eq!(&decode_u32(sel.tag, &sel.payload).unwrap(), values);
            }
        }
    }

    #[test]
    fn default_selection_never_picks_for_model() {
        let clustered: Vec<u32> = (0..4096u32).map(|i| 1_000_000_000 + i % 64).collect();
        let off = select_u32(&clustered, false).unwrap();
        assert_ne!(off.id, FOR_MODEL);
        let on = select_u32(&clustered, true).unwrap();
        assert_eq!(on.id, FOR_MODEL, "offset cluster should be a FoR win");
        assert_eq!(decode_u32(on.tag, &on.payload).unwrap(), clustered);
        assert!(on.payload.len() < off.payload.len());

        // The probe discriminates: a stream spanning the full u32 range
        // has no frame to exploit, so FoR must lose even when allowed.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let wide: Vec<u32> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 32) as u32
            })
            .collect();
        let on = select_u32(&wide, true).unwrap();
        assert_ne!(on.id, FOR_MODEL, "full-range stream is not a FoR win");
        assert_eq!(decode_u32(on.tag, &on.payload).unwrap(), wide);
    }

    #[test]
    fn every_table_codec_roundtrips_what_it_accepts() {
        let clustered: Vec<u32> = (0..4096u32)
            .map(|i| 1_000_000 + (i.wrapping_mul(2654435761) >> 22))
            .collect();
        let bits: Vec<u32> = (0..4096u32).map(|i| u32::from(i % 5 == 0)).collect();
        for codec in u32_codecs() {
            let mut accepted = 0;
            for values in [&clustered, &bits, &Vec::new()] {
                let Some(encoded) = (codec.encode)(values) else {
                    continue;
                };
                accepted += 1;
                assert_eq!(
                    &(codec.decode)(&encoded).unwrap(),
                    values,
                    "codec id {}",
                    codec.id.raw()
                );
            }
            assert!(accepted > 0, "codec id {} took no stream", codec.id.raw());
        }
    }

    #[test]
    fn unknown_tag_is_typed_not_corrupt() {
        assert_eq!(
            decode_u32(9, &[1, 2, 3]).unwrap_err(),
            CodecError::UnknownCodec(9)
        );
    }
}
