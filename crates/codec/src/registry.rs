//! `registry` — the stable codec-id table: the one numbering of every
//! codec stage in this crate.
//!
//! Every codec stage owns a stable `u16` id. Two places in an archive
//! name codecs by it:
//!
//! * parq's column sections, whose one-byte u32 codec tag is the id
//!   minus one ([`CodecId::wire_byte`]);
//! * the per-column codec *chains* (e.g. `dict → rle → gzlike`) that
//!   older builds could record in a v2 manifest. This build reads them
//!   and never writes them; decode picks the codec by the parq byte alone.
//!
//! An id this build does not know surfaces as the typed
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
//! entry points here. [`select_u32`] is parq's "size every candidate,
//! keep the strictly smaller" selection over the table, in id order. RLE,
//! delta and bitpack sizes are arithmetic on the `u32` slice, so only the
//! winner among them is ever encoded; Roaring and `ARITH` size by
//! encoding, and hand their bytes over when they win. It skips
//! [`FOR_MODEL`]: the frame-of-reference model stays decodable, because
//! archives older builds wrote may hold it, but it won none of the 3,273
//! failure streams of the three benchmark tables when it could compete.

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

    /// The byte parq records a u32 codec as: the id minus one. `None` for
    /// ids no byte can spell (0 and above 256); every [`u32_codecs`] entry
    /// has one.
    pub fn wire_byte(self) -> Option<u8> {
        u8::try_from(self.0.checked_sub(1)?).ok()
    }

    /// The id a parq wire byte names; the inverse of
    /// [`wire_byte`](Self::wire_byte).
    pub fn from_wire_byte(byte: u8) -> CodecId {
        CodecId(u16::from(byte) + 1)
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

/// One registry row.
#[derive(Debug, Clone, Copy)]
pub struct CodecDescriptor {
    /// Stable id.
    pub id: CodecId,
    /// Human-readable name, shown by `dsqz inspect` and ds-serve.
    pub name: &'static str,
}

const fn row(id: CodecId, name: &'static str) -> CodecDescriptor {
    CodecDescriptor { id, name }
}

static DESCRIPTORS: &[CodecDescriptor] = &[
    row(RLE, "rle"),
    row(DELTA, "delta"),
    row(BITPACK, "bitpack"),
    row(ROARING, "roaring"),
    row(ARITH, "arith"),
    row(FOR_MODEL, "for"),
    row(DICT, "dict"),
    row(GZLIKE, "gzlike"),
    row(HUFFMAN, "huffman"),
    row(LZSS, "lzss"),
    row(QUANT, "quant"),
    row(XOR_F64, "xor-f64"),
    row(ZIGZAG, "zigzag"),
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

/// Registry entry for a dense-u32 codec: stable id (parq writes it as
/// [`CodecId::wire_byte`]) and the three entry points selection and
/// decode call through.
pub struct U32Codec {
    /// Stable registry id.
    pub id: CodecId,
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

fn probe_delta(values: &[u32]) -> Option<U32Candidate> {
    Some(U32Candidate {
        size: delta::encoded_size_u32(values),
        bytes: None,
    })
}

fn encode_delta(values: &[u32]) -> Option<Vec<u8>> {
    Some(delta::encode_u32(values))
}

fn probe_bitpack(values: &[u32]) -> Option<U32Candidate> {
    Some(U32Candidate {
        size: bitpack::encoded_size(values),
        bytes: None,
    })
}

fn encode_bitpack(values: &[u32]) -> Option<Vec<u8>> {
    Some(bitpack::encode(values))
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

/// The dense-u32 codec table, in id (and so wire-byte) order. Selection
/// walks it front to back with a strict `<`, so earlier entries win ties
/// — exactly the historical preference order.
static U32_CODECS: &[U32Codec] = &[
    U32Codec {
        id: RLE,
        probe: probe_rle,
        encode: encode_rle,
        decode: rle::decode,
    },
    U32Codec {
        id: DELTA,
        probe: probe_delta,
        encode: encode_delta,
        decode: delta::decode_u32,
    },
    U32Codec {
        id: BITPACK,
        probe: probe_bitpack,
        encode: encode_bitpack,
        decode: decode_bitpack,
    },
    U32Codec {
        id: ROARING,
        probe: probe_roaring,
        encode: encode_roaring,
        decode: RoaringBitmap::decode_bit_stream,
    },
    U32Codec {
        id: ARITH,
        probe: probe_arith,
        encode: parq::encode_u32_arith,
        decode: parq::decode_u32_arith,
    },
    U32Codec {
        id: FOR_MODEL,
        probe: probe_for,
        encode: encode_for,
        decode: formodel::decode,
    },
];

/// The dense-u32 codec table, in id order.
pub fn u32_codecs() -> &'static [U32Codec] {
    U32_CODECS
}

/// Outcome of [`select_u32`]: the winning codec's id and payload.
pub struct U32Selection {
    /// Registry id of the winner.
    pub id: CodecId,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

/// Encodes a u32 stream with the smallest applicable codec from the
/// registry table.
///
/// Walks the table in id order keeping the strictly-smaller candidate.
/// [`FOR_MODEL`] is decode-only and never competes, so the winner — and
/// the bytes — are the historical hardcoded selection's.
pub fn select_u32(values: &[u32]) -> Result<U32Selection> {
    let mut best: Option<(&'static U32Codec, usize, Option<Vec<u8>>)> = None;
    for codec in U32_CODECS {
        if codec.id == FOR_MODEL {
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
        id: codec.id,
        payload,
    })
}

/// Decodes a u32 payload by its parq wire byte, which names the id
/// `byte + 1`. An id this build does not know is an archive from the
/// future: typed [`CodecError::UnknownCodec`] with that id. A known id
/// that encodes no u32 stream (dict … zigzag) is a damaged byte:
/// [`CodecError::Corrupt`].
pub fn decode_u32(byte: u8, payload: &[u8]) -> Result<Vec<u32>> {
    let id = CodecId::from_wire_byte(byte);
    match U32_CODECS.iter().find(|c| c.id == id) {
        Some(codec) => (codec.decode)(payload),
        None if is_known(id.raw()) => Err(CodecError::Corrupt(
            "parq: wire byte names a codec that encodes no u32 stream",
        )),
        None => Err(CodecError::UnknownCodec(id.raw())),
    }
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
    fn a_u32_codec_is_written_as_its_id_minus_one() {
        // The parq bytes every archive carries: a failure here is a
        // format break, not a test to update.
        let pinned: &[(CodecId, u8)] = &[
            (RLE, 0),
            (DELTA, 1),
            (BITPACK, 2),
            (ROARING, 3),
            (ARITH, 4),
            (FOR_MODEL, 5),
        ];
        let table: Vec<CodecId> = u32_codecs().iter().map(|c| c.id).collect();
        let ids: Vec<CodecId> = pinned.iter().map(|&(id, _)| id).collect();
        assert_eq!(table, ids, "the u32 table is these six, in this order");
        for &(id, byte) in pinned {
            assert_eq!(id.wire_byte(), Some(byte));
            assert_eq!(CodecId::from_wire_byte(byte), id);
        }
        assert_eq!(CodecId(0).wire_byte(), None);
        assert_eq!(CodecId(257).wire_byte(), None);
        assert_eq!(CodecId::from_wire_byte(255), CodecId(256));
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
            let sel = select_u32(values).unwrap();
            let byte = sel.id.wire_byte().unwrap();
            assert_eq!(&decode_u32(byte, &sel.payload).unwrap(), values);
        }
    }

    #[test]
    fn a_size_only_probe_reports_the_encoded_size() {
        let streams: Vec<Vec<u32>> = vec![
            vec![],
            vec![u32::MAX; 3],
            (0..3000).map(|i| (i * 2654435761u64) as u32).collect(),
            (0..3000)
                .map(|i| (i * 2654435761u64) as u32 >> 19)
                .collect(),
            (0..3000).map(|i| 4_000_000_000 - i * 1_000_000).collect(),
            (0..3000).map(|i| (i / 64) as u32 % 3).collect(),
        ];
        for values in &streams {
            for codec in u32_codecs() {
                let Some(candidate) = (codec.probe)(values) else {
                    continue;
                };
                let encoded = (codec.encode)(values).expect("a probed codec encodes");
                assert_eq!(candidate.size, encoded.len(), "codec {}", codec.id);
                if let Some(bytes) = candidate.bytes {
                    assert_eq!(bytes, encoded, "codec {}", codec.id);
                }
            }
        }
    }

    #[test]
    fn selection_never_picks_for_model_which_still_decodes() {
        // An offset cluster is FoR's best case: it would win, and is not
        // offered the stream.
        let clustered: Vec<u32> = (0..4096u32).map(|i| 1_000_000_000 + i % 64).collect();
        let sel = select_u32(&clustered).unwrap();
        assert_ne!(sel.id, FOR_MODEL);
        let for_bytes = formodel::encode(&clustered);
        assert!(for_bytes.len() < sel.payload.len());
        // What an archive written when FoR competed holds decodes.
        let byte = FOR_MODEL.wire_byte().unwrap();
        assert_eq!(decode_u32(byte, &for_bytes).unwrap(), clustered);
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
    fn a_wire_byte_naming_a_known_non_u32_codec_is_corrupt() {
        // Byte 9 names id 10, lzss: this build knows it, and it encodes
        // no u32 stream. Bytes 6..=12 name dict … zigzag.
        for byte in 6..=12u8 {
            assert!(
                matches!(decode_u32(byte, &[1, 2, 3]), Err(CodecError::Corrupt(_))),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn a_wire_byte_naming_an_unknown_id_reports_that_id() {
        assert_eq!(
            decode_u32(200, &[1, 2, 3]).unwrap_err(),
            CodecError::UnknownCodec(201)
        );
    }
}
