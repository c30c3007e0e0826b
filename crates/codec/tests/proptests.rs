//! Property-based tests for every codec: arbitrary inputs must roundtrip,
//! and arbitrary (corrupt) bytes must never panic a decoder.

use ds_codec::{bitpack, delta, dict::Dictionary, gzlike, parq, rle};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut w = ds_codec::ByteWriter::new();
        w.write_varint(v);
        let bytes = w.into_vec();
        let mut r = ds_codec::ByteReader::new(&bytes);
        prop_assert_eq!(r.read_varint().unwrap(), v);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(ds_codec::varint::unzigzag(ds_codec::varint::zigzag(v)), v);
    }

    #[test]
    fn rle_roundtrip(values in prop::collection::vec(0u32..50, 0..500)) {
        let enc = rle::encode(&values);
        prop_assert_eq!(rle::decode(&enc).unwrap(), values);
    }

    #[test]
    fn delta_roundtrip(values in prop::collection::vec(any::<i64>(), 0..500)) {
        let enc = delta::encode_i64(&values);
        prop_assert_eq!(delta::decode_i64(&enc).unwrap(), values);
    }

    #[test]
    fn bitpack_roundtrip(values in prop::collection::vec(0u64..(1 << 30), 0..500)) {
        let enc = bitpack::encode(&values);
        prop_assert_eq!(bitpack::decode(&enc).unwrap(), values);
    }

    #[test]
    fn dict_roundtrip(values in prop::collection::vec("[a-z]{0,8}", 0..200)) {
        let (dict, codes) = Dictionary::encode_column(&values);
        prop_assert_eq!(dict.decode_column(&codes).unwrap(), values.clone());
        // Serialized dictionary reproduces the same mapping.
        let restored = Dictionary::from_bytes(&dict.to_bytes()).unwrap();
        prop_assert_eq!(restored.decode_column(&codes).unwrap(), values);
    }

    // The Huffman and LZSS stages have no containers of their own: these
    // run their generators through gzlike, which is both stages.
    #[test]
    fn huffman_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let enc = gzlike::compress(&data);
        prop_assert_eq!(gzlike::decompress(&enc).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let enc = gzlike::compress(&data);
        prop_assert_eq!(gzlike::decompress(&enc).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip_low_entropy(data in prop::collection::vec(0u8..4, 0..6000)) {
        let enc = gzlike::compress(&data);
        prop_assert_eq!(gzlike::decompress(&enc).unwrap(), data);
    }

    #[test]
    fn gzlike_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let enc = gzlike::compress(&data);
        prop_assert_eq!(gzlike::decompress(&enc).unwrap(), data);
    }

    #[test]
    fn gzlike_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..40),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let enc = gzlike::compress(&data);
        prop_assert_eq!(gzlike::decompress(&enc).unwrap(), data);
    }

    #[test]
    fn decoders_never_panic_on_garbage(data in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = rle::decode(&data);
        let _ = delta::decode_i64(&data);
        let _ = bitpack::decode(&data);
        let _ = gzlike::decompress(&data);
        let _ = parq::read_table(&data);
        let _ = Dictionary::from_bytes(&data);
    }

    #[test]
    fn parq_u32_column_roundtrip(values in prop::collection::vec(0u32..10000, 0..300)) {
        let cols = vec![("c".to_string(), parq::ParqColumn::U32(values))];
        let (bytes, _) = parq::write_table(&cols).unwrap();
        prop_assert_eq!(parq::read_table(&bytes).unwrap(), cols);
    }

    #[test]
    fn parq_f64_column_roundtrip(values in prop::collection::vec(any::<f64>(), 0..300)) {
        let cols = vec![("f".to_string(), parq::ParqColumn::F64(values))];
        let (bytes, _) = parq::write_table(&cols).unwrap();
        let decoded = parq::read_table(&bytes).unwrap();
        match (&decoded[0].1, &cols[0].1) {
            (parq::ParqColumn::F64(a), parq::ParqColumn::F64(b)) => {
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => prop_assert!(false, "wrong column type"),
        }
    }

    // Alphabets on both sides of the switch to a Fenwick tree (past 64).
    #[test]
    fn rangecoder_adaptive_roundtrip(
        (alphabet, symbols) in (1usize..=128).prop_flat_map(|a| {
            prop::collection::vec(0..a, 1..400).prop_map(move |v| (a, v))
        }),
    ) {
        use ds_codec::rangecoder::AdaptiveModel;
        let bytes = AdaptiveModel::new(alphabet).unwrap().encode_all(symbols.iter().copied()).unwrap();
        let decoded = AdaptiveModel::new(alphabet).unwrap().decode_all(&bytes, symbols.len()).unwrap();
        let want: Vec<u32> = symbols.iter().map(|&s| s as u32).collect();
        prop_assert_eq!(decoded, want);
    }
}
