//! Dictionary encoding for categorical (string) columns.
//!
//! The first preprocessing step of DeepSqueeze (§4.1): each distinct value
//! is replaced by a dense `u32` code in order of first appearance. The
//! dictionary itself serializes as length-prefixed UTF-8 entries.

use crate::{ByteReader, ByteWriter, CodecError, Result};
use std::collections::HashMap;

/// A bijective mapping between distinct strings and dense `u32` codes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dictionary and the encoded column in one pass.
    pub fn encode_column<S: AsRef<str>>(values: &[S]) -> (Self, Vec<u32>) {
        let mut dict = Dictionary::new();
        let codes = values.iter().map(|v| dict.intern(v.as_ref())).collect();
        (dict, codes)
    }

    /// Returns the code for `value`, inserting it if unseen.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Looks up an existing code without inserting.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Resolves a code back to its string.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no values have been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates values in code order.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(String::as_str)
    }

    /// The values in code order, consuming the dictionary.
    pub fn into_values(self) -> Vec<String> {
        self.values
    }

    /// Decodes a code column back to strings.
    pub fn decode_column(&self, codes: &[u32]) -> Result<Vec<String>> {
        codes
            .iter()
            .map(|&c| {
                self.value_of(c)
                    .map(str::to_owned)
                    .ok_or(CodecError::Corrupt("dict: code out of range"))
            })
            .collect()
    }

    /// Serializes the dictionary (count + length-prefixed entries).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write_to(&mut w);
        w.into_vec()
    }

    /// Appends the serialized dictionary to an existing writer.
    pub fn write_to(&self, w: &mut ByteWriter) {
        w.write_varint(self.values.len() as u64);
        for v in &self.values {
            w.write_len_prefixed(v.as_bytes());
        }
    }

    /// Reads a dictionary previously written by [`Dictionary::write_to`].
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.read_varint_usize()?;
        let mut dict = Dictionary::new();
        for _ in 0..n {
            let bytes = r.read_len_prefixed()?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| CodecError::Corrupt("dict: invalid utf-8"))?;
            if dict.index.contains_key(s) {
                return Err(CodecError::Corrupt("dict: duplicate entry"));
            }
            dict.intern(s);
        }
        Ok(dict)
    }

    /// Deserializes from a standalone byte buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        Self::read_from(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_assigns_codes_in_first_appearance_order() {
        let (dict, codes) = Dictionary::encode_column(&["B", "A", "B", "C", "A"]);
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
        assert_eq!(dict.value_of(0), Some("B"));
        assert_eq!(dict.value_of(1), Some("A"));
        assert_eq!(dict.value_of(2), Some("C"));
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn decode_column_roundtrip() {
        let input = vec!["x", "y", "x", "z", "", "y"];
        let (dict, codes) = Dictionary::encode_column(&input);
        let decoded = dict.decode_column(&codes).unwrap();
        assert_eq!(decoded, input);
    }

    #[test]
    fn out_of_range_code_is_corrupt() {
        let (dict, _) = Dictionary::encode_column(&["a"]);
        assert!(dict.decode_column(&[5]).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let (dict, _) = Dictionary::encode_column(&["alpha", "beta", "γάμμα", ""]);
        let restored = Dictionary::from_bytes(&dict.to_bytes()).unwrap();
        assert_eq!(restored, dict);
    }

    #[test]
    fn duplicate_entries_rejected_on_read() {
        let mut w = ByteWriter::new();
        w.write_varint(2);
        w.write_len_prefixed(b"same");
        w.write_len_prefixed(b"same");
        assert_eq!(
            Dictionary::from_bytes(w.as_slice()).unwrap_err(),
            CodecError::Corrupt("dict: duplicate entry")
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.write_varint(1);
        w.write_len_prefixed(&[0xff, 0xfe]);
        assert!(Dictionary::from_bytes(w.as_slice()).is_err());
    }

    #[test]
    fn serialized_page_is_byte_identical_and_seed_independent() {
        // The dictionary page layout must depend only on first-appearance
        // order, never on HashMap iteration order (which varies with the
        // per-process hash seed). Two independently built dictionaries over
        // the same column must serialize identically, and the bytes must
        // match this golden vector on every run of every process.
        let column = ["b", "a", "b", "c", "a"];
        let (d1, _) = Dictionary::encode_column(&column);
        let mut d2 = Dictionary::new();
        for v in &column {
            d2.intern(v);
        }
        assert_eq!(d1.to_bytes(), d2.to_bytes());
        assert_eq!(
            d1.to_bytes(),
            vec![3, 1, b'b', 1, b'a', 1, b'c'],
            "dictionary page layout changed or became seed-dependent"
        );
    }

    #[test]
    fn code_of_matches_intern() {
        let mut dict = Dictionary::new();
        let c = dict.intern("hello");
        assert_eq!(dict.code_of("hello"), Some(c));
        assert_eq!(dict.code_of("missing"), None);
        // Re-interning must not allocate a new code.
        assert_eq!(dict.intern("hello"), c);
        assert_eq!(dict.len(), 1);
    }
}
