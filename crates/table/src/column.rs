//! Column storage.

use crate::{ColumnType, Result, TableError};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// A single column of data, stored contiguously by type.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Categorical values, dictionary-encoded (the paper's §4.1 form).
    Cat(CatColumn),
    /// Numeric values as `f64` (integers are represented exactly up to
    /// 2^53, far beyond anything the generators or CSVs produce).
    Num(Vec<f64>),
}

/// A categorical column as a value pool plus one `u32` code per row.
///
/// The pool is shared (`Arc`): slicing, taking and concatenating rows
/// copy 4-byte codes and bump a refcount, never a string. Pool entries
/// need **not** be distinct — a column of stored strings decodes to
/// `pool = strings, codes = 0..n` with no hashing — so two columns are
/// equal when their rows spell the same values, whatever their pools
/// and codes look like. Every code indexes the pool; the constructors
/// check that once so row access cannot go out of range.
#[derive(Debug, Clone, Default)]
pub struct CatColumn {
    pool: Arc<[Box<str>]>,
    codes: Vec<u32>,
}

impl CatColumn {
    /// Builds a column from a pool and per-row codes, refusing a code
    /// outside the pool.
    pub fn from_parts(pool: Vec<Box<str>>, codes: Vec<u32>) -> Result<CatColumn> {
        if codes.iter().any(|&c| c as usize >= pool.len()) {
            return Err(TableError::InvalidParameter(
                "categorical code outside the value pool",
            ));
        }
        Ok(CatColumn {
            pool: pool.into(),
            codes,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The shared value pool (entries may repeat; not every entry need be
    /// referenced by a row).
    pub fn pool(&self) -> &Arc<[Box<str>]> {
        &self.pool
    }

    /// The value at `row`, if in range.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.codes.get(row).map(|&c| self.entry(c))
    }

    /// Row values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.codes.iter().map(|&c| self.entry(c))
    }

    fn entry(&self, code: u32) -> &str {
        &self.pool[code as usize]
    }

    /// Maps every row through `f`, calling it once per pool entry the
    /// rows reference — in order of first appearance by row — instead of
    /// once per cell. This is how a consumer with its own dictionary
    /// (the archive's plans, a baseline's encoder) hashes each distinct
    /// value once. A slice that references a sliver of a large shared
    /// pool is mapped cell by cell instead, so the cost stays
    /// proportional to the rows, not the pool.
    pub fn translate<'a>(&'a self, mut f: impl FnMut(&'a str) -> u32) -> Vec<u32> {
        if self.pool.len() / 4 > self.codes.len() {
            return self.iter().map(f).collect();
        }
        let mut memo: Vec<Option<u32>> = vec![None; self.pool.len()];
        self.codes
            .iter()
            .map(|&c| *memo[c as usize].get_or_insert_with(|| f(&self.pool[c as usize])))
            .collect()
    }

    /// Number of distinct values among the rows.
    pub(crate) fn distinct_count(&self) -> usize {
        self.iter().collect::<HashSet<_>>().len()
    }

    /// The rows at `indexes`, in that order, over the same pool.
    pub(crate) fn take(&self, indexes: &[usize]) -> CatColumn {
        CatColumn {
            pool: Arc::clone(&self.pool),
            codes: indexes.iter().map(|&i| self.codes[i]).collect(),
        }
    }

    /// The contiguous rows `range` (which must lie inside the column)
    /// over the same pool.
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> CatColumn {
        CatColumn {
            pool: Arc::clone(&self.pool),
            codes: self.codes[range].to_vec(),
        }
    }

    /// Concatenates `parts` in order; `None` when there are none. Parts
    /// whose pool is the first part's (the same allocation, or the same
    /// entries) only have their codes copied, and the result shares that
    /// pool. For any other part, the entries its rows reference are
    /// appended to a private copy of the pool and its codes renumbered —
    /// no hashing, which is why a pool may hold duplicates.
    pub(crate) fn concat(parts: &[&CatColumn]) -> Option<CatColumn> {
        let (first, rest) = parts.split_first()?;
        let mut codes = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        codes.extend_from_slice(&first.codes);
        let mut grown: Option<Vec<Box<str>>> = None;
        for part in rest {
            if Arc::ptr_eq(&first.pool, &part.pool) || first.pool == part.pool {
                codes.extend_from_slice(&part.codes);
                continue;
            }
            let pool = grown.get_or_insert_with(|| first.pool.to_vec());
            codes.extend(part.translate(|value| {
                pool.push(value.into());
                (pool.len() - 1) as u32
            }));
        }
        Some(CatColumn {
            pool: grown.map_or_else(|| Arc::clone(&first.pool), Arc::from),
            codes,
        })
    }

    /// Resident bytes under the [`crate::Table::mem_size`] rule: 4 per
    /// code, plus each pool entry's bytes and its 16-byte `Box<str>`.
    pub(crate) fn mem_size(&self) -> usize {
        let pool: usize = self
            .pool
            .iter()
            .map(|s| s.len() + std::mem::size_of::<Box<str>>())
            .sum();
        self.codes.len() * 4 + pool
    }
}

impl std::ops::Index<usize> for CatColumn {
    type Output = str;

    fn index(&self, row: usize) -> &str {
        self.entry(self.codes[row])
    }
}

/// Equality by cell value: pools are an encoding detail.
impl PartialEq for CatColumn {
    fn eq(&self, other: &CatColumn) -> bool {
        if self.codes.len() != other.codes.len() {
            return false;
        }
        (Arc::ptr_eq(&self.pool, &other.pool) && self.codes == other.codes)
            || self.iter().eq(other.iter())
    }
}

impl<S: AsRef<str>> FromIterator<S> for CatColumn {
    fn from_iter<I: IntoIterator<Item = S>>(values: I) -> CatColumn {
        let mut b = CatBuilder::default();
        for v in values {
            b.push(v.as_ref());
        }
        b.finish()
    }
}

impl From<Vec<String>> for CatColumn {
    fn from(values: Vec<String>) -> CatColumn {
        values.into_iter().collect()
    }
}

/// Builds a [`CatColumn`] row by row. [`CatBuilder::push`] interns by
/// value; a producer that already knows which of its values repeat (the
/// generators label small integers) skips the hashing with
/// [`CatBuilder::push_new`] + [`CatBuilder::push_code`].
#[derive(Debug, Default)]
pub struct CatBuilder {
    pool: Vec<Box<str>>,
    codes: Vec<u32>,
    index: HashMap<Box<str>, u32>,
}

impl CatBuilder {
    /// An empty builder with room for `rows` codes.
    pub fn with_capacity(rows: usize) -> CatBuilder {
        CatBuilder {
            codes: Vec::with_capacity(rows),
            ..CatBuilder::default()
        }
    }

    /// Appends a row holding `value`, reusing the pool entry of an equal
    /// value pushed through this method before.
    pub fn push(&mut self, value: &str) {
        let code = match self.index.get(value) {
            Some(&code) => code,
            None => {
                let code = self.new_entry(value.into());
                self.index.insert(value.into(), code);
                code
            }
        };
        self.codes.push(code);
    }

    /// Appends a row holding `value` as a fresh pool entry (no lookup) and
    /// returns the entry's code, for [`CatBuilder::push_code`] to repeat.
    pub fn push_new(&mut self, value: String) -> u32 {
        let code = self.new_entry(value.into_boxed_str());
        self.codes.push(code);
        code
    }

    /// Appends a row repeating the pool entry `code`, which must have
    /// come from [`CatBuilder::push_new`] on this builder.
    pub fn push_code(&mut self, code: u32) {
        assert!((code as usize) < self.pool.len(), "code from this builder");
        self.codes.push(code);
    }

    fn new_entry(&mut self, value: Box<str>) -> u32 {
        let code = u32::try_from(self.pool.len()).expect("fewer than 2^32 pool entries");
        self.pool.push(value);
        code
    }

    /// The finished column; the pool is in first-appearance order.
    pub fn finish(self) -> CatColumn {
        CatColumn {
            pool: Arc::from(self.pool),
            codes: self.codes,
        }
    }
}

impl Column {
    /// A categorical column holding `values` in order.
    pub fn cat<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Column {
        Column::Cat(values.into_iter().collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Cat(v) => v.len(),
            Column::Num(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type tag.
    pub fn ty(&self) -> ColumnType {
        match self {
            Column::Cat(_) => ColumnType::Categorical,
            Column::Num(_) => ColumnType::Numeric,
        }
    }

    /// Borrows the categorical payload, if this is a categorical column.
    pub fn as_cat(&self) -> Option<&CatColumn> {
        match self {
            Column::Cat(v) => Some(v),
            Column::Num(_) => None,
        }
    }

    /// Borrows the numeric payload, if this is a numeric column.
    pub fn as_num(&self) -> Option<&[f64]> {
        match self {
            Column::Num(v) => Some(v),
            Column::Cat(_) => None,
        }
    }

    /// Number of distinct values (exact).
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Cat(v) => v.distinct_count(),
            Column::Num(v) => v.iter().map(|x| x.to_bits()).collect::<HashSet<_>>().len(),
        }
    }

    /// Renders the cell at `row` the way the CSV writer would, unquoted
    /// (test/debug aid behind [`crate::Table::row`]; the writer itself
    /// renders into its output buffer).
    pub fn format_cell(&self, row: usize) -> String {
        match self {
            Column::Cat(v) => v[row].to_owned(),
            Column::Num(v) => format_number(v[row]),
        }
    }

    /// Keeps only the rows at `indexes` (in the given order).
    pub fn take(&self, indexes: &[usize]) -> Column {
        match self {
            Column::Cat(v) => Column::Cat(v.take(indexes)),
            Column::Num(v) => Column::Num(indexes.iter().map(|&i| v[i]).collect()),
        }
    }
}

/// Appends the canonical textual form of a numeric cell to `out`:
/// integers print without a decimal point, everything else with up to 6
/// significant fractional digits, trailing zeros trimmed. Both the CSV
/// writer and the raw-size accounting use this, so "raw bytes" is
/// well-defined.
///
/// The text is that of `{}` of `v as i64` for an integer below 1e15, and
/// otherwise that of `{v:.6}` with trailing zeros and `.` trimmed: a
/// negative value keeps its sign even when it rounds to zero (`-1e-9`
/// prints `-0`), while `-0.0` is an integer and prints `0`. Integers and
/// every fraction whose rounding [`fixed6_micros`] proves go through one
/// digit writer; the rest (near ties, huge values, non-finite) through
/// `core::fmt`.
pub fn write_number(out: &mut String, v: f64) {
    let a = v.abs();
    if !v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v}");
    } else if a < 1e15 && a == (a as u64) as f64 {
        write_fixed6(out, v < 0.0, a as u64, 0);
    } else if let Some(micros) = fixed6_micros(v) {
        write_fixed6(out, v < 0.0, micros / 1_000_000, micros % 1_000_000);
    } else {
        let start = out.len();
        let _ = write!(out, "{v:.6}");
        let kept = out[start..]
            .trim_end_matches('0')
            .trim_end_matches('.')
            .len();
        out.truncate(start + kept);
    }
}

/// `|v|·10^6` rounded to the nearest integer, when `f64` arithmetic
/// proves which integer that is; `None` otherwise (then `write_number`
/// falls back to `core::fmt`).
///
/// `s = |v|·1e6` is one correctly rounded product (`1e6` is exact), so
/// the exact product lies within ½ ulp(s) of `s`. Below 2^52, truncating
/// `s` gives its floor and `s − floor(s)` is exact. If that fraction is
/// more than one ulp(s) from ½, the exact product sits on the same side
/// of the tie as `s` (no other tie is nearer than ½), so rounding `s`
/// rounds the exact value. `s·ε` bounds ulp(s) from above, which only
/// widens the band that falls back. An exact tie never passes, so the
/// tie rule of `{:.6}` never matters.
pub fn fixed6_micros(v: f64) -> Option<u64> {
    const LIMIT: f64 = (1u64 << 52) as f64;
    let s = v.abs() * 1e6;
    if s.is_nan() || s >= LIMIT {
        return None;
    }
    let whole = s as u64;
    let frac = s - whole as f64;
    if (frac - 0.5).abs() <= s * f64::EPSILON {
        return None;
    }
    Some(whole + u64::from(frac > 0.5))
}

/// `00`, `01`, …, `99`: two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the two digits of `n < 100` at `buf[at..at + 2]`.
fn put_pair(buf: &mut [u8], at: usize, n: u64) {
    let n = 2 * n as usize;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[n..n + 2]);
}

/// Appends `[-]int[.frac]` to `out`, where `frac < 10^6` counts
/// millionths, printed to 6 places with trailing zeros trimmed. The cell
/// is assembled right to left in a stack buffer and pushed once.
fn write_fixed6(out: &mut String, negative: bool, mut int: u64, mut frac: u64) {
    // Sign, 20 digits of a u64, '.', 6 fraction digits.
    let mut buf = [0u8; 28];
    let mut end = buf.len();
    let mut at = end;
    if frac != 0 {
        for _ in 0..3 {
            at -= 2;
            put_pair(&mut buf, at, frac % 100);
            frac /= 100;
        }
        at -= 1;
        buf[at] = b'.';
        while buf[end - 1] == b'0' {
            end -= 1;
        }
    }
    while int >= 100 {
        at -= 2;
        put_pair(&mut buf, at, int % 100);
        int /= 100;
    }
    if int >= 10 {
        at -= 2;
        put_pair(&mut buf, at, int);
    } else {
        at -= 1;
        buf[at] = b'0' + int as u8;
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..end]).expect("ASCII digits"));
}

/// [`write_number`] into a fresh string.
pub fn format_number(v: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let c = Column::cat(["a", "b"]);
        assert_eq!(c.ty(), ColumnType::Categorical);
        assert!(c.as_cat().is_some());
        assert!(c.as_num().is_none());
        let n = Column::Num(vec![1.0, 2.0, 2.0]);
        assert_eq!(n.ty(), ColumnType::Numeric);
        assert_eq!(n.len(), 3);
        assert_eq!(n.distinct_count(), 2);
    }

    #[test]
    fn number_formatting_is_compact_and_stable() {
        assert_eq!(format_number(42.0), "42");
        assert_eq!(format_number(-17.0), "-17");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(0.123456789), "0.123457"); // 6 digits, rounded
        assert_eq!(format_number(1.25), "1.25");
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(-0.0), "0"); // -0 truncates to integer 0
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::NEG_INFINITY), "-inf");
        // Appending leaves what was already in the buffer alone, even
        // when it ends in the characters trimming looks for.
        let mut out = String::from("10.");
        write_number(&mut out, 2.5);
        write_number(&mut out, 1e-9);
        assert_eq!(out, "10.2.50");
        assert_eq!(format_number(-1e-9), "-0"); // rounds to zero, keeps its sign
        assert_eq!(format_number(-0.9999996), "-1");
    }

    /// The rule [`write_number`] had before it wrote digits itself:
    /// `core::fmt` for every cell.
    fn fmt_reference(v: f64) -> String {
        if !v.is_finite() {
            format!("{v}")
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            let s = format!("{v:.6}");
            s.trim_end_matches('0').trim_end_matches('.').to_owned()
        }
    }

    fn step_ulps(v: f64, by: i64) -> f64 {
        f64::from_bits(v.to_bits().wrapping_add_signed(by))
    }

    #[test]
    fn digit_writer_matches_core_fmt_or_falls_back() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_f1c6);
        let mut cases: Vec<f64> = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        // Random bit patterns: every exponent, subnormals, NaN payloads.
        cases.extend((0..100_000).map(|_| f64::from_bits(rng.gen())));
        // Random magnitudes where fractional cells actually live.
        cases.extend((0..100_000).map(|_| rng.gen_range(-1e4..1e4)));
        // Nearest doubles to (k + ½)·10⁻⁶, and 1–8 ulps either side.
        let ks = (0..2_000u64).chain((0..2_000).map(|_| rng.gen_range(0..1u64 << 40)));
        for k in ks {
            let tie = (k as f64 + 0.5) / 1e6;
            for by in -8..=8 {
                cases.push(step_ulps(tie, by));
                cases.push(-step_ulps(tie, by));
            }
        }
        // Exact ties (odd multiples of 2⁻⁷ are (k + ½)·10⁻⁶ exactly).
        cases.extend((0..200).map(|k| f64::from(2 * k + 1) / 128.0));
        // Negatives that round to -0, and to -1.
        cases.extend([
            -1e-9, -4.9e-7, -5e-7, -5.1e-7, -1e-300, -0.9999995, -0.9999996,
        ]);
        // Around the fast path's bound (2^52 millionths) and around 1e15.
        for edge in [(1u64 << 52) as f64 / 1e6, 1e15, 1e15 - 0.5, 1e15 + 0.5] {
            for by in -64..=64 {
                cases.push(step_ulps(edge, by));
                cases.push(-step_ulps(edge, by));
            }
        }
        // Short decimals at every exponent from 1e-8 to 1e9.
        for exp in -8..=9 {
            for _ in 0..2_000 {
                let digits = rng.gen_range(1..=9);
                let mantissa = rng.gen_range(0..10u64.pow(digits));
                let v: f64 = format!("{mantissa}e{}", exp - digits as i32 + 1)
                    .parse()
                    .unwrap();
                cases.extend([v, -v]);
            }
        }

        let mut out = String::from("x");
        for &v in &cases {
            out.truncate(1);
            write_number(&mut out, v);
            assert_eq!(out[1..], fmt_reference(v), "{v:e} ({:#x})", v.to_bits());
        }
        // A fast path that always fell back would pass the loop above:
        // ordinary fractions must take the digit writer, ties must not.
        let ordinary = (0..10_000).map(|_| rng.gen_range(-1e4..1e4));
        assert_eq!(ordinary.filter(|&v| fixed6_micros(v).is_none()).count(), 0);
        assert_eq!(fixed6_micros(0.123457), Some(123_457));
        assert_eq!(fixed6_micros(-2.5), Some(2_500_000));
        assert_eq!(fixed6_micros(2.5e-6), None); // within an ulp of a tie
        assert_eq!(fixed6_micros(1.0 / 128.0), None); // 7812.5 millionths exactly
        assert_eq!(fixed6_micros(5e9), None); // past 2^52 millionths
        assert_eq!(fixed6_micros(f64::NAN), None);
    }

    #[test]
    fn take_reorders_and_subsets() {
        let c = Column::Num(vec![10.0, 20.0, 30.0]);
        assert_eq!(c.take(&[2, 0]), Column::Num(vec![30.0, 10.0]));
        let c = Column::cat(["x", "y"]);
        assert_eq!(c.take(&[1, 1]), Column::cat(["y", "y"]));
    }

    #[test]
    fn format_cell_matches_type() {
        let c = Column::Num(vec![1.5]);
        assert_eq!(c.format_cell(0), "1.5");
        let c = Column::cat(["hello"]);
        assert_eq!(c.format_cell(0), "hello");
    }

    fn parts(pool: &[&str], codes: &[u32]) -> CatColumn {
        let pool: Vec<Box<str>> = pool.iter().map(|&s| s.into()).collect();
        CatColumn::from_parts(pool, codes.to_vec()).expect("codes in range")
    }

    #[test]
    fn equality_is_by_cell_value_not_by_encoding() {
        let interned: CatColumn = ["b", "a", "b"].into_iter().collect();
        assert_eq!(interned.pool().len(), 2);
        assert_eq!(interned.codes, [0, 1, 0]);
        // A different pool order, and a pool with a duplicate entry.
        assert_eq!(interned, parts(&["a", "b"], &[1, 0, 1]));
        assert_eq!(interned, parts(&["b", "a", "b", "unused"], &[0, 1, 2]));
        assert_ne!(interned, parts(&["a", "b"], &[1, 0, 0]));
        assert_ne!(interned, parts(&["a", "b"], &[1, 0]));
        // The same pool with different codes is still equal when the
        // codes name duplicate entries.
        let dup = parts(&["x", "x"], &[0, 1]);
        assert_eq!(dup, dup.take(&[1, 0]));
        assert!(CatColumn::from_parts(Vec::new(), vec![0]).is_err());
    }

    #[test]
    fn rows_share_the_pool_until_pools_disagree() {
        let a = parts(&["x", "y"], &[0, 1, 1]);
        let cut = a.slice(1..3);
        assert!(Arc::ptr_eq(a.pool(), cut.pool()));
        assert!(Arc::ptr_eq(a.pool(), a.take(&[2]).pool()));
        // Same allocation, then same entries: the first pool survives.
        let same = parts(&["x", "y"], &[0]);
        let joined = CatColumn::concat(&[&a, &cut, &same]).expect("three parts");
        assert!(Arc::ptr_eq(a.pool(), joined.pool()));
        assert_eq!(joined.codes, [0, 1, 1, 1, 1, 0]);
        // A different pool: only the referenced entries are appended.
        let other = parts(&["unused", "z", "x"], &[1, 2, 1]);
        let joined = CatColumn::concat(&[&a, &other, &a]).expect("three parts");
        assert_eq!(
            joined.iter().collect::<Vec<_>>(),
            ["x", "y", "y", "z", "x", "z", "x", "y", "y"]
        );
        assert_eq!(joined.pool().len(), 4);
        assert!(CatColumn::concat(&[]).is_none());
    }

    #[test]
    fn translate_calls_once_per_referenced_entry_in_row_order() {
        let c = parts(&["unused", "b", "a", "b"], &[2, 1, 2, 3]);
        let mut calls = Vec::new();
        let out = c.translate(|s| {
            calls.push(s.to_owned());
            calls.len() as u32
        });
        assert_eq!(calls, ["a", "b", "b"]);
        assert_eq!(out, [1, 2, 1, 3]);
        assert_eq!(c.distinct_count(), 2);
        // A sliver of a large pool is mapped cell by cell.
        let wide: CatColumn = (0..100).map(|i| format!("v{i}")).collect();
        let mut n = 0;
        assert_eq!(
            wide.take(&[7, 7]).translate(|_| {
                n += 1;
                n
            }),
            [1, 2]
        );
    }

    #[test]
    fn builder_mixes_interned_and_keyed_rows() {
        let mut b = CatBuilder::with_capacity(4);
        b.push("a");
        let code = b.push_new("k".to_owned());
        b.push_code(code);
        b.push("a");
        let c = b.finish();
        assert_eq!(c.iter().collect::<Vec<_>>(), ["a", "k", "k", "a"]);
        assert_eq!(c.pool().len(), 2);
        assert_eq!(c.get(4), None);
        assert_eq!(&c[1], "k");
    }
}
