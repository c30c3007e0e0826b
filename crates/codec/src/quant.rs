//! Error-bounded quantization for numeric columns (§2.1.2, §4.2).
//!
//! Values are replaced by the midpoints of disjoint buckets sized so the
//! reconstruction error never exceeds `error × range` — the paper's
//! guaranteed-error-bound lossy scheme. Both DeepSqueeze's preprocessing
//! and the Squish baseline quantize this way, keeping the comparison fair.
//!
//! With `error = 0` the quantizer degrades to an exact value dictionary:
//! each distinct value becomes its own "bucket", so reconstruction is
//! lossless (this is how purely-integer or prequantized columns ride the
//! same code path).

use crate::{ByteReader, ByteWriter, CodecError, Result};

/// A fitted per-column quantizer.
#[derive(Debug, Clone, PartialEq)]
pub enum Quantizer {
    /// Uniform buckets of width `2·error·range` over `[min, max]`.
    Uniform {
        /// Column minimum observed at fit time.
        min: f64,
        /// Column maximum observed at fit time.
        max: f64,
        /// Number of buckets (≥ 1).
        buckets: u32,
    },
    /// Exact: every distinct value is its own symbol (lossless).
    Exact {
        /// Sorted distinct values; the bucket index is the rank.
        values: Vec<f64>,
    },
}

impl Quantizer {
    /// Fits a quantizer to `values` with relative error bound `error`
    /// (fraction of the column's range, e.g. 0.10 for the paper's "10%").
    ///
    /// `error = 0` produces an [`Quantizer::Exact`] dictionary. Errors out
    /// on NaN input or negative error.
    pub fn fit(values: &[f64], error: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&error) {
            return Err(CodecError::InvalidParameter(
                "quantizer: error not in [0,1]",
            ));
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(CodecError::InvalidParameter("quantizer: NaN input"));
        }
        if error == 0.0 {
            let mut distinct: Vec<f64> = values.to_vec();
            distinct.sort_by(f64::total_cmp);
            distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
            return Ok(Quantizer::Exact { values: distinct });
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (min, max) = if values.is_empty() {
            (0.0, 0.0)
        } else {
            (min, max)
        };
        let range = max - min;
        // Bucket width 2·error·range keeps every value within error·range
        // of its bucket midpoint.
        let buckets = if range <= 0.0 {
            1
        } else {
            (1.0 / (2.0 * error)).ceil() as u32
        };
        Ok(Quantizer::Uniform { min, max, buckets })
    }

    /// Number of distinct bucket indexes this quantizer can produce.
    pub fn cardinality(&self) -> usize {
        match self {
            Quantizer::Uniform { buckets, .. } => *buckets as usize,
            Quantizer::Exact { values } => values.len().max(1),
        }
    }

    /// Maps a value to its bucket index.
    ///
    /// Values outside the fitted range clamp to the boundary buckets
    /// (relevant when a model was fitted on a sample, §5.4).
    pub fn index_of(&self, v: f64) -> u32 {
        match self {
            Quantizer::Uniform { min, max, buckets } => {
                let range = max - min;
                if range <= 0.0 {
                    return 0;
                }
                let t = ((v - min) / range).clamp(0.0, 1.0);
                ((t * f64::from(*buckets)) as u32).min(buckets - 1)
            }
            Quantizer::Exact { values } => {
                match values.binary_search_by(|probe| probe.total_cmp(&v)) {
                    Ok(i) => i as u32,
                    // Unseen value (sample-trained): nearest neighbour.
                    Err(i) => match (i.checked_sub(1).and_then(|j| values.get(j)), values.get(i)) {
                        (Some(&lo), Some(&hi)) if (v - lo).abs() <= (hi - v).abs() => {
                            (i - 1) as u32
                        }
                        (Some(_), None) => (i - 1) as u32,
                        (Some(_), Some(_)) => i as u32,
                        (None, _) => 0,
                    },
                }
            }
        }
    }

    /// Reconstructs the representative value for a bucket index.
    pub fn value_of(&self, index: u32) -> f64 {
        match self {
            Quantizer::Uniform { min, max, buckets } => {
                let range = max - min;
                let b = f64::from(index.min(buckets - 1));
                min + range * (b + 0.5) / f64::from(*buckets)
            }
            Quantizer::Exact { values } => values
                .get(index as usize)
                .or(values.last())
                .copied()
                .unwrap_or(0.0),
        }
    }

    /// Quantizes a whole column to bucket indexes.
    pub fn encode_column(&self, values: &[f64]) -> Vec<u32> {
        values.iter().map(|&v| self.index_of(v)).collect()
    }

    /// The worst-case absolute reconstruction error this quantizer allows.
    pub fn max_abs_error(&self) -> f64 {
        match self {
            Quantizer::Uniform { min, max, buckets } => (max - min) / (2.0 * f64::from(*buckets)),
            Quantizer::Exact { .. } => 0.0,
        }
    }

    /// Serializes the quantizer.
    pub fn write_to(&self, w: &mut ByteWriter) {
        match self {
            Quantizer::Uniform { min, max, buckets } => {
                w.write_u8(0);
                w.write_f64(*min);
                w.write_f64(*max);
                w.write_u32(*buckets);
            }
            Quantizer::Exact { values } => {
                w.write_u8(1);
                w.write_varint(values.len() as u64);
                for &v in values {
                    w.write_f64(v);
                }
            }
        }
    }

    /// Reads a quantizer written by [`Quantizer::write_to`].
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.read_u8()? {
            0 => {
                let min = r.read_f64()?;
                let max = r.read_f64()?;
                let buckets = r.read_u32()?;
                if buckets == 0 {
                    return Err(CodecError::Corrupt("quantizer: zero buckets"));
                }
                Ok(Quantizer::Uniform { min, max, buckets })
            }
            1 => {
                let n = r.read_varint_usize()?;
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    values.push(r.read_f64()?);
                }
                Ok(Quantizer::Exact { values })
            }
            _ => Err(CodecError::Corrupt("quantizer: unknown tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_ten_percent_buckets() {
        // §4.2: range [0,100], threshold 10% → midpoints {10,30,50,70,90}.
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        let q = Quantizer::fit(&values, 0.10).unwrap();
        assert_eq!(q.cardinality(), 5);
        let mids: Vec<f64> = (0..5).map(|i| q.value_of(i)).collect();
        assert_eq!(mids, vec![10.0, 30.0, 50.0, 70.0, 90.0]);
    }

    #[test]
    fn error_bound_holds_for_all_inputs() {
        for error in [0.005, 0.01, 0.05, 0.10, 0.25] {
            let values: Vec<f64> = (0..1000)
                .map(|i| (f64::from(i) * 0.77).sin() * 42.0)
                .collect();
            let q = Quantizer::fit(&values, error).unwrap();
            let range = 84.0; // sin * 42 spans [-42, 42]
            for &v in &values {
                let rec = q.value_of(q.index_of(v));
                assert!(
                    (rec - v).abs() <= error * range + 1e-9,
                    "error {error}: |{rec} - {v}| > {}",
                    error * range
                );
            }
        }
    }

    #[test]
    fn exact_mode_is_lossless() {
        let values = vec![3.25, -1.0, 3.25, 100.125, 0.0, -1.0];
        let q = Quantizer::fit(&values, 0.0).unwrap();
        for &v in &values {
            assert_eq!(q.value_of(q.index_of(v)).to_bits(), v.to_bits());
        }
        assert_eq!(q.cardinality(), 4);
        assert_eq!(q.max_abs_error(), 0.0);
    }

    #[test]
    fn constant_column_is_single_bucket() {
        let values = vec![5.0; 100];
        let q = Quantizer::fit(&values, 0.10).unwrap();
        assert_eq!(q.cardinality(), 1);
        assert_eq!(q.index_of(5.0), 0);
        assert_eq!(q.value_of(0), 5.0);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let values = vec![0.0, 10.0];
        let q = Quantizer::fit(&values, 0.10).unwrap();
        assert_eq!(q.index_of(-100.0), 0);
        assert_eq!(q.index_of(1e9), q.index_of(10.0));
    }

    #[test]
    fn exact_mode_nearest_neighbour_for_unseen() {
        let q = Quantizer::fit(&[1.0, 2.0, 10.0], 0.0).unwrap();
        assert_eq!(q.value_of(q.index_of(1.4)), 1.0);
        assert_eq!(q.value_of(q.index_of(1.6)), 2.0);
        assert_eq!(q.value_of(q.index_of(-5.0)), 1.0);
        assert_eq!(q.value_of(q.index_of(99.0)), 10.0);
    }

    #[test]
    fn serialization_roundtrip() {
        let uniform = Quantizer::fit(&(0..50).map(f64::from).collect::<Vec<_>>(), 0.05).unwrap();
        let exact = Quantizer::fit(&[1.5, 2.5, -3.0], 0.0).unwrap();
        for q in [uniform, exact] {
            let mut w = ByteWriter::new();
            q.write_to(&mut w);
            let bytes = w.into_vec();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(Quantizer::read_from(&mut r).unwrap(), q);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Quantizer::fit(&[1.0], -0.1).is_err());
        assert!(Quantizer::fit(&[1.0], 1.5).is_err());
        assert!(Quantizer::fit(&[f64::NAN], 0.1).is_err());
    }

    #[test]
    fn smaller_error_means_more_buckets() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let coarse = Quantizer::fit(&values, 0.10).unwrap();
        let fine = Quantizer::fit(&values, 0.005).unwrap();
        assert!(fine.cardinality() > coarse.cardinality() * 10);
    }
}
