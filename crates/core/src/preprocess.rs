//! Preprocessing (§4): converts a table into model-ready matrices.
//!
//! Per column:
//!
//! * **Categorical** (§4.1) — dictionary-encoded. Columns whose cardinality
//!   approaches the row count (unique strings, keys) are *excluded from the
//!   model* and fall back to plain columnar compression. Skewed wide
//!   columns are clipped for training: only the most frequent values keep
//!   their own class, the tail shares an OTHER class, and exact tail values
//!   ride a side stream ("the small additional overhead associated with
//!   mispredicting infrequent values is offset by the substantial reduction
//!   in model size").
//! * **Binary** — two-valued categoricals become single-node heads with the
//!   XOR failure encoding downstream.
//! * **Numeric** (§4.2) — min-max scaled to [0,1] and quantized to bucket
//!   midpoints under the column's error threshold. With quantization
//!   disabled (the Fig. 7 ablation) the raw scaled value feeds the model
//!   and failures are stored as continuous deltas.

use crate::{DsError, Result};
use ds_codec::dict::Dictionary;
use ds_codec::quant::Quantizer;
use ds_codec::{ByteReader, ByteWriter, CodecError};
use ds_nn::autoencoder::Head;
use ds_nn::Mat;
use ds_table::{CatColumn, Column, ColumnType, Schema, Table};
use std::collections::BTreeSet;

/// How one original column participates in the pipeline.
#[derive(Debug, Clone)]
pub enum ColPlan {
    /// Quantized numeric column (model-visible, 1 node).
    Numeric {
        /// Fitted quantizer (Exact when the threshold is 0).
        quantizer: Quantizer,
        /// Min of the column at fit time (for scaling).
        min: f64,
        /// Max of the column at fit time.
        max: f64,
    },
    /// Unquantized numeric column — the "no quantization" ablation. The
    /// error threshold is still honoured at materialization time.
    NumericRaw {
        /// Min of the column at fit time.
        min: f64,
        /// Max of the column at fit time.
        max: f64,
        /// Error threshold (fraction of range).
        error: f64,
    },
    /// Two-valued categorical (model-visible, 1 node, XOR failures).
    Binary {
        /// Value dictionary (exactly 2 entries; 1 entry degenerates fine).
        dict: Dictionary,
    },
    /// Categorical (model-visible via the shared softmax head).
    Cat {
        /// Full value dictionary.
        dict: Dictionary,
        /// Number of model classes (≤ dict len; the last class is OTHER
        /// when smaller).
        model_card: usize,
        /// Model class → global dictionary code for the non-OTHER classes
        /// (length `model_card` when no OTHER, `model_card - 1` with).
        class_to_code: Vec<u32>,
    },
    /// Bypasses the model entirely; stored via the columnar fallback.
    Fallback,
}

impl ColPlan {
    /// The model head this plan contributes, if any.
    pub fn head(&self) -> Option<Head> {
        match self {
            ColPlan::Numeric { .. } | ColPlan::NumericRaw { .. } => Some(Head::Numeric),
            ColPlan::Binary { .. } => Some(Head::Binary),
            ColPlan::Cat { model_card, .. } => Some(Head::Categorical { card: *model_card }),
            ColPlan::Fallback => None,
        }
    }

    /// Serializes the plan.
    pub fn write_to(&self, w: &mut ByteWriter) {
        match self {
            ColPlan::Numeric {
                quantizer,
                min,
                max,
            } => {
                w.write_u8(0);
                quantizer.write_to(w);
                w.write_f64(*min);
                w.write_f64(*max);
            }
            ColPlan::NumericRaw { min, max, error } => {
                w.write_u8(1);
                w.write_f64(*min);
                w.write_f64(*max);
                w.write_f64(*error);
            }
            ColPlan::Binary { dict } => {
                w.write_u8(2);
                dict.write_to(w);
            }
            ColPlan::Cat {
                dict,
                model_card,
                class_to_code,
            } => {
                w.write_u8(3);
                dict.write_to(w);
                w.write_varint(*model_card as u64);
                w.write_varint(class_to_code.len() as u64);
                for &c in class_to_code {
                    w.write_varint(u64::from(c));
                }
            }
            ColPlan::Fallback => w.write_u8(4),
        }
    }

    /// Reads a plan written by [`ColPlan::write_to`].
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(match r.read_u8()? {
            0 => ColPlan::Numeric {
                quantizer: Quantizer::read_from(r)?,
                min: r.read_f64()?,
                max: r.read_f64()?,
            },
            1 => ColPlan::NumericRaw {
                min: r.read_f64()?,
                max: r.read_f64()?,
                error: r.read_f64()?,
            },
            2 => ColPlan::Binary {
                dict: Dictionary::read_from(r)?,
            },
            3 => {
                let dict = Dictionary::read_from(r)?;
                let model_card = r.read_varint()? as usize;
                let n = r.read_varint()? as usize;
                if n > dict.len().max(1) {
                    return Err(DsError::Corrupt("class map larger than dictionary"));
                }
                let mut class_to_code = Vec::with_capacity(n);
                for _ in 0..n {
                    class_to_code.push(r.read_varint()? as u32);
                }
                ColPlan::Cat {
                    dict,
                    model_card,
                    class_to_code,
                }
            }
            4 => ColPlan::Fallback,
            _ => return Err(DsError::Corrupt("unknown column plan tag")),
        })
    }
}

/// Everything the trainer and materializer need about a preprocessed table.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Per original column.
    pub plans: Vec<ColPlan>,
    /// Original column index of each model-visible column, in model order.
    pub model_cols: Vec<usize>,
    /// Heads aligned with `model_cols`.
    pub heads: Vec<Head>,
    /// Model input matrix, `nrows × model_cols.len()`, all values in [0,1].
    pub x: Mat,
    /// Training targets for categorical heads (model-class codes, clamped
    /// to OTHER), aligned with the categorical heads in model order.
    pub cat_targets: Vec<Vec<u32>>,
    /// Per original column: the discretized "true" codes used by
    /// materialization (bucket indexes / dict codes / bits). `None` for
    /// fallback and raw-numeric columns.
    pub true_codes: Vec<Option<Vec<u32>>>,
}

/// Preprocessing knobs (a subset of [`crate::DsConfig`]).
#[derive(Debug, Clone)]
pub struct PreprocessOptions {
    /// Per-column relative error bound for numeric columns.
    pub error_thresholds: Vec<f64>,
    /// Categorical columns with `distinct/rows` above this (and more than
    /// 64 distinct values) bypass the model.
    pub high_card_ratio: f64,
    /// Maximum model classes per categorical column (skew clipping).
    pub max_train_card: usize,
    /// Fig. 7 ablation: disable quantization.
    pub quantize_numerics: bool,
}

/// Hard cap on a streaming dictionary's size. A categorical column that
/// exceeds this many distinct values is forced onto the columnar
/// [`ColPlan::Fallback`] path — unbounded dictionaries would defeat the
/// streaming pipeline's O(chunk + sample + model) memory contract, and a
/// column this wide is a poor model input anyway. The rule is monotone
/// (applied identically however the rows are chunked) so plans never
/// depend on chunk size.
pub const DICT_CAP: usize = 1 << 16;

/// `f64` → `u64` key that sorts (as unsigned) exactly like
/// [`f64::total_cmp`] orders the floats. Lets a `BTreeSet<u64>` reproduce
/// the sorted-dedup-by-bits behaviour of [`Quantizer::fit`] incrementally.
fn total_order_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`total_order_key`].
fn total_order_value(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & 0x7FFF_FFFF_FFFF_FFFF)
    } else {
        f64::from_bits(!k)
    }
}

/// One-pass accumulator for a numeric column: the running min/max, NaN
/// sighting, and (only when a lossless `error = 0` quantizer will be fit)
/// the distinct value set in total order.
#[derive(Debug, Clone)]
pub struct NumColStats {
    min: f64,
    max: f64,
    count: usize,
    saw_nan: bool,
    distinct: Option<BTreeSet<u64>>,
}

impl NumColStats {
    pub(crate) fn new(track_distinct: bool) -> Self {
        NumColStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
            saw_nan: false,
            distinct: track_distinct.then(BTreeSet::new),
        }
    }

    pub(crate) fn push(&mut self, v: f64) {
        self.count += 1;
        if v.is_nan() {
            self.saw_nan = true;
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if let Some(d) = &mut self.distinct {
            d.insert(total_order_key(v));
        }
    }
}

/// One-pass accumulator for a categorical column: the first-appearance
/// dictionary plus per-code frequencies, capped at [`DICT_CAP`] distinct
/// values (past the cap the column is marked for fallback and the
/// dictionary is dropped, bounding memory).
#[derive(Debug, Clone)]
pub struct CatColStats {
    dict: Dictionary,
    freq: Vec<u64>,
    count: usize,
    overflowed: bool,
}

impl CatColStats {
    pub(crate) fn new() -> Self {
        CatColStats {
            dict: Dictionary::new(),
            freq: Vec::new(),
            count: 0,
            overflowed: false,
        }
    }

    pub(crate) fn push(&mut self, v: &str) {
        self.count += 1;
        if self.overflowed {
            return;
        }
        let code = self.dict.intern(v) as usize;
        if self.dict.len() > DICT_CAP {
            self.overflow();
            return;
        }
        if code == self.freq.len() {
            self.freq.push(0);
        }
        self.freq[code] += 1;
    }

    /// Folds a whole column in row order, interning each pool entry the
    /// rows reference once — the dictionary still fills in order of first
    /// appearance by row, whatever order the column's pool is in.
    fn push_column(&mut self, col: &CatColumn) {
        self.count += col.len();
        if self.overflowed {
            return;
        }
        let dict = &mut self.dict;
        let codes = col.translate(|v| {
            if dict.len() > DICT_CAP {
                return 0;
            }
            dict.intern(v)
        });
        if self.dict.len() > DICT_CAP {
            self.overflow();
            return;
        }
        self.freq.resize(self.dict.len(), 0);
        for code in codes {
            self.freq[code as usize] += 1;
        }
    }

    /// Continues this fold with `later`, the statistics of the rows that
    /// follow: the result is the fold of both runs of rows in order (the
    /// dictionary keeps first-appearance order, frequencies add, and the
    /// cap trips exactly when the union of both runs exceeds it).
    pub(crate) fn append(&mut self, later: CatColStats) {
        self.count += later.count;
        if self.overflowed {
            return;
        }
        if later.overflowed {
            self.overflow();
            return;
        }
        for (code, &freq) in later.freq.iter().enumerate() {
            let Some(value) = later.dict.value_of(code as u32) else {
                continue;
            };
            let code = self.dict.intern(value) as usize;
            if self.dict.len() > DICT_CAP {
                self.overflow();
                return;
            }
            if code == self.freq.len() {
                self.freq.push(0);
            }
            self.freq[code] += freq;
        }
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.dict = Dictionary::new();
        self.freq = Vec::new();
    }
}

/// Streaming statistics for one column.
#[derive(Debug, Clone)]
pub enum ColumnStats {
    /// Numeric column accumulator.
    Num(NumColStats),
    /// Categorical column accumulator.
    Cat(CatColStats),
}

/// One-pass statistics over a whole table, fed chunk by chunk in row order.
/// This is pass 1 of the streaming pipeline: after the last chunk,
/// [`TableStats::into_plans`] produces exactly the [`ColPlan`]s that
/// [`preprocess`] would fit on the concatenation of every chunk.
#[derive(Debug, Clone)]
pub struct TableStats {
    schema: Schema,
    opts: PreprocessOptions,
    cols: Vec<ColumnStats>,
    rows: usize,
}

impl TableStats {
    /// Creates an empty accumulator, validating the options against the
    /// schema (threshold arity and range, `max_train_card`).
    pub fn new(schema: &Schema, opts: &PreprocessOptions) -> Result<Self> {
        if opts.error_thresholds.len() != schema.len() {
            return Err(DsError::InvalidConfig(
                "one error threshold per column required",
            ));
        }
        if opts.max_train_card < 3 {
            return Err(DsError::InvalidConfig("max_train_card must be >= 3"));
        }
        let mut cols = Vec::with_capacity(schema.len());
        for (f, &error) in schema.fields().iter().zip(&opts.error_thresholds) {
            match f.ty {
                ColumnType::Numeric => {
                    if !(0.0..=1.0).contains(&error) {
                        return Err(DsError::InvalidConfig("error threshold not in [0,1]"));
                    }
                    let track = error == 0.0 && opts.quantize_numerics;
                    cols.push(ColumnStats::Num(NumColStats::new(track)));
                }
                ColumnType::Categorical => cols.push(ColumnStats::Cat(CatColStats::new())),
            }
        }
        Ok(TableStats {
            schema: schema.clone(),
            opts: opts.clone(),
            cols,
            rows: 0,
        })
    }

    /// Assembles an accumulator from already-filled per-column stats (the
    /// CSV probe fills dual-mode stats before the schema is known). Runs
    /// the same option validation as [`TableStats::new`].
    pub(crate) fn from_parts(
        schema: Schema,
        opts: PreprocessOptions,
        cols: Vec<ColumnStats>,
        rows: usize,
    ) -> Result<Self> {
        let mut validated = TableStats::new(&schema, &opts)?;
        if cols.len() != validated.cols.len() {
            return Err(DsError::InvalidConfig("column stats arity mismatch"));
        }
        validated.cols = cols;
        validated.rows = rows;
        Ok(validated)
    }

    /// Folds one chunk of rows into the statistics. Chunks must share the
    /// accumulator's schema and arrive in row order.
    pub fn update(&mut self, chunk: &Table) -> Result<()> {
        if chunk.schema() != &self.schema {
            return Err(DsError::InvalidConfig("chunk schema mismatch"));
        }
        for (col, stats) in chunk.columns().iter().zip(&mut self.cols) {
            match (col, stats) {
                (Column::Num(values), ColumnStats::Num(s)) => {
                    for &v in values {
                        s.push(v);
                    }
                }
                (Column::Cat(values), ColumnStats::Cat(s)) => s.push_column(values),
                _ => return Err(DsError::InvalidConfig("chunk schema mismatch")),
            }
        }
        self.rows += chunk.nrows();
        Ok(())
    }

    /// Rows folded in so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Finalizes the accumulated statistics into per-column plans —
    /// identical to what [`preprocess`] fits on the same rows.
    pub fn into_plans(self) -> Result<Vec<ColPlan>> {
        let rows = self.rows;
        let opts = &self.opts;
        let mut plans = Vec::with_capacity(self.cols.len());
        for (stats, &error) in self.cols.into_iter().zip(&opts.error_thresholds) {
            match stats {
                ColumnStats::Num(s) => {
                    let (min, max) = if s.count == 0 {
                        (0.0, 0.0)
                    } else {
                        (s.min, s.max)
                    };
                    if !opts.quantize_numerics {
                        plans.push(ColPlan::NumericRaw { min, max, error });
                        continue;
                    }
                    if s.saw_nan {
                        // Same failure Quantizer::fit reports on NaN input.
                        return Err(DsError::Codec(CodecError::InvalidParameter(
                            "quantizer: NaN input",
                        )));
                    }
                    let quantizer = if error == 0.0 {
                        let distinct = s.distinct.ok_or(DsError::InvalidConfig(
                            "internal: distinct tracking missing for exact quantizer",
                        ))?;
                        let values = distinct.into_iter().map(total_order_value).collect();
                        Quantizer::Exact { values }
                    } else {
                        let range = max - min;
                        let buckets = if range <= 0.0 {
                            1
                        } else {
                            (1.0 / (2.0 * error)).ceil() as u32
                        };
                        Quantizer::Uniform { min, max, buckets }
                    };
                    plans.push(ColPlan::Numeric {
                        quantizer,
                        min,
                        max,
                    });
                }
                ColumnStats::Cat(s) => {
                    let distinct = s.dict.len();
                    let too_wide = rows > 0
                        && distinct > 64
                        && distinct as f64 > opts.high_card_ratio * rows as f64;
                    if s.overflowed || too_wide {
                        plans.push(ColPlan::Fallback);
                    } else if distinct <= 2 {
                        plans.push(ColPlan::Binary { dict: s.dict });
                    } else if distinct <= opts.max_train_card {
                        let class_to_code = (0..distinct as u32).collect();
                        plans.push(ColPlan::Cat {
                            dict: s.dict,
                            model_card: distinct,
                            class_to_code,
                        });
                    } else {
                        // Skew clipping: top (max_train_card - 1) values
                        // keep a class; everything else shares OTHER.
                        let mut by_freq: Vec<(u32, u64)> = s
                            .freq
                            .iter()
                            .enumerate()
                            .map(|(c, &n)| (c as u32, n))
                            .collect();
                        // Sort by (count desc, code asc) for determinism.
                        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        let keep = opts.max_train_card - 1;
                        let class_to_code: Vec<u32> =
                            by_freq.iter().take(keep).map(|&(c, _)| c).collect();
                        plans.push(ColPlan::Cat {
                            dict: s.dict,
                            model_card: opts.max_train_card,
                            class_to_code,
                        });
                    }
                }
            }
        }
        Ok(plans)
    }
}

/// Runs preprocessing over a table.
///
/// Implemented as the degenerate one-chunk case of the streaming stages:
/// accumulate [`TableStats`], finalize plans, then encode the same rows
/// through [`apply_plans`] — so the in-memory and streaming pipelines fit
/// byte-identical plans by construction. On the fitting table the plans
/// represent every cell, so the encoder's patch list is empty and the
/// resulting [`Preprocessed`] matches what the historical single-pass
/// implementation produced.
pub fn preprocess(table: &Table, opts: &PreprocessOptions) -> Result<Preprocessed> {
    let mut stats = TableStats::new(table.schema(), opts)?;
    stats.update(table)?;
    let plans = stats.into_plans()?;
    let (prep, _patches) = apply_plans(table, &plans)?;
    Ok(prep)
}

/// A cell that the fitted plans cannot represent (unseen categorical
/// value, numeric outside the fitted quantizer's error envelope). Patches
/// are stored verbatim in the archive and applied after reconstruction —
/// the mechanism behind the streaming scenario (§3), where batches arrive
/// after the model was fitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Original column index.
    pub col: usize,
    /// Original row index.
    pub row: usize,
    /// Exact replacement value.
    pub value: PatchValue,
}

/// Patch payload.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchValue {
    /// Exact numeric value.
    Num(f64),
    /// Exact string value.
    Str(String),
}

/// Applies *fitted* plans to a new table (same schema), producing model
/// inputs plus patches for every cell the plans cannot represent.
///
/// Unlike [`preprocess`], nothing is re-fitted: dictionaries, quantizers
/// and scaling ranges come from the plans. This is the encoder the
/// streaming scenario pushes to clients.
pub fn apply_plans(table: &Table, plans: &[ColPlan]) -> Result<(Preprocessed, Vec<Patch>)> {
    if plans.len() != table.ncols() {
        return Err(DsError::InvalidConfig("plan arity mismatch"));
    }
    for (i, plan) in plans.iter().enumerate() {
        let col = table.column(i).expect("arity checked");
        let ok = matches!(
            (plan, col),
            (
                ColPlan::Numeric { .. } | ColPlan::NumericRaw { .. },
                Column::Num(_)
            ) | (
                ColPlan::Binary { .. } | ColPlan::Cat { .. } | ColPlan::Fallback,
                Column::Cat(_)
            )
        );
        if !ok {
            return Err(DsError::InvalidConfig("plan/column type mismatch"));
        }
    }
    let n = table.nrows();
    let mut patches = Vec::new();
    let mut true_codes: Vec<Option<Vec<u32>>> = Vec::with_capacity(plans.len());
    let mut model_cols = Vec::new();
    let mut heads = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        if let Some(h) = plan.head() {
            model_cols.push(i);
            heads.push(h);
        }
        match (plan, table.column(i).expect("arity checked")) {
            (ColPlan::Numeric { quantizer, .. }, Column::Num(values)) => {
                let tol = quantizer.max_abs_error() * (1.0 + 1e-9) + 1e-12;
                let codes = values
                    .iter()
                    .enumerate()
                    .map(|(r, &v)| {
                        let idx = quantizer.index_of(v);
                        if (quantizer.value_of(idx) - v).abs() > tol {
                            patches.push(Patch {
                                col: i,
                                row: r,
                                value: PatchValue::Num(v),
                            });
                        }
                        idx
                    })
                    .collect();
                true_codes.push(Some(codes));
            }
            (ColPlan::NumericRaw { .. }, Column::Num(_)) => {
                // Raw numeric failures store exact deltas; nothing to patch.
                true_codes.push(None);
            }
            (ColPlan::Binary { dict } | ColPlan::Cat { dict, .. }, Column::Cat(values)) => {
                // One dictionary probe per pool entry, not per cell. A
                // value the plan has never seen is patched and coded 0.
                const UNSEEN: u32 = u32::MAX;
                let mut codes = values.translate(|v| dict.code_of(v).unwrap_or(UNSEEN));
                for (r, code) in codes.iter_mut().enumerate() {
                    if *code == UNSEEN {
                        patches.push(Patch {
                            col: i,
                            row: r,
                            value: PatchValue::Str(values[r].to_owned()),
                        });
                        *code = 0;
                    }
                }
                true_codes.push(Some(codes));
            }
            (ColPlan::Fallback, Column::Cat(_)) => true_codes.push(None),
            _ => unreachable!("type agreement checked above"),
        }
    }

    // Build x / cat_targets exactly as `preprocess` does, from the codes.
    let mut x = ds_nn::Mat::zeros(n, model_cols.len());
    let mut cat_targets: Vec<Vec<u32>> = Vec::new();
    for (slot, &i) in model_cols.iter().enumerate() {
        match (&plans[i], table.column(i).expect("arity checked")) {
            (
                ColPlan::Numeric {
                    quantizer,
                    min,
                    max,
                },
                Column::Num(_),
            ) => {
                let codes = true_codes[i].as_ref().expect("numeric has codes");
                let span = (max - min).max(f64::MIN_POSITIVE);
                for (r, &code) in codes.iter().enumerate() {
                    let mid = quantizer.value_of(code);
                    x.set(r, slot, (((mid - min) / span).clamp(0.0, 1.0)) as f32);
                }
            }
            (ColPlan::NumericRaw { min, max, .. }, Column::Num(values)) => {
                let span = (max - min).max(f64::MIN_POSITIVE);
                for (r, &v) in values.iter().enumerate() {
                    x.set(r, slot, (((v - min) / span).clamp(0.0, 1.0)) as f32);
                }
            }
            (ColPlan::Binary { .. }, Column::Cat(_)) => {
                let codes = true_codes[i].as_ref().expect("binary has codes");
                for (r, &code) in codes.iter().enumerate() {
                    x.set(r, slot, (code.min(1)) as f32);
                }
            }
            (
                ColPlan::Cat {
                    model_card,
                    class_to_code,
                    ..
                },
                Column::Cat(_),
            ) => {
                let codes = true_codes[i].as_ref().expect("cat has codes");
                let denom = (*model_card - 1).max(1) as f32;
                let mut targets = Vec::with_capacity(n);
                for (r, &code) in codes.iter().enumerate() {
                    let class = class_of_code(class_to_code, *model_card, code);
                    targets.push(class);
                    x.set(r, slot, class as f32 / denom);
                }
                cat_targets.push(targets);
            }
            _ => unreachable!(),
        }
    }

    Ok((
        Preprocessed {
            plans: plans.to_vec(),
            model_cols,
            heads,
            x,
            cat_targets,
            true_codes,
        },
        patches,
    ))
}

/// Maps a global dictionary code to its model class under a Cat plan.
pub fn class_of_code(class_to_code: &[u32], model_card: usize, code: u32) -> u32 {
    match class_to_code.iter().position(|&c| c == code) {
        Some(class) => class as u32,
        None => (model_card - 1) as u32, // OTHER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::gen;

    fn opts(ncols: usize, error: f64) -> PreprocessOptions {
        PreprocessOptions {
            error_thresholds: vec![error; ncols],
            high_card_ratio: 0.5,
            max_train_card: 64,
            quantize_numerics: true,
        }
    }

    #[test]
    fn numeric_inputs_scaled_to_unit_interval() {
        let t = gen::monitor_like(200, 1);
        let p = preprocess(&t, &opts(t.ncols(), 0.05)).unwrap();
        assert_eq!(p.x.cols(), 17);
        for &v in p.x.data() {
            assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
        // All columns are model-visible numerics.
        assert_eq!(p.heads.len(), 17);
        assert!(p.heads.iter().all(|h| matches!(h, Head::Numeric)));
        assert!(p.cat_targets.is_empty());
    }

    #[test]
    fn binary_columns_become_binary_heads() {
        let t = gen::forest_like(150, 2);
        let p = preprocess(&t, &opts(t.ncols(), 0.1)).unwrap();
        let binary_heads = p.heads.iter().filter(|h| matches!(h, Head::Binary)).count();
        // 4 wilderness + 40 soil one-hot columns are binary.
        assert_eq!(binary_heads, 44);
        let cat_heads = p
            .heads
            .iter()
            .filter(|h| matches!(h, Head::Categorical { .. }))
            .count();
        assert_eq!(cat_heads, 1); // cover type
        assert_eq!(p.cat_targets.len(), 1);
    }

    #[test]
    fn high_cardinality_columns_fall_back() {
        let t = gen::criteo_like(400, 3);
        let p = preprocess(&t, &opts(t.ncols(), 0.1)).unwrap();
        let fallbacks = p
            .plans
            .iter()
            .filter(|p| matches!(p, ColPlan::Fallback))
            .count();
        assert_eq!(fallbacks, 2, "the two hash columns must fall back");
        // Fallback columns contribute no head.
        assert_eq!(p.heads.len(), t.ncols() - 2);
    }

    #[test]
    fn skew_clipping_creates_other_class() {
        // One categorical column with 100 distinct skewed values.
        let values: Vec<String> = (0..2000)
            .map(|i| format!("v{}", if i % 3 == 0 { i % 100 } else { i % 5 }))
            .collect();
        let t = ds_table::Table::from_columns(vec![("c".into(), ds_table::Column::cat(values))])
            .unwrap();
        let mut o = opts(1, 0.0);
        o.max_train_card = 16;
        let p = preprocess(&t, &o).unwrap();
        match &p.plans[0] {
            ColPlan::Cat {
                dict,
                model_card,
                class_to_code,
            } => {
                assert_eq!(*model_card, 16);
                assert_eq!(class_to_code.len(), 15);
                assert!(dict.len() > 16);
            }
            other => panic!("wrong plan {other:?}"),
        }
        // Targets stay within model_card.
        assert!(p.cat_targets[0].iter().all(|&c| c < 16));
        // The frequent values map to themselves (head classes), and some
        // rows land in OTHER.
        assert!(p.cat_targets[0].contains(&15));
    }

    #[test]
    fn quantization_codes_respect_error_bound() {
        let t = gen::corel_like(300, 5);
        let p = preprocess(&t, &opts(t.ncols(), 0.10)).unwrap();
        for (i, plan) in p.plans.iter().enumerate() {
            if let ColPlan::Numeric { quantizer, .. } = plan {
                let original = t.column(i).unwrap().as_num().unwrap();
                let codes = p.true_codes[i].as_ref().unwrap();
                for (&v, &c) in original.iter().zip(codes) {
                    let rec = quantizer.value_of(c);
                    assert!((rec - v).abs() <= quantizer.max_abs_error() + 1e-12);
                }
            } else {
                panic!("corel is all numeric");
            }
        }
    }

    #[test]
    fn no_quantization_option_keeps_raw_values() {
        let t = gen::monitor_like(100, 7);
        let mut o = opts(t.ncols(), 0.10);
        o.quantize_numerics = false;
        let p = preprocess(&t, &o).unwrap();
        assert!(p
            .plans
            .iter()
            .all(|pl| matches!(pl, ColPlan::NumericRaw { .. })));
        assert!(p.true_codes.iter().all(Option::is_none));
    }

    #[test]
    fn plan_serialization_roundtrip() {
        let t = gen::criteo_like(300, 11);
        let mut o = opts(t.ncols(), 0.05);
        o.max_train_card = 32;
        let p = preprocess(&t, &o).unwrap();
        for plan in &p.plans {
            let mut w = ByteWriter::new();
            plan.write_to(&mut w);
            let bytes = w.into_vec();
            let mut r = ByteReader::new(&bytes);
            let restored = ColPlan::read_from(&mut r).unwrap();
            // Compare via re-serialization (ColPlan has no PartialEq since
            // Quantizer holds floats compared bitwise there).
            let mut w2 = ByteWriter::new();
            restored.write_to(&mut w2);
            assert_eq!(w2.as_slice(), bytes.as_slice());
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let t = gen::corel_like(10, 1);
        assert!(preprocess(
            &t,
            &PreprocessOptions {
                error_thresholds: vec![0.1; 3], // wrong arity
                high_card_ratio: 0.5,
                max_train_card: 64,
                quantize_numerics: true,
            }
        )
        .is_err());
        let mut o = opts(t.ncols(), 0.1);
        o.max_train_card = 2;
        assert!(preprocess(&t, &o).is_err());
        let o = opts(t.ncols(), 1.5);
        assert!(preprocess(&t, &o).is_err());
    }

    #[test]
    fn class_of_code_maps_other() {
        let map = vec![10u32, 20, 30];
        assert_eq!(class_of_code(&map, 4, 20), 1);
        assert_eq!(class_of_code(&map, 4, 99), 3); // OTHER
    }

    fn plan_bytes(plans: &[ColPlan]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for p in plans {
            p.write_to(&mut w);
        }
        w.into_vec()
    }

    #[test]
    fn chunked_stats_fit_identical_plans() {
        // Every column family at once: skewed categoricals, binaries,
        // high-card fallbacks, exact and bucketed numerics.
        for (t, error) in [
            (gen::criteo_like(500, 9), 0.05),
            (gen::census_like(500, 9), 0.0),
            (gen::forest_like(300, 4), 0.1),
        ] {
            let o = opts(t.ncols(), error);
            let whole = preprocess(&t, &o).unwrap();
            for chunk_rows in [1usize, 7, 64, t.nrows() + 1] {
                let mut stats = TableStats::new(t.schema(), &o).unwrap();
                let mut lo = 0;
                while lo < t.nrows() {
                    stats
                        .update(&t.slice_rows(lo..(lo + chunk_rows).min(t.nrows())))
                        .unwrap();
                    lo += chunk_rows;
                }
                assert_eq!(stats.rows(), t.nrows());
                let plans = stats.into_plans().unwrap();
                assert_eq!(
                    plan_bytes(&plans),
                    plan_bytes(&whole.plans),
                    "chunk_rows={chunk_rows}"
                );
            }
        }
        // A chunk of another schema is refused.
        let t = gen::census_like(10, 1);
        let mut stats = TableStats::new(t.schema(), &opts(t.ncols(), 0.0)).unwrap();
        assert!(stats.update(&gen::corel_like(10, 1)).is_err());
    }

    #[test]
    fn dictionary_cap_forces_fallback() {
        let values: Vec<String> = (0..DICT_CAP + 10).map(|i| format!("u{i}")).collect();
        let n = values.len();
        let t = ds_table::Table::from_columns(vec![("c".into(), ds_table::Column::cat(values))])
            .unwrap();
        // high_card_ratio 2.0 would normally keep this column on the
        // model; the cap overrides it.
        let o = PreprocessOptions {
            error_thresholds: vec![0.0],
            high_card_ratio: 2.0,
            max_train_card: 64,
            quantize_numerics: true,
        };
        let mut stats = TableStats::new(t.schema(), &o).unwrap();
        stats.update(&t).unwrap();
        assert_eq!(stats.rows(), n);
        let plans = stats.into_plans().unwrap();
        assert!(matches!(plans[0], ColPlan::Fallback));
    }

    /// `append` of the stats of two consecutive runs of rows equals one
    /// fold of all of them in order: dictionary order, frequencies, count,
    /// and the cap, including a union that overflows when neither run does.
    #[test]
    fn appended_stats_equal_one_fold_in_row_order() {
        let summary = |s: &CatColStats| {
            let values: Vec<&str> = (0..s.dict.len() as u32)
                .filter_map(|c| s.dict.value_of(c))
                .collect();
            format!("{values:?} {:?} {} {}", s.freq, s.count, s.overflowed)
        };
        let repeats: Vec<String> = (0..40).map(|i| format!("v{}", (i * 7) % 11)).collect();
        let just_over: Vec<String> = (0..=DICT_CAP).map(|i| format!("u{i}")).collect();
        let at_cap: Vec<String> = (0..DICT_CAP + 9)
            .map(|i| format!("w{}", i % DICT_CAP))
            .collect();
        for values in [&repeats, &just_over, &at_cap] {
            let mut whole = CatColStats::new();
            values.iter().for_each(|v| whole.push(v));
            for split in [0, 1, values.len() / 2, values.len() - 1, values.len()] {
                let (head, tail) = values.split_at(split);
                let mut a = CatColStats::new();
                head.iter().for_each(|v| a.push(v));
                let mut b = CatColStats::new();
                tail.iter().for_each(|v| b.push(v));
                a.append(b);
                assert_eq!(
                    summary(&a),
                    summary(&whole),
                    "split {split} of {}",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn total_order_key_roundtrips_and_sorts() {
        let mut vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::INFINITY,
        ];
        for v in vals {
            assert_eq!(total_order_value(total_order_key(v)).to_bits(), v.to_bits());
        }
        let mut keys: Vec<u64> = vals.iter().map(|&v| total_order_key(v)).collect();
        keys.sort_unstable();
        vals.sort_by(f64::total_cmp);
        let back: Vec<u64> = vals.iter().map(|&v| total_order_key(v)).collect();
        assert_eq!(keys, back);
    }
}
