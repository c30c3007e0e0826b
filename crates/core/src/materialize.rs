//! Materialization (§6): serializes everything decompression needs —
//! decoder weights, codes, failures, and the expert mapping — applying the
//! paper's columnar encodings to each component.
//!
//! * **Decoder** (§6.1): only the decoder half of each expert, with a
//!   final gzip-like pass over the exported weights.
//! * **Codes** (§6.2): each code dimension is quantized ("truncated") to
//!   `b` bits and stored as integers, at the one `b` this module is given.
//!   `TrainedCompressor::fit` picks it once per archive, as the paper does
//!   per dataset, by measuring [`encode_streams`] per candidate width on
//!   the training sample — truncation only pays if the extra failures
//!   don't eat the win — so a row of a row group costs one decoder pass
//!   and one entropy pass, over the codes its assignment already made.
//! * **Failures** (§6.3): rank-of-true-value for categorical columns
//!   (mostly zeros → RLE/Huffman-friendly), XOR bitmaps for binary
//!   columns, bucket-index deltas for quantized numerics — all through the
//!   [`ds_codec::parq`] columnar container.
//! * **Expert mapping** (§6.4): both strategies are built — grouped-by-
//!   expert with delta-coded original indexes, and in-order per-tuple
//!   labels run-length-coded — and the smaller one wins; an order-free
//!   variant drops the indexes entirely for relational tables.

use crate::archive::{DsArchive, SizeBreakdown, MAGIC, VERSION};
use crate::preprocess::{ColPlan, Patch, PatchValue, Preprocessed};
use crate::{DsError, Result};
use ds_codec::rangecoder::AdaptiveModel;
use ds_codec::{delta, gzlike, parq, rle, ByteWriter};
use ds_nn::autoencoder::DecodedBatch;
use ds_nn::{serialize, Assignment, Mat, MoeAutoencoder};
use ds_table::Table;

/// Materialization knobs.
#[derive(Debug, Clone)]
pub struct MaterializeOptions {
    /// Code width in bits (§6.2 truncation), in 1..=32.
    pub code_bits: u8,
    /// §6.4: drop original row order (legal for relational tables); rows
    /// come back grouped by expert.
    pub order_free: bool,
    /// Write an empty decoder blob even when a model is present. Used by
    /// the sharded container, which stores the (identical) decoder once in
    /// the container manifest instead of repeating it per row group;
    /// decompression then substitutes the shared blob.
    pub omit_decoder: bool,
}

/// Expert-mapping strategies (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingStrategy {
    /// Rows grouped by expert; original indexes delta-coded per group.
    GroupedIndexes = 0,
    /// Rows in original order; per-tuple expert labels RLE-coded.
    Labels = 1,
    /// Rows grouped by expert; only group sizes stored (order-free).
    GroupedOrderFree = 2,
    /// Rows in original order; labels entropy-coded with the adaptive
    /// range coder — near the mapping's actual entropy when assignments
    /// interleave (where RLE degenerates to a byte per run).
    ArithLabels = 3,
}

/// Internal: per-expert row groups plus the storage order they imply.
pub(crate) struct RowLayout {
    /// Chosen strategy.
    pub strategy: MappingStrategy,
    /// Serialized mapping payload.
    pub payload: Vec<u8>,
    /// storage position → original row index.
    pub storage_to_original: Vec<usize>,
    /// Per expert: storage positions of its rows (ascending). Under every
    /// strategy an expert's rows keep their original relative order, so
    /// this is also each expert's rows in ascending original order.
    pub expert_rows: Vec<Vec<usize>>,
}

/// Builds the expert mapping, choosing the cheaper §6.4 strategy.
pub(crate) fn plan_rows(
    assignments: &[usize],
    n_experts: usize,
    order_free: bool,
) -> Result<RowLayout> {
    let n = assignments.len();
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_experts];
    for (r, &e) in assignments.iter().enumerate() {
        let g = groups
            .get_mut(e)
            .ok_or(DsError::InvalidConfig("assignment out of range"))?;
        g.push(r as u32);
    }

    // Strategy A / order-free: storage order = groups concatenated.
    let grouped_storage: Vec<usize> = groups
        .iter()
        .flat_map(|g| g.iter().map(|&r| r as usize))
        .collect();

    let (strategy, payload, storage_to_original) = if order_free {
        let mut w = ByteWriter::new();
        for g in &groups {
            w.write_varint(g.len() as u64);
        }
        (
            MappingStrategy::GroupedOrderFree,
            w.into_vec(),
            grouped_storage.clone(),
        )
    } else {
        // Strategy A payload.
        let mut wa = ByteWriter::new();
        for g in &groups {
            wa.write_len_prefixed(&delta::encode_u32(g));
        }
        let a = wa.into_vec();
        // Strategy B payload.
        let labels: Vec<u32> = assignments.iter().map(|&e| e as u32).collect();
        let b = rle::encode(&labels);
        // Strategy C payload: adaptive arithmetic coding of the labels.
        let c = encode_labels_arith(assignments, n_experts)?;
        let (_, which) = [(a.len(), 0u8), (b.len(), 1), (c.len(), 3)]
            .into_iter()
            .min_by_key(|&(len, _)| len)
            .expect("three candidates");
        match which {
            0 => (MappingStrategy::GroupedIndexes, a, grouped_storage.clone()),
            1 => (MappingStrategy::Labels, b, (0..n).collect()),
            _ => (MappingStrategy::ArithLabels, c, (0..n).collect()),
        }
    };

    // Storage positions per expert.
    let mut expert_rows: Vec<Vec<usize>> = vec![Vec::new(); n_experts];
    for (pos, &orig) in storage_to_original.iter().enumerate() {
        expert_rows[assignments[orig]].push(pos);
    }

    Ok(RowLayout {
        strategy,
        payload,
        storage_to_original,
        expert_rows,
    })
}

/// Arithmetic-codes per-row expert labels with an adaptive model.
pub(crate) fn encode_labels_arith(assignments: &[usize], n_experts: usize) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.write_varint(assignments.len() as u64);
    if assignments.is_empty() || n_experts < 2 {
        return Ok(w.into_vec());
    }
    let stream = AdaptiveModel::new(n_experts)?.encode_all(assignments.iter().copied())?;
    w.write_len_prefixed(&stream);
    Ok(w.into_vec())
}

/// Inverse of [`encode_labels_arith`] for a table of `rows` rows: a
/// payload that counts any other number of labels is corrupt, before
/// anything is sized from it.
pub(crate) fn decode_labels_arith(
    payload: &[u8],
    n_experts: usize,
    rows: usize,
) -> Result<Vec<usize>> {
    let mut r = ds_codec::ByteReader::new(payload);
    if r.read_varint()? != rows as u64 {
        return Err(DsError::Corrupt("label count mismatch"));
    }
    if rows == 0 || n_experts < 2 {
        return Ok(vec![0; rows]);
    }
    let stream = r.read_len_prefixed()?;
    let labels = AdaptiveModel::new(n_experts)?.decode_all(stream, rows)?;
    Ok(labels.into_iter().map(|l| l as usize).collect())
}

/// Quantization layout of the materialized codes.
#[derive(Debug, Clone)]
pub(crate) struct CodeLayout {
    /// Code width in bits.
    pub bits: u8,
    /// Per expert, per code dimension: (min, span).
    pub ranges: Vec<Vec<(f32, f32)>>,
}

/// Quantizes per-expert codes to `bits`-wide integers (§6.2).
pub(crate) fn quantize_codes(
    per_expert_codes: &[Mat],
    bits: u8,
) -> (CodeLayout, Vec<Vec<Vec<u32>>>) {
    let levels = ((1u64 << bits) - 1) as f32;
    let mut ranges = Vec::with_capacity(per_expert_codes.len());
    let mut quantized = Vec::with_capacity(per_expert_codes.len());
    for codes in per_expert_codes {
        let k = codes.cols();
        let mut dim_ranges = Vec::with_capacity(k);
        let mut qcols: Vec<Vec<u32>> = vec![Vec::with_capacity(codes.rows()); k];
        for d in 0..k {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for r in 0..codes.rows() {
                lo = lo.min(codes.get(r, d));
                hi = hi.max(codes.get(r, d));
            }
            if codes.rows() == 0 {
                lo = 0.0;
                hi = 0.0;
            }
            let span = (hi - lo).max(0.0);
            dim_ranges.push((lo, span));
            for r in 0..codes.rows() {
                let t = if span > 0.0 {
                    ((codes.get(r, d) - lo) / span).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                qcols[d].push((t * levels).round() as u32);
            }
        }
        ranges.push(dim_ranges);
        quantized.push(qcols);
    }
    (CodeLayout { bits, ranges }, quantized)
}

/// Rebuilds the approximate (dequantized) code matrix for one expert.
pub(crate) fn dequantize_codes(qcols: &[Vec<u32>], ranges: &[(f32, f32)], bits: u8) -> Mat {
    let k = qcols.len();
    let rows = qcols.first().map(Vec::len).unwrap_or(0);
    let levels = ((1u64 << bits) - 1) as f32;
    let mut out = Mat::zeros(rows, k);
    for (d, col) in qcols.iter().enumerate() {
        let (lo, span) = ranges[d];
        for (r, &q) in col.iter().enumerate() {
            let v = if span > 0.0 {
                lo + (q as f32 / levels) * span
            } else {
                lo
            };
            out.set(r, d, v);
        }
    }
    out
}

/// The one ranking order both sides of the archive use (§6.3.1 — "sorted
/// the predictions by decreasing probability … store the index"): class
/// `a` ranks before class `b` when it is more probable under
/// [`f32::total_cmp`], ties to the lower class index. A total order, so
/// NaNs and signed zeros rank the same way for the writer and the reader.
fn ranks_before(probs: &[f32], a: usize, b: usize) -> std::cmp::Ordering {
    probs[b].total_cmp(&probs[a]).then(a.cmp(&b))
}

/// Rank of `target` among the first `card` classes of a probability row:
/// how many of them rank before it.
pub(crate) fn rank_of(probs: &[f32], card: usize, target: usize) -> u32 {
    (0..card)
        .filter(|&c| ranks_before(probs, c, target).is_lt())
        .count() as u32
}

/// Inverse of [`rank_of`]: the class at `rank` under the same ordering,
/// `None` when `rank` is not below `card` (or the row is narrower than
/// `card`). Rank 0 — nearly every cell of a well-fitted model — is one
/// argmax pass; deeper ranks select in `scratch`, which the caller reuses
/// across a column so no cell allocates.
pub(crate) fn class_at_rank(
    probs: &[f32],
    card: usize,
    rank: u32,
    scratch: &mut Vec<usize>,
) -> Option<usize> {
    let rank = rank as usize;
    if rank >= card || card > probs.len() {
        return None;
    }
    if rank == 0 {
        return (0..card).min_by(|&a, &b| ranks_before(probs, a, b));
    }
    scratch.clear();
    scratch.extend(0..card);
    let (_, &mut class, _) =
        scratch.select_nth_unstable_by(rank, |&a, &b| ranks_before(probs, a, b));
    Some(class)
}

/// Per-column failure buffers, in storage order.
pub(crate) struct FailureBuffers {
    /// Aligned with the table's columns; variant depends on the plan.
    pub per_col: Vec<FailureCol>,
    /// Rare (OTHER-class) global codes: (column, storage position, code).
    pub rare: Vec<(usize, usize, u32)>,
}

/// One column's failure stream.
pub(crate) enum FailureCol {
    /// Quantized numeric: bucket-index deltas.
    NumDelta(Vec<i64>),
    /// Raw numeric: value deltas in original units (0.0 = within bound).
    RawDelta(Vec<f64>),
    /// Binary: XOR of predicted and true bits.
    Xor(Vec<u32>),
    /// Categorical: rank of the true class.
    Rank(Vec<u32>),
    /// Fallback: the raw strings themselves.
    Raw(Vec<String>),
}

/// Fills one column's failure buffer for one expert's rows. Infallible by
/// construction: every fallible lookup is resolved by the caller before
/// the parallel fan-out, so this can run as a pool task per column.
#[allow(clippy::too_many_arguments)]
fn fill_expert_column(
    plan: &ColPlan,
    fc: &mut FailureCol,
    decoded: &DecodedBatch,
    rows: &[usize],
    storage_to_original: &[usize],
    truth: Option<&[u32]>,
    raw_values: Option<&[f64]>,
    simple_slot: usize,
    cat_slot: usize,
) {
    match plan {
        ColPlan::Numeric {
            quantizer,
            min,
            max,
        } => {
            let truth = truth.expect("numeric has codes");
            let span = (max - min).max(f64::MIN_POSITIVE);
            if let FailureCol::NumDelta(buf) = fc {
                for (b, &pos) in rows.iter().enumerate() {
                    let orig = storage_to_original[pos];
                    let p = f64::from(decoded.simple.get(b, simple_slot));
                    let pred_bucket = quantizer.index_of(min + p * span);
                    buf[pos] = i64::from(truth[orig]) - i64::from(pred_bucket);
                }
            }
        }
        ColPlan::NumericRaw { min, max, error } => {
            let values = raw_values.expect("raw numeric values resolved by caller");
            let span = (max - min).max(f64::MIN_POSITIVE);
            let bound = error * (max - min);
            if let FailureCol::RawDelta(buf) = fc {
                for (b, &pos) in rows.iter().enumerate() {
                    let orig = storage_to_original[pos];
                    let p = f64::from(decoded.simple.get(b, simple_slot));
                    let pred = min + p * span;
                    let diff = values[orig] - pred;
                    buf[pos] = if diff.abs() <= bound { 0.0 } else { diff };
                }
            }
        }
        ColPlan::Binary { .. } => {
            let truth = truth.expect("binary has codes");
            if let FailureCol::Xor(buf) = fc {
                for (b, &pos) in rows.iter().enumerate() {
                    let orig = storage_to_original[pos];
                    let bit = u32::from(decoded.simple.get(b, simple_slot) > 0.5);
                    buf[pos] = bit ^ truth[orig];
                }
            }
        }
        ColPlan::Cat {
            model_card,
            class_to_code,
            ..
        } => {
            let truth = truth.expect("cat has codes");
            let probs = &decoded.cat_probs[cat_slot];
            if let FailureCol::Rank(buf) = fc {
                for (b, &pos) in rows.iter().enumerate() {
                    let orig = storage_to_original[pos];
                    let code = truth[orig];
                    let class = crate::preprocess::class_of_code(class_to_code, *model_card, code);
                    buf[pos] = rank_of(probs.row(b), *model_card, class as usize);
                }
            }
        }
        ColPlan::Fallback => {}
    }
}

/// Computes failures for every column given per-expert predictions.
///
/// `decode_expert(e)` must return predictions for expert `e`'s rows in the
/// order given by `layout.expert_rows[e]`. Per-column fills run on the
/// shared pool (each column's buffer is an independent task); rare-code
/// collection stays serial — it is cheap relative to rank computation and
/// keeps ordering trivially deterministic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_failures(
    table: &Table,
    prep: &Preprocessed,
    layout: &RowLayout,
    mut decode_expert: impl FnMut(usize) -> Result<Option<DecodedBatch>>,
) -> Result<FailureBuffers> {
    let n = table.nrows();

    // Preallocate per-column buffers.
    let mut per_col: Vec<FailureCol> = prep
        .plans
        .iter()
        .map(|plan| match plan {
            ColPlan::Numeric { .. } => FailureCol::NumDelta(vec![0; n]),
            ColPlan::NumericRaw { .. } => FailureCol::RawDelta(vec![0.0; n]),
            ColPlan::Binary { .. } => FailureCol::Xor(vec![0; n]),
            ColPlan::Cat { .. } => FailureCol::Rank(vec![0; n]),
            ColPlan::Fallback => FailureCol::Raw(Vec::new()),
        })
        .collect();
    let mut rare: Vec<(usize, usize, u32)> = Vec::new();

    // Fallback columns: copy strings into storage order.
    for (i, plan) in prep.plans.iter().enumerate() {
        if matches!(plan, ColPlan::Fallback) {
            let values = table
                .column(i)
                .expect("plan index valid")
                .as_cat()
                .ok_or(DsError::Corrupt("fallback column must be categorical"))?;
            let stored = layout.storage_to_original.iter();
            per_col[i] = FailureCol::Raw(stored.map(|&orig| values[orig].to_owned()).collect());
        }
    }

    // Model-visible columns, one expert at a time.
    // Slot bookkeeping: simple heads and categorical heads are interleaved
    // in model order; track each column's slot within its head family.
    let mut simple_slot_of = vec![usize::MAX; prep.plans.len()];
    let mut cat_slot_of = vec![usize::MAX; prep.plans.len()];
    let mut s = 0usize;
    let mut c = 0usize;
    for &i in &prep.model_cols {
        match prep.plans[i] {
            ColPlan::Numeric { .. } | ColPlan::NumericRaw { .. } | ColPlan::Binary { .. } => {
                simple_slot_of[i] = s;
                s += 1;
            }
            ColPlan::Cat { .. } => {
                cat_slot_of[i] = c;
                c += 1;
            }
            ColPlan::Fallback => unreachable!("fallback is not model-visible"),
        }
    }

    // Resolve every fallible per-column lookup up front so the parallel
    // fill tasks are infallible.
    let raw_num: Vec<Option<&[f64]>> = prep
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            if matches!(plan, ColPlan::NumericRaw { .. }) {
                table
                    .column(i)
                    .expect("plan index valid")
                    .as_num()
                    .ok_or(DsError::Corrupt("numeric plan on non-numeric column"))
                    .map(Some)
            } else {
                Ok(None)
            }
        })
        .collect::<Result<_>>()?;

    for (e, rows) in layout.expert_rows.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let decoded = match decode_expert(e)? {
            Some(d) => d,
            None => continue,
        };
        if decoded.simple.rows() != rows.len() {
            return Err(DsError::Corrupt("prediction batch size mismatch"));
        }

        // One pool task per column; each owns its buffer exclusively.
        ds_exec::parallel_chunks_mut(&mut per_col, 1, |i, _, cols| {
            fill_expert_column(
                &prep.plans[i],
                &mut cols[0],
                &decoded,
                rows,
                &layout.storage_to_original,
                prep.true_codes[i].as_deref(),
                raw_num[i],
                simple_slot_of[i],
                cat_slot_of[i],
            );
        });

        // Rare (OTHER-class) codes, in column order.
        for (i, plan) in prep.plans.iter().enumerate() {
            if let ColPlan::Cat {
                model_card,
                class_to_code,
                ..
            } = plan
            {
                if class_to_code.len() >= *model_card {
                    continue;
                }
                let truth = prep.true_codes[i].as_ref().expect("cat has codes");
                let other = (*model_card - 1) as u32;
                for &pos in rows {
                    let orig = layout.storage_to_original[pos];
                    let code = truth[orig];
                    let class = crate::preprocess::class_of_code(class_to_code, *model_card, code);
                    if class == other {
                        rare.push((i, pos, code));
                    }
                }
            }
        }
    }

    // Rare entries must pop in storage order at decompression.
    rare.sort_by_key(|&(col, pos, _)| (col, pos));
    Ok(FailureBuffers { per_col, rare })
}

/// Serializes failure buffers into the columnar failure blob. Returns the
/// blob, the rare-stream blob, and per-column byte stats.
pub(crate) fn encode_failures(
    buffers: FailureBuffers,
) -> Result<(Vec<u8>, Vec<u8>, Vec<(String, usize)>)> {
    let mut cols: Vec<(String, parq::ParqColumn)> = Vec::new();
    for (i, fc) in buffers.per_col.into_iter().enumerate() {
        let name = format!("{i}");
        let col = match fc {
            FailureCol::NumDelta(v) => parq::ParqColumn::I64(v),
            FailureCol::RawDelta(v) => parq::ParqColumn::F64(v),
            FailureCol::Xor(v) | FailureCol::Rank(v) => parq::ParqColumn::U32(v),
            FailureCol::Raw(v) => parq::ParqColumn::Str(v),
        };
        cols.push((name, col));
    }
    let (main, stats) = parq::write_table(&cols)?;
    let col_stats = stats.into_iter().map(|s| (s.name, s.bytes)).collect();

    // Rare streams, one per column, already in (col, pos) order.
    let mut w = ByteWriter::new();
    let mut by_col: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for &(col, _, code) in &buffers.rare {
        by_col.entry(col).or_default().push(code);
    }
    w.write_varint(by_col.len() as u64);
    for (col, codes) in by_col {
        w.write_varint(col as u64);
        let (blob, _) = parq::write_table(&[("r".into(), parq::ParqColumn::U32(codes))])?;
        w.write_len_prefixed(&blob);
    }
    Ok((main, w.into_vec(), col_stats))
}

/// The §6.2 width rule: at least one width, each in 1..=32. Returns the
/// first.
pub(crate) fn check_code_bits(widths: &[u8]) -> Result<u8> {
    match widths.first() {
        Some(&first) if widths.iter().all(|b| (1..=32).contains(b)) => Ok(first),
        _ => Err(DsError::InvalidConfig("code bits must be in 1..=32")),
    }
}

/// A model and the assignment it made of the rows being materialized:
/// which expert stores each row, and that expert's code for it.
pub type Routed<'a> = (&'a MoeAutoencoder, &'a Assignment);

/// One row group's codes, failures and rare streams at one code width.
pub(crate) struct Streams {
    code_layout: CodeLayout,
    pub(crate) codes: Vec<u8>,
    pub(crate) failures: Vec<u8>,
    pub(crate) rare: Vec<u8>,
    col_stats: Vec<(String, usize)>,
}

/// The single-width encoder: quantizes the assigned codes to `bits`, runs
/// each expert's decoder once over its dequantized codes, and
/// entropy-codes the codes and the failures the predictions leave.
pub(crate) fn encode_streams(
    table: &Table,
    prep: &Preprocessed,
    routed: Option<Routed>,
    layout: &RowLayout,
    bits: u8,
) -> Result<Streams> {
    // Each expert's codes in storage order, which within one expert is
    // row order: a gather of what the assignment already computed.
    let per_expert_codes: Vec<Mat> = routed.map_or_else(Vec::new, |(model, assigned)| {
        let experts = 0..model.n_experts();
        experts.map(|e| assigned.codes_of(e)).collect()
    });
    let (code_layout, quantized) = quantize_codes(&per_expert_codes, bits);
    // Codes blob: k columns in storage order.
    let codes = encode_code_blob(&quantized, layout, table.nrows())?;
    let buffers = compute_failures(table, prep, layout, |e| {
        let Some((model, _)) = routed else {
            return Ok(None);
        };
        let dq = dequantize_codes(&quantized[e], &code_layout.ranges[e], bits);
        Ok(Some(model.decode(e, &dq)?))
    })?;
    let (failures, rare, col_stats) = encode_failures(buffers)?;
    Ok(Streams {
        code_layout,
        codes,
        failures,
        rare,
        col_stats,
    })
}

/// Runs the full materialization at `opts.code_bits`: mapping, codes,
/// failures, decoder — and assembles the archive bytes, with `patches`
/// kept verbatim for cells the plans cannot represent (streaming batches,
/// §3). `routed: None` stores every row under one implicit expert with no
/// model.
pub fn materialize_with_patches(
    table: &Table,
    prep: &Preprocessed,
    routed: Option<Routed>,
    patches: &[Patch],
    opts: &MaterializeOptions,
) -> Result<DsArchive> {
    if routed.is_some_and(|(_, a)| a.labels.len() != table.nrows()) {
        return Err(DsError::InvalidConfig("one assignment per row required"));
    }
    check_code_bits(&[opts.code_bits])?;
    if opts.order_free && !patches.is_empty() {
        // Patches are addressed by original row index; order-free storage
        // discards that order, so the combination cannot reconstruct.
        return Err(DsError::InvalidConfig(
            "order-free storage is incompatible with patches",
        ));
    }
    let n_experts = routed.map_or(1, |(m, _)| m.n_experts());
    let one_expert = vec![0; table.nrows()];
    let labels = routed.map_or(&one_expert, |(_, a)| &a.labels);
    let layout = plan_rows(labels, n_experts, opts.order_free)?;
    // The model only takes part when there is something for it to predict.
    let routed = routed.filter(|_| !prep.model_cols.is_empty() && table.nrows() > 0);
    let has_model = routed.is_some();

    let streams = {
        let _sp = ds_obs::span("encode");
        encode_streams(table, prep, routed, &layout, opts.code_bits)?
    };
    let code_layout = &streams.code_layout;
    let k = code_layout.ranges.first().map_or(0, Vec::len);

    if ds_obs::enabled() {
        // Per-expert utilization: how many rows each expert owns.
        for (e, rows) in layout.expert_rows.iter().enumerate() {
            ds_obs::counter_at("pipeline.expert_rows", e as u64, rows.len() as u64);
        }
        // Codec byte flow. Codes enter the parq writer as k u32 columns
        // of nrows values each.
        ds_obs::counter("codec.parq.codes_in", (k * table.nrows() * 4) as u64);
        ds_obs::counter("codec.parq.codes_out", streams.codes.len() as u64);
        ds_obs::counter(
            "materialize.failures_bytes",
            (streams.failures.len() + streams.rare.len()) as u64,
        );
        ds_obs::counter("materialize.patches", patches.len() as u64);
        // Per-column failure-stream bytes, labelled with the real schema
        // column name (encode_failures names streams by column index).
        for (name, bytes) in &streams.col_stats {
            let label = name
                .parse::<usize>()
                .ok()
                .and_then(|i| table.schema().field(i))
                .map(|f| f.name.as_str())
                .unwrap_or(name.as_str());
            ds_obs::counter_labeled("col.bytes", label, *bytes as u64);
        }
    }

    // ---- decoder blob -------------------------------------------------------
    let decoder_blob = match routed {
        Some((model, _)) if !opts.omit_decoder => {
            let raw = serialize::export_decoders(model);
            let blob = gzlike::compress(&raw);
            ds_obs::counter("codec.gzlike.decoder_in", raw.len() as u64);
            ds_obs::counter("codec.gzlike.decoder_out", blob.len() as u64);
            blob
        }
        _ => Vec::new(),
    };

    // ---- assemble -----------------------------------------------------------
    let mut w = ByteWriter::new();
    w.write_bytes(MAGIC);
    w.write_u8(VERSION);
    w.write_varint(table.nrows() as u64);
    w.write_varint(table.ncols() as u64);
    for (i, plan) in prep.plans.iter().enumerate() {
        let name = &table.schema().field(i).expect("plan per column").name;
        w.write_len_prefixed(name.as_bytes());
        plan.write_to(&mut w);
    }
    w.write_u8(u8::from(has_model));
    let mut decoder_bytes = 0;
    let mut codes_bytes = 0;
    if has_model {
        let before = w.len();
        w.write_len_prefixed(&decoder_blob);
        decoder_bytes = w.len() - before;

        // Code layout header (counted as metadata).
        w.write_varint(k as u64);
        w.write_u8(code_layout.bits);
        w.write_varint(n_experts as u64);
        for dims in &code_layout.ranges {
            for &(lo, span) in dims {
                w.write_f32(lo);
                w.write_f32(span);
            }
        }
    }
    // The mapping is recorded with or without a model (then: a single
    // implicit expert), so decompression can restore row order.
    let before = w.len();
    w.write_u8(layout.strategy as u8);
    w.write_len_prefixed(&layout.payload);
    let mapping_bytes = w.len() - before;
    if has_model {
        let before = w.len();
        w.write_len_prefixed(&streams.codes);
        codes_bytes = w.len() - before;
    }

    let before = w.len();
    w.write_len_prefixed(&streams.failures);
    w.write_bytes(&streams.rare);
    // Patches: verbatim out-of-plan cells, gzlike-compressed.
    let mut pw = ByteWriter::new();
    pw.write_varint(patches.len() as u64);
    for p in patches {
        pw.write_varint(p.col as u64);
        pw.write_varint(p.row as u64);
        match &p.value {
            PatchValue::Num(v) => {
                pw.write_u8(0);
                pw.write_f64(*v);
            }
            PatchValue::Str(v) => {
                pw.write_u8(1);
                pw.write_len_prefixed(v.as_bytes());
            }
        }
    }
    w.write_len_prefixed(&gzlike::compress(pw.as_slice()));
    let failures_bytes = w.len() - before + mapping_bytes;

    let bytes = w.into_vec();
    let metadata = bytes.len() - decoder_bytes - codes_bytes - failures_bytes;
    Ok(DsArchive {
        breakdown: SizeBreakdown {
            decoder: decoder_bytes,
            codes: codes_bytes,
            failures: failures_bytes,
            metadata,
        },
        bytes,
        failure_stats: streams.col_stats,
    })
}

/// Serializes quantized codes as a parq table of `k` u32 columns in
/// storage order.
fn encode_code_blob(
    quantized: &[Vec<Vec<u32>>],
    layout: &RowLayout,
    nrows: usize,
) -> Result<Vec<u8>> {
    let k = quantized
        .iter()
        .find(|q| !q.is_empty())
        .map(Vec::len)
        .unwrap_or(0);
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut cols: Vec<Vec<u32>> = vec![vec![0; nrows]; k];
    for (e, rows) in layout.expert_rows.iter().enumerate() {
        for (b, &pos) in rows.iter().enumerate() {
            for d in 0..k {
                cols[d][pos] = quantized[e][d][b];
            }
        }
    }
    let named: Vec<(String, parq::ParqColumn)> = cols
        .into_iter()
        .enumerate()
        .map(|(d, v)| (format!("code{d}"), parq::ParqColumn::U32(v)))
        .collect();
    let (blob, _) = parq::write_table(&named)?;
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_roundtrip_with_ties() {
        let probs = vec![0.2f32, 0.5, 0.2, 0.1];
        let mut scratch = Vec::new();
        for target in 0..4 {
            let r = rank_of(&probs, 4, target);
            assert_eq!(class_at_rank(&probs, 4, r, &mut scratch), Some(target));
        }
        // The most probable class has rank 0.
        assert_eq!(rank_of(&probs, 4, 1), 0);
        // Tie between 0 and 2 breaks toward the lower index.
        assert_eq!(rank_of(&probs, 4, 0), 1);
        assert_eq!(rank_of(&probs, 4, 2), 2);
    }

    /// The writer's rank and the reader's class are two views of one
    /// order. At the parent commit `rank_of` compared with IEEE `>`/`==`
    /// while `class_at_rank` sorted with `total_cmp`: for `[NaN, 0.5]`
    /// and true class 1 the writer stored rank 0 and the reader returned
    /// class 0.
    #[test]
    fn a_nan_probability_ranks_the_same_for_writer_and_reader() {
        let probs = [f32::NAN, 0.5];
        let mut scratch = Vec::new();
        let rank = rank_of(&probs, 2, 1);
        assert_eq!(class_at_rank(&probs, 2, rank, &mut scratch), Some(1));
        // Positive NaN sorts above every number under total_cmp.
        assert_eq!((rank_of(&probs, 2, 0), rank), (0, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `class_at_rank` inverts `rank_of` for every class, over rows
        /// drawn from a small palette so ties, signed zeros, subnormals
        /// and NaNs of both signs all collide often, with `card` allowed
        /// to stop short of the row; a rank of `card` or more is refused.
        #[test]
        fn class_at_rank_inverts_rank_of(
            picks in proptest::collection::vec(0usize..PALETTE.len(), 1..12),
            short in 0usize..4,
        ) {
            let probs: Vec<f32> = picks.iter().map(|&p| PALETTE[p]).collect();
            let card = probs.len().saturating_sub(short).max(1);
            let mut scratch = Vec::new();
            let mut ranks = Vec::new();
            for target in 0..card {
                let rank = rank_of(&probs, card, target);
                proptest::prop_assert_eq!(
                    class_at_rank(&probs, card, rank, &mut scratch),
                    Some(target)
                );
                ranks.push(rank as usize);
            }
            // The ranks are a permutation of 0..card.
            ranks.sort_unstable();
            proptest::prop_assert_eq!(ranks, (0..card).collect::<Vec<_>>());
            for beyond in [card, card + 1, u32::MAX as usize] {
                proptest::prop_assert_eq!(
                    class_at_rank(&probs, card, beyond as u32, &mut scratch),
                    None
                );
            }
            // A card wider than the row is refused, not indexed.
            proptest::prop_assert_eq!(
                class_at_rank(&probs, probs.len() + 1, 0, &mut scratch),
                None
            );
        }
    }

    const PALETTE: [f32; 10] = [
        0.0,
        -0.0,
        0.25,
        0.25,
        0.5,
        1.0e-45, // smallest positive subnormal
        -1.0e-45,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
    ];

    #[test]
    fn code_quantization_roundtrip_accuracy() {
        let mut codes = Mat::zeros(100, 3);
        for r in 0..100 {
            for d in 0..3 {
                codes.set(r, d, (r as f32 / 99.0) * (d as f32 + 0.5));
            }
        }
        for bits in [8u8, 16] {
            let (layout, q) = quantize_codes(std::slice::from_ref(&codes), bits);
            let dq = dequantize_codes(&q[0], &layout.ranges[0], bits);
            let tol = 1.5 / ((1u64 << bits) - 1) as f32 * 1.5; // span ≤ 1.5
            for r in 0..100 {
                for d in 0..3 {
                    assert!(
                        (dq.get(r, d) - codes.get(r, d)).abs() <= tol,
                        "bits {bits}: {} vs {}",
                        dq.get(r, d),
                        codes.get(r, d)
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_handles_empty_and_constant() {
        let empty = Mat::zeros(0, 2);
        let (layout, q) = quantize_codes(std::slice::from_ref(&empty), 8);
        assert_eq!(q[0].len(), 2);
        assert!(q[0][0].is_empty());
        let dq = dequantize_codes(&q[0], &layout.ranges[0], 8);
        assert_eq!(dq.rows(), 0);

        let mut constant = Mat::zeros(5, 1);
        for r in 0..5 {
            constant.set(r, 0, 0.7);
        }
        let (layout, q) = quantize_codes(std::slice::from_ref(&constant), 8);
        let dq = dequantize_codes(&q[0], &layout.ranges[0], 8);
        for r in 0..5 {
            assert!((dq.get(r, 0) - 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn row_layout_grouped_vs_labels() {
        // Alternating assignment: RLE labels are poor, grouped indexes are
        // poor too (stride-2 deltas are fine actually) — just verify both
        // reconstruct.
        let assignments: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let layout = plan_rows(&assignments, 2, false).unwrap();
        assert_eq!(layout.storage_to_original.len(), 100);
        // Every original row appears exactly once.
        let mut seen = [false; 100];
        for &o in &layout.storage_to_original {
            assert!(!seen[o]);
            seen[o] = true;
        }
        // expert_rows partitions storage positions consistently.
        let total: usize = layout.expert_rows.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (e, rows) in layout.expert_rows.iter().enumerate() {
            for &pos in rows {
                assert_eq!(assignments[layout.storage_to_original[pos]], e);
            }
        }
    }

    #[test]
    fn order_free_drops_indexes() {
        let assignments: Vec<usize> = (0..1000).map(|i| i % 3).collect();
        let with_order = plan_rows(&assignments, 3, false).unwrap();
        let order_free = plan_rows(&assignments, 3, true).unwrap();
        assert_eq!(order_free.strategy, MappingStrategy::GroupedOrderFree);
        assert!(
            order_free.payload.len() < with_order.payload.len() / 10,
            "order-free mapping should be tiny: {} vs {}",
            order_free.payload.len(),
            with_order.payload.len()
        );
    }

    #[test]
    fn uniform_blocks_prefer_label_rle() {
        // Rows assigned in large blocks → labels RLE is a few bytes.
        let mut assignments = vec![0usize; 5000];
        assignments[2500..].iter_mut().for_each(|a| *a = 1);
        let layout = plan_rows(&assignments, 2, false).unwrap();
        assert_eq!(layout.strategy, MappingStrategy::Labels);
        assert!(layout.payload.len() < 32);
    }

    #[test]
    fn invalid_assignment_rejected() {
        assert!(plan_rows(&[0, 5], 2, false).is_err());
    }
}
