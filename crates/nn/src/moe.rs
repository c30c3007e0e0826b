//! Sparsely-gated mixture of experts (§5.2–§5.3 of the paper).
//!
//! A *gate* network assigns each tuple to the expert (autoencoder) best
//! suited to it. Training is end-to-end: every batch is fed to all experts
//! concurrently; the total loss is the gate-weighted sum Σₑ gₑ(x)·Lₑ(x),
//! so backpropagated errors update both the responsible experts (scaled by
//! their gate probability) and the gate itself, which "might choose to
//! reassign the tuple to a different expert" (§5.3). At inference the gate
//! routes hard: each tuple goes to its argmax expert only.

use crate::adam::{AdamConfig, AdamState};
use crate::autoencoder::{Autoencoder, ModelSpec, TrainScratch};
use crate::dense::{Activation, Dense, DenseGrad};
use crate::mat::Mat;
use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Minibatch rows per gradient task. Fixed by this constant alone — never
/// by the worker count — so the (expert × chunk) task grid and the
/// chunk-ordered gradient reduction produce bit-identical results for any
/// `DS_THREADS` setting.
pub const GRAD_CHUNK_ROWS: usize = 32;

/// Data-parallel [`Autoencoder::train_pass`]: splits the batch into fixed
/// row chunks of `chunk_rows`, computes per-chunk gradients (potentially
/// concurrently via `ds-exec`), and reduces them **in ascending chunk
/// order** into one gradient set plus the per-tuple losses in row order.
///
/// Per-tuple losses are bit-identical to an unchunked pass (each row's
/// forward pass is independent). Gradient sums associate per chunk, which
/// is a deterministic function of `chunk_rows` and the batch size only.
pub fn train_pass_data_parallel(
    expert: &Autoencoder,
    x: &Mat,
    cat_targets: &[Vec<u32>],
    row_weights: Option<&[f32]>,
    chunk_rows: usize,
) -> Result<(Vec<DenseGrad>, Vec<f32>)> {
    let b = x.rows();
    let chunk_rows = chunk_rows.max(1);
    if b <= chunk_rows {
        return expert.train_pass(x, cat_targets, row_weights);
    }
    expert.check_batch(x, cat_targets, row_weights)?;
    let n_chunks = ds_exec::chunk_count(b, chunk_rows);
    ds_obs::counter("nn.train_chunks", n_chunks as u64);
    let mut work: Vec<TrainScratch> = (0..n_chunks).map(|_| TrainScratch::new(expert)).collect();
    ds_exec::parallel_chunks_mut(&mut work, 1, |c, _, s| {
        chunk_pass(
            expert,
            x,
            cat_targets,
            row_weights,
            chunk_rows,
            c,
            &mut s[0],
        );
    });
    let mut grads = Vec::new();
    reduce_chunk_grads(&work, &mut grads);
    let losses = work.iter().flat_map(|s| &s.losses).copied().collect();
    Ok((grads, losses))
}

/// Gradient task `c` of a minibatch step: the training pass over row
/// chunk `c` of a batch that passed [`Autoencoder::check_batch`], into
/// the scratch the task owns for its duration.
fn chunk_pass(
    expert: &Autoencoder,
    x: &Mat,
    cat_targets: &[Vec<u32>],
    row_weights: Option<&[f32]>,
    chunk_rows: usize,
    c: usize,
    s: &mut TrainScratch,
) {
    let lo = c * chunk_rows;
    let hi = (lo + chunk_rows).min(x.rows());
    let weights = row_weights.map(|w| &w[lo..hi]);
    expert.pass(x, cat_targets, lo..hi, weights, true, s);
}

/// Sums per-chunk gradients into `into` in ascending chunk order (the
/// first chunk is copied, the rest accumulate — float association is a
/// function of the chunk count alone).
fn reduce_chunk_grads(chunks: &[TrainScratch], into: &mut Vec<DenseGrad>) {
    let (first, rest) = chunks.split_first().expect("at least one chunk");
    into.resize_with(first.grads.len(), DenseGrad::empty);
    for (a, g) in into.iter_mut().zip(&first.grads) {
        a.copy_from(g);
    }
    for chunk in rest {
        for (a, g) in into.iter_mut().zip(&chunk.grads) {
            a.accumulate(g);
        }
    }
}

/// What one expert's optimizer task of a minibatch step owns: the model,
/// its Adam state, and the reduced gradient. Steps of different experts
/// touch disjoint slots, so they run as parallel tasks.
struct ExpertSlot {
    model: Autoencoder,
    adam: Vec<AdamState>,
    grads: Vec<DenseGrad>,
    /// Pre-clip gradient norm of the last step (telemetry).
    grad_norm: f32,
}

impl ExpertSlot {
    /// Reduce → clip → Adam for this expert's chunk gradients.
    fn step(&mut self, chunks: &[TrainScratch], max_norm: f32, cfg: &AdamConfig) {
        reduce_chunk_grads(chunks, &mut self.grads);
        self.grad_norm = clip_grads(&mut self.grads, max_norm);
        let layers = self.model.layers_mut();
        for ((layer, grad), st) in layers.into_iter().zip(&self.grads).zip(&mut self.adam) {
            st.step(layer, grad, cfg);
        }
    }
}

/// What the gate's optimizer task of a minibatch step owns: the gate, its
/// Adam state, this batch's forward pass and the backward buffers — all
/// sized once per `train` call, so the step allocates nothing on a worker.
/// Nothing here is touched by an expert's task.
struct GateSlot {
    gate: Gate,
    adam: (AdamState, AdamState),
    /// The batch's forward pass; its probabilities weight the experts.
    pass: GatePass,
    dlogits: Mat,
    dh: Mat,
    grads: (DenseGrad, DenseGrad),
}

impl GateSlot {
    fn new(gate: Gate, batch_rows: usize) -> Self {
        let (l1, l2) = (&gate.l1, &gate.l2);
        let grad = |l: &Dense| DenseGrad {
            dw: Mat::zeros(l.input_dim(), l.output_dim()),
            db: vec![0.0; l.output_dim()],
        };
        GateSlot {
            adam: (AdamState::for_layer(l1), AdamState::for_layer(l2)),
            pass: GatePass {
                h: Mat::zeros(batch_rows, l1.output_dim()),
                logits: Mat::zeros(batch_rows, l2.output_dim()),
                probs: Mat::zeros(batch_rows, l2.output_dim()),
            },
            dlogits: Mat::zeros(batch_rows, l2.output_dim()),
            dh: Mat::zeros(batch_rows, l1.output_dim()),
            grads: (grad(l1), grad(l2)),
            gate,
        }
    }

    /// One gradient step of the gate on the batch `x` whose forward pass
    /// `self.pass` holds: given per-tuple per-expert losses `losses`
    /// (B × E), minimize Σ gₑ·Lₑ.
    fn step(&mut self, x: &Mat, losses: &Mat, cfg: &AdamConfig) {
        let GateSlot {
            gate,
            adam,
            pass,
            dlogits,
            dh,
            grads,
        } = self;
        let g = &pass.probs;
        let (b, e) = (g.rows(), g.cols());
        // d(Σ g·L)/d logits = g ⊙ (L − Σ g·L) per row (softmax Jacobian).
        dlogits.reset(b, e);
        for r in 0..b {
            let mut mean = 0.0;
            for c in 0..e {
                mean += g.get(r, c) * losses.get(r, c);
            }
            for c in 0..e {
                dlogits.set(r, c, g.get(r, c) * (losses.get(r, c) - mean));
            }
        }
        gate.l2
            .backward_into(&pass.h, &pass.logits, dlogits, Some(dh), &mut grads.1);
        gate.l1.backward_into(x, &pass.h, dh, None, &mut grads.0);
        adam.0.step(&mut gate.l1, &grads.0, cfg);
        adam.1.step(&mut gate.l2, &grads.1, cfg);
    }
}

/// One optimizer task of a minibatch step. The state each variant borrows
/// is disjoint from every other task's, so they run side by side.
enum StepTask<'a> {
    Expert(&'a mut ExpertSlot),
    Gate(&'a mut GateSlot),
}

/// Training hyperparameters for the mixture.
#[derive(Debug, Clone)]
pub struct MoeConfig {
    /// Number of experts — hyperparameter #2 of §5.4.
    pub n_experts: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Stop when the relative loss improvement over an epoch falls below
    /// this (the paper's "until convergence").
    pub tol: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Multiplicative per-epoch learning-rate decay (1.0 = constant).
    pub lr_decay: f32,
    /// RNG seed (weights, shuffling).
    pub seed: u64,
}

impl Default for MoeConfig {
    fn default() -> Self {
        MoeConfig {
            n_experts: 1,
            batch_size: 128,
            max_epochs: 60,
            tol: 1e-3,
            lr: 2e-3,
            lr_decay: 1.0,
            seed: 0,
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean gate-weighted loss after each epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of epochs actually run.
    pub epochs_run: usize,
}

/// An expert per tuple and what that expert's encoder made of it
/// ([`MoeAutoencoder::assign_with_codes`]).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Per row, the expert it is stored under.
    pub labels: Vec<usize>,
    /// Per row, that expert's code (rows × code size, input row order).
    pub codes: Mat,
}

impl Assignment {
    /// The rows labelled `expert`, ascending.
    pub fn rows_of(&self, expert: usize) -> Vec<usize> {
        let rows = 0..self.labels.len();
        rows.filter(|&r| self.labels[r] == expert).collect()
    }

    /// The codes of the rows labelled `expert`, in row order.
    pub fn codes_of(&self, expert: usize) -> Mat {
        self.codes.take_rows(&self.rows_of(expert))
    }
}

/// One [`Gate`] forward pass over a batch.
struct GatePass {
    h: Mat,
    logits: Mat,
    /// Softmax expert probabilities (B × E).
    probs: Mat,
}

/// The gate network: input → hidden(ReLU) → expert logits → softmax.
#[derive(Debug, Clone)]
pub struct Gate {
    l1: Dense,
    l2: Dense,
}

impl Gate {
    fn new(input_dim: usize, n_experts: usize, rng: &mut StdRng) -> Self {
        let h = (input_dim * 2).max(4);
        Gate {
            l1: Dense::xavier(input_dim, h, Activation::Relu, rng),
            l2: Dense::xavier(h, n_experts, Activation::Identity, rng),
        }
    }

    /// Forward pass into `pass`, keeping what [`GateSlot::step`] needs
    /// back.
    fn forward_into(&self, x: &Mat, pass: &mut GatePass) {
        self.l1.forward_into(x, &mut pass.h);
        self.l2.forward_into(&pass.h, &mut pass.logits);
        softmax_rows_into(&pass.logits, &mut pass.probs);
    }

    /// Softmax expert probabilities for a batch (B × E).
    pub fn probabilities(&self, x: &Mat) -> Mat {
        let empty = || Mat::zeros(0, 0);
        let mut pass = GatePass {
            h: empty(),
            logits: empty(),
            probs: empty(),
        };
        self.forward_into(x, &mut pass);
        pass.probs
    }

    /// Hard argmax assignment per tuple.
    pub fn assign(&self, x: &Mat) -> Vec<usize> {
        let g = self.probabilities(x);
        (0..g.rows())
            .map(|r| {
                let row = g.row(r);
                (0..row.len())
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("at least one expert")
            })
            .collect()
    }
}

/// A trained mixture of expert autoencoders (a single expert degenerates
/// to a plain autoencoder with no gate).
#[derive(Debug, Clone)]
pub struct MoeAutoencoder {
    experts: Vec<Autoencoder>,
    gate: Option<Gate>,
}

impl MoeAutoencoder {
    /// Trains the mixture end-to-end on `x` (rows already preprocessed to
    /// [0,1]) with `cat_targets` (per categorical head, dictionary codes).
    pub fn train(
        spec: &ModelSpec,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        cfg: &MoeConfig,
    ) -> Result<(Self, TrainReport)> {
        if cfg.n_experts == 0 {
            return Err(NnError::InvalidSpec("need at least one expert"));
        }
        if x.rows() == 0 {
            return Err(NnError::InvalidSpec("empty training set"));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let experts: Vec<Autoencoder> = (0..cfg.n_experts)
            .map(|_| Autoencoder::new(spec.clone(), &mut rng))
            .collect::<Result<_>>()?;
        experts[0].check_batch(x, cat_targets, None)?;
        let n = x.rows();
        let batch_rows = cfg.batch_size.min(n);
        let mut gate_slot = (cfg.n_experts > 1).then(|| {
            let gate = Gate::new(spec.input_dim(), cfg.n_experts, &mut rng);
            GateSlot::new(gate, batch_rows)
        });

        let mut adam_cfg = AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        };

        // One scratch per (expert, row-chunk) gradient task of a minibatch,
        // allocated once and reused by every step.
        let max_chunks = ds_exec::chunk_count(batch_rows, GRAD_CHUNK_ROWS);
        let mut work: Vec<TrainScratch> = (0..experts.len() * max_chunks)
            .map(|_| TrainScratch::new(&experts[0]))
            .collect();
        let mut slots: Vec<ExpertSlot> = experts
            .into_iter()
            .map(|model| ExpertSlot {
                adam: model
                    .layers()
                    .iter()
                    .map(|l| AdamState::for_layer(l))
                    .collect(),
                grads: Vec::new(),
                grad_norm: 0.0,
                model,
            })
            .collect();

        // Per-tuple per-expert losses of a step (B × E), read by the gate.
        let mut loss_mat = Mat::zeros(batch_rows, slots.len());
        let mut order: Vec<usize> = (0..n).collect();
        let mut report = TrainReport::default();
        let mut prev_loss = f32::MAX;
        let mut stall_epochs = 0usize;

        for epoch in 0..cfg.max_epochs {
            let _ep_span = ds_obs::span_at("epoch", epoch as u64);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            // Telemetry accumulators (ds-obs only): gate-weighted expert
            // utilization, mean gate entropy, and mean pre-clip grad norm.
            // All derive from the deterministic training math, so the
            // resulting series are thread-count-invariant.
            let obs_on = ds_obs::enabled();
            let mut util = vec![0.0f64; slots.len()];
            let mut entropy_sum = 0.0f64;
            let mut rows_seen = 0usize;
            let mut grad_norm_sum = 0.0f64;
            let mut grad_norm_n = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let xb = x.take_rows(chunk);
                let cat_b: Vec<Vec<u32>> = cat_targets
                    .iter()
                    .map(|t| chunk.iter().map(|&i| t[i]).collect())
                    .collect();

                if let Some(gs) = gate_slot.as_mut() {
                    gs.gate.forward_into(&xb, &mut gs.pass);
                }
                let ones;
                let g = match &gate_slot {
                    Some(gs) => &gs.pass.probs,
                    None => {
                        ones = Mat::from_vec(xb.rows(), 1, vec![1.0; xb.rows()]);
                        &ones
                    }
                };
                if obs_on {
                    for r in 0..xb.rows() {
                        for e in 0..slots.len() {
                            let p = f64::from(g.get(r, e));
                            util[e] += p;
                            if p > 0.0 {
                                entropy_sum -= p * p.ln();
                            }
                        }
                    }
                    rows_seen += xb.rows();
                }

                // All experts see the batch (the gate masks via weights).
                // The gate weights are normalized to unit mean per expert:
                // otherwise a near-uniform gate scales every expert's
                // gradient by ~1/E and the mixture trains E× slower than a
                // single model (gradient dilution).
                let expert_weights: Vec<Vec<f32>> = (0..slots.len())
                    .map(|e| {
                        let mut weights: Vec<f32> = (0..xb.rows()).map(|r| g.get(r, e)).collect();
                        let mean: f32 = weights.iter().sum::<f32>() / weights.len() as f32;
                        if mean > 1e-6 {
                            let inv = 1.0 / mean;
                            for w in &mut weights {
                                *w *= inv;
                            }
                        }
                        weights
                    })
                    .collect();
                // Every (expert, row-chunk) pair is one gradient task on the
                // shared ds-exec pool, each owning one scratch. Chunk
                // boundaries depend only on the batch size, so training is
                // bit-identical for any thread count.
                let rows = xb.rows();
                let n_chunks = ds_exec::chunk_count(rows, GRAD_CHUNK_ROWS);
                let live = &mut work[..slots.len() * n_chunks];
                ds_exec::parallel_chunks_mut(live, 1, |t, _, s| {
                    let (e, c) = (t / n_chunks, t % n_chunks);
                    let weights = Some(&expert_weights[e][..]);
                    chunk_pass(
                        &slots[e].model,
                        &xb,
                        &cat_b,
                        weights,
                        GRAD_CHUNK_ROWS,
                        c,
                        &mut s[0],
                    );
                });
                // Folded here, in (expert, row) order, so the f64 sums and
                // the ds-obs series do not depend on task scheduling.
                loss_mat.reset(rows, slots.len());
                for e in 0..slots.len() {
                    let chunks = &live[e * n_chunks..(e + 1) * n_chunks];
                    for (r, &l) in chunks.iter().flat_map(|s| &s.losses).enumerate() {
                        loss_mat.set(r, e, l);
                        epoch_loss += f64::from(g.get(r, e) * l);
                    }
                }
                // Reduce → clip → Adam touches one expert only (chunks
                // reduced in ascending order inside its task), and the gate
                // step only the gate: one task each, side by side.
                let max_norm = 5.0 * rows as f32;
                let mut tasks: Vec<StepTask> = slots
                    .iter_mut()
                    .map(StepTask::Expert)
                    .chain(gate_slot.as_mut().map(StepTask::Gate))
                    .collect();
                ds_exec::parallel_chunks_mut(&mut tasks, 1, |e, _, task| match &mut task[0] {
                    StepTask::Expert(slot) => {
                        slot.step(&live[e * n_chunks..(e + 1) * n_chunks], max_norm, &adam_cfg)
                    }
                    StepTask::Gate(gs) => gs.step(&xb, &loss_mat, &adam_cfg),
                });
                if obs_on {
                    for slot in &slots {
                        grad_norm_sum += f64::from(slot.grad_norm);
                        grad_norm_n += 1;
                    }
                }
            }

            adam_cfg.lr *= cfg.lr_decay;
            let mean_loss = (epoch_loss / n as f64) as f32;
            if obs_on {
                let ep = epoch as u64;
                ds_obs::series("nn.epoch_loss", ep, f64::from(mean_loss));
                if grad_norm_n > 0 {
                    ds_obs::series("nn.grad_norm", ep, grad_norm_sum / grad_norm_n as f64);
                }
                if rows_seen > 0 {
                    ds_obs::series("nn.gate_entropy", ep, entropy_sum / rows_seen as f64);
                    for (e, u) in util.iter().enumerate() {
                        ds_obs::series_at("nn.expert_util", e as u64, ep, u / rows_seen as f64);
                    }
                }
            }
            report.epoch_losses.push(mean_loss);
            report.epochs_run = epoch + 1;
            // Convergence: stop only when the best loss has not improved
            // by the tolerance for a whole window of epochs — per-epoch
            // deltas are too noisy (shuffling, gate shifts) to judge from
            // consecutive pairs.
            if mean_loss < prev_loss - cfg.tol * prev_loss.abs() {
                prev_loss = mean_loss;
                stall_epochs = 0;
            } else {
                stall_epochs += 1;
                if stall_epochs >= 12 {
                    break;
                }
            }
        }

        let experts = slots.into_iter().map(|s| s.model).collect();
        let gate = gate_slot.map(|gs| gs.gate);
        Ok((MoeAutoencoder { experts, gate }, report))
    }

    /// Number of experts.
    pub fn n_experts(&self) -> usize {
        self.experts.len()
    }

    /// Borrow the experts.
    pub fn experts(&self) -> &[Autoencoder] {
        &self.experts
    }

    /// Consumes the mixture, yielding its experts (used to assemble a
    /// per-cluster mixture from independently trained models).
    pub fn into_experts(self) -> Vec<Autoencoder> {
        self.experts
    }

    /// Zeroes the low `bits` mantissa bits of every weight (bf16-style
    /// truncation at `bits = 16`). Called once after training, *before*
    /// materialization, so compressor and decompressor see identical
    /// weights — and the exported stream halves under the final gzip pass
    /// because every second byte pair is zero. The paper leaves neural
    /// weight compression as future work (§6.1); truncation is the
    /// mildest form and costs a negligible accuracy change.
    pub fn truncate_weights(&mut self, bits: u32) {
        debug_assert!(bits < 24, "would destroy the exponent");
        let mask = u32::MAX << bits;
        for expert in &mut self.experts {
            for layer in expert.layers_mut() {
                for w in layer.w.data_mut() {
                    *w = f32::from_bits(w.to_bits() & mask);
                }
                for b in &mut layer.b {
                    *b = f32::from_bits(b.to_bits() & mask);
                }
            }
        }
    }

    /// Hard expert assignment per tuple (all tuples map to 0 with a single
    /// expert).
    pub fn assign(&self, x: &Mat) -> Vec<usize> {
        match &self.gate {
            Some(g) => g.assign(x),
            None => vec![0; x.rows()],
        }
    }

    /// Labels every tuple with an expert and returns, with the labels,
    /// each tuple's code under its expert — the one encoder result
    /// materialization stores, bit-equal to [`MoeAutoencoder::encode`] of
    /// that expert over its rows.
    ///
    /// With `routing: None` a tuple goes to "the model with the highest
    /// accuracy for each tuple" (§5.2), by measuring the actual
    /// reconstruction loss under every expert (the first expert wins
    /// ties). The learned gate approximates this during training; at
    /// materialization the mapping is stored explicitly, so the exact
    /// assignment is both available and strictly better. The winner's code
    /// is the representation layer of the forward pass that measured its
    /// loss; a single expert needs no loss, only its encoder.
    ///
    /// `routing: Some(labels)` keeps a partition made elsewhere (the
    /// k-means comparator of §7.4.2) and encodes each tuple once, under
    /// its given expert.
    pub fn assign_with_codes(
        &self,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        routing: Option<&[usize]>,
    ) -> Result<Assignment> {
        let n = x.rows();
        let Some((first, rest)) = self.experts.split_first() else {
            return Err(NnError::InvalidSpec("need at least one expert"));
        };
        if let Some(labels) = routing {
            if labels.len() != n || labels.iter().any(|&e| e >= self.experts.len()) {
                return Err(NnError::InvalidSpec("routing must name one expert per row"));
            }
            let mut routed = Assignment {
                labels: labels.to_vec(),
                codes: Mat::zeros(n, first.spec().code_size),
            };
            for (e, expert) in self.experts.iter().enumerate() {
                let rows = routed.rows_of(e);
                let own = expert.encode(&x.take_rows(&rows))?;
                for (b, &r) in rows.iter().enumerate() {
                    routed.codes.row_mut(r).copy_from_slice(own.row(b));
                }
            }
            return Ok(routed);
        }
        let mut labels = vec![0usize; n];
        if rest.is_empty() {
            let codes = first.encode(x)?;
            return Ok(Assignment { labels, codes });
        }
        // Rows start with the first expert and its code; a later expert
        // takes a row only by a strictly smaller loss, so a row whose
        // losses are all NaN stays where it started.
        let mut best_loss = vec![f32::INFINITY; n];
        let mut codes = Mat::zeros(0, 0);
        for (e, expert) in self.experts.iter().enumerate() {
            let (losses, own) = expert.loss_and_codes(x, cat_targets)?;
            for (r, &l) in losses.iter().enumerate() {
                if l < best_loss[r] {
                    best_loss[r] = l;
                    labels[r] = e;
                    if e > 0 {
                        codes.row_mut(r).copy_from_slice(own.row(r));
                    }
                }
            }
            if e == 0 {
                codes = own;
            }
        }
        Ok(Assignment { labels, codes })
    }

    /// Encodes rows with the given expert.
    pub fn encode(&self, expert: usize, x: &Mat) -> Result<Mat> {
        self.experts
            .get(expert)
            .ok_or(NnError::InvalidSpec("expert index out of range"))?
            .encode(x)
    }

    /// Decodes codes with the given expert.
    pub fn decode(&self, expert: usize, codes: &Mat) -> Result<crate::autoencoder::DecodedBatch> {
        self.experts
            .get(expert)
            .ok_or(NnError::InvalidSpec("expert index out of range"))?
            .decode(codes)
    }

    /// Builds a mixture directly from pre-trained experts with no gate.
    ///
    /// Two callers: weight deserialization (decompression does not need the
    /// gate — expert membership is materialized, §6.4), and the k-means
    /// comparator of §7.4.2, which trains one autoencoder per cluster and
    /// routes by cluster assignment instead of a learned gate.
    pub fn from_experts(experts: Vec<Autoencoder>) -> Self {
        MoeAutoencoder {
            experts,
            gate: None,
        }
    }
}

/// Scales all gradients down when their global L2 norm exceeds `max_norm`
/// — small models with softmax heads occasionally produce a pathological
/// batch that would otherwise kick the weights into a dead regime.
/// Returns the pre-clip norm (telemetry: per-epoch gradient norm series).
fn clip_grads(grads: &mut [crate::dense::DenseGrad], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for g in grads.iter() {
        for &v in g.dw.data() {
            sq += f64::from(v) * f64::from(v);
        }
        for &v in &g.db {
            sq += f64::from(v) * f64::from(v);
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            for v in g.dw.data_mut() {
                *v *= scale;
            }
            for v in &mut g.db {
                *v *= scale;
            }
        }
    }
    norm
}

/// Row-wise softmax of `logits` into `out` (reshaped to fit).
fn softmax_rows_into(logits: &Mat, out: &mut Mat) {
    out.reset(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (c, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            out.set(r, c, e);
            sum += e;
        }
        for c in 0..row.len() {
            out.set(r, c, out.get(r, c) / sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::Head;
    use rand::Rng;

    /// Two well-separated linear regimes (the Fig. 4 motivating example):
    /// a 2-expert mixture should reconstruct both better than it could with
    /// the same budget forced through one tiny expert.
    fn two_regime_data(n: usize, seed: u64) -> (Mat, Vec<Vec<u32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Mat::zeros(n, 3);
        for r in 0..n {
            let t: f32 = rng.gen();
            if r % 2 == 0 {
                // Regime A: y rises with t, z near 0.
                x.set(r, 0, t);
                x.set(r, 1, 0.8 * t + 0.1);
                x.set(r, 2, 0.05);
            } else {
                // Regime B: y falls with t, z near 1.
                x.set(r, 0, t);
                x.set(r, 1, 0.9 - 0.8 * t);
                x.set(r, 2, 0.95);
            }
        }
        (x, vec![])
    }

    #[test]
    fn single_expert_training_converges() {
        let (x, cats) = two_regime_data(256, 1);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; 3], 2);
        let cfg = MoeConfig {
            n_experts: 1,
            max_epochs: 40,
            seed: 1,
            ..Default::default()
        };
        let (model, report) = MoeAutoencoder::train(&spec, &x, &cats, &cfg).unwrap();
        assert!(report.epochs_run >= 2);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss must decrease: {first} → {last}");
        assert_eq!(model.n_experts(), 1);
        assert!(model.assign(&x).iter().all(|&e| e == 0));
    }

    #[test]
    fn multi_expert_reduces_loss_and_specializes() {
        let (x, cats) = two_regime_data(512, 2);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; 3], 1);
        let cfg = MoeConfig {
            n_experts: 2,
            max_epochs: 80,
            tol: 0.0, // run all epochs
            seed: 3,
            ..Default::default()
        };
        let (model, report) = MoeAutoencoder::train(&spec, &x, &cats, &cfg).unwrap();
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < report.epoch_losses[0] * 0.8);
        // The gate should use both experts for this bimodal data.
        let assign = model.assign(&x);
        let ones = assign.iter().filter(|&&e| e == 1).count();
        assert!(
            ones > assign.len() / 10 && ones < assign.len() * 9 / 10,
            "gate collapsed: {ones}/{} to expert 1",
            assign.len()
        );
    }

    #[test]
    fn encode_decode_roundtrip_shapes() {
        let (x, cats) = two_regime_data(64, 4);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; 3], 2);
        let cfg = MoeConfig {
            n_experts: 2,
            max_epochs: 3,
            seed: 4,
            ..Default::default()
        };
        let (model, _) = MoeAutoencoder::train(&spec, &x, &cats, &cfg).unwrap();
        let codes = model.encode(1, &x).unwrap();
        assert_eq!((codes.rows(), codes.cols()), (64, 2));
        let dec = model.decode(1, &codes).unwrap();
        assert_eq!(dec.simple.cols(), 3);
        assert!(model.encode(5, &x).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let (x, cats) = two_regime_data(8, 5);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; 3], 2);
        let cfg = MoeConfig {
            n_experts: 0,
            ..Default::default()
        };
        assert!(MoeAutoencoder::train(&spec, &x, &cats, &cfg).is_err());
        let cfg = MoeConfig::default();
        let empty = Mat::zeros(0, 3);
        assert!(MoeAutoencoder::train(&spec, &empty, &cats, &cfg).is_err());
    }

    #[test]
    fn convergence_tolerance_stops_early() {
        let (x, cats) = two_regime_data(128, 6);
        let spec = ModelSpec::with_defaults(vec![Head::Numeric; 3], 2);
        let cfg = MoeConfig {
            n_experts: 1,
            max_epochs: 200,
            tol: 0.5, // absurdly lax: stop almost immediately
            seed: 7,
            ..Default::default()
        };
        let (_, report) = MoeAutoencoder::train(&spec, &x, &cats, &cfg).unwrap();
        assert!(
            report.epochs_run < 20,
            "should stop early, ran {}",
            report.epochs_run
        );
    }

    #[test]
    fn mixed_type_training_with_categoricals() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 128;
        let mut x = Mat::zeros(n, 3);
        let mut cat = vec![0u32; n];
        for r in 0..n {
            let v: f32 = rng.gen();
            x.set(r, 0, v);
            let c = (v * 3.999) as u32;
            cat[r] = c;
            x.set(r, 1, c as f32 / 3.0);
            x.set(r, 2, if v > 0.5 { 1.0 } else { 0.0 });
        }
        let spec = ModelSpec::with_defaults(
            vec![Head::Numeric, Head::Categorical { card: 4 }, Head::Binary],
            2,
        );
        let cfg = MoeConfig {
            n_experts: 2,
            max_epochs: 30,
            seed: 9,
            ..Default::default()
        };
        let (model, report) = MoeAutoencoder::train(&spec, &x, &[cat], &cfg).unwrap();
        assert!(*report.epoch_losses.last().unwrap() < report.epoch_losses[0]);
        let assign = model.assign(&x);
        assert_eq!(assign.len(), n);
    }
}
