//! The DeepSqueeze autoencoder (§5.1 of the paper).
//!
//! Architecture, following the paper exactly:
//!
//! * **Input**: one node per column, irrespective of type (§5.3) — numeric
//!   values min-max scaled to [0,1], categorical values as normalized
//!   dictionary codes.
//! * **Encoder**: two hidden layers of width `hidden` (paper default: 2×
//!   the column count), ReLU, then a sigmoid code layer of `code_size`
//!   nodes — the learned representation that gets materialized.
//! * **Decoder trunk**: symmetric two ReLU hidden layers.
//! * **Numeric / binary heads**: one sigmoid node per column; MSE loss for
//!   numerics (closeness matters — failures store differences, §5.3), BCE
//!   for binary columns.
//! * **Categorical head with parameter sharing** (§5.1, Fig. 3): an
//!   auxiliary layer with one node per categorical column plus a *signal
//!   node* carrying the column index, followed by a single shared output
//!   layer of width `max(cardinality)`. Each categorical column is decoded
//!   by re-running the shared layer with its own signal value and masking
//!   the softmax to the column's cardinality. This bounds the final
//!   fully-connected layer by the *largest* dictionary instead of the sum
//!   of all dictionaries.
//!
//! The Fig. 7 ablation baseline ("single layer + linear activation") is
//! the same type with [`ModelSpec::linear_single_layer`] set.

use crate::dense::{flush, sigmoid, Activation, Dense, DenseGrad};
use crate::mat::Mat;
use crate::simd::{self, HeadOut, SharedColumn};
use crate::{NnError, Result};
use rand::rngs::StdRng;
use std::ops::Range;

/// Rows per task of the forward-only [`Autoencoder::loss_and_codes`].
/// Fixed by this constant alone; each row's loss and code are independent
/// of the chunking, so the value only sets task granularity.
const LOSS_CHUNK_ROWS: usize = 256;

/// Per-column output-head kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Ordered value in [0,1]; sigmoid node + MSE.
    Numeric,
    /// Two-valued categorical; sigmoid node + binary cross-entropy, and
    /// the XOR failure encoding downstream (§6.3.1).
    Binary,
    /// Categorical with `card` distinct values; shared softmax output.
    Categorical {
        /// Number of distinct values (≥ 3; use [`Head::Binary`] for 2).
        card: usize,
    },
}

/// Architecture description for one autoencoder (one expert).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// One head per model-visible column, in input order.
    pub heads: Vec<Head>,
    /// Width of the representation (code) layer — hyperparameter #1 (§5.4).
    pub code_size: usize,
    /// Hidden-layer width; the paper uses 2× the column count.
    pub hidden: usize,
    /// Fig. 7 baseline: one linear layer each side, no nonlinearity.
    pub linear_single_layer: bool,
    /// Relative weight of numeric MSE terms vs categorical cross-entropy.
    pub numeric_loss_weight: f32,
    /// Auxiliary nodes per categorical column feeding the shared output
    /// layer. The paper draws one node per column (Fig. 3); a small block
    /// per column keeps the shared layer bounded by `max_card` while
    /// giving each column a usable class embedding.
    pub aux_width: usize,
}

impl ModelSpec {
    /// Spec with the paper's defaults for a given head layout.
    pub fn with_defaults(heads: Vec<Head>, code_size: usize) -> Self {
        let hidden = (heads.len() * 2).max(4);
        ModelSpec {
            heads,
            code_size,
            hidden,
            linear_single_layer: false,
            numeric_loss_weight: 1.0,
            aux_width: 4,
        }
    }

    /// Number of input nodes (= number of model-visible columns).
    pub fn input_dim(&self) -> usize {
        self.heads.len()
    }

    fn validate(&self) -> Result<()> {
        if self.heads.is_empty() {
            return Err(NnError::InvalidSpec("no columns"));
        }
        if self.code_size == 0 {
            return Err(NnError::InvalidSpec("code size must be >= 1"));
        }
        if self.hidden == 0 {
            return Err(NnError::InvalidSpec("hidden width must be >= 1"));
        }
        if self.aux_width == 0 {
            return Err(NnError::InvalidSpec("aux width must be >= 1"));
        }
        for h in &self.heads {
            if let Head::Categorical { card } = h {
                if *card < 2 {
                    return Err(NnError::InvalidSpec("categorical cardinality < 2"));
                }
            }
        }
        Ok(())
    }
}

/// Index bookkeeping derived from a spec.
#[derive(Debug, Clone)]
pub(crate) struct HeadLayout {
    /// (column index, is_binary) for each simple (1-node) head, in order.
    pub simple: Vec<(usize, bool)>,
    /// (column index, cardinality) for each categorical head, in order.
    pub cat: Vec<(usize, usize)>,
    /// Largest categorical cardinality (0 when there are none).
    pub max_card: usize,
}

impl HeadLayout {
    pub fn of(spec: &ModelSpec) -> Self {
        let mut simple = Vec::new();
        let mut cat = Vec::new();
        for (i, h) in spec.heads.iter().enumerate() {
            match h {
                Head::Numeric => simple.push((i, false)),
                Head::Binary => simple.push((i, true)),
                Head::Categorical { card } => cat.push((i, *card)),
            }
        }
        let max_card = cat.iter().map(|&(_, c)| c).max().unwrap_or(0);
        HeadLayout {
            simple,
            cat,
            max_card,
        }
    }
}

/// Decoded predictions for a batch.
#[derive(Debug, Clone)]
pub struct DecodedBatch {
    /// B × n_simple sigmoid outputs, ordered like the spec's simple heads.
    pub simple: Mat,
    /// Per categorical head (spec order): B × card softmax probabilities.
    pub cat_probs: Vec<Mat>,
}

/// Reusable buffers for [`Autoencoder::pass`] over one row chunk: every
/// activation, the head and layer gradients flowing backward, and the
/// results (`losses`, `grads`). Buffers take the chunk's shape on use and
/// keep their allocation, so a scratch that only ever sees
/// `GRAD_CHUNK_ROWS`-row chunks stays that small for a whole training run.
#[derive(Debug)]
pub(crate) struct TrainScratch {
    x: Mat,
    enc_acts: Vec<Mat>,
    trunk_acts: Vec<Mat>,
    simple_probs: Mat,
    simple_dz: Mat,
    aux_out: Mat,
    /// The current categorical column's logit gradient, `B × card`.
    cat: Mat,
    /// The head kernels' lane buffers ([`simd::shared_softmax`]).
    head_lanes: Vec<f32>,
    d_aux: Mat,
    /// Gradient wrt the output of the layer being back-propagated (starts
    /// as the sum of the heads' input gradients) …
    dy: Mat,
    /// … and wrt its input; the two swap roles layer by layer.
    dx: Mat,
    /// Unweighted per-tuple loss, chunk row order.
    pub(crate) losses: Vec<f32>,
    /// Parameter gradients in [`Autoencoder::layers`] order; sized and
    /// written only by a backward pass.
    pub(crate) grads: Vec<DenseGrad>,
}

impl TrainScratch {
    /// Empty buffers shaped for `model`'s layer stack.
    pub(crate) fn new(model: &Autoencoder) -> Self {
        let empty = || Mat::zeros(0, 0);
        TrainScratch {
            x: empty(),
            enc_acts: model.enc.iter().map(|_| empty()).collect(),
            trunk_acts: model.trunk.iter().map(|_| empty()).collect(),
            simple_probs: empty(),
            simple_dz: empty(),
            aux_out: empty(),
            cat: empty(),
            head_lanes: Vec::new(),
            d_aux: empty(),
            dy: empty(),
            dx: empty(),
            losses: Vec::new(),
            grads: model.layers().iter().map(|_| DenseGrad::empty()).collect(),
        }
    }
}

/// The autoencoder for a single expert.
#[derive(Debug, Clone)]
pub struct Autoencoder {
    spec: ModelSpec,
    layout: HeadLayout,
    enc: Vec<Dense>,
    trunk: Vec<Dense>,
    simple_head: Option<Dense>,
    aux: Option<Dense>,
    shared: Option<Dense>,
}

impl Autoencoder {
    /// Builds a randomly initialized model.
    pub fn new(spec: ModelSpec, rng: &mut StdRng) -> Result<Self> {
        spec.validate()?;
        let layout = HeadLayout::of(&spec);
        let d = spec.input_dim();
        let k = spec.code_size;
        let h = spec.hidden;

        let (enc, trunk, trunk_dim) = if spec.linear_single_layer {
            let enc = vec![Dense::xavier(d, k, Activation::Identity, rng)];
            (enc, Vec::new(), k)
        } else {
            let enc = vec![
                Dense::xavier(d, h, Activation::Relu, rng),
                Dense::xavier(h, h, Activation::Relu, rng),
                Dense::xavier(h, k, Activation::Sigmoid, rng),
            ];
            let trunk = vec![
                Dense::xavier(k, h, Activation::Relu, rng),
                Dense::xavier(h, h, Activation::Relu, rng),
            ];
            (enc, trunk, h)
        };

        let simple_head = if layout.simple.is_empty() {
            None
        } else {
            // Identity activation: sigmoid applied manually so binary BCE
            // gradients can use the stable (p - t) form.
            Some(Dense::xavier(
                trunk_dim,
                layout.simple.len(),
                Activation::Identity,
                rng,
            ))
        };
        let (aux, shared) = if layout.cat.is_empty() {
            (None, None)
        } else {
            let aux = Dense::xavier(
                trunk_dim,
                layout.cat.len() * spec.aux_width,
                Activation::Tanh,
                rng,
            );
            let shared = Dense::xavier(
                layout.cat.len() * spec.aux_width + 1,
                layout.max_card,
                Activation::Identity,
                rng,
            );
            (Some(aux), Some(shared))
        };

        Ok(Autoencoder {
            spec,
            layout,
            enc,
            trunk,
            simple_head,
            aux,
            shared,
        })
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Signal value fed to the shared layer for categorical column `j`:
    /// a distinct, bounded scalar per column.
    fn signal(&self, j: usize) -> f32 {
        (j + 1) as f32 / self.layout.cat.len() as f32
    }

    /// Maps input rows to codes (the representation layer).
    pub fn encode(&self, x: &Mat) -> Result<Mat> {
        if x.cols() != self.spec.input_dim() {
            return Err(NnError::ShapeMismatch("encode: wrong input width"));
        }
        if self.enc.is_empty() {
            return Err(NnError::InvalidSpec("a decoder-only model cannot encode"));
        }
        let mut cur = x.clone();
        for layer in &self.enc {
            cur = layer.forward(&cur);
        }
        Ok(cur)
    }

    /// Reconstructs column predictions from codes.
    pub fn decode(&self, codes: &Mat) -> Result<DecodedBatch> {
        if codes.cols() != self.spec.code_size {
            return Err(NnError::ShapeMismatch("decode: wrong code width"));
        }
        let mut t = codes.clone();
        for layer in &self.trunk {
            t = layer.forward(&t);
        }

        let simple = match &self.simple_head {
            Some(head) => {
                let mut logits = head.forward(&t);
                logits.map_inplace(sigmoid);
                logits
            }
            None => Mat::zeros(codes.rows(), 0),
        };

        let mut cat_probs = Vec::with_capacity(self.layout.cat.len());
        if let (Some(aux), Some(shared)) = (&self.aux, &self.shared) {
            let aux_out = aux.forward(&t);
            let level = head_level(self.layout.cat.len());
            let mut lanes = Vec::new();
            for (j, &(_, card)) in self.layout.cat.iter().enumerate() {
                let mut probs = Mat::zeros(codes.rows(), card);
                let col = self.shared_column(shared, &aux_out, j, card);
                let out = HeadOut::Probs(probs.data_mut());
                simd::shared_softmax(level, &col, out, &mut lanes);
                cat_probs.push(probs);
            }
        }
        Ok(DecodedBatch { simple, cat_probs })
    }

    /// Shape and range checks shared by the public training entry points;
    /// [`Autoencoder::pass`] relies on them having passed.
    pub(crate) fn check_batch(
        &self,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        row_weights: Option<&[f32]>,
    ) -> Result<()> {
        if x.cols() != self.spec.input_dim() {
            return Err(NnError::ShapeMismatch("train: wrong input width"));
        }
        if cat_targets.len() != self.layout.cat.len() {
            return Err(NnError::ShapeMismatch("train: wrong cat target count"));
        }
        let b = x.rows();
        for (t, &(_, card)) in cat_targets.iter().zip(&self.layout.cat) {
            if t.len() != b {
                return Err(NnError::ShapeMismatch("train: cat target length"));
            }
            if t.iter().any(|&code| code as usize >= card) {
                return Err(NnError::ShapeMismatch("train: target code >= card"));
            }
            // The head kernels hold classes as f32 lanes, exact below 2²⁴.
            if card > 1 << 24 {
                return Err(NnError::InvalidSpec("train: cardinality above 2^24"));
            }
        }
        if let Some(w) = row_weights {
            if w.len() != b {
                return Err(NnError::ShapeMismatch("train: row weight length"));
            }
        }
        Ok(())
    }

    /// One training pass over a batch: forward, per-tuple loss, backward.
    ///
    /// * `x` — B × input_dim batch; numeric/binary reconstruction targets
    ///   are the inputs themselves (autoencoding).
    /// * `cat_targets` — per categorical head (spec order), the true
    ///   dictionary codes, each of length B.
    /// * `row_weights` — optional per-tuple gradient scale (the mixture of
    ///   experts passes its gate probabilities here, §5.2/§5.3).
    ///
    /// Returns parameter gradients (in [`Autoencoder::layers`] order) and
    /// the unweighted per-tuple loss.
    pub fn train_pass(
        &self,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        row_weights: Option<&[f32]>,
    ) -> Result<(Vec<DenseGrad>, Vec<f32>)> {
        self.check_batch(x, cat_targets, row_weights)?;
        let mut s = TrainScratch::new(self);
        self.pass(x, cat_targets, 0..x.rows(), row_weights, true, &mut s);
        Ok((s.grads, s.losses))
    }

    /// Per-tuple loss without computing gradients (eval): the losses of
    /// [`Autoencoder::loss_and_codes`].
    pub fn loss_per_tuple(&self, x: &Mat, cat_targets: &[Vec<u32>]) -> Result<Vec<f32>> {
        Ok(self.loss_and_codes(x, cat_targets)?.0)
    }

    /// Per-tuple loss and code from one forward pass (expert assignment):
    /// forward-only row chunks on the shared pool. The losses are bit-equal
    /// to those [`Autoencoder::train_pass`] returns, the codes to
    /// [`Autoencoder::encode`] — the representation layer is the same
    /// activation either way.
    pub fn loss_and_codes(&self, x: &Mat, cat_targets: &[Vec<u32>]) -> Result<(Vec<f32>, Mat)> {
        self.check_batch(x, cat_targets, None)?;
        let parts = ds_exec::parallel_map_chunks(x.rows(), LOSS_CHUNK_ROWS, |_, rows| {
            let mut s = TrainScratch::new(self);
            self.pass(x, cat_targets, rows, None, false, &mut s);
            (s.losses, s.enc_acts.pop().expect("encoder nonempty"))
        });
        let mut losses = Vec::with_capacity(x.rows());
        let mut codes = Vec::with_capacity(x.rows() * self.spec.code_size);
        for (l, c) in &parts {
            losses.extend_from_slice(l);
            codes.extend_from_slice(c.data());
        }
        Ok((losses, Mat::from_vec(x.rows(), self.spec.code_size, codes)))
    }

    /// The forward pass and loss bookkeeping over `rows` of a batch that
    /// passed [`Autoencoder::check_batch`], followed — when `backward` —
    /// by the full backward pass. Leaves the unweighted per-tuple losses
    /// in `s.losses` and, after a backward pass, the chunk's parameter
    /// gradients in `s.grads`. `row_weights` is indexed like `s.losses`.
    pub(crate) fn pass(
        &self,
        x: &Mat,
        cat_targets: &[Vec<u32>],
        rows: Range<usize>,
        row_weights: Option<&[f32]>,
        backward: bool,
        s: &mut TrainScratch,
    ) {
        let b = rows.len();
        let weight_of = |r: usize| row_weights.map_or(1.0, |w| w[r]);
        let (n_enc, n_trunk) = (self.enc.len(), self.trunk.len());
        let TrainScratch {
            x: xs,
            enc_acts,
            trunk_acts,
            simple_probs,
            simple_dz,
            aux_out,
            cat,
            head_lanes,
            d_aux,
            dy,
            dx,
            losses,
            grads,
        } = s;

        xs.copy_rows_from(x, rows.start, rows.end);
        forward_chain(&self.enc, xs, enc_acts);
        let code = enc_acts.last().expect("encoder nonempty");
        forward_chain(&self.trunk, code, trunk_acts);
        let trunk_out = trunk_acts.last().unwrap_or(code);

        losses.clear();
        losses.resize(b, 0.0);
        // Gradient flowing into the trunk output (or code when linear).
        dy.reset(b, trunk_out.cols());

        // ---- simple heads -------------------------------------------------
        if let Some(head) = &self.simple_head {
            // Identity-activated; sigmoid applied here so binary BCE
            // gradients can use the stable (p - t) form.
            head.forward_into(trunk_out, simple_probs);
            simple_probs.map_inplace(sigmoid);
            if backward {
                simple_dz.reset(b, self.layout.simple.len());
            }
            let w_num = self.spec.numeric_loss_weight;
            for r in 0..b {
                let rw = weight_of(r);
                for (i, &(col, is_binary)) in self.layout.simple.iter().enumerate() {
                    let p = simple_probs.get(r, i);
                    let t = xs.get(r, col);
                    let dz = if is_binary {
                        // BCE with sigmoid: dL/dz = p - t.
                        let pc = p.clamp(1e-7, 1.0 - 1e-7);
                        losses[r] += -(t * pc.ln() + (1.0 - t) * (1.0 - pc).ln());
                        rw * (p - t)
                    } else {
                        let diff = p - t;
                        losses[r] += w_num * diff * diff;
                        // MSE through sigmoid: dL/dz = 2w·diff·p(1-p).
                        rw * w_num * 2.0 * diff * p * (1.0 - p)
                    };
                    if backward {
                        simple_dz.set(r, i, flush(dz));
                    }
                }
            }
            if backward {
                let grad = grads.last_mut().expect("head implies a layer");
                // An Identity layer's backward never reads its output `y`.
                head.backward_into(trunk_out, simple_probs, simple_dz, Some(dx), grad);
                add_into(dy, dx);
            }
        }

        // ---- categorical heads (parameter sharing) ------------------------
        if let (Some(aux), Some(shared)) = (&self.aux, &self.shared) {
            aux.forward_into(trunk_out, aux_out);
            let (aux_grad, shared_grad) = {
                let (a, rest) = grads[n_enc + n_trunk..].split_at_mut(1);
                (&mut a[0], &mut rest[0])
            };
            if backward {
                d_aux.reset(b, aux_out.cols());
                shared_grad
                    .dw
                    .reset(shared.input_dim(), shared.output_dim());
                shared_grad.db.clear();
                shared_grad.db.resize(shared.output_dim(), 0.0);
            }
            let level = head_level(self.layout.cat.len() * if backward { 2 } else { 1 });
            for (j, &(_, card)) in self.layout.cat.iter().enumerate() {
                let col = self.shared_column(shared, aux_out, j, card);
                let targets = &cat_targets[j][rows.clone()];
                if !backward {
                    let out = HeadOut::Loss { targets, losses };
                    simd::shared_softmax(level, &col, out, head_lanes);
                    continue;
                }
                cat.reset(b, card);
                let out = HeadOut::Grad {
                    targets,
                    losses,
                    row_weights,
                    dz: cat.data_mut(),
                    d_aux: d_aux.data_mut(),
                };
                simd::shared_softmax(level, &col, out, head_lanes);
                let (dw, db) = (shared_grad.dw.data_mut(), &mut shared_grad.db);
                simd::shared_backward(level, &col, cat.data(), dw, db);
            }
            if backward {
                aux.backward_into(trunk_out, aux_out, d_aux, Some(dx), aux_grad);
                add_into(dy, dx);
            }
        }
        if !backward {
            return;
        }

        // ---- decoder trunk, then encoder ------------------------------------
        for (i, layer) in self.trunk.iter().enumerate().rev() {
            let input = if i == 0 { code } else { &trunk_acts[i - 1] };
            layer.backward_into(input, &trunk_acts[i], dy, Some(dx), &mut grads[n_enc + i]);
            std::mem::swap(dy, dx);
        }
        for (i, layer) in self.enc.iter().enumerate().rev() {
            if i == 0 {
                // Nothing consumes the gradient wrt the batch itself.
                layer.backward_into(xs, &enc_acts[0], dy, None, &mut grads[0]);
            } else {
                layer.backward_into(&enc_acts[i - 1], &enc_acts[i], dy, Some(dx), &mut grads[i]);
                std::mem::swap(dy, dx);
            }
        }
    }

    /// Categorical column `j`'s view of the shared layer for the head
    /// kernels (DESIGN.md §3f, "Row lanes").
    ///
    /// Logically the shared layer sees the full auxiliary vector plus the
    /// signal node, with every inactive column's block masked to zero — the
    /// signal node "informs the shared layer how to interpret the values
    /// from the auxiliary layer for a particular output" (§5.1). Masked
    /// inputs are zero, so the computation reduces to the active
    /// `aux_width`-node block, the signal row, and the bias; and the
    /// softmax reads only the column's own `card` logits, so only those
    /// are computed (each is independent of the others — skipping the
    /// padding up to `max_card` changes no bit of the result). Backward,
    /// only the active block and the signal row receive weight gradients,
    /// and logits past `card` have none.
    fn shared_column<'a>(
        &self,
        shared: &'a Dense,
        aux_out: &'a Mat,
        j: usize,
        card: usize,
    ) -> SharedColumn<'a> {
        let width = self.spec.aux_width;
        SharedColumn {
            aux: aux_out.data(),
            aux_cols: aux_out.cols(),
            block: j * width,
            width,
            w: shared.w.data(),
            w_cols: shared.output_dim(),
            bias: &shared.b,
            signal: self.signal(j),
            card,
        }
    }

    /// All layers in the fixed order matching [`Autoencoder::train_pass`]'s
    /// gradient vector: enc[0..], trunk[0..], aux?, shared?, simple?.
    pub fn layers_mut(&mut self) -> Vec<&mut Dense> {
        let mut v: Vec<&mut Dense> = Vec::new();
        v.extend(self.enc.iter_mut());
        v.extend(self.trunk.iter_mut());
        if let Some(a) = self.aux.as_mut() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_mut() {
            v.push(s);
        }
        if let Some(h) = self.simple_head.as_mut() {
            v.push(h);
        }
        v
    }

    /// Immutable view matching [`Autoencoder::layers_mut`]'s order.
    pub fn layers(&self) -> Vec<&Dense> {
        let mut v: Vec<&Dense> = Vec::new();
        v.extend(self.enc.iter());
        v.extend(self.trunk.iter());
        if let Some(a) = self.aux.as_ref() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_ref() {
            v.push(s);
        }
        if let Some(h) = self.simple_head.as_ref() {
            v.push(h);
        }
        v
    }

    /// Decoder-half layers in serialization order: trunk…, simple?, aux?,
    /// shared? — everything decompression needs (§6.1).
    pub(crate) fn decoder_layers(&self) -> Vec<&Dense> {
        let mut v: Vec<&Dense> = Vec::new();
        v.extend(self.trunk.iter());
        if let Some(h) = self.simple_head.as_ref() {
            v.push(h);
        }
        if let Some(a) = self.aux.as_ref() {
            v.push(a);
        }
        if let Some(s) = self.shared.as_ref() {
            v.push(s);
        }
        v
    }

    /// Builds a decoder-only model from spec + deserialized layers.
    pub(crate) fn from_decoder_parts(spec: ModelSpec, mut layers: Vec<Dense>) -> Result<Self> {
        spec.validate()?;
        let layout = HeadLayout::of(&spec);
        let n_trunk = if spec.linear_single_layer { 0 } else { 2 };
        let mut expected = n_trunk;
        if !layout.simple.is_empty() {
            expected += 1;
        }
        if !layout.cat.is_empty() {
            expected += 2;
        }
        if layers.len() != expected {
            return Err(NnError::Corrupt("decoder layer count mismatch"));
        }
        let trunk: Vec<Dense> = layers.drain(..n_trunk).collect();
        let simple_head = if layout.simple.is_empty() {
            None
        } else {
            Some(layers.remove(0))
        };
        let (aux, shared) = if layout.cat.is_empty() {
            (None, None)
        } else {
            let aux = layers.remove(0);
            let shared = layers.remove(0);
            (Some(aux), Some(shared))
        };
        // Every shape the forward pass relies on, against the spec: a
        // forged stream fails here rather than in a matmul assert, and the
        // spec's widths are all backed by weight data.
        let shape = |l: &Dense, input: usize, output: usize| {
            l.input_dim() == input && l.output_dim() == output
        };
        let (k, h) = (spec.code_size, spec.hidden);
        let trunk_dim = if trunk.is_empty() { k } else { h };
        let cat_width = layout.cat.len().saturating_mul(spec.aux_width);
        let shapes_agree = trunk
            .iter()
            .enumerate()
            .all(|(i, l)| shape(l, if i == 0 { k } else { h }, h))
            && simple_head
                .as_ref()
                .is_none_or(|l| shape(l, trunk_dim, layout.simple.len()))
            && aux.as_ref().is_none_or(|l| shape(l, trunk_dim, cat_width))
            && shared
                .as_ref()
                .is_none_or(|l| shape(l, cat_width.saturating_add(1), layout.max_card));
        if !shapes_agree {
            return Err(NnError::Corrupt(
                "decoder layer shapes disagree with the spec",
            ));
        }
        // A decoder-only model has no encoder: `encode` refuses.
        Ok(Autoencoder {
            spec,
            layout,
            enc: Vec::new(),
            trunk,
            simple_head,
            aux,
            shared,
        })
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers().iter().map(|l| l.param_count()).sum()
    }
}

/// Runs `layers` in sequence from `input`, leaving layer `i`'s activated
/// output in `acts[i]`.
fn forward_chain(layers: &[Dense], input: &Mat, acts: &mut [Mat]) {
    for (i, layer) in layers.iter().enumerate() {
        let (done, rest) = acts.split_at_mut(i);
        layer.forward_into(done.last().unwrap_or(input), &mut rest[0]);
    }
}

/// The kernel level for the next `calls` head-kernel calls, counted like
/// a product's — in one event, so a trace does not grow by one per call.
fn head_level(calls: usize) -> ds_simd::Level {
    let level = ds_simd::active();
    ds_obs::counter_labeled("nn.simd_kernel", level.name(), calls as u64);
    level
}

fn add_into(dst: &mut Mat, src: &Mat) {
    debug_assert_eq!(dst.rows(), src.rows());
    debug_assert_eq!(dst.cols(), src.cols());
    for (d, &s) in dst.data_mut().iter_mut().zip(src.data()) {
        *d += s;
    }
}

/// The per-row categorical head the row-lane kernels of `simd.rs`
/// replaced, kept as the reference they must match bit for bit: the shared
/// layer and masked softmax per row, the cross-entropy loop of
/// [`Autoencoder::pass`], and the shared layer's backward per row.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`Autoencoder::signal`] of column `j`, the column count read off
    /// `aux_out`.
    pub(crate) fn signal(aux_out: &Mat, j: usize, width: usize) -> f32 {
        (j + 1) as f32 / (aux_out.cols() / width) as f32
    }

    /// Softmax probabilities of categorical column `j` into
    /// `out[r][..card]`.
    pub(crate) fn shared_probs_column(
        shared: &Dense,
        aux_out: &Mat,
        j: usize,
        width: usize,
        card: usize,
        out: &mut Mat,
    ) {
        let signal = signal(aux_out, j, width);
        let w_signal = shared.w.row(shared.input_dim() - 1);
        let sig_row: Vec<f32> = w_signal[..card]
            .iter()
            .zip(&shared.b)
            .map(|(&w, &bias)| signal * w + bias)
            .collect();
        for r in 0..aux_out.rows() {
            let row = &mut out.row_mut(r)[..card];
            row.copy_from_slice(&sig_row);
            for c in j * width..(j + 1) * width {
                let a = aux_out.get(r, c);
                if a != 0.0 {
                    for (o, &w) in row.iter_mut().zip(shared.w.row(c)) {
                        *o += a * w;
                    }
                }
            }
            softmax_in_place(row);
        }
    }

    /// Softmax of one row of logits, in place.
    pub(crate) fn softmax_in_place(row: &mut [f32]) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for o in row.iter_mut() {
            let e = (*o - max).exp();
            *o = e;
            sum += e;
        }
        if sum > 0.0 {
            let inv = 1.0 / sum;
            for o in row {
                *o *= inv;
            }
        }
    }

    /// Each row's cross-entropy into `losses`, and — when `backward` — the
    /// probabilities in `cat` overwritten by their logit gradient.
    pub(crate) fn cross_entropy(
        cat: &mut Mat,
        targets: &[u32],
        row_weights: Option<&[f32]>,
        losses: &mut [f32],
        backward: bool,
    ) {
        let weight_of = |r: usize| row_weights.map_or(1.0, |w| w[r]);
        for r in 0..cat.rows() {
            let target = targets[r] as usize;
            let row = cat.row_mut(r);
            losses[r] += -row[target].max(1e-7).ln();
            if backward {
                // Softmax CE gradient: dz = p; dz[target] -= 1.
                let rw = weight_of(r);
                for (c, g) in row.iter_mut().enumerate() {
                    let adj = if c == target { *g - 1.0 } else { *g };
                    *g = flush(rw * adj);
                }
            }
        }
    }

    /// Backward through the shared layer for column `j`, given the
    /// column's `B × card` logit gradient `dz`: accumulates into
    /// `shared_grad` and adds into the active block of `d_aux`.
    pub(crate) fn shared_backward_column(
        shared: &Dense,
        aux_out: &Mat,
        j: usize,
        width: usize,
        dz: &Mat,
        shared_grad: &mut DenseGrad,
        d_aux: &mut Mat,
    ) {
        let sig = signal(aux_out, j, width);
        let signal_row = shared.input_dim() - 1;
        for r in 0..dz.rows() {
            let dz_row = dz.row(r);
            for c in j * width..(j + 1) * width {
                let a = aux_out.get(r, c);
                if a != 0.0 {
                    for (dwv, &dzv) in shared_grad.dw.row_mut(c).iter_mut().zip(dz_row) {
                        *dwv += a * dzv;
                    }
                }
            }
            for (dwv, &dzv) in shared_grad.dw.row_mut(signal_row).iter_mut().zip(dz_row) {
                *dwv += sig * dzv;
            }
            for (dbv, &dzv) in shared_grad.db.iter_mut().zip(dz_row) {
                *dbv += dzv;
            }
            // d_aux for the active block: dz · W[block]ᵀ.
            for c in j * width..(j + 1) * width {
                let mut acc = 0.0f32;
                for (&dzv, &w) in dz_row.iter().zip(shared.w.row(c)) {
                    acc += dzv * w;
                }
                d_aux.set(r, c, d_aux.get(r, c) + acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{AdamConfig, AdamState};
    use rand::Rng;
    use rand::SeedableRng;

    fn mixed_spec() -> ModelSpec {
        ModelSpec::with_defaults(
            vec![
                Head::Numeric,
                Head::Categorical { card: 4 },
                Head::Numeric,
                Head::Binary,
                Head::Categorical { card: 3 },
            ],
            2,
        )
    }

    #[test]
    fn construction_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        let x = Mat::zeros(7, 5);
        let code = ae.encode(&x).unwrap();
        assert_eq!((code.rows(), code.cols()), (7, 2));
        let dec = ae.decode(&code).unwrap();
        assert_eq!(dec.simple.cols(), 3); // 2 numeric + 1 binary
        assert_eq!(dec.cat_probs.len(), 2);
        // B × card each, not padded to max_card.
        assert_eq!(dec.cat_probs[0].cols(), 4);
        assert_eq!(dec.cat_probs[1].cols(), 3);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Autoencoder::new(ModelSpec::with_defaults(vec![], 2), &mut rng).is_err());
        assert!(
            Autoencoder::new(ModelSpec::with_defaults(vec![Head::Numeric], 0), &mut rng).is_err()
        );
        assert!(Autoencoder::new(
            ModelSpec::with_defaults(vec![Head::Categorical { card: 1 }], 1),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_within_mask() {
        let mut p = Mat::from_vec(2, 4, vec![1.0, 2.0, 3.0, 0.0, -1.0, -2.0, -3.0, 0.0]);
        for r in 0..2 {
            reference::softmax_in_place(&mut p.row_mut(r)[..3]);
            let s: f32 = p.row(r)[..3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert_eq!(p.get(r, 3), 0.0, "masked entry must be zero");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        assert!(ae.encode(&Mat::zeros(3, 4)).is_err());
        assert!(ae.decode(&Mat::zeros(3, 9)).is_err());
        let x = Mat::zeros(3, 5);
        // Wrong number of categorical target vectors.
        assert!(ae.train_pass(&x, &[vec![0; 3]], None).is_err());
        // Target code exceeding cardinality.
        let bad = [vec![9u32; 3], vec![0; 3]];
        assert!(ae.train_pass(&x, &bad, None).is_err());
    }

    /// End-to-end gradient check on the full mixed model.
    #[test]
    fn full_model_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ModelSpec {
            numeric_loss_weight: 1.7,
            ..mixed_spec()
        };
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let b = 3;
        let mut x = Mat::zeros(b, 5);
        for v in x.data_mut() {
            *v = rng.gen_range(0.0..1.0);
        }
        // Binary column must hold 0/1.
        for r in 0..b {
            let v = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            x.set(r, 3, v);
        }
        let cat_targets = vec![
            (0..b).map(|r| (r % 4) as u32).collect::<Vec<_>>(),
            (0..b).map(|r| (r % 3) as u32).collect::<Vec<_>>(),
        ];

        let (grads, _) = ae.train_pass(&x, &cat_targets, None).unwrap();
        let layers = ae.layers();
        assert_eq!(grads.len(), layers.len());

        let total_loss = |model: &Autoencoder| -> f32 {
            model.loss_per_tuple(&x, &cat_targets).unwrap().iter().sum()
        };

        let eps = 1e-2f32;
        // Probe a couple of entries in every layer.
        for li in 0..layers.len() {
            let (rows, cols) = (layers[li].w.rows(), layers[li].w.cols());
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1)] {
                let mut plus = ae.clone();
                {
                    let mut ls = plus.layers_mut();
                    let v = ls[li].w.get(r, c);
                    ls[li].w.set(r, c, v + eps);
                }
                let mut minus = ae.clone();
                {
                    let mut ls = minus.layers_mut();
                    let v = ls[li].w.get(r, c);
                    ls[li].w.set(r, c, v - eps);
                }
                let num = (total_loss(&plus) - total_loss(&minus)) / (2.0 * eps);
                let ana = grads[li].dw.get(r, c);
                assert!(
                    (num - ana).abs() < 0.08 * (1.0 + ana.abs().max(num.abs())),
                    "layer {li} dW[{r},{c}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    /// Training must overfit a tiny dataset (the paper *wants* overfitting).
    #[test]
    fn overfits_small_mixed_dataset() {
        let mut rng = StdRng::seed_from_u64(8);
        let spec = ModelSpec::with_defaults(
            vec![Head::Numeric, Head::Categorical { card: 3 }, Head::Binary],
            2,
        );
        let mut ae = Autoencoder::new(spec, &mut rng).unwrap();
        // 12 tuples with perfectly learnable structure: cat = bucket of
        // numeric, binary = numeric > 0.5.
        let b = 12;
        let mut x = Mat::zeros(b, 3);
        let mut cat = vec![0u32; b];
        for r in 0..b {
            let v = r as f32 / (b - 1) as f32;
            x.set(r, 0, v);
            let c = ((v * 2.999) as u32).min(2);
            cat[r] = c;
            x.set(r, 1, c as f32 / 2.0);
            x.set(r, 2, if v > 0.5 { 1.0 } else { 0.0 });
        }
        let cat_targets = vec![cat.clone()];

        let cfg = AdamConfig {
            lr: 5e-3,
            ..Default::default()
        };
        let mut states: Vec<AdamState> = ae
            .layers()
            .iter()
            .map(|l| AdamState::for_layer(l))
            .collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..2000 {
            let (grads, losses) = ae.train_pass(&x, &cat_targets, None).unwrap();
            let mean: f32 = losses.iter().sum::<f32>() / b as f32;
            if epoch == 0 {
                first = mean;
            }
            last = mean;
            let mut layers = ae.layers_mut();
            for ((layer, grad), st) in layers.iter_mut().zip(&grads).zip(states.iter_mut()) {
                st.step(layer, grad, &cfg);
            }
        }
        assert!(
            last < first * 0.3,
            "training failed to reduce loss: {first} → {last}"
        );
        // Reconstruction should now be decent: categorical argmax mostly
        // right.
        let code = ae.encode(&x).unwrap();
        let dec = ae.decode(&code).unwrap();
        let mut correct = 0;
        for r in 0..b {
            let probs = dec.cat_probs[0].row(r);
            let argmax = (0..3)
                .max_by(|&a, &c| probs[a].total_cmp(&probs[c]))
                .unwrap();
            if argmax as u32 == cat[r] {
                correct += 1;
            }
        }
        assert!(correct >= b * 2 / 3, "only {correct}/{b} correct");
    }

    /// The perf bug this guards against: with well-separated classes the
    /// masked softmax assigns the losers probabilities around e⁻⁹⁵, and
    /// their cross-entropy gradients used to travel as f32 subnormals
    /// through every backward matmul (a microcode assist each) and into
    /// the Adam moments. Nothing training returns or keeps may be one.
    #[test]
    fn saturated_softmax_training_produces_no_subnormals() {
        let mut rng = StdRng::seed_from_u64(12);
        let (n, n_cols, card) = (64usize, 6usize, 5usize);
        let spec = ModelSpec::with_defaults(vec![Head::Categorical { card }; n_cols], 2);
        let mut ae = Autoencoder::new(spec, &mut rng).unwrap();
        // One dominant class per column, ahead by more than 90 logits.
        ae.shared.as_mut().expect("categorical model").b[0] = 95.0;
        let mut x = Mat::zeros(n, n_cols);
        let mut cat_targets = vec![vec![0u32; n]; n_cols];
        for r in (0..n).step_by(16) {
            for (j, t) in cat_targets.iter_mut().enumerate() {
                t[r] = 1 + ((r / 16 + j) % (card - 1)) as u32;
                x.set(r, j, t[r] as f32 / (card - 1) as f32);
            }
        }
        let gate_weights: Vec<f32> = (0..n).map(|r| 0.25 + (r % 7) as f32 * 0.25).collect();

        let cfg = AdamConfig::default();
        let mut states: Vec<AdamState> = ae
            .layers()
            .iter()
            .map(|l| AdamState::for_layer(l))
            .collect();
        for _epoch in 0..3 {
            for lo in (0..n).step_by(16) {
                let xb = x.take_rows(&(lo..lo + 16).collect::<Vec<_>>());
                let cat_b: Vec<Vec<u32>> = cat_targets
                    .iter()
                    .map(|t| t[lo..lo + 16].to_vec())
                    .collect();
                let (grads, _) = ae
                    .train_pass(&xb, &cat_b, Some(&gate_weights[lo..lo + 16]))
                    .unwrap();
                for g in &grads {
                    assert!(!g.dw.data().iter().any(|v| v.is_subnormal()), "dw");
                    assert!(!g.db.iter().any(|v| v.is_subnormal()), "db");
                }
                let mut layers = ae.layers_mut();
                for ((layer, grad), st) in layers.iter_mut().zip(&grads).zip(states.iter_mut()) {
                    st.step(layer, grad, &cfg);
                }
            }
        }
        for st in &states {
            assert!(!st.moments().any(|v| v.is_subnormal()), "Adam moment");
        }
        for layer in ae.layers() {
            assert!(!layer.w.data().iter().any(|v| v.is_subnormal()), "weight");
            assert!(!layer.b.iter().any(|v| v.is_subnormal()), "bias");
        }
        // The premise held to the end: every loser is still below e⁻⁹⁰.
        let dec = ae.decode(&ae.encode(&x).unwrap()).unwrap();
        for probs in &dec.cat_probs {
            for r in 0..n {
                assert!(probs.row(r)[1..card].iter().all(|&p| p < (-90.0f32).exp()));
            }
        }
    }

    #[test]
    fn row_weights_scale_gradients() {
        let mut rng = StdRng::seed_from_u64(9);
        let ae = Autoencoder::new(mixed_spec(), &mut rng).unwrap();
        let mut x = Mat::zeros(4, 5);
        for v in x.data_mut() {
            *v = 0.3;
        }
        let cats = vec![vec![0u32; 4], vec![1u32; 4]];
        let (g1, l1) = ae.train_pass(&x, &cats, None).unwrap();
        let (g0, l0) = ae.train_pass(&x, &cats, Some(&[0.0; 4])).unwrap();
        // Zero weights zero every gradient but not the reported loss.
        assert_eq!(l0, l1);
        for (a, b) in g0.iter().zip(&g1) {
            assert!(a.dw.data().iter().all(|&v| v == 0.0));
            assert!(b.dw.data().iter().any(|&v| v != 0.0));
        }
        // Half weights halve gradients.
        let (gh, _) = ae.train_pass(&x, &cats, Some(&[0.5; 4])).unwrap();
        for (h, f) in gh.iter().zip(&g1) {
            for (a, &bv) in h.dw.data().iter().zip(f.dw.data()) {
                assert!((a * 2.0 - bv).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn linear_single_layer_variant_runs() {
        let mut rng = StdRng::seed_from_u64(10);
        let spec = ModelSpec {
            linear_single_layer: true,
            ..mixed_spec()
        };
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let x = Mat::zeros(3, 5);
        let code = ae.encode(&x).unwrap();
        assert_eq!(code.cols(), 2);
        let dec = ae.decode(&code).unwrap();
        assert_eq!(dec.simple.cols(), 3);
        let cats = vec![vec![0u32; 3], vec![0u32; 3]];
        let (grads, _) = ae.train_pass(&x, &cats, None).unwrap();
        assert_eq!(grads.len(), ae.layers().len());
    }

    #[test]
    fn param_count_reflects_parameter_sharing() {
        let mut rng = StdRng::seed_from_u64(11);
        // 6 categorical columns of cardinality 50: with sharing, the output
        // stage costs aux (h×6) + shared (7×50); without, it would cost
        // h×300. Verify the model is much smaller than the naive bound.
        let heads: Vec<Head> = (0..6).map(|_| Head::Categorical { card: 50 }).collect();
        let spec = ModelSpec::with_defaults(heads, 2);
        let h = spec.hidden;
        let ae = Autoencoder::new(spec, &mut rng).unwrap();
        let naive_final_layer = h * 300;
        let shared_stage = h * 6 + 6 + 7 * 50 + 50;
        assert!(ae.param_count() < naive_final_layer + 4 * h * h);
        assert!(shared_stage < naive_final_layer / 3);
    }
}
