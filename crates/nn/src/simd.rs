//! SIMD micro-kernels behind runtime dispatch (`ds-simd`).
//!
//! Every kernel is written once, over [`Lanes`]: eight `f32` lanes, each
//! operation rounded once per lane exactly like its scalar spelling.
//! `[f32; 8]` serves the scalar level (and every host without AVX2), a
//! `__m256` serves AVX2. A kernel body therefore runs one *fixed
//! accumulation schedule* at every [`Level`], and the level never changes
//! an output bit (DESIGN.md §3f). Two schedules cover the three products:
//!
//! * **Order-preserving axpy** ([`matmul_rows`], [`t_matmul`]): each
//!   output element accumulates `o[j] += c · b[j]` in strictly ascending
//!   `p` order, one rounded mul and one rounded add per term (never FMA),
//!   skipping the zero terms DESIGN.md §3f names.
//! * **Lane-group dot** ([`matmul_t_rows`]): a dot product holds
//!   [`ds_simd::LANE_GROUP`] = 8 partial sums — lane `l` accumulates the
//!   terms `p ≡ l (mod 8)` in ascending `p` — then closes through the
//!   pinned [`tree`].
//!
//! Each body picks its register shape by the product's shape (`k`, `n`);
//! every shape runs the schedule above, so the choice never changes a bit
//! either (DESIGN.md §3f, "Register shapes"). The categorical head's
//! kernels ([`shared_softmax`], [`shared_backward`]) keep the per-row
//! code's own order instead, with rows (or classes) as the lanes
//! (DESIGN.md §3f, "Row lanes").
//!
//! Dispatch reads a [`Level`] chosen by the *caller* (`mat.rs` resolves
//! `ds_simd::active()` once per public entry point, before any `ds-exec`
//! fan-out) so pool workers use the caller's kernel, not their own
//! thread-local view. Only the `__m256` lanes' intrinsics and the one
//! `#[target_feature]` entry that [`dispatch`] calls are not safe Rust.

use ds_simd::Level;

/// Lanes per register: the dot schedule's lane group, the head kernels'
/// rows (or classes) per block.
const LANES: usize = ds_simd::LANE_GROUP;

/// Depth (`k`) panel width of [`matmul_rows`]: a panel of B (`KC × n`
/// floats) is streamed repeatedly while it is still cache-hot.
const KC: usize = 256;

/// A kernel written once: `run` is its body over the lanes `V` that
/// [`dispatch`] picks, given `V`'s proof.
trait Kernel {
    fn run<V: Lanes>(self, pf: V::Proof);
}

/// Runs `kernel` over `__m256` lanes when `level` is AVX2 (and the host
/// runs it), over `[f32; 8]` lanes otherwise.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn dispatch(level: Level, kernel: impl Kernel) {
    #[cfg(target_arch = "x86_64")]
    if let Some(pf) = avx2::Avx2::new(level) {
        // SAFETY: `pf` shows that this host runs AVX2.
        return unsafe { run_avx2(pf, kernel) };
    }
    kernel.run::<[f32; LANES]>(());
}

/// The AVX2 entry of every kernel: `run` inlines here, so its `__m256`
/// lanes compile to AVX2 instructions.
///
/// # Safety
/// The host must run AVX2, as `pf` shows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(pf: avx2::Avx2, kernel: impl Kernel) {
    kernel.run::<avx2::V256>(pf);
}

// ---------------------------------------------------------------------------
// out[row0..row0+r] = A[row0..row0+r] · B   (order-preserving axpy)
// ---------------------------------------------------------------------------

/// Adds `A[row0..row0 + r] · B` into `out_rows` (`A` has `k` columns, `B`
/// is `k × n`, `out_rows` is `r × n`).
///
/// Depth panels of [`KC`] ascend. In each, a quad of output rows packs its
/// coefficients once and runs the 4 × 16 tile over them, skipping a `p`
/// where all four are `±0`; each remaining row runs the 1 × 32 tile,
/// skipping a `p` where its coefficient is `±0`. Per element, `p` ascends.
pub(crate) fn matmul_rows(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    let r = out_rows.len() / n;
    assert!(
        out_rows.len() == r * n && a.len() >= (row0 + r) * k && b.len() >= k * n,
        "matmul operand shorter than its shape"
    );
    dispatch(level, Matmul(a, b, k, n, row0, out_rows));
}

/// [`matmul_rows`]' operands, in its parameters' order.
struct Matmul<'a>(&'a [f32], &'a [f32], usize, usize, usize, &'a mut [f32]);

impl Kernel for Matmul<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self, pf: V::Proof) {
        let Matmul(a, b, k, n, row0, out) = self;
        let quad_rows = out.len() / n / 4 * 4;
        let (quads, singles) = out.split_at_mut(quad_rows * n);
        // Each buffer is zeroed only if its rows exist.
        let (mut quad, mut single) = (None, None);
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for (q, rows) in quads.chunks_exact_mut(4 * n).enumerate() {
                let quad = quad.get_or_insert_with(Packed::<4>::new);
                let a_row = |ii: usize| &a[(row0 + 4 * q + ii) * k..][..k];
                let (a0, a1, a2, a3) = (a_row(0), a_row(1), a_row(2), a_row(3));
                quad.fill((kb..kend).map(|p| ([a0[p], a1[p], a2[p], a3[p]], p * n)));
                let (q0, rest) = rows.split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, q3) = rest.split_at_mut(n);
                quad.run::<V, 2>(pf, [q0, q1, q2, q3], b);
            }
            for (i, row) in singles.chunks_exact_mut(n).enumerate() {
                let single = single.get_or_insert_with(Packed::<1>::new);
                let a_row = &a[(row0 + quad_rows + i) * k..][..k];
                single.fill((kb..kend).map(|p| ([a_row[p]], p * n)));
                single.run::<V, 4>(pf, [row], b);
            }
        }
    }
}

/// One group of `R` output rows' terms over a depth panel, in ascending
/// `p`: each term's `R` coefficients and the offset of its `B` row. A term
/// whose coefficients are all `±0` is left out, and that skip is part of
/// the schedule (DESIGN.md §3f): `-0.0 + 0.0·b` is `+0.0`, and `0.0·∞` is
/// NaN. Filled per group; entries past `len` are never read, so the
/// buffers are zeroed once per call.
struct Packed<const R: usize> {
    coef: [[f32; R]; KC],
    boff: [usize; KC],
    len: usize,
}

impl<const R: usize> Packed<R> {
    fn new() -> Self {
        Packed {
            coef: [[0.0; R]; KC],
            boff: [0; KC],
            len: 0,
        }
    }

    /// Packs one panel's terms (at most [`KC`]), `(coefficients, B-row
    /// offset)` in ascending `p`.
    #[inline(always)]
    fn fill(&mut self, terms: impl Iterator<Item = ([f32; R], usize)>) {
        let mut len = 0;
        for (c, off) in terms {
            if c.iter().any(|&c| c != 0.0) {
                self.coef[len] = c;
                self.boff[len] = off;
                len += 1;
            }
        }
        self.len = len;
    }

    /// `rows[ii][j] += coef[t][ii] · b[boff[t] + j]` for `t` ascending, on
    /// `R` output rows of one length `n`: `W`-register blocks, then
    /// one-register blocks, then single columns.
    #[inline(always)]
    fn run<V: Lanes, const W: usize>(&self, pf: V::Proof, mut rows: [&mut [f32]; R], b: &[f32]) {
        let n = rows[0].len();
        let (coef, boff) = (&self.coef[..self.len], &self.boff[..self.len]);
        let mut j = 0;
        while j + W * LANES <= n {
            self.tile::<V, W>(pf, &mut rows, j, b);
            j += W * LANES;
        }
        while j + LANES <= n {
            self.tile::<V, 1>(pf, &mut rows, j, b);
            j += LANES;
        }
        for j in j..n {
            let mut s = [0.0f32; R];
            for (s, row) in s.iter_mut().zip(&rows) {
                *s = row[j];
            }
            for (c, &off) in coef.iter().zip(boff) {
                let bv = b[off + j];
                for (s, &c) in s.iter_mut().zip(c) {
                    *s += c * bv;
                }
            }
            for (s, row) in s.into_iter().zip(&mut rows) {
                row[j] = s;
            }
        }
    }

    /// The `R × W`-register tile at column `j`: the output block stays in
    /// registers for the whole panel, so the only per-term traffic is `W`
    /// loads of `B` and `R` broadcasts. Storing it between panels is exact.
    #[inline(always)]
    fn tile<V: Lanes, const W: usize>(
        &self,
        pf: V::Proof,
        rows: &mut [&mut [f32]; R],
        j: usize,
        b: &[f32],
    ) {
        let mut s = [[V::splat(pf, 0.0); W]; R];
        for (s, row) in s.iter_mut().zip(rows.iter()) {
            for (w, s) in s.iter_mut().enumerate() {
                *s = V::load(pf, &row[j + w * LANES..]);
            }
        }
        let b = &b[j..];
        for (c, &off) in self.coef[..self.len].iter().zip(&self.boff[..self.len]) {
            let b_block = &b[off..][..W * LANES];
            let mut bv = [V::splat(pf, 0.0); W];
            for (w, bv) in bv.iter_mut().enumerate() {
                *bv = V::load(pf, &b_block[w * LANES..]);
            }
            for (s, &c) in s.iter_mut().zip(c) {
                let c = V::splat(pf, c);
                for (s, &bv) in s.iter_mut().zip(&bv) {
                    *s = s.add(c.mul(bv));
                }
            }
        }
        for (s, row) in s.iter().zip(rows.iter_mut()) {
            for (w, s) in s.iter().enumerate() {
                s.store(&mut row[j + w * LANES..]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// out[row0..row0+r] = A[row0..row0+r] · Bᵀ   (lane-group dot)
// ---------------------------------------------------------------------------

/// Depths below this take the transposed shape of [`matmul_t_rows`]: every
/// lane holds at most two terms, so a dot per element would spend more on
/// its tree than on its terms.
const NARROW_K: usize = 2 * LANES;

/// Output columns per transposed `B` panel of the narrow shape.
const NARROW_COLS: usize = 64;

/// Writes `A[row0..row0 + r] · Bᵀ` to `out_rows` (`A` has `k` columns, `B`
/// is `n × k`, `out_rows` is `r × n`).
///
/// Every output element is an independent lane-group dot product. From
/// `k = 16` on, a 4-row × 2-column tile keeps eight of them in flight and
/// closes all eight at once through a transpose and the [`tree`]; a tile
/// past the last row or column repeats it, computed and never stored. Below, the transposed narrow shape
/// ([`matmul_t_narrow`]).
pub(crate) fn matmul_t_rows(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_rows: &mut [f32],
) {
    if n == 0 || out_rows.is_empty() {
        return;
    }
    let r = out_rows.len() / n;
    assert!(
        out_rows.len() == r * n && a.len() >= (row0 + r) * k && b.len() >= n * k,
        "matmul_t operand shorter than its shape"
    );
    dispatch(level, MatmulT(a, b, k, n, row0, out_rows));
}

/// [`matmul_t_rows`]' operands, in its parameters' order.
struct MatmulT<'a>(&'a [f32], &'a [f32], usize, usize, usize, &'a mut [f32]);

impl Kernel for MatmulT<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self, pf: V::Proof) {
        let MatmulT(a, b, k, n, row0, out) = self;
        if k < NARROW_K {
            return matmul_t_narrow::<V>(pf, MatmulT(a, b, k, n, row0, out));
        }
        let r = out.len() / n;
        for i in (0..r).step_by(4) {
            let rows = (r - i).min(4);
            let a_row =
                |ii: usize| a[(row0 + i + ii.min(rows - 1)) * k..][..k].as_chunks::<LANES>();
            let ag = [a_row(0), a_row(1), a_row(2), a_row(3)];
            let quad = &mut out[i * n..][..rows * n];
            for j in (0..n).step_by(2) {
                let cols = (n - j).min(2);
                let b_row = |jj: usize| b[(j + jj.min(cols - 1)) * k..][..k].as_chunks::<LANES>();
                let bg = [b_row(0), b_row(1)];
                // acc[ii + 4·jj] holds the lanes of the dot of A's row i + ii
                // with B's row j + jj, exactly the reference's partial sums.
                let mut acc = [V::splat(pf, 0.0); LANES];
                for g in 0..k / LANES {
                    let x = [V::load(pf, &bg[0].0[g]), V::load(pf, &bg[1].0[g])];
                    for (ii, (a_groups, _)) in ag.iter().enumerate() {
                        let av = V::load(pf, &a_groups[g]);
                        acc[ii] = acc[ii].add(av.mul(x[0]));
                        acc[ii + 4] = acc[ii + 4].add(av.mul(x[1]));
                    }
                }
                // The `k % 8` tail lands in lanes `0..k % 8`. The lanes past
                // it add `0.0·0.0`, which is exact: a partial sum starts at
                // `+0.0` and is never `-0.0` (a sum is `-0.0` only when both
                // terms are).
                let tail = k % LANES;
                if tail > 0 {
                    let x = [V::load_n(pf, bg[0].1, tail), V::load_n(pf, bg[1].1, tail)];
                    for (ii, (_, a_tail)) in ag.iter().enumerate() {
                        let av = V::load_n(pf, a_tail, tail);
                        acc[ii] = acc[ii].add(av.mul(x[0]));
                        acc[ii + 4] = acc[ii + 4].add(av.mul(x[1]));
                    }
                }
                // The transpose lines up lane l of all eight dots.
                let mut dots = [0.0f32; LANES];
                tree(V::transpose8(acc)).store(&mut dots);
                for ii in 0..rows {
                    quad[ii * n + j] = dots[ii];
                    if cols == 2 {
                        quad[ii * n + j + 1] = dots[ii + 4];
                    }
                }
            }
        }
    }
}

/// The `k < NARROW_K` shape of [`matmul_t_rows`]: `B` is transposed once per
/// panel of [`NARROW_COLS`] columns, so eight output columns share each
/// broadcast `a[i][p]`. Lane `l` of the schedule becomes a whole register
/// of eight columns' lane-`l` partials, and the tree runs on registers.
#[inline(always)]
fn matmul_t_narrow<V: Lanes>(pf: V::Proof, MatmulT(a, b, k, n, row0, out): MatmulT<'_>) {
    let r = out.len() / n;
    // bt[p][jj] = b[jb + jj][p]. Columns past a short panel's end hold
    // zeros or an earlier panel's values; their dots are never stored.
    let mut bt = [[0.0f32; NARROW_COLS]; NARROW_K];
    for jb in (0..n).step_by(NARROW_COLS) {
        let nb = (n - jb).min(NARROW_COLS);
        for jj in 0..nb {
            for (bt_row, &v) in bt.iter_mut().zip(&b[(jb + jj) * k..][..k]) {
                bt_row[jj] = v;
            }
        }
        for i in 0..r {
            let a_row = &a[(row0 + i) * k..][..k];
            let o_row = &mut out[i * n + jb..][..nb];
            for jj in (0..nb).step_by(LANES) {
                // lane[l]: eight columns' lane-l partials, the terms p = l
                // and p = l + 8, in that order, where they exist.
                let mut lane = [V::splat(pf, 0.0); LANES];
                for (l, acc) in lane.iter_mut().enumerate() {
                    for p in [l, l + LANES] {
                        if p < k {
                            let t = V::splat(pf, a_row[p]).mul(V::load(pf, &bt[p][jj..]));
                            *acc = acc.add(t);
                        }
                    }
                }
                tree(lane).store_n(&mut o_row[jj..], (nb - jj).min(LANES));
            }
        }
    }
}

/// The pinned tree closing every lane-group dot, lane by lane:
///
/// ```text
/// s = ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
/// ```
///
/// It is part of the schedule, not an implementation detail: every shape
/// runs these five adds in this association.
#[inline(always)]
fn tree<V: Lanes>(l: [V; LANES]) -> V {
    let q = |i: usize| l[i].add(l[i + 4]);
    q(0).add(q(2)).add(q(1).add(q(3)))
}

// ---------------------------------------------------------------------------
// out = Aᵀ · B   (order-preserving axpy, serial)
// ---------------------------------------------------------------------------

/// Floats of `B` one depth panel of [`t_matmul`] may span (32 KiB), so the
/// panel stays in L1 while every output row streams over it.
const T_PANEL_FLOATS: usize = 8 * 1024;

/// Adds `Aᵀ · B` into `out` (`A` is `k×m`, `B` is `k×n`, `out` is `m×n`,
/// all row-major). Each output element accumulates in ascending `p`,
/// skipping a `p` where its coefficient `a[p][i]` is `±0`.
///
/// From one register of columns on, each output row packs its nonzero
/// coefficients once per depth panel and runs the 1 × 32 tile over them;
/// panels ascend and split `k` evenly, each no more than
/// [`T_PANEL_FLOATS`] of `B`. Below, [`t_matmul_narrow`].
pub(crate) fn t_matmul(
    level: Level,
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "t_matmul operand shorter than its shape"
    );
    dispatch(level, TMatmul(a, b, k, m, n, out));
}

/// [`t_matmul`]'s operands, in its parameters' order.
struct TMatmul<'a>(&'a [f32], &'a [f32], usize, usize, usize, &'a mut [f32]);

impl Kernel for TMatmul<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self, pf: V::Proof) {
        let TMatmul(a, b, k, m, n, out) = self;
        if n < LANES {
            return t_matmul_narrow::<V>(pf, TMatmul(a, b, k, m, n, out));
        }
        let panels = k.div_ceil((T_PANEL_FLOATS / n).clamp(1, KC)).max(1);
        let depth = k.div_ceil(panels);
        let mut row = Packed::<1>::new();
        for kb in (0..k).step_by(depth.max(1)) {
            let kend = (kb + depth).min(k);
            for (i, o_row) in out[..m * n].chunks_exact_mut(n).enumerate() {
                row.fill((kb..kend).map(|p| ([a[p * m + i]], p * n)));
                row.run::<V, 4>(pf, [o_row], b);
            }
        }
    }
}

/// The `n < 8` shape of [`t_matmul`], where a row holds less than one
/// register: lanes are output rows. Eight rows `i..i + 8` share one load of
/// `a[p][i..i + 8]` (contiguous in `A`'s row `p`) and each column one
/// broadcast of `b[p][j]`. The skip becomes a per-lane select
/// ([`Lanes::add_product_nonzero`]), so every element still sees its terms
/// in ascending `p`.
#[inline(always)]
fn t_matmul_narrow<V: Lanes>(pf: V::Proof, TMatmul(a, b, k, m, n, out): TMatmul<'_>) {
    for i in (0..m).step_by(LANES) {
        let rows = (m - i).min(LANES);
        // Lane t of s[j] is out[i + t][j]. Lanes past the last row compute
        // on zeros and are never stored.
        let mut s = [V::splat(pf, 0.0); LANES];
        for (t, s) in s.iter_mut().enumerate().take(rows) {
            *s = V::load_n(pf, &out[(i + t) * n..], n);
        }
        let mut s = V::transpose8(s);
        for p in 0..k {
            let c = V::load_n(pf, &a[p * m + i..], rows);
            let b_row = &b[p * n..][..n];
            // Every accumulator, so that they stay in registers.
            for (j, s) in s.iter_mut().enumerate() {
                if j < n {
                    *s = s.add_product_nonzero(c, V::splat(pf, b_row[j]));
                }
            }
        }
        for (t, s) in V::transpose8(s).iter().enumerate().take(rows) {
            s.store_n(&mut out[(i + t) * n..], n);
        }
    }
}

// ---------------------------------------------------------------------------
// The shared categorical head (§5.1): row-lane softmax and its backward
// ---------------------------------------------------------------------------

/// One categorical column of the parameter-shared head: what every head
/// kernel reads. Row `r`'s logit `k` is `signal·w[sig][k] + bias[k]`, then
/// `+ a·w[block + c][k]` for `c` ascending over the column's `width`
/// auxiliary nodes, each term skipped where `a = aux[r][block + c]` is
/// `±0` — the masked inputs of the other columns contribute nothing.
pub(crate) struct SharedColumn<'a> {
    /// Auxiliary-layer activations, `rows × aux_cols`, row-major.
    pub aux: &'a [f32],
    pub aux_cols: usize,
    /// The column's first auxiliary node, and its node count.
    pub block: usize,
    pub width: usize,
    /// Shared-layer weights, `(aux_cols + 1) × w_cols` (the last row is
    /// the signal node's), and the layer's `w_cols` biases.
    pub w: &'a [f32],
    pub w_cols: usize,
    pub bias: &'a [f32],
    pub signal: f32,
    /// The column's class count, at most `w_cols`: only these logits are
    /// computed, read or written.
    pub card: usize,
}

impl SharedColumn<'_> {
    fn rows(&self) -> usize {
        self.aux.len() / self.aux_cols
    }
}

/// What [`shared_softmax`] leaves behind for a column's rows.
pub(crate) enum HeadOut<'a> {
    /// Decode: the probabilities, `rows × card`.
    Probs(&'a mut [f32]),
    /// Assignment: each row's cross-entropy `-ln max(p[target], 1e-7)`,
    /// added to `losses[r]`.
    Loss {
        targets: &'a [u32],
        losses: &'a mut [f32],
    },
    /// Training: the loss as above; the logit gradient
    /// `dz = flush(rw·(p − onehot(target)))`, `rows × card`, with `rw`
    /// the row's weight (1 without weights); and `dz · W[block]ᵀ` added
    /// into the column's block of `d_aux` (`rows × aux_cols`).
    Grad {
        targets: &'a [u32],
        losses: &'a mut [f32],
        row_weights: Option<&'a [f32]>,
        dz: &'a mut [f32],
        d_aux: &'a mut [f32],
    },
}

/// Softmax of one categorical column, optionally followed by its
/// cross-entropy and the gradient flowing back to the logits and the
/// auxiliary block ([`HeadOut`]).
///
/// Eight rows share each register. The `8 × width` block of `aux` is
/// transposed once per eight rows, and each lane then runs the per-row
/// schedule unchanged (DESIGN.md §3f, "Row lanes"): the logit order of
/// [`SharedColumn`], with the skip a select (left out for a block with no
/// `±0` input, where it never fires); the max as `f32::max`'s NaN-ignoring
/// fold from `-∞`; `exp(z − max)` through the scalar libm `exp`; the sum
/// in ascending `k`; the scaling by `1/sum` only where `sum > 0`. The
/// `d_aux` dot runs in ascending `k` from `+0.0`. `scratch` holds the
/// column's weights by class and the lanes' logits and probabilities.
pub(crate) fn shared_softmax(
    level: Level,
    col: &SharedColumn<'_>,
    out: HeadOut<'_>,
    scratch: &mut Vec<f32>,
) {
    dispatch(level, Softmax(col, out, scratch));
}

/// [`shared_softmax`]'s operands, in its parameters' order.
struct Softmax<'a>(&'a SharedColumn<'a>, HeadOut<'a>, &'a mut Vec<f32>);

impl Kernel for Softmax<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self, pf: V::Proof) {
        const L: usize = LANES;
        let Softmax(col, mut out, scratch) = self;
        let (rows, card, width) = (col.rows(), col.card, col.width);
        // The column's weights by class: panel[k·pw] is the logit's start
        // `signal·w[sig][k] + bias[k]`, panel[k·pw + 1 + c] is w[block + c][k].
        let pw = width + 1;
        scratch.clear();
        scratch.resize(card * (pw + 2 * L), 0.0);
        let (panel, rest) = scratch.split_at_mut(card * pw);
        let sig_w = &col.w[col.aux_cols * col.w_cols..][..card];
        for ((row, &w), &b) in panel.chunks_exact_mut(pw).zip(sig_w).zip(col.bias) {
            row[0] = col.signal * w + b;
        }
        for c in 0..width {
            let w_row = &col.w[(col.block + c) * col.w_cols..][..card];
            for (row, &w) in panel.chunks_exact_mut(pw).zip(w_row) {
                row[1 + c] = w;
            }
        }
        // z[k·8 + l] is row r0 + l's logit k, then its `exp(z − max)`, then
        // its gradient. Decode writes the probabilities to p: a select
        // stored where it was loaded from becomes a masked store, which the
        // next load cannot forward from.
        let (z, p) = rest.split_at_mut(card * L);
        for r0 in (0..rows).step_by(L) {
            let n = (rows - r0).min(L);
            let mut max = V::splat(pf, f32::NEG_INFINITY);
            for cb in (0..width).step_by(L) {
                let cw = (width - cb).min(L);
                // at[c]: node block + cb + c of the eight rows. Lanes past
                // the last row compute on zeros and are never stored.
                // Nodes past `cw` may load with them; they are never read.
                let mut at = [V::splat(pf, 0.0); L];
                for (l, at) in at.iter_mut().enumerate().take(n) {
                    let src = &col.aux[(r0 + l) * col.aux_cols + col.block + cb..];
                    *at = if src.len() >= L {
                        V::load(pf, src)
                    } else {
                        V::load_n(pf, src, cw)
                    };
                }
                let at = V::transpose8(at);
                // Without a ±0 input no lane skips a term: the selects can go.
                let dense = !at[..cw].iter().any(|a| a.any_zero());
                for (zk, row) in z.chunks_exact_mut(L).zip(panel.chunks_exact(pw)) {
                    let mut acc = if cb == 0 {
                        V::splat(pf, row[0])
                    } else {
                        V::load(pf, zk)
                    };
                    let w = &row[1 + cb..][..cw];
                    if dense {
                        for (&a, &w) in at.iter().zip(w) {
                            acc = acc.add(a.mul(V::splat(pf, w)));
                        }
                    } else {
                        for (&a, &w) in at.iter().zip(w) {
                            acc = acc.add_product_nonzero(a, V::splat(pf, w));
                        }
                    }
                    acc.store(zk);
                    if cb + cw == width {
                        max = max.max_fold(acc);
                    }
                }
            }
            let mut lane_max = [0.0f32; L];
            max.store(&mut lane_max);
            for zk in z.chunks_exact_mut(L) {
                for (v, &m) in zk.iter_mut().zip(&lane_max) {
                    *v = (*v - m).exp();
                }
            }
            let mut sum = V::splat(pf, 0.0);
            for zk in z.chunks_exact(L) {
                sum = sum.add(V::load(pf, zk));
            }
            let inv = V::splat(pf, 1.0).div(sum);
            // The target class of each lane, as a float (exact: classes are
            // below 2²⁴); lanes past the last row match no class.
            let target_lanes = |targets: &[u32]| {
                let mut t = [-1.0f32; L];
                for (t, &target) in t.iter_mut().zip(&targets[r0..r0 + n]) {
                    *t = target as f32;
                }
                V::load(pf, &t)
            };
            let rows_out = match &mut out {
                HeadOut::Probs(probs) => {
                    for (pk, zk) in p.chunks_exact_mut(L).zip(z.chunks_exact(L)) {
                        V::load(pf, zk).scale_where_positive(inv, sum).store(pk);
                    }
                    Some((&mut **probs, &*p))
                }
                HeadOut::Loss { targets, losses } => {
                    let t = target_lanes(targets);
                    let mut p_target = V::splat(pf, 0.0);
                    for (k, zk) in z.chunks_exact(L).enumerate() {
                        let p = V::load(pf, zk).scale_where_positive(inv, sum);
                        p_target = p.where_eq(t, V::splat(pf, k as f32), p_target);
                    }
                    add_cross_entropy(p_target, &mut losses[r0..r0 + n]);
                    None
                }
                HeadOut::Grad {
                    targets,
                    losses,
                    row_weights,
                    dz,
                    d_aux,
                } => {
                    let t = target_lanes(targets);
                    let rw = match row_weights {
                        Some(w) => V::load_n(pf, &w[r0..], n),
                        None => V::splat(pf, 1.0),
                    };
                    let mut p_target = V::splat(pf, 0.0);
                    for (k, zk) in z.chunks_exact_mut(L).enumerate() {
                        let (p, k) = (
                            V::load(pf, zk).scale_where_positive(inv, sum),
                            V::splat(pf, k as f32),
                        );
                        p_target = p.where_eq(t, k, p_target);
                        let adj = p.sub(V::splat(pf, 1.0)).where_eq(t, k, p);
                        rw.mul(adj).flush().store(zk);
                    }
                    add_cross_entropy(p_target, &mut losses[r0..r0 + n]);
                    for cb in (0..width).step_by(L) {
                        let cw = (width - cb).min(L);
                        let mut acc = [V::splat(pf, 0.0); L];
                        for (zk, row) in z.chunks_exact(L).zip(panel.chunks_exact(pw)) {
                            let dz = V::load(pf, zk);
                            for (acc, &w) in acc.iter_mut().zip(&row[1 + cb..][..cw]) {
                                *acc = acc.add(dz.mul(V::splat(pf, w)));
                            }
                        }
                        let acc = V::transpose8(acc);
                        for (l, &acc) in acc.iter().enumerate().take(n) {
                            let dst = &mut d_aux[(r0 + l) * col.aux_cols + col.block + cb..];
                            V::load_n(pf, dst, cw).add(acc).store_n(dst, cw);
                        }
                    }
                    Some((&mut **dz, &*z))
                }
            };
            if let Some((rows_out, z)) = rows_out {
                for kb in (0..card).step_by(L) {
                    let m = (card - kb).min(L);
                    let mut t = [V::splat(pf, 0.0); L];
                    for (t, zk) in t.iter_mut().zip(z[kb * L..].chunks_exact(L)) {
                        *t = V::load(pf, zk);
                    }
                    let t = V::transpose8(t);
                    for (l, &row) in t.iter().enumerate().take(n) {
                        row.store_n(&mut rows_out[(r0 + l) * card + kb..], m);
                    }
                }
            }
        }
    }
}

/// `losses[l] += -ln max(p, 1e-7)` for each live lane `l`, `p` the lane's
/// probability of its target class.
#[inline(always)]
fn add_cross_entropy<V: Lanes>(p_target: V, losses: &mut [f32]) {
    let mut p = [0.0f32; LANES];
    p_target.store(&mut p);
    for (loss, &p) in losses.iter_mut().zip(&p) {
        *loss += -p.max(1e-7).ln();
    }
}

/// Backward through the shared layer for one column, given its
/// `rows × card` logit gradient `dz`: adds `a·dz` into the block's rows of
/// `dw` (skipped where `a` is `±0`), `signal·dz` into the signal row, and
/// `dz` into `db`, each element in ascending row order.
///
/// Eight classes share each register, and a register's accumulators stay
/// in it across all the rows; the class tail is a masked load and store.
pub(crate) fn shared_backward(
    level: Level,
    col: &SharedColumn<'_>,
    dz: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    dispatch(level, Backward(col, dz, dw, db));
}

/// [`shared_backward`]'s operands, in its parameters' order.
struct Backward<'a>(
    &'a SharedColumn<'a>,
    &'a [f32],
    &'a mut [f32],
    &'a mut [f32],
);

/// Auxiliary nodes per register group of [`shared_backward`]: with the
/// signal row's and the bias's, six accumulators stay in registers.
const BACKWARD_GROUP: usize = 4;

impl Kernel for Backward<'_> {
    #[inline(always)]
    fn run<V: Lanes>(self, pf: V::Proof) {
        const G: usize = BACKWARD_GROUP;
        let Backward(col, dz, dw, db) = self;
        let card = col.card;
        let sig = V::splat(pf, col.signal);
        for kb in (0..card).step_by(LANES) {
            let m = (card - kb).min(LANES);
            // The signal row and the bias ride along with the first group.
            let sig_at = col.aux_cols * col.w_cols + kb;
            let mut sig_acc = V::load_n(pf, &dw[sig_at..], m);
            let mut bias_acc = V::load_n(pf, &db[kb..], m);
            for cb in (0..col.width).step_by(G) {
                let (first, g0, gw) = (cb == 0, col.block + cb, (col.width - cb).min(G));
                let dw_at = |i: usize| (g0 + i) * col.w_cols + kb;
                let mut acc = [V::splat(pf, 0.0); G];
                for (i, acc) in acc.iter_mut().enumerate().take(gw) {
                    *acc = V::load_n(pf, &dw[dw_at(i)..], m);
                }
                for (r, aux_row) in col.aux.chunks_exact(col.aux_cols).enumerate() {
                    // Classes past `m` may load with the row; they are
                    // never stored.
                    let src = &dz[r * card + kb..];
                    let d = if src.len() >= LANES {
                        V::load(pf, src)
                    } else {
                        V::load_n(pf, src, m)
                    };
                    for (acc, &a) in acc.iter_mut().zip(&aux_row[g0..g0 + gw]) {
                        if a != 0.0 {
                            *acc = acc.add(V::splat(pf, a).mul(d));
                        }
                    }
                    if first {
                        sig_acc = sig_acc.add(sig.mul(d));
                        bias_acc = bias_acc.add(d);
                    }
                }
                for (i, acc) in acc.iter().enumerate().take(gw) {
                    acc.store_n(&mut dw[dw_at(i)..], m);
                }
            }
            sig_acc.store_n(&mut dw[sig_at..], m);
            bias_acc.store_n(&mut db[kb..], m);
        }
    }
}

/// Eight f32 lanes, each operation rounded once per lane exactly as its
/// scalar spelling: the one vocabulary every kernel is written in, so the
/// `[f32; 8]` and `__m256` instances of a body run one schedule.
///
/// Only the constructors make lanes, and they take their level's proof
/// (`()` for `[f32; 8]`, an [`avx2::Avx2`] for `__m256`); every other
/// operation has a lane value to show for it. So every method is safe.
trait Lanes: Copy {
    /// Zero-sized proof that this level's instructions run on the host.
    type Proof: Copy;
    fn splat(pf: Self::Proof, v: f32) -> Self;
    /// `src[..8]`.
    fn load(pf: Self::Proof, src: &[f32]) -> Self;
    /// `src[..n]`, `n ≤ 8`, zero past `n`.
    fn load_n(pf: Self::Proof, src: &[f32], n: usize) -> Self;
    /// Into `dst[..8]`.
    fn store(self, dst: &mut [f32]);
    /// Lanes `..n` into `dst[..n]`, `n ≤ 8`.
    fn store_n(self, dst: &mut [f32], n: usize);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `f32::max(self, x)` as a fold from `-∞` sees it: a NaN `x` leaves
    /// the running max. (Which zero two equal zeros return may differ;
    /// the max only ever meets `z − max`, where it cannot show.)
    fn max_fold(self, x: Self) -> Self;
    /// `self + a·w` where `a != 0.0` (NaN included), `self` where `a` is
    /// `±0`.
    fn add_product_nonzero(self, a: Self, w: Self) -> Self;
    /// Whether a lane is `±0`.
    fn any_zero(self) -> bool;
    /// `self` where `t == k`, `other` elsewhere.
    fn where_eq(self, t: Self, k: Self, other: Self) -> Self;
    /// `self·inv` where `sum > 0.0`, `self` elsewhere (NaN `sum` included).
    fn scale_where_positive(self, inv: Self, sum: Self) -> Self;
    /// [`crate::dense::flush`] per lane.
    fn flush(self) -> Self;
    /// The 8 × 8 transpose: lane `j` of result `i` is lane `i` of `v[j]`.
    fn transpose8(v: [Self; LANES]) -> [Self; LANES];
}

impl Lanes for [f32; LANES] {
    /// Plain Rust runs everywhere.
    type Proof = ();
    #[inline(always)]
    fn splat(_: (), v: f32) -> Self {
        [v; LANES]
    }
    #[inline(always)]
    fn load(_: (), src: &[f32]) -> Self {
        src[..LANES].try_into().expect("eight lanes")
    }
    #[inline(always)]
    fn load_n(_: (), src: &[f32], n: usize) -> Self {
        let mut v = [0.0; LANES];
        v[..n].copy_from_slice(&src[..n]);
        v
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self);
    }
    #[inline(always)]
    fn store_n(self, dst: &mut [f32], n: usize) {
        dst[..n].copy_from_slice(&self[..n]);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] / o[l])
    }
    #[inline(always)]
    fn max_fold(self, x: Self) -> Self {
        std::array::from_fn(|l| self[l].max(x[l]))
    }
    #[inline(always)]
    fn add_product_nonzero(self, a: Self, w: Self) -> Self {
        std::array::from_fn(|l| {
            if a[l] != 0.0 {
                self[l] + a[l] * w[l]
            } else {
                self[l]
            }
        })
    }
    #[inline(always)]
    fn any_zero(self) -> bool {
        self.contains(&0.0)
    }
    #[inline(always)]
    fn where_eq(self, t: Self, k: Self, other: Self) -> Self {
        std::array::from_fn(|l| if t[l] == k[l] { self[l] } else { other[l] })
    }
    #[inline(always)]
    fn scale_where_positive(self, inv: Self, sum: Self) -> Self {
        std::array::from_fn(|l| {
            if sum[l] > 0.0 {
                self[l] * inv[l]
            } else {
                self[l]
            }
        })
    }
    #[inline(always)]
    fn flush(self) -> Self {
        self.map(crate::dense::flush)
    }
    #[inline(always)]
    fn transpose8(v: [Self; LANES]) -> [Self; LANES] {
        std::array::from_fn(|i| std::array::from_fn(|j| v[j][i]))
    }
}

/// The `__m256` lanes and their proof, in a module of their own so that
/// nothing else can make either.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lanes, LANES};
    use ds_simd::Level;
    use std::arch::x86_64::*;

    /// Proof that this host runs AVX2. Its field is private, so
    /// [`Avx2::new`] is the only way to make one.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// The proof, when `level` selects AVX2 and the host runs it.
        #[inline]
        pub(super) fn new(level: Level) -> Option<Self> {
            (level == Level::Avx2 && is_x86_feature_detected!("avx2")).then_some(Avx2(()))
        }
    }

    /// Eight lanes in one `__m256`. Its field is private: only the
    /// constructors below make one, from an [`Avx2`], so a `V256` shows
    /// that the host runs the intrinsics its methods call.
    #[derive(Clone, Copy)]
    pub(super) struct V256(__m256);

    /// `ONES[8 - n..][..8]` is the mask of lanes `..n`, `n ≤ 8`.
    const ONES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    impl Lanes for V256 {
        type Proof = Avx2;
        #[inline(always)]
        fn splat(_: Avx2, v: f32) -> Self {
            // SAFETY: the proof shows that the host runs AVX2.
            V256(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn load(_: Avx2, src: &[f32]) -> Self {
            let src = &src[..LANES];
            // SAFETY: as in `splat`; the load reads `src`.
            V256(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }
        #[inline(always)]
        fn load_n(pf: Avx2, src: &[f32], n: usize) -> Self {
            if n == LANES {
                return Self::load(pf, src);
            }
            let (src, mask) = (&src[..n], &ONES[LANES - n..][..LANES]);
            // SAFETY: as in `splat`; the mask reads only `src`'s lanes.
            V256(unsafe {
                _mm256_maskload_ps(src.as_ptr(), _mm256_loadu_si256(mask.as_ptr().cast()))
            })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            let dst = &mut dst[..LANES];
            // SAFETY: `self` shows AVX2 runs here; the store writes `dst`.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn store_n(self, dst: &mut [f32], n: usize) {
            if n == LANES {
                return self.store(dst);
            }
            let (dst, mask) = (&mut dst[..n], &ONES[LANES - n..][..LANES]);
            // SAFETY: as in `store`; the mask writes only `dst`'s lanes.
            unsafe {
                _mm256_maskstore_ps(
                    dst.as_mut_ptr(),
                    _mm256_loadu_si256(mask.as_ptr().cast()),
                    self.0,
                )
            }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_div_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn max_fold(self, x: Self) -> Self {
            // `maxps` returns its second operand when either is NaN.
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_max_ps(x.0, self.0) })
        }
        #[inline(always)]
        fn add_product_nonzero(self, a: Self, w: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe {
                let live = _mm256_cmp_ps(a.0, _mm256_setzero_ps(), _CMP_NEQ_UQ);
                _mm256_blendv_ps(self.0, _mm256_add_ps(self.0, _mm256_mul_ps(a.0, w.0)), live)
            })
        }
        #[inline(always)]
        fn any_zero(self) -> bool {
            // SAFETY: `self` shows that the host runs AVX2.
            unsafe {
                _mm256_movemask_ps(_mm256_cmp_ps(self.0, _mm256_setzero_ps(), _CMP_EQ_OQ)) != 0
            }
        }
        #[inline(always)]
        fn where_eq(self, t: Self, k: Self, other: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe { _mm256_blendv_ps(other.0, self.0, _mm256_cmp_ps(t.0, k.0, _CMP_EQ_OQ)) })
        }
        #[inline(always)]
        fn scale_where_positive(self, inv: Self, sum: Self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe {
                let positive = _mm256_cmp_ps(sum.0, _mm256_setzero_ps(), _CMP_GT_OQ);
                _mm256_blendv_ps(self.0, _mm256_mul_ps(self.0, inv.0), positive)
            })
        }
        #[inline(always)]
        fn flush(self) -> Self {
            // SAFETY: `self` shows that the host runs AVX2.
            V256(unsafe {
                let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0);
                let floor = _mm256_set1_ps(crate::dense::GRAD_FLOOR);
                _mm256_blendv_ps(
                    self.0,
                    _mm256_setzero_ps(),
                    _mm256_cmp_ps(abs, floor, _CMP_LT_OQ),
                )
            })
        }
        #[inline(always)]
        fn transpose8(v: [Self; LANES]) -> [Self; LANES] {
            let [V256(v0), V256(v1), V256(v2), V256(v3), V256(v4), V256(v5), V256(v6), V256(v7)] =
                v;
            // Pairs interleave, then quads, then the 128-bit halves swap.
            // SAFETY: the lane values show that the host runs AVX2.
            unsafe {
                let t0 = _mm256_unpacklo_ps(v0, v1);
                let t1 = _mm256_unpackhi_ps(v0, v1);
                let t2 = _mm256_unpacklo_ps(v2, v3);
                let t3 = _mm256_unpackhi_ps(v2, v3);
                let t4 = _mm256_unpacklo_ps(v4, v5);
                let t5 = _mm256_unpackhi_ps(v4, v5);
                let t6 = _mm256_unpacklo_ps(v6, v7);
                let t7 = _mm256_unpackhi_ps(v6, v7);
                let q0 = _mm256_shuffle_ps(t0, t2, 0x44);
                let q1 = _mm256_shuffle_ps(t0, t2, 0xEE);
                let q2 = _mm256_shuffle_ps(t1, t3, 0x44);
                let q3 = _mm256_shuffle_ps(t1, t3, 0xEE);
                let q4 = _mm256_shuffle_ps(t4, t6, 0x44);
                let q5 = _mm256_shuffle_ps(t4, t6, 0xEE);
                let q6 = _mm256_shuffle_ps(t5, t7, 0x44);
                let q7 = _mm256_shuffle_ps(t5, t7, 0xEE);
                [
                    V256(_mm256_permute2f128_ps(q0, q4, 0x20)),
                    V256(_mm256_permute2f128_ps(q1, q5, 0x20)),
                    V256(_mm256_permute2f128_ps(q2, q6, 0x20)),
                    V256(_mm256_permute2f128_ps(q3, q7, 0x20)),
                    V256(_mm256_permute2f128_ps(q0, q4, 0x31)),
                    V256(_mm256_permute2f128_ps(q1, q5, 0x31)),
                    V256(_mm256_permute2f128_ps(q2, q6, 0x31)),
                    V256(_mm256_permute2f128_ps(q3, q7, 0x31)),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The scalar loops the lane kernels replaced, kept verbatim: an oracle
    // that states each schedule with no register shape.

    /// Reference for [`matmul_rows`].
    fn matmul_rows_scalar(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        out_rows: &mut [f32],
    ) {
        let r = out_rows.len() / n;
        let mut kb = 0;
        while kb < k {
            let kend = (kb + KC).min(k);
            let mut i = 0;
            // 4-row micro-kernel.
            while i + 4 <= r {
                let quad = &mut out_rows[i * n..(i + 4) * n];
                let (q0, rest) = quad.split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, q3) = rest.split_at_mut(n);
                let a0 = &a[(row0 + i) * k..(row0 + i + 1) * k];
                let a1 = &a[(row0 + i + 1) * k..(row0 + i + 2) * k];
                let a2 = &a[(row0 + i + 2) * k..(row0 + i + 3) * k];
                let a3 = &a[(row0 + i + 3) * k..(row0 + i + 4) * k];
                for p in kb..kend {
                    let (c0, c1, c2, c3) = (a0[p], a1[p], a2[p], a3[p]);
                    // Skipping is *not* a no-op in IEEE: `-0.0 + (+0.0 · b)`
                    // is `+0.0`, and `0.0 · ∞` is NaN. The skip exploits ReLU
                    // sparsity, so the predicate is part of the schedule
                    // (DESIGN.md §3f) and every level evaluates it identically.
                    if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    let iter = q0
                        .iter_mut()
                        .zip(q1.iter_mut())
                        .zip(q2.iter_mut())
                        .zip(q3.iter_mut())
                        .zip(b_row.iter());
                    for ((((o0, o1), o2), o3), &bv) in iter {
                        *o0 += c0 * bv;
                        *o1 += c1 * bv;
                        *o2 += c2 * bv;
                        *o3 += c3 * bv;
                    }
                }
                i += 4;
            }
            // Remainder rows, one at a time.
            while i < r {
                let o_row = &mut out_rows[i * n..(i + 1) * n];
                let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
                for (p, &c) in a_row.iter().enumerate().take(kend).skip(kb) {
                    if c == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += c * bv;
                    }
                }
                i += 1;
            }
            kb = kend;
        }
    }

    /// The pinned reduction tree, one dot at a time.
    fn reduce_lanes(l: [f32; 8]) -> f32 {
        let q0 = l[0] + l[4];
        let q1 = l[1] + l[5];
        let q2 = l[2] + l[6];
        let q3 = l[3] + l[7];
        (q0 + q2) + (q1 + q3)
    }

    /// Lane-group partial sums of `Σ a[p]·x[p]`: lane `l` accumulates the
    /// terms `p ≡ l (mod 8)` in ascending `p`; the tail (`len % 8` terms)
    /// lands in lanes `0..len%8` only — untouched lanes are *not* folded
    /// with `+0.0`, which would quietly turn a `-0.0` partial sum positive.
    fn dot_lanes_scalar(a: &[f32], x: &[f32]) -> [f32; 8] {
        let len = a.len().min(x.len());
        let full = len - len % 8;
        let mut lanes = [0.0f32; 8];
        let mut p = 0;
        while p < full {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane += a[p + l] * x[p + l];
            }
            p += 8;
        }
        for l in 0..(len - full) {
            lanes[l] += a[full + l] * x[full + l];
        }
        lanes
    }

    /// Reference for [`matmul_t_rows`].
    fn matmul_t_rows_scalar(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        out_rows: &mut [f32],
    ) {
        let r = out_rows.len() / n;
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            for i in 0..r {
                let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
                out_rows[i * n + j] = reduce_lanes(dot_lanes_scalar(a_row, b_row));
            }
        }
    }

    /// Reference for [`t_matmul`].
    fn t_matmul_scalar(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &c) in a_row.iter().enumerate() {
                if c == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += c * bv;
                }
            }
        }
    }

    /// The reduction tree must match its documented association exactly.
    #[test]
    fn reduce_lanes_is_the_pinned_tree() {
        let l = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let expect = ((1.0f32 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(reduce_lanes(l), expect);
    }

    /// Tail terms land only in lanes `0..k % 8`, in ascending order —
    /// they are never spread across the high lanes or zero-padded into
    /// a ninth group.
    #[test]
    fn dot_lanes_tail_lands_in_low_lanes_only() {
        // k = 11: one full group + a 3-term tail owned by lanes 0..3.
        let a: Vec<f32> = (0..11).map(|i| (i + 1) as f32).collect();
        let x = vec![1.0f32; 11];
        let lanes = dot_lanes_scalar(&a, &x);
        assert_eq!(lanes[0], 1.0 + 9.0);
        assert_eq!(lanes[1], 2.0 + 10.0);
        assert_eq!(lanes[2], 3.0 + 11.0);
        for l in 3..8 {
            assert_eq!(lanes[l], (l + 1) as f32, "lane {l} must be untouched");
        }
    }

    /// Both lane instances — `[f32; 8]` at `Level::Scalar` and the host's
    /// (`__m256` on an AVX2 host) — must reproduce the reference loops bit
    /// for bit, a NaN's sign and payload aside, on the edges of every
    /// register shape: depths around the lane group, the narrow/tile
    /// switch and `KC`; widths around one and two registers, both tiles
    /// and `NARROW_COLS`; row counts past the 4-row tile and the 8-row
    /// group. `A` is ReLU-sparse, with zeros of both signs and `p` where a
    /// whole quad is zero; `B` holds NaN and `±∞` where `A` is zero, so a
    /// term the schedule skips shows as NaN if a kernel multiplies it, and
    /// the accumulated outputs start at `-0.0` in places, which a wrong
    /// `+ 0.0` turns positive.
    #[test]
    fn host_level_matches_scalar_schedule() {
        let mut state = 0x1234_5678_9abc_def0u64;
        // `rows × depth` in [-0.5, 0.5), zero (of either sign) at every
        // third depth and at about a third of the rest.
        let mut sparse = |rows: usize, depth: usize| -> Vec<f32> {
            (0..rows * depth)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let v = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    let zero = (i % depth).is_multiple_of(3) || v.abs() < 0.15;
                    [v, 0.0, -0.0][usize::from(zero) * (1 + i % 2)]
                })
                .collect()
        };
        let start = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 })
                .collect()
        };
        let nan_bits = |v: &[f32]| -> Vec<u32> {
            v.iter()
                .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                .collect()
        };
        for k in [1usize, 7, 8, 15, 16, 17, 29, 257] {
            for n in [1usize, 7, 8, 9, 16, 17, 31, 32, 33, 65] {
                for (row0, r) in [(0usize, 1usize), (1, 6), (0, 9)] {
                    let m = row0 + r;
                    let (a, at, bt) = (sparse(m, k), sparse(k, m), sparse(n, k));
                    // NaN and ±∞ in the rows of B whose coefficients are
                    // all zero, and in one column of the others.
                    let mut b = sparse(k, n);
                    for (i, v) in b.iter_mut().enumerate() {
                        let (p, j) = (i / n, i % n);
                        if (p % 3 == 0 && j % 5 == 1) || (p % 3 == 1 && j == 0) {
                            *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(p + j) % 3];
                        }
                    }
                    // Each product: the reference at `None`, a level's lanes at `Some`.
                    type Run<'a> = &'a dyn Fn(Option<Level>, &mut [f32]);
                    let products: [(&str, usize, Run); 3] = [
                        ("matmul", r * n, &|level, o| match level {
                            None => matmul_rows_scalar(&a, &b, k, n, row0, o),
                            Some(level) => matmul_rows(level, &a, &b, k, n, row0, o),
                        }),
                        ("matmul_t", r * n, &|level, o| match level {
                            None => matmul_t_rows_scalar(&a, &bt, k, n, row0, o),
                            Some(level) => matmul_t_rows(level, &a, &bt, k, n, row0, o),
                        }),
                        ("t_matmul", m * n, &|level, o| match level {
                            None => t_matmul_scalar(&at, &b, k, m, n, o),
                            Some(level) => t_matmul(level, &at, &b, k, m, n, o),
                        }),
                    ];
                    for (what, len, run) in products {
                        let mut want = start(len);
                        run(None, &mut want);
                        for level in [Level::Scalar, ds_simd::detected()] {
                            let mut got = start(len);
                            run(Some(level), &mut got);
                            let case = format!("{what} {level:?} k {k} n {n} row0 {row0} rows {r}");
                            assert_eq!(nan_bits(&got), nan_bits(&want), "{case}");
                        }
                    }
                }
            }
        }
    }
}
