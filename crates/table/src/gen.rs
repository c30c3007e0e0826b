//! Seeded synthetic generators standing in for the paper's five evaluation
//! datasets (§7.1, Table 1).
//!
//! The real datasets (UCI Corel/Covtype/Census, mgbench Monitor, Criteo
//! conversion logs) are not available offline, so each generator plants the
//! *relationship classes* the paper credits to its dataset:
//!
//! | Generator     | Columns          | Planted structure |
//! |---------------|------------------|-------------------|
//! | `corel_like`  | 32 numeric       | low-dimensional cluster structure (image-histogram style) |
//! | `forest_like` | 45 cat + 10 num  | one-hot groups, hillshade↔aspect/slope correlations, soil/cover driven by elevation (high sparsity) |
//! | `census_like` | 68 categorical   | functional dependencies (state→division→region) and many noisy many-to-one attribute derivations (high dimensionality, low sparsity) |
//! | `monitor_like`| 17 numeric       | machine-metric random walks with strong cross-channel correlation |
//! | `criteo_like` | 27 cat + 13 num  | heavy-tailed skew, high-cardinality columns, label correlations |
//!
//! Everything is reproducible: same `(n, seed)` → identical table.

use crate::{CatBuilder, Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five evaluation datasets, as an enum the bench harness iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Image-feature histograms: 32 numeric columns.
    Corel,
    /// Forest cover: 45 categorical (mostly one-hot binary) + 10 numeric.
    Forest,
    /// US Census (prequantized): 68 categorical columns.
    Census,
    /// Machine-monitoring telemetry: 17 numeric columns.
    Monitor,
    /// Click/conversion logs: 27 categorical + 13 numeric columns.
    Criteo,
}

impl Dataset {
    /// All datasets in the order Table 1 lists them.
    pub const ALL: [Dataset; 5] = [
        Dataset::Corel,
        Dataset::Forest,
        Dataset::Census,
        Dataset::Monitor,
        Dataset::Criteo,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Corel => "Corel",
            Dataset::Forest => "Forest",
            Dataset::Census => "Census",
            Dataset::Monitor => "Monitor",
            Dataset::Criteo => "Criteo",
        }
    }

    /// Default row count for the scaled-down experiment suite. The paper's
    /// relative ordering (Corel smallest … Criteo largest) is preserved;
    /// absolute counts are laptop-scale and overridable via `DS_SCALE`.
    pub fn default_rows(&self) -> usize {
        match self {
            Dataset::Corel => 5_000,
            Dataset::Forest => 6_000,
            Dataset::Census => 12_000,
            Dataset::Monitor => 12_000,
            Dataset::Criteo => 8_000,
        }
    }

    /// Generates `n` rows with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> Table {
        match self {
            Dataset::Corel => corel_like(n, seed),
            Dataset::Forest => forest_like(n, seed),
            Dataset::Census => census_like(n, seed),
            Dataset::Monitor => monitor_like(n, seed),
            Dataset::Criteo => criteo_like(n, seed),
        }
    }

    /// Whether the paper evaluates this dataset lossily (numeric columns
    /// present). Census is purely categorical → lossless only (Fig. 6d).
    pub fn supports_lossy(&self) -> bool {
        !matches!(self, Dataset::Census)
    }
}

/// Draws an index from a Zipf-ish distribution over `k` items with
/// exponent `s`, via a precomputed CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Self {
        assert!(k > 0);
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for i in 1..=k {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Standard normal via Box–Muller (avoids needing rand_distr).
fn randn(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn quantize_to(v: f64, decimals: i32) -> f64 {
    let m = 10f64.powi(decimals);
    (v * m).round() / m
}

/// A categorical column of labelled small integers under construction:
/// a key's label is made once, on its first appearance, and repeated by
/// code after that — no `String` and no hashing per cell, and the pool
/// comes out in first-appearance order.
struct Labelled {
    cells: CatBuilder,
    code_of: Vec<Option<u32>>,
}

impl Labelled {
    fn new(rows: usize) -> Self {
        Labelled {
            cells: CatBuilder::with_capacity(rows),
            code_of: Vec::new(),
        }
    }

    fn push(&mut self, key: usize, label: impl FnOnce(usize) -> String) {
        if key >= self.code_of.len() {
            self.code_of.resize(key + 1, None);
        }
        match self.code_of[key] {
            Some(code) => self.cells.push_code(code),
            None => self.code_of[key] = Some(self.cells.push_new(label(key))),
        }
    }

    /// A value not worth remembering (near-unique tokens).
    fn push_unkeyed(&mut self, value: String) {
        self.cells.push_new(value);
    }

    fn finish(self) -> Column {
        Column::Cat(self.cells.finish())
    }
}

/// Corel-like: 32 numeric histogram columns in [0,1] lying near a
/// 3-dimensional nonlinear manifold — image-feature histograms are
/// projections of a few latent scene factors. Every column mixes several
/// latents, so no single parent column suffices to predict another
/// (defeating tree-shaped models), while an autoencoder with a small code
/// recovers the latents and reconstructs all 32 columns (the paper tuned
/// Corel to code size 1).
pub fn corel_like(n: usize, seed: u64) -> Table {
    const COLS: usize = 32;
    const LATENTS: usize = 3;
    let mut rng = StdRng::seed_from_u64(seed);

    // Fixed random mixing: each column blends all latents (linear term +
    // one smooth nonlinearity) so pairwise mutual information is diluted.
    let mut w = [[0f64; LATENTS]; COLS];
    let mut phase = [0f64; COLS];
    let mut freq = [0f64; COLS];
    for j in 0..COLS {
        for l in 0..LATENTS {
            w[j][l] = rng.gen_range(-1.0..1.0);
        }
        phase[j] = rng.gen_range(0.0..std::f64::consts::TAU);
        freq[j] = rng.gen_range(1.0..3.0);
    }

    let mut cols: Vec<Vec<f64>> = (0..COLS).map(|_| Vec::with_capacity(n)).collect();
    for _ in 0..n {
        let z: [f64; LATENTS] = [rng.gen(), rng.gen(), rng.gen()];
        for (j, col) in cols.iter_mut().enumerate() {
            let lin: f64 = (0..LATENTS).map(|l| w[j][l] * z[l]).sum();
            let nl = (freq[j] * z[j % LATENTS] * std::f64::consts::PI + phase[j]).sin();
            let v = 0.5 + 0.22 * lin + 0.18 * nl + 0.008 * randn(&mut rng);
            col.push(quantize_to(v.clamp(0.0, 1.0), 3));
        }
    }

    let named = cols
        .into_iter()
        .enumerate()
        .map(|(j, v)| (format!("h{j:02}"), Column::Num(v)))
        .collect();
    Table::from_columns(named).expect("generator produces consistent columns")
}

/// Forest-like: 10 numeric terrain attributes + 45 categorical columns
/// (4 one-hot wilderness, 40 one-hot soil, 1 cover type). Hillshades are
/// trigonometric functions of aspect/slope; soil and cover depend on
/// elevation — the "high dimensionality, high sparsity" dataset.
pub fn forest_like(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);

    let mut elevation = Vec::with_capacity(n);
    let mut aspect = Vec::with_capacity(n);
    let mut slope = Vec::with_capacity(n);
    let mut hd_hydro = Vec::with_capacity(n);
    let mut vd_hydro = Vec::with_capacity(n);
    let mut hd_road = Vec::with_capacity(n);
    let mut hs_9am = Vec::with_capacity(n);
    let mut hs_noon = Vec::with_capacity(n);
    let mut hs_3pm = Vec::with_capacity(n);
    let mut hd_fire = Vec::with_capacity(n);

    let mut wilderness: Vec<Labelled> = (0..4).map(|_| Labelled::new(n)).collect();
    let mut soil: Vec<Labelled> = (0..40).map(|_| Labelled::new(n)).collect();
    let mut cover = Labelled::new(n);

    for _ in 0..n {
        let elev: f64 = rng.gen_range(1800.0..3900.0);
        let asp: f64 = rng.gen_range(0.0..360.0);
        let slp: f64 = (14.0 + 8.0 * randn(&mut rng)).clamp(0.0, 60.0);
        let hdh: f64 = -300.0 * rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln();
        let vdh = hdh * 0.15 + 12.0 * randn(&mut rng);
        let hdr: f64 = rng.gen_range(0.0..7000.0);
        // Hillshade model: illumination from the east in the morning,
        // overhead at noon, west in the afternoon.
        let rad = asp.to_radians();
        let srad = slp.to_radians();
        let h9 = 220.0 + 30.0 * (rad - 1.5).cos() * srad.sin() - 25.0 * srad.sin().powi(2)
            + 3.0 * randn(&mut rng);
        let hn = 235.0 + 8.0 * srad.cos() + 2.0 * randn(&mut rng);
        let h3 = 240.0 - 32.0 * (rad - 1.5).cos() * srad.sin() - 20.0 * srad.sin().powi(2)
            + 3.0 * randn(&mut rng);
        let hdf = hdr * 0.4 + 900.0 + 350.0 * randn(&mut rng);

        elevation.push(elev.round());
        aspect.push(asp.round());
        slope.push(slp.round());
        hd_hydro.push(hdh.round());
        vd_hydro.push(vdh.round());
        hd_road.push(hdr.round());
        hs_9am.push(h9.round().clamp(0.0, 254.0));
        hs_noon.push(hn.round().clamp(0.0, 254.0));
        hs_3pm.push(h3.round().clamp(0.0, 254.0));
        hd_fire.push(hdf.max(0.0).round());

        // Wilderness area: elevation bands with a little bleed-over.
        let mut w = ((elev - 1800.0) / 525.0) as usize;
        if rng.gen::<f64>() < 0.08 {
            w = rng.gen_range(0..4);
        }
        let w = w.min(3);
        for (k, col) in wilderness.iter_mut().enumerate() {
            col.push(usize::from(k == w), |bit| bit.to_string());
        }

        // Soil type: mostly a deterministic function of elevation band and
        // hydrology distance; 10% noise.
        let mut s = (((elev - 1800.0) / 2100.0) * 30.0) as usize + ((hdh / 400.0) as usize).min(9);
        if rng.gen::<f64>() < 0.10 {
            s = rng.gen_range(0..40);
        }
        let s = s.min(39);
        for (k, col) in soil.iter_mut().enumerate() {
            col.push(usize::from(k == s), |bit| bit.to_string());
        }

        // Cover type: 7 classes driven by elevation and soil, 12% noise.
        let mut c = match elev as u32 {
            0..=2100 => 3,
            2101..=2500 => {
                if s < 12 {
                    2
                } else {
                    5
                }
            }
            2501..=2900 => {
                if s < 20 {
                    1
                } else {
                    4
                }
            }
            2901..=3300 => 0,
            _ => 6,
        };
        if rng.gen::<f64>() < 0.12 {
            c = rng.gen_range(0..7);
        }
        cover.push(c, |c| format!("T{c}"));
    }

    let mut named: Vec<(String, Column)> = vec![
        ("elevation".into(), Column::Num(elevation)),
        ("aspect".into(), Column::Num(aspect)),
        ("slope".into(), Column::Num(slope)),
        ("hd_hydro".into(), Column::Num(hd_hydro)),
        ("vd_hydro".into(), Column::Num(vd_hydro)),
        ("hd_road".into(), Column::Num(hd_road)),
        ("hs_9am".into(), Column::Num(hs_9am)),
        ("hs_noon".into(), Column::Num(hs_noon)),
        ("hs_3pm".into(), Column::Num(hs_3pm)),
        ("hd_fire".into(), Column::Num(hd_fire)),
    ];
    for (k, col) in wilderness.into_iter().enumerate() {
        named.push((format!("wild{k}"), col.finish()));
    }
    for (k, col) in soil.into_iter().enumerate() {
        named.push((format!("soil{k:02}"), col.finish()));
    }
    named.push(("cover".into(), cover.finish()));
    Table::from_columns(named).expect("generator produces consistent columns")
}

/// Census-like: 68 categorical columns dominated by functional
/// dependencies and noisy many-to-one derivations from a handful of latent
/// person attributes — "highly dimensional with low sparsity".
pub fn census_like(n: usize, seed: u64) -> Table {
    const COLS: usize = 68;
    let mut rng = StdRng::seed_from_u64(seed);

    // Column roles, fixed by the generator seed for realism:
    //  0: age band (9)        1: sex (2)           2: education (8)
    //  3: income band (10)    4: state (51)        5: division (9, FD of 4)
    //  6: region (4, FD of 5) 7: occupation (12)   8: industry (10)
    //  9..: derived or independent small-card attributes.
    let state_to_division: Vec<usize> = (0..51).map(|s| s % 9).collect();
    let division_to_region: Vec<usize> = (0..9).map(|d| d % 4).collect();
    let state_zipf = Zipf::new(51, 1.05);

    // For derived columns: one or two source latents and a random
    // many-to-one map over their joint domain. Two-source derivations are
    // the crux: a tree-shaped model can condition on only one parent, so
    // it keeps residual entropy that a joint (autoencoder) model removes.
    struct Derived {
        source: usize,  // index into latent slots 0..9
        source2: usize, // second latent, or usize::MAX for single-source
        map: Vec<usize>,
        card: usize,
        noise: f64,
    }
    let latent_cards = [9usize, 2, 8, 10, 51, 9, 4, 12, 10];
    let mut derived: Vec<Derived> = Vec::new();
    for _ in 9..COLS {
        let roll: f64 = rng.gen();
        if roll < 0.55 {
            // Two-source derivation over a joint domain. The 51-value
            // state latent (slot 4) is excluded from joints to keep the
            // joint domains modest; re-index around it.
            let non_state = [0usize, 1, 2, 3, 5, 6, 7, 8];
            let source = non_state[rng.gen_range(0..non_state.len())];
            let source2 = loop {
                let s = non_state[rng.gen_range(0..non_state.len())];
                if s != source {
                    break s;
                }
            };
            let card = rng.gen_range(3..9);
            // Monotone blend of the two (ordered) latents — Census-90
            // columns are prequantized numerics, so derived attributes are
            // ordinal functions, not arbitrary permutations. The blend
            // weights vary per column.
            let wa = rng.gen_range(0.35..0.65);
            let ca = latent_cards[source];
            let cb = latent_cards[source2];
            let joint = ca * cb;
            let map = (0..joint)
                .map(|idx| {
                    let a = (idx / cb) as f64 / (ca - 1).max(1) as f64;
                    let b = (idx % cb) as f64 / (cb - 1).max(1) as f64;
                    let t = wa * a + (1.0 - wa) * b;
                    ((t * card as f64) as usize).min(card - 1)
                })
                .collect();
            derived.push(Derived {
                source,
                source2,
                map,
                card,
                noise: rng.gen_range(0.01..0.06),
            });
        } else if roll < 0.85 {
            let source = rng.gen_range(0..9);
            let card = rng.gen_range(2..8);
            // Monotone bucketing of the source latent (ordinal), with an
            // occasional reversal for variety.
            let flip = rng.gen_bool(0.3);
            let cs = latent_cards[source];
            let map = (0..cs)
                .map(|v| {
                    let t = v as f64 / (cs - 1).max(1) as f64;
                    let t = if flip { 1.0 - t } else { t };
                    ((t * card as f64) as usize).min(card - 1)
                })
                .collect();
            derived.push(Derived {
                source,
                source2: usize::MAX,
                map,
                card,
                noise: rng.gen_range(0.01..0.08),
            });
        } else {
            // Independent column: skewed small-card values.
            let card = rng.gen_range(2..10);
            derived.push(Derived {
                source: usize::MAX,
                source2: usize::MAX,
                map: Vec::new(),
                card,
                noise: 0.0,
            });
        }
    }
    let indep_zipfs: Vec<Zipf> = derived.iter().map(|d| Zipf::new(d.card, 1.2)).collect();

    let mut cols: Vec<Labelled> = (0..COLS).map(|_| Labelled::new(n)).collect();
    for _ in 0..n {
        let age = rng.gen_range(0..9usize);
        let sex = rng.gen_range(0..2usize);
        // Education correlates with age (children can't hold degrees).
        let edu_max = if age == 0 { 2 } else { 8 };
        let edu = (rng.gen_range(0..edu_max) + rng.gen_range(0..edu_max)) / 2;
        // Income driven by education and age with noise.
        let income = ((edu as f64 * 0.9 + age as f64 * 0.25 + 1.2 * randn(&mut rng))
            .clamp(0.0, 9.0)) as usize;
        let state = state_zipf.sample(&mut rng);
        let division = state_to_division[state];
        let region = division_to_region[division];
        let occupation = ((edu as f64 * 1.3 + 1.5 * randn(&mut rng)).clamp(0.0, 11.0)) as usize;
        let industry = if rng.gen::<f64>() < 0.9 {
            occupation % 10
        } else {
            rng.gen_range(0..10)
        };

        let latents = [
            age, sex, edu, income, state, division, region, occupation, industry,
        ];
        for (k, &v) in latents.iter().enumerate() {
            cols[k].push(v, |v| v.to_string());
        }
        for (k, d) in derived.iter().enumerate() {
            let v = if d.source == usize::MAX {
                indep_zipfs[k].sample(&mut rng)
            } else if rng.gen::<f64>() < d.noise {
                rng.gen_range(0..d.card)
            } else if d.source2 == usize::MAX {
                d.map[latents[d.source]]
            } else {
                d.map[latents[d.source] * latent_cards[d.source2] + latents[d.source2]]
            };
            cols[9 + k].push(v, |v| v.to_string());
        }
    }

    let names = [
        "age",
        "sex",
        "education",
        "income",
        "state",
        "division",
        "region",
        "occupation",
        "industry",
    ];
    let named = cols
        .into_iter()
        .enumerate()
        .map(|(k, v)| {
            let name = if k < names.len() {
                names[k].to_string()
            } else {
                format!("attr{k:02}")
            };
            (name, v.finish())
        })
        .collect();
    Table::from_columns(named).expect("generator produces consistent columns")
}

/// Monitor-like: 17 numeric machine-telemetry channels produced by
/// regime-switching random walks per machine; most channels are noisy
/// functions of a few latent drivers (load, memory pressure, io) — the
/// pattern the mixture of experts pays off on (Fig. 8).
pub fn monitor_like(n: usize, seed: u64) -> Table {
    const MACHINES: usize = 8;
    let mut rng = StdRng::seed_from_u64(seed);

    struct MachineState {
        load: f64,
        mem: f64,
        io: f64,
        regime: usize, // 0 idle, 1 busy, 2 io-bound
        ts: f64,
        load5: f64,
        load15: f64,
    }
    let mut machines: Vec<MachineState> = (0..MACHINES)
        .map(|m| MachineState {
            load: rng.gen_range(0.05..0.5),
            mem: rng.gen_range(0.2..0.6),
            io: rng.gen_range(0.0..0.2),
            regime: 0,
            ts: 1_600_000_000.0 + m as f64 * 37.0,
            load5: 0.2,
            load15: 0.2,
        })
        .collect();

    const NCOLS: usize = 17;
    let mut cols: Vec<Vec<f64>> = (0..NCOLS).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let m = &mut machines[i % MACHINES];
        // Occasionally switch regimes.
        if rng.gen::<f64>() < 0.01 {
            m.regime = rng.gen_range(0..3);
        }
        let (load_target, io_target) = match m.regime {
            0 => (0.15, 0.05),
            1 => (0.85, 0.15),
            _ => (0.40, 0.75),
        };
        m.load += 0.2 * (load_target - m.load) + 0.05 * randn(&mut rng);
        m.load = m.load.clamp(0.0, 4.0);
        m.io += 0.25 * (io_target - m.io) + 0.04 * randn(&mut rng);
        m.io = m.io.clamp(0.0, 1.0);
        m.mem += 0.02 * randn(&mut rng) + 0.01 * (m.load - 0.4);
        m.mem = m.mem.clamp(0.05, 0.95);
        m.load5 += 0.3 * (m.load - m.load5);
        m.load15 += 0.1 * (m.load - m.load15);
        m.ts += 60.0;

        let total_mem = 64.0; // GB
        let mem_used = m.mem * total_mem;
        // Channels are multivariate functions of the latent drivers (load,
        // io, mem) with *regime-dependent coefficients* — the Fig. 4
        // situation where each regime falls along its own simple surface,
        // so a mixture of small experts beats one big model and no single
        // parent column predicts another.
        let (ca, cb, cc) = match m.regime {
            0 => (26.0, 9.0, 0.6),
            1 => (34.0, 4.0, 1.1),
            _ => (18.0, 16.0, 0.8),
        };
        let cpu_temp = 35.0 + ca * m.load + cb * m.io + 1.0 * randn(&mut rng);
        let gpu_temp = 30.0 + 14.0 * m.load + 9.0 * m.mem + 1.2 * randn(&mut rng);
        let power = 120.0 + 150.0 * m.load + 55.0 * m.io + 20.0 * m.mem + 3.0 * randn(&mut rng);
        let fan = (cpu_temp / 10.0).floor() * 600.0; // steppy fan curve
        let disk_r = (cc * 420.0 * m.io + 30.0 * m.load + 4.0 * randn(&mut rng)).max(0.0);
        let disk_w = (cc * 260.0 * m.io + 55.0 * m.load * m.io + 3.0 * randn(&mut rng)).max(0.0);
        let net_rx = ((ca * 3.0) * m.load + 32.0 * m.io + 2.5 * randn(&mut rng)).max(0.0);
        let net_tx = ((cb * 6.0) * m.load + 21.0 * m.io + 2.0 * randn(&mut rng)).max(0.0);
        let io_wait = (38.0 * m.io + 9.0 * m.load * m.io + 0.8 * randn(&mut rng)).clamp(0.0, 100.0);
        let procs = (180.0 + 260.0 * m.load + 90.0 * m.mem + 6.0 * randn(&mut rng)).round();
        let swap = ((m.mem - 0.7).max(0.0) * 20.0 * total_mem / 8.0).round();

        let row = [
            m.ts,
            quantize_to(m.load, 2),
            quantize_to(m.load5, 2),
            quantize_to(m.load15, 2),
            quantize_to(mem_used, 1),
            quantize_to(total_mem - mem_used, 1),
            swap,
            quantize_to(disk_r, 1),
            quantize_to(disk_w, 1),
            quantize_to(net_rx, 1),
            quantize_to(net_tx, 1),
            quantize_to(cpu_temp, 1),
            quantize_to(gpu_temp, 1),
            quantize_to(power, 1),
            fan,
            quantize_to(io_wait, 1),
            procs,
        ];
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
    }

    let names = [
        "ts", "load1", "load5", "load15", "mem_used", "mem_free", "swap", "disk_r", "disk_w",
        "net_rx", "net_tx", "cpu_temp", "gpu_temp", "power", "fan", "io_wait", "procs",
    ];
    let named = names
        .iter()
        .zip(cols)
        .map(|(name, v)| (name.to_string(), Column::Num(v)))
        .collect();
    Table::from_columns(named).expect("generator produces consistent columns")
}

/// Criteo-like: click-log mix of 13 heavy-tailed numeric counters and 27
/// categorical columns with zipfian skew, planted pairwise dependencies,
/// and two very-high-cardinality columns that exercise DeepSqueeze's
/// high-cardinality fallback path (§4.1).
pub fn criteo_like(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);

    let mut click = Labelled::new(n);
    let mut nums: Vec<Vec<f64>> = (0..13).map(|_| Vec::with_capacity(n)).collect();
    let mut cats: Vec<Labelled> = (0..26).map(|_| Labelled::new(n)).collect();

    // Cardinalities: a mix of small, medium and huge.
    let cards = [
        8usize, 4, 12, 30, 100, 6, 3, 50, 9, 24, 400, 16, 5, 7, 60, 11, 2000, 40, 14, 10, 0, 0, 25,
        18, 80, 33,
    ]; // 0 marks the two high-cardinality "hash" columns
    let zipfs: Vec<Option<Zipf>> = cards
        .iter()
        .map(|&c| if c > 0 { Some(Zipf::new(c, 1.1)) } else { None })
        .collect();

    for row in 0..n {
        // Latent "user interest" drives label and several columns.
        let interest: f64 = rng.gen();
        let clicked = rng.gen::<f64>() < 0.08 + 0.3 * interest;
        click.push(usize::from(clicked), |bit| bit.to_string());

        for (j, col) in nums.iter_mut().enumerate() {
            // Log-normal-ish counters, sparser for higher j; clicks inflate
            // engagement counters.
            let zero_p = 0.2 + 0.5 * (j as f64 / 13.0);
            let v = if rng.gen::<f64>() < zero_p {
                0.0
            } else {
                let base = (randn(&mut rng) * 1.2 + 1.5 + interest).exp();
                (base * if clicked { 1.6 } else { 1.0 }).floor()
            };
            col.push(v);
        }

        let mut drawn = vec![0usize; 26];
        for (j, col) in cats.iter_mut().enumerate() {
            match cards[j] {
                0 => {
                    // High-cardinality hash: mostly unique hex tokens.
                    let h: u64 = rng.gen::<u64>() ^ (row as u64).wrapping_mul(0x9E37);
                    col.push_unkeyed(format!("{h:016x}"));
                }
                c => {
                    let v = match j {
                        // c01 drives c06 (85% FD) and c08 depends on click.
                        5 => {
                            if rng.gen::<f64>() < 0.85 {
                                drawn[0] % cards[5]
                            } else {
                                zipfs[5].as_ref().expect("card>0").sample(&mut rng)
                            }
                        }
                        7 => {
                            if clicked && rng.gen::<f64>() < 0.6 {
                                1
                            } else {
                                zipfs[7].as_ref().expect("card>0").sample(&mut rng)
                            }
                        }
                        9 => {
                            // c9 = function of interest bucket, 90%.
                            if rng.gen::<f64>() < 0.9 {
                                ((interest * cards[9] as f64) as usize).min(cards[9] - 1)
                            } else {
                                zipfs[9].as_ref().expect("card>0").sample(&mut rng)
                            }
                        }
                        _ => zipfs[j].as_ref().expect("card>0").sample(&mut rng),
                    };
                    drawn[j] = v;
                    debug_assert!(v < c);
                    col.push(v, |v| format!("v{v}"));
                }
            }
        }
    }

    let mut named: Vec<(String, Column)> = vec![("click".into(), click.finish())];
    for (j, v) in nums.into_iter().enumerate() {
        named.push((format!("i{:02}", j + 1), Column::Num(v)));
    }
    for (j, v) in cats.into_iter().enumerate() {
        named.push((format!("c{:02}", j + 1), v.finish()));
    }
    Table::from_columns(named).expect("generator produces consistent columns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table_1() {
        let t = corel_like(200, 1);
        assert_eq!(t.type_counts(), (0, 32));
        let t = forest_like(200, 1);
        assert_eq!(t.type_counts(), (45, 10));
        let t = census_like(200, 1);
        assert_eq!(t.type_counts(), (68, 0));
        let t = monitor_like(200, 1);
        assert_eq!(t.type_counts(), (0, 17));
        let t = criteo_like(200, 1);
        assert_eq!(t.type_counts(), (27, 13));
    }

    #[test]
    fn deterministic_per_seed() {
        for d in Dataset::ALL {
            let a = d.generate(100, 42);
            let b = d.generate(100, 42);
            assert_eq!(a, b, "{} not deterministic", d.name());
            let c = d.generate(100, 43);
            assert_ne!(a, c, "{} ignores seed", d.name());
        }
    }

    #[test]
    fn corel_values_are_unit_interval_histograms() {
        let t = corel_like(500, 7);
        for col in t.columns() {
            for &v in col.as_num().unwrap() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn forest_one_hot_groups_sum_to_one() {
        let t = forest_like(300, 3);
        let s = t.schema();
        let wild: Vec<usize> = (0..4)
            .map(|k| s.index_of(&format!("wild{k}")).unwrap())
            .collect();
        let soil: Vec<usize> = (0..40)
            .map(|k| s.index_of(&format!("soil{k:02}")).unwrap())
            .collect();
        for r in 0..t.nrows() {
            let wsum: u32 = wild
                .iter()
                .map(|&c| {
                    t.column(c).unwrap().as_cat().unwrap()[r]
                        .parse::<u32>()
                        .unwrap()
                })
                .sum();
            assert_eq!(wsum, 1, "wilderness one-hot violated at row {r}");
            let ssum: u32 = soil
                .iter()
                .map(|&c| {
                    t.column(c).unwrap().as_cat().unwrap()[r]
                        .parse::<u32>()
                        .unwrap()
                })
                .sum();
            assert_eq!(ssum, 1, "soil one-hot violated at row {r}");
        }
    }

    #[test]
    fn census_functional_dependencies_hold_exactly() {
        let t = census_like(2000, 11);
        let state = t.column_by_name("state").unwrap().as_cat().unwrap();
        let division = t.column_by_name("division").unwrap().as_cat().unwrap();
        let region = t.column_by_name("region").unwrap().as_cat().unwrap();
        let mut seen: std::collections::HashMap<&str, (&str, &str)> = Default::default();
        for r in 0..t.nrows() {
            let entry = seen.entry(&state[r]).or_insert((&division[r], &region[r]));
            assert_eq!(entry.0, &division[r], "state→division FD violated");
            assert_eq!(entry.1, &region[r], "state→region FD violated");
        }
    }

    #[test]
    fn monitor_channels_are_correlated() {
        let t = monitor_like(4000, 5);
        let load = t.column_by_name("load1").unwrap().as_num().unwrap();
        let temp = t.column_by_name("cpu_temp").unwrap().as_num().unwrap();
        let power = t.column_by_name("power").unwrap().as_num().unwrap();
        assert!(pearson(load, temp) > 0.8, "load/temp corr too weak");
        assert!(pearson(load, power) > 0.7, "load/power corr too weak");
        let used = t.column_by_name("mem_used").unwrap().as_num().unwrap();
        let free = t.column_by_name("mem_free").unwrap().as_num().unwrap();
        assert!(pearson(used, free) < -0.99, "mem_used/free must mirror");
    }

    #[test]
    fn criteo_has_high_cardinality_hash_columns() {
        let t = criteo_like(1000, 9);
        let c21 = t.column_by_name("c21").unwrap();
        assert!(c21.distinct_count() > 900, "c21 should be near-unique");
        let c02 = t.column_by_name("c02").unwrap();
        assert!(c02.distinct_count() <= 4);
    }

    #[test]
    fn criteo_c06_mostly_determined_by_c01() {
        let t = criteo_like(3000, 13);
        let c1 = t.column_by_name("c01").unwrap().as_cat().unwrap();
        let c5 = t.column_by_name("c06").unwrap().as_cat().unwrap();
        // Majority mapping accuracy should reflect the planted 85% FD.
        let mut maj: std::collections::HashMap<&str, std::collections::HashMap<&str, usize>> =
            Default::default();
        for r in 0..c1.len() {
            *maj.entry(&c1[r]).or_default().entry(&c5[r]).or_default() += 1;
        }
        let hits: usize = maj
            .values()
            .map(|m| m.values().copied().max().unwrap_or(0))
            .sum();
        assert!(
            hits as f64 / c1.len() as f64 > 0.75,
            "planted dependency too weak: {}",
            hits as f64 / c1.len() as f64
        );
    }

    #[test]
    fn dataset_metadata() {
        assert_eq!(Dataset::Corel.name(), "Corel");
        assert!(!Dataset::Census.supports_lossy());
        assert!(Dataset::Monitor.supports_lossy());
        for d in Dataset::ALL {
            assert!(d.default_rows() >= 1000);
        }
    }

    #[test]
    fn all_generated_columns_match_declared_types() {
        for d in Dataset::ALL {
            let t = d.generate(50, 2);
            for (f, c) in t.schema().fields().iter().zip(t.columns()) {
                assert_eq!(f.ty, c.ty(), "{}:{}", d.name(), f.name);
                assert_eq!(c.len(), 50);
            }
            assert!(t.raw_size() > 0);
        }
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (x, y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma).powi(2);
            vb += (y - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
    }
}
