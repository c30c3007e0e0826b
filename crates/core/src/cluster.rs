//! k-means partitioning — the comparator for the mixture of experts
//! (§5.2, §7.4.2 / Fig. 8).
//!
//! The paper's argument: a traditional distance-based clustering can
//! *increase* required model complexity (Fig. 4), whereas the gate learns
//! a partition aligned with what the experts can actually reconstruct.
//! This module implements the comparison honestly: Lloyd's k-means over
//! the preprocessed rows, one autoencoder trained per cluster, and the
//! same materialization path with cluster ids as expert assignments.

use crate::materialize::{materialize_with_patches, MaterializeOptions};
use crate::pipeline::{choose_code_bits, DsConfig};
use crate::preprocess::preprocess;
use crate::{DsArchive, DsError, Result};
use ds_nn::moe::MoeConfig;
use ds_nn::{Mat, MoeAutoencoder};
use ds_table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Lloyd's algorithm over the rows of `x`. Returns per-row cluster ids.
///
/// Initialization is k-means++-style (greedy farthest-point from a seeded
/// start); empty clusters are reseeded from the farthest point.
pub fn kmeans(x: &Mat, k: usize, max_iters: usize, seed: u64) -> Result<Vec<usize>> {
    if k == 0 {
        return Err(DsError::InvalidConfig("k must be >= 1"));
    }
    let n = x.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let d = x.cols();
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ init.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    let first = (0..n).collect::<Vec<_>>();
    let &start = first.choose(&mut rng).expect("n > 0");
    centroids.push(x.row(start).to_vec());
    let mut dist2 = vec![f32::INFINITY; n];
    while centroids.len() < k {
        let last = centroids.last().expect("nonempty");
        for r in 0..n {
            let dd = sq_dist(x.row(r), last);
            if dd < dist2[r] {
                dist2[r] = dd;
            }
        }
        let next = (0..n)
            .max_by(|&a, &b| dist2[a].total_cmp(&dist2[b]))
            .expect("n > 0");
        centroids.push(x.row(next).to_vec());
    }

    let mut assign = vec![0usize; n];
    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        for r in 0..n {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, cen) in centroids.iter().enumerate() {
                let dd = sq_dist(x.row(r), cen);
                if dd < best_d {
                    best_d = dd;
                    best = c;
                }
            }
            if assign[r] != best {
                assign[r] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for r in 0..n {
            counts[assign[r]] += 1;
            for (j, &v) in x.row(r).iter().enumerate() {
                sums[assign[r]][j] += f64::from(v);
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an empty cluster from the point farthest from its
                // centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(x.row(a), &centroids[assign[a]])
                            .total_cmp(&sq_dist(x.row(b), &centroids[assign[b]]))
                    })
                    .expect("n > 0");
                centroids[c] = x.row(far).to_vec();
                continue;
            }
            for j in 0..d {
                centroids[c][j] = (sums[c][j] / counts[c] as f64) as f32;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(assign)
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Compresses using k-means partitions instead of the learned gate: one
/// autoencoder per cluster, cluster ids as the expert mapping. `cfg`'s
/// `n_experts` is the number of clusters.
pub fn compress_kmeans(table: &Table, cfg: &DsConfig) -> Result<DsArchive> {
    let prep = preprocess(table, &cfg.validated(table.ncols())?)?;
    if prep.model_cols.is_empty() || table.nrows() == 0 {
        // Degenerates to the plain pipeline.
        return crate::pipeline::compress(table, cfg);
    }
    let assignments = kmeans(&prep.x, cfg.n_experts, 25, cfg.seed)?;

    // Train one expert per cluster, each on its own rows only.
    let (spec, moe_cfg) = cfg.model_spec(&prep.heads);
    let mut experts = Vec::with_capacity(cfg.n_experts);
    for c in 0..cfg.n_experts {
        let mut rows: Vec<usize> = assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(r, _)| r)
            .collect();
        if rows.is_empty() {
            // Train on one arbitrary row so the expert exists; no rows will
            // ever route to it.
            rows.push(0);
        }
        let moe_cfg = MoeConfig {
            n_experts: 1,
            seed: cfg.seed.wrapping_add(c as u64 + 1),
            ..moe_cfg.clone()
        };
        let xc = prep.x.take_rows(&rows);
        let catc: Vec<Vec<u32>> = prep
            .cat_targets
            .iter()
            .map(|t| rows.iter().map(|&r| t[r]).collect())
            .collect();
        let (m, _) = MoeAutoencoder::train(&spec, &xc, &catc, &moe_cfg)?;
        experts.extend(m.into_experts());
    }
    let mut model = MoeAutoencoder::from_experts(experts);
    cfg.truncate(&mut model);

    // The standard materialization with cluster ids as expert assignments:
    // each row is encoded once, by its cluster's expert, and the one blob
    // is written at the width that is smallest for the whole table.
    let assigned = model.assign_with_codes(&prep.x, &prep.cat_targets, Some(&assignments))?;
    let routed = (&model, &assigned);
    let opts = MaterializeOptions {
        code_bits: choose_code_bits(cfg, table, &prep, routed)?,
        order_free: cfg.order_free,
        omit_decoder: false,
    };
    let _sp = ds_obs::span("materialize");
    materialize_with_patches(table, &prep, Some(routed), &[], &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::decompress;
    use ds_table::gen;

    #[test]
    fn kmeans_separates_obvious_clusters() {
        // Two tight blobs.
        let mut x = Mat::zeros(100, 2);
        for r in 0..100 {
            let (cx, cy) = if r < 50 { (0.1, 0.1) } else { (0.9, 0.9) };
            x.set(r, 0, cx + 0.01 * ((r % 7) as f32 - 3.0));
            x.set(r, 1, cy + 0.01 * ((r % 5) as f32 - 2.0));
        }
        let assign = kmeans(&x, 2, 20, 1).unwrap();
        // All of blob A in one cluster, all of blob B in the other.
        let a = assign[0];
        assert!(assign[..50].iter().all(|&c| c == a));
        assert!(assign[50..].iter().all(|&c| c != a));
    }

    #[test]
    fn kmeans_handles_k_exceeding_n_and_empty() {
        let x = Mat::zeros(3, 2);
        let assign = kmeans(&x, 10, 5, 2).unwrap();
        assert_eq!(assign.len(), 3);
        let empty = Mat::zeros(0, 2);
        assert!(kmeans(&empty, 2, 5, 3).unwrap().is_empty());
        assert!(kmeans(&x, 0, 5, 4).is_err());
    }

    #[test]
    fn kmeans_deterministic() {
        let mut x = Mat::zeros(60, 3);
        for r in 0..60 {
            for c in 0..3 {
                x.set(r, c, ((r * 3 + c) as f32 * 0.77).sin());
            }
        }
        assert_eq!(kmeans(&x, 4, 15, 7).unwrap(), kmeans(&x, 4, 15, 7).unwrap());
    }

    #[test]
    fn kmeans_compression_roundtrips() {
        let t = gen::monitor_like(300, 3);
        let cfg = DsConfig {
            error_threshold: 0.10,
            n_experts: 3,
            max_epochs: 6,
            ..Default::default()
        };
        let archive = compress_kmeans(&t, &cfg).unwrap();
        let restored = decompress(&archive).unwrap();
        assert_eq!(restored.nrows(), t.nrows());
        // Numeric error bound must hold exactly as in the MoE path.
        for (a, b) in t.columns().iter().zip(restored.columns()) {
            let (x, y) = (a.as_num().unwrap(), b.as_num().unwrap());
            let min = x.iter().copied().fold(f64::INFINITY, f64::min);
            let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = 0.10 * (max - min) * (1.0 + 1e-7) + 1e-9;
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() <= bound);
            }
        }
    }
}
