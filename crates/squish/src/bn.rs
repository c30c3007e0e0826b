//! Bayesian-network structure learning: the Chow–Liu algorithm.
//!
//! Chow–Liu finds the tree-shaped Bayesian network maximizing total
//! mutual information — the classic tractable structure learner, and the
//! natural reading of Squish's "Bayesian network … efficiently described"
//! requirement (§2.3 of the DeepSqueeze paper). Mutual information is
//! estimated on a row sample; the tree is extracted with Prim's algorithm.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Estimates pairwise mutual information and returns, for every column,
/// its parent in the maximum-spanning-tree Bayesian network (root(s) have
/// `None`).
///
/// * `codes` — dense discretized columns (dictionary codes / bucket ids).
/// * `cards` — per-column alphabet sizes.
/// * `mi_sample` — maximum rows used for the MI estimate.
pub fn chow_liu(
    codes: &[Vec<u32>],
    cards: &[usize],
    mi_sample: usize,
    seed: u64,
) -> Vec<Option<usize>> {
    let k = codes.len();
    if k <= 1 {
        return vec![None; k];
    }
    let n = codes[0].len();
    if n == 0 {
        return vec![None; k];
    }

    // Sample row indexes once for every pair.
    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<usize> = if n <= mi_sample {
        (0..n).collect()
    } else {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        idx.truncate(mi_sample);
        idx
    };
    let m = sample.len() as f64;

    // Marginal histograms.
    let marginals: Vec<HashMap<u32, f64>> = codes
        .iter()
        .map(|col| {
            let mut h: HashMap<u32, f64> = HashMap::new();
            for &r in &sample {
                *h.entry(col[r]).or_default() += 1.0;
            }
            h
        })
        .collect();

    // Pairwise MI.
    let mut mi = vec![vec![0.0f64; k]; k];
    for a in 0..k {
        for b in (a + 1)..k {
            // Skip pairs whose joint domain is so large the estimate is
            // meaningless at this sample size.
            if cards[a].saturating_mul(cards[b]) > 1 << 22 {
                continue;
            }
            let mut joint: HashMap<(u32, u32), f64> = HashMap::new();
            for &r in &sample {
                *joint.entry((codes[a][r], codes[b][r])).or_default() += 1.0;
            }
            // Sum in sorted key order: HashMap iteration order would make
            // the floating-point sum (and thus MST tie-breaks) run-to-run
            // nondeterministic.
            // ds-lint: allow(deterministic-iteration) -- collected entries are fully sorted on the next statement before the float accumulation
            let mut entries: Vec<(&(u32, u32), &f64)> = joint.iter().collect();
            entries.sort_by_key(|(k, _)| **k);
            let mut v = 0.0;
            for (&(x, y), &cxy) in entries {
                let px = marginals[a][&x] / m;
                let py = marginals[b][&y] / m;
                let pxy = cxy / m;
                v += pxy * (pxy / (px * py)).ln();
            }
            mi[a][b] = v.max(0.0);
            mi[b][a] = mi[a][b];
        }
    }

    // Prim's algorithm for the maximum spanning tree, rooted at the column
    // with the largest entropy proxy (most distinct values in sample).
    let root = (0..k).max_by_key(|&c| marginals[c].len()).expect("k >= 2");
    let mut in_tree = vec![false; k];
    let mut parent = vec![None; k];
    let mut best_gain = vec![f64::NEG_INFINITY; k];
    let mut best_link = vec![usize::MAX; k];
    in_tree[root] = true;
    for c in 0..k {
        if c != root {
            best_gain[c] = mi[root][c];
            best_link[c] = root;
        }
    }
    for _ in 1..k {
        let next = (0..k)
            .filter(|&c| !in_tree[c])
            .max_by(|&a, &b| best_gain[a].total_cmp(&best_gain[b]))
            .expect("tree incomplete");
        in_tree[next] = true;
        // Attach only when the link carries information; otherwise the
        // column is (near) independent and a marginal model is cheaper.
        if best_gain[next] > 1e-4 {
            parent[next] = Some(best_link[next]);
        }
        for c in 0..k {
            if !in_tree[c] && mi[next][c] > best_gain[c] {
                best_gain[c] = mi[next][c];
                best_link[c] = next;
            }
        }
    }
    parent
}

/// Orders columns parents-first. Returns fewer than `parents.len()`
/// entries when the graph contains a cycle (i.e., it is corrupt).
pub fn topological_order(parents: &[Option<usize>]) -> Vec<usize> {
    let k = parents.len();
    let mut order = Vec::with_capacity(k);
    let mut done = vec![false; k];
    let mut progress = true;
    while order.len() < k && progress {
        progress = false;
        for c in 0..k {
            if done[c] {
                continue;
            }
            let ready = match parents[c] {
                None => true,
                Some(p) => p < k && done[p],
            };
            if ready {
                done[c] = true;
                order.push(c);
                progress = true;
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column 1 is a deterministic function of column 0; column 2 is
    /// independent. Chow–Liu must link 0↔1 and leave 2 unattached (or
    /// attached with negligible weight).
    #[test]
    fn links_dependent_columns() {
        let n = 2000;
        let c0: Vec<u32> = (0..n).map(|i| (i % 7) as u32).collect();
        let c1: Vec<u32> = c0.iter().map(|&v| (v * 3 + 1) % 7).collect();
        let c2: Vec<u32> = (0..n)
            .map(|i| ((i * 2654435761usize) >> 16) as u32 % 5)
            .collect();
        let codes = vec![c0, c1, c2];
        let parents = chow_liu(&codes, &[7, 7, 5], 2000, 1);
        // Exactly one of {0,1} is the other's parent.
        let linked = matches!((parents[0], parents[1]), (Some(1), None) | (None, Some(0)));
        assert!(linked, "0↔1 must be linked: {parents:?}");
        // Independent column: no parent, or attached but harmless — verify
        // it is not the chosen parent of the dependent pair.
        assert_ne!(parents[0], Some(2));
        assert_ne!(parents[1], Some(2));
    }

    #[test]
    fn chain_structure_recovered() {
        // c0 → c1 → c2 (noisy channel at each hop): MST must be the chain.
        let n = 4000;
        let c0: Vec<u32> = (0..n).map(|i| (i % 8) as u32).collect();
        let c1: Vec<u32> = c0
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 11 == 0 { (v + 1) % 8 } else { v })
            .collect();
        let c2: Vec<u32> = c1
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 13 == 0 { (v + 2) % 8 } else { v })
            .collect();
        let parents = chow_liu(&[c0, c1, c2], &[8, 8, 8], 4000, 2);
        let order = topological_order(&parents);
        assert_eq!(order.len(), 3);
        // Every column except the root has a parent in a chain this strong.
        let with_parent = parents.iter().filter(|p| p.is_some()).count();
        assert_eq!(with_parent, 2, "{parents:?}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(chow_liu(&[], &[], 100, 0), Vec::<Option<usize>>::new());
        let single = chow_liu(&[vec![1, 2, 3]], &[4], 100, 0);
        assert_eq!(single, vec![None]);
        let empty_rows = chow_liu(&[vec![], vec![]], &[2, 2], 100, 0);
        assert_eq!(empty_rows, vec![None, None]);
    }

    #[test]
    fn topological_order_parents_first() {
        let parents = vec![Some(2), Some(0), None, Some(1)];
        let order = topological_order(&parents);
        assert_eq!(order.len(), 4);
        let pos = |c: usize| order.iter().position(|&x| x == c).unwrap();
        assert!(pos(2) < pos(0));
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(3));
    }

    #[test]
    fn cycle_detected_by_short_order() {
        let parents = vec![Some(1), Some(0)];
        assert!(topological_order(&parents).len() < 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 1000;
        let codes: Vec<Vec<u32>> = (0..5)
            .map(|c| (0..n).map(|i| ((i * (c + 3)) % 6) as u32).collect())
            .collect();
        let a = chow_liu(&codes, &[6; 5], 500, 9);
        let b = chow_liu(&codes, &[6; 5], 500, 9);
        assert_eq!(a, b);
    }
}
