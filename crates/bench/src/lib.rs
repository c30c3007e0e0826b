//! # ds-bench — the paper-experiment harness
//!
//! Regenerates every table and figure of the DeepSqueeze paper's
//! evaluation (§7) on the synthetic dataset equivalents:
//!
//! | Experiment | Function |
//! |---|---|
//! | Table 1 (dataset summary)                      | [`experiments::table1`] |
//! | Fig. 6a (gzip & Parquet baselines)             | [`experiments::fig6`] |
//! | Fig. 6b–f (DeepSqueeze vs Squish + breakdown)  | [`experiments::fig6`] |
//! | Table 2 (runtimes HT/C/D)                      | [`experiments::table2`] |
//! | Fig. 7 (optimization ablations)                | [`experiments::fig7`] |
//! | Fig. 8 (k-means vs mixture of experts)         | [`experiments::fig8`] |
//! | Fig. 9 (hyperparameter-tuning convergence)     | [`experiments::fig9`] |
//! | Fig. 10 (training sample-size sensitivity)     | [`experiments::fig10`] |
//!
//! The `paper_experiments` bench target (`cargo bench -p ds-bench`) runs
//! them all; each also writes a CSV under `results/`. Throughput, latency
//! and memory of the system itself are measured by `benchmark/run.sh`
//! (dsbench), not here. Environment knobs (a value that does not parse is
//! an error, never the default):
//!
//! * `DS_SCALE` — multiplies every dataset's default row count
//!   (default 1.0; use 0.25 for a quick pass).
//! * `DS_EPOCHS` — overrides the training epoch cap.
//! * `DS_ONLY` — comma-separated experiment list
//!   (`table1,fig6,table2,fig7,fig8,fig9,fig10,ablations`).

pub mod baselines;
pub mod experiments;
pub mod report;

use ds_table::gen::Dataset;

/// Experiment-wide configuration derived from the environment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Multiplier on each dataset's default row count.
    pub scale: f64,
    /// Training epoch cap (None = per-experiment default).
    pub epochs: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunConfig {
    /// Reads `DS_SCALE` / `DS_EPOCHS` from the environment.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(
            env_var("DS_SCALE")?.as_deref(),
            env_var("DS_EPOCHS")?.as_deref(),
        )
    }

    /// `from_env` over the two raw values. An unparsable value is an
    /// error: falling back to the default would turn `DS_SCALE=0,25` into
    /// the hour-long full-size run.
    fn parse(scale: Option<&str>, epochs: Option<&str>) -> Result<Self, String> {
        let scale = match scale {
            None => 1.0,
            Some(v) => v
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("DS_SCALE={v:?}: expected a positive number, e.g. 0.25"))?,
        };
        let epochs = match epochs {
            None => None,
            Some(v) => Some(v.trim().parse::<usize>().map_err(|_| {
                format!("DS_EPOCHS={v:?}: expected a whole number of epochs, e.g. 20")
            })?),
        };
        Ok(RunConfig {
            scale,
            epochs,
            seed: 42,
        })
    }

    /// Row count for a dataset under this configuration.
    pub fn rows(&self, d: Dataset) -> usize {
        ((d.default_rows() as f64 * self.scale) as usize).max(200)
    }

    /// Epoch cap with a per-call default.
    pub fn epochs_or(&self, default: usize) -> usize {
        self.epochs.unwrap_or(default)
    }
}

/// An environment variable: `None` when unset, an error naming it when
/// it is set to something that is not UTF-8.
pub(crate) fn env_var(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?}: not valid UTF-8")),
    }
}

/// Tuned-by-hand per-dataset DeepSqueeze settings used by the headline
/// experiments (stand-ins for a full Fig. 5 tuning run, which Fig. 9
/// exercises separately — tuning every Fig. 6 cell from scratch would
/// multiply the harness runtime several-fold without changing shapes).
pub fn ds_config_for(d: Dataset, error: f64, epochs: usize, seed: u64) -> ds_core::DsConfig {
    use ds_table::gen::Dataset as D;
    let (code_size, n_experts, lr) = match d {
        D::Corel => (4, 1, 6e-3),
        D::Forest => (4, 1, 6e-3),
        D::Census => (6, 2, 8e-3),
        D::Monitor => (2, 2, 6e-3),
        D::Criteo => (4, 2, 6e-3),
    };
    ds_core::DsConfig {
        error_threshold: error,
        code_size,
        n_experts,
        max_epochs: epochs,
        lr,
        lr_decay: 0.998,
        tol: 1e-5, // effectively train to the epoch budget
        seed,
        // Criteo's widest retained column would otherwise dominate the
        // shared softmax; a 128-class clip trades a slightly longer rare
        // stream for ~2× faster training at this scale.
        max_train_card: if matches!(d, D::Criteo) { 128 } else { 256 },
        ..Default::default()
    }
}

/// Per-dataset training-epoch budget for the headline experiments:
/// proportional to how long each model keeps improving, bounded by the
/// harness wall-clock budget.
pub fn epochs_for(d: Dataset) -> usize {
    use ds_table::gen::Dataset as D;
    match d {
        D::Corel => 150,
        D::Forest => 100,
        D::Census => 120,
        D::Monitor => 150,
        D::Criteo => 40,
    }
}

/// The error thresholds the paper reports (§7.2).
pub const ERROR_THRESHOLDS: [f64; 4] = [0.005, 0.01, 0.05, 0.10];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_scales_rows() {
        let rc = RunConfig {
            scale: 0.5,
            epochs: Some(7),
            seed: 1,
        };
        assert_eq!(rc.rows(Dataset::Corel), Dataset::Corel.default_rows() / 2);
        assert_eq!(rc.epochs_or(99), 7);
        let rc = RunConfig {
            scale: 1.0,
            epochs: None,
            seed: 1,
        };
        assert_eq!(rc.epochs_or(99), 99);
    }

    #[test]
    fn unparsable_scale_is_an_error_naming_the_variable_and_value() {
        for bad in ["0,25", "", "fast", "nan", "0", "-1"] {
            let err = RunConfig::parse(Some(bad), None).unwrap_err();
            assert!(err.contains("DS_SCALE") && err.contains(bad), "{err}");
        }
        let rc = RunConfig::parse(Some(" 0.25 "), None).unwrap();
        assert_eq!(rc.scale, 0.25);
        assert_eq!(RunConfig::parse(None, None).unwrap().scale, 1.0);
    }

    #[test]
    fn unparsable_epochs_is_an_error_naming_the_variable_and_value() {
        for bad in ["ten", "", "-3", "2.5"] {
            let err = RunConfig::parse(None, Some(bad)).unwrap_err();
            assert!(err.contains("DS_EPOCHS") && err.contains(bad), "{err}");
        }
        assert_eq!(RunConfig::parse(None, Some("7")).unwrap().epochs, Some(7));
        assert_eq!(RunConfig::parse(None, None).unwrap().epochs, None);
    }

    #[test]
    fn per_dataset_configs_are_valid() {
        for d in Dataset::ALL {
            let cfg = ds_config_for(d, 0.1, 5, 1);
            assert!(cfg.code_size >= 1 && cfg.n_experts >= 1);
        }
    }
}
