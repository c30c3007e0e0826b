//! `cargo bench -p ds-bench --bench paper_experiments` — regenerates every
//! table and figure of the paper's evaluation section. A plain `fn main`,
//! not a timing harness: the "benchmark" is the experiment suite itself.
//!
//! Environment: `DS_SCALE` (row multiplier), `DS_EPOCHS` (epoch cap),
//! `DS_ONLY` (comma-separated subset, e.g. `fig6,fig8`).

fn main() {
    if let Err(e) = ds_bench::experiments::run_all() {
        eprintln!("paper_experiments: {e}");
        std::process::exit(2);
    }
}
