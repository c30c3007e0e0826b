//! Every compress entry point runs the same `DsConfig` check before it
//! reads a row: a bad config is `InvalidConfig` (never a `ShardFailed`
//! surfacing after training), no `train` span was opened, and the sink
//! received nothing.
//!
//! One test function on purpose: the recorder is process-global, so this
//! file must not run other recorder-touching tests concurrently.

use ds_core::{
    compress, compress_csv_stream_to, compress_stream_to, DsConfig, DsError, TrainedCompressor,
};
use ds_table::csv::write_csv;
use ds_table::gen::Dataset;
use ds_table::stream::TableSource;

#[test]
fn invalid_configs_are_rejected_before_any_row_is_read() {
    let t = Dataset::Monitor.generate(60, 3);
    let csv = std::env::temp_dir().join(format!("ds_cfgcheck_{}.csv", std::process::id()));
    std::fs::write(&csv, write_csv(&t)).expect("writes");
    let base = DsConfig {
        error_threshold: 0.05,
        max_epochs: 2,
        shard_rows: 16,
        ..DsConfig::default()
    };
    let bad: [(&str, DsConfig); 5] = [
        (
            "code width out of 1..=32",
            DsConfig {
                code_bits_candidates: vec![40],
                ..base.clone()
            },
        ),
        (
            "weight_truncate_bits = 24",
            DsConfig {
                weight_truncate_bits: 24,
                ..base.clone()
            },
        ),
        (
            "sample_frac = 0",
            DsConfig {
                sample_frac: 0.0,
                ..base.clone()
            },
        ),
        (
            "per_column_errors arity",
            DsConfig {
                per_column_errors: Some(vec![0.1; t.ncols() + 1]),
                ..base.clone()
            },
        ),
        (
            "order_free with shard_rows > 0",
            DsConfig {
                order_free: true,
                ..base.clone()
            },
        ),
    ];
    type EntryPoint<'a> = Box<dyn Fn(&DsConfig, &mut Vec<u8>) -> Option<DsError> + 'a>;
    let entry_points: [(&str, EntryPoint); 4] = [
        ("compress", Box::new(|cfg, _| compress(&t, cfg).err())),
        (
            "compress_stream_to",
            Box::new(|cfg, sink| compress_stream_to(&TableSource::new(&t, 7), cfg, sink).err()),
        ),
        (
            "compress_csv_stream_to",
            Box::new(|cfg, sink| compress_csv_stream_to(&csv, cfg, 7, sink).err()),
        ),
        (
            "TrainedCompressor::train",
            Box::new(|cfg, _| TrainedCompressor::train(&t, cfg).err()),
        ),
    ];
    for (what, cfg) in &bad {
        for (entry, run) in &entry_points {
            let mut sink = Vec::new();
            ds_obs::enable(false);
            let err = run(cfg, &mut sink);
            let report = ds_obs::drain();
            assert!(
                matches!(err, Some(DsError::InvalidConfig(_))),
                "{entry} with {what}: {err:?}"
            );
            assert!(
                report.span_named("train").is_none() && report.span_named("ingest").is_none(),
                "{entry} with {what} started work before rejecting the config"
            );
            assert!(sink.is_empty(), "{entry} with {what} wrote to the sink");
        }
    }
    let _ = std::fs::remove_file(&csv);
}
