//! Trace determinism: with timing disabled, the serialized ds-obs report
//! of a full sharded compress + decompress is byte-identical no matter
//! how many pool threads ran the work. Runtime-class scheduler metrics
//! (steals, queue depths, latencies) are dropped unless timing is on, so
//! the remaining span tree, counters, and series depend only on the
//! input — not on how it was scheduled.
//!
//! One test function on purpose: the recorder is process-global, so this
//! file must not run other recorder-touching tests concurrently.

use ds_core::{compress, decompress, DsConfig};
use ds_table::gen::Dataset;

#[test]
fn timing_free_trace_is_identical_across_thread_limits() {
    let t = Dataset::Monitor.generate(300, 9);
    let cfg = DsConfig {
        error_threshold: 0.05,
        code_size: 2,
        n_experts: 2,
        max_epochs: 3,
        shard_rows: 64,
        ..Default::default()
    };

    let run = |limit: usize| {
        ds_exec::with_thread_limit(limit, || {
            ds_obs::enable(false);
            let archive = compress(&t, &cfg).expect("compresses");
            decompress(&archive).expect("decodes");
            ds_obs::sink::to_jsonl(&ds_obs::drain())
        })
    };

    let t1 = run(1);
    let t2 = run(2);
    let t8 = run(8);
    assert!(
        t1.contains("\"shard\"") && t1.contains("\"decode_shard\""),
        "trace must actually cover the sharded pipeline:\n{t1}"
    );
    assert_eq!(t1, t2, "trace differs between 1 and 2 threads");
    assert_eq!(t1, t8, "trace differs between 1 and 8 threads");

    // The decode's own trace attributes the shared decoder's import: one
    // `decoder_import` span under `decompress`, with the blob's
    // compressed and raw sizes; and inside each shard, the codes and the
    // failures.
    let archive = compress(&t, &cfg).expect("compresses");
    ds_obs::enable(false);
    decompress(&archive).expect("decodes");
    let report = ds_obs::drain();
    let root = report.span_named("decompress").expect("a decompress span");
    let import = report
        .span_named("decoder_import")
        .expect("a decoder_import span");
    assert_eq!(import.parent, root.id);
    let metric = |key: &str| {
        import
            .metrics
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    };
    assert!(metric("bytes_in") > 0, "{:?}", import.metrics);
    assert!(
        metric("bytes_out") > metric("bytes_in"),
        "{:?}",
        import.metrics
    );

    // Each shard decode holds one `codes` and one `failures` span, each
    // with the bytes it read and the decoded bytes it produced; one
    // `labels` span with the mapping's bytes; and, per expert that owns
    // rows, an `nn_forward` and a `fill` span over those rows.
    let shards: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "decode_shard")
        .collect();
    assert!(shards.len() > 1, "{} decode_shard spans", shards.len());
    let get = |span: &ds_obs::SpanRec, key: &str| {
        span.metrics
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    };
    let mut rows_filled = 0;
    for shard in shards {
        let stage = |name: &str| -> Vec<&ds_obs::SpanRec> {
            report
                .spans
                .iter()
                .filter(|s| s.parent == shard.id && s.name == name)
                .collect()
        };
        for (name, keys) in [
            ("codes", &["bytes_in", "bytes_out"][..]),
            ("failures", &["bytes_in", "bytes_out"]),
            ("labels", &["bytes_in"]),
        ] {
            let children = stage(name);
            assert_eq!(children.len(), 1, "{name} under {:?}", shard.index);
            for key in keys {
                assert!(
                    get(children[0], key) > 0,
                    "{name}: {:?}",
                    children[0].metrics
                );
            }
        }
        let (forward, fill) = (stage("nn_forward"), stage("fill"));
        assert!(!fill.is_empty(), "no fill under {:?}", shard.index);
        let by_expert = |spans: &[&ds_obs::SpanRec]| -> Vec<(Option<u64>, u64)> {
            spans.iter().map(|s| (s.index, get(s, "rows"))).collect()
        };
        assert_eq!(
            by_expert(&forward),
            by_expert(&fill),
            "under {:?}",
            shard.index
        );
        assert!(fill.iter().all(|s| s.index.is_some() && get(s, "rows") > 0));
        rows_filled += fill.iter().map(|s| get(s, "rows")).sum::<u64>();
    }
    assert_eq!(rows_filled, t.nrows() as u64, "fill spans cover every row");
}
