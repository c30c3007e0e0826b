//! Streaming-archival integration tests (§3): a compressor trained on one
//! window compresses later batches with the same fitted model, with exact
//! patches covering anything the fitted plans cannot represent.

use ds_core::{decompress, DsConfig, TrainedCompressor};
use ds_table::gen;
use ds_table::{Column, Table};

fn cfg() -> DsConfig {
    DsConfig {
        error_threshold: 0.10,
        code_size: 2,
        n_experts: 2,
        max_epochs: 8,
        ..Default::default()
    }
}

#[test]
fn batches_from_same_distribution_roundtrip_within_bounds() {
    let window = gen::monitor_like(1_000, 50);
    let tc = TrainedCompressor::train(&window, &cfg()).expect("trains");
    for seed in 51..54 {
        let batch = gen::monitor_like(500, seed);
        let archive = tc.compress_batch(&batch).expect("batch compresses");
        let restored = decompress(&archive).expect("batch decodes");
        assert_eq!(restored.nrows(), batch.nrows());
        for ((a, b), f) in batch
            .columns()
            .iter()
            .zip(restored.columns())
            .zip(batch.schema().fields())
        {
            let (x, y) = (a.as_num().unwrap(), b.as_num().unwrap());
            // The streaming contract is 10% of the TRAINING window's range
            // (quantizers were fitted there); cells outside that envelope
            // come back bit-exact via patches. Accept either.
            let tw = window.column_by_name(&f.name).unwrap().as_num().unwrap();
            let min = tw.iter().copied().fold(f64::INFINITY, f64::min);
            let max = tw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = 0.10 * (max - min) * (1.0 + 1e-7) + 1e-9;
            for (u, v) in x.iter().zip(y) {
                let exact = u.to_bits() == v.to_bits();
                assert!(
                    exact || (u - v).abs() <= bound,
                    "{}: batch cell drifted: |{u} - {v}| bound {bound}",
                    f.name
                );
            }
        }
    }
}

#[test]
fn unseen_categorical_values_are_patched_exactly() {
    // Train on a small alphabet, then stream a batch containing brand-new
    // values: reconstruction must be EXACT via the patch mechanism.
    let train_vals: Vec<String> = (0..600).map(|i| format!("v{}", i % 4)).collect();
    let train = Table::from_columns(vec![
        ("cat".into(), Column::cat(train_vals)),
        (
            "num".into(),
            Column::Num((0..600).map(|i| f64::from(i % 50)).collect()),
        ),
    ])
    .expect("table");
    let tc = TrainedCompressor::train(&train, &cfg()).expect("trains");

    let batch_vals: Vec<String> = (0..200)
        .map(|i| {
            if i % 7 == 0 {
                format!("UNSEEN-{i}") // never in the training dictionary
            } else {
                format!("v{}", i % 4)
            }
        })
        .collect();
    let batch = Table::from_columns(vec![
        ("cat".into(), Column::cat(&batch_vals)),
        (
            "num".into(),
            Column::Num((0..200).map(|i| f64::from(i % 50)).collect()),
        ),
    ])
    .expect("table");

    let archive = tc.compress_batch(&batch).expect("batch compresses");
    let restored = decompress(&archive).expect("batch decodes");
    assert_eq!(
        restored.column_by_name("cat").unwrap(),
        &Column::cat(&batch_vals),
        "unseen categorical values must reconstruct exactly via patches"
    );
}

#[test]
fn out_of_range_numerics_are_patched_exactly() {
    let train = gen::monitor_like(800, 60);
    let tc = TrainedCompressor::train(&train, &cfg()).expect("trains");

    // A batch with extreme outliers far outside the fitted ranges.
    let mut batch = gen::monitor_like(300, 61);
    let named: Vec<(String, Column)> = batch
        .schema()
        .fields()
        .iter()
        .zip(batch.columns())
        .map(|(f, c)| {
            let mut v = c.as_num().unwrap().to_vec();
            v[0] = 1e12; // massive outlier in every column's first row
            (f.name.clone(), Column::Num(v))
        })
        .collect();
    batch = Table::from_columns(named).expect("table");

    let archive = tc.compress_batch(&batch).expect("batch compresses");
    let restored = decompress(&archive).expect("batch decodes");
    for (a, b) in batch.columns().iter().zip(restored.columns()) {
        let (x, y) = (a.as_num().unwrap(), b.as_num().unwrap());
        assert_eq!(
            x[0].to_bits(),
            y[0].to_bits(),
            "outlier must come back exactly via a patch"
        );
    }
}

#[test]
fn batch_with_wrong_schema_rejected() {
    let train = gen::monitor_like(300, 70);
    let tc = TrainedCompressor::train(&train, &cfg()).expect("trains");
    let wrong = gen::census_like(100, 70);
    assert!(tc.compress_batch(&wrong).is_err());
}

#[test]
fn order_free_batches_still_reconstruct_unseen_values() {
    // Regression: patches address cells by original row index, which
    // order-free storage would scramble — `compress_batch` must therefore
    // preserve row order even when the config requests order-free.
    let train_vals: Vec<String> = (0..400).map(|i| format!("v{}", i % 3)).collect();
    let train = Table::from_columns(vec![("cat".into(), Column::cat(train_vals))]).expect("table");
    let mut config = cfg();
    config.order_free = true;
    let tc = TrainedCompressor::train(&train, &config).expect("trains");

    let batch_vals: Vec<String> = (0..120)
        .map(|i| {
            if i % 11 == 0 {
                format!("NEW-{i}")
            } else {
                format!("v{}", i % 3)
            }
        })
        .collect();
    let batch = Table::from_columns(vec![("cat".into(), Column::cat(&batch_vals))]).expect("table");
    let archive = tc.compress_batch(&batch).expect("batch compresses");
    let restored = decompress(&archive).expect("batch decodes");
    assert_eq!(
        restored.column_by_name("cat").unwrap(),
        &Column::cat(&batch_vals)
    );
}
