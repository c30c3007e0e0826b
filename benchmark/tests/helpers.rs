//! The summary helpers and the request script.

use dsbench::script::RequestScript;
use dsbench::stats::{high_percentile, median, percentile, quiet_quartile, summarize};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), 50.0);
    assert_eq!(percentile(&sorted, 99.0), 99.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    assert_eq!(percentile(&[5.0], 99.9), 5.0);
}

#[test]
fn high_percentile_keeps_ten_samples_beyond() {
    // Fewer than ten samples can lie beyond any reported percentile.
    assert_eq!(high_percentile(0), None);
    assert_eq!(high_percentile(39), None);
    // p75 of 40 has rank 30, leaving exactly ten beyond.
    assert_eq!(high_percentile(40), Some(75.0));
    assert_eq!(high_percentile(99), Some(75.0));
    assert_eq!(high_percentile(100), Some(90.0));
    assert_eq!(high_percentile(200), Some(95.0));
    assert_eq!(high_percentile(999), Some(95.0));
    assert_eq!(high_percentile(1000), Some(99.0));
    assert_eq!(high_percentile(10_000), Some(99.9));
}

#[test]
fn summary_reports_the_high_percentile_value() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = summarize(&samples);
    assert_eq!(s.n, 1000);
    assert_eq!(s.median, 500.5);
    assert_eq!(s.high, Some((99.0, 990.0)));
    assert_eq!(summarize(&[1.0, 2.0, 3.0]).high, None);
}

#[test]
fn quiet_quartile_is_the_nearest_rank_lower_quartile() {
    assert!(quiet_quartile(Vec::new()).is_nan());
    assert_eq!(quiet_quartile(vec![9.0]), 9.0);
    // With up to four rounds it is the quietest round.
    assert_eq!(quiet_quartile(vec![9.0, 7.0]), 7.0);
    assert_eq!(quiet_quartile(vec![9.0, 7.0, 8.0, 10.0]), 7.0);
    assert_eq!(quiet_quartile(vec![5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
    assert_eq!(quiet_quartile((1..=8).map(f64::from).collect()), 2.0);
}

#[test]
fn same_seed_same_script_other_seed_other_script() {
    let take = |seed| {
        RequestScript::new(seed, 16_000, 1280)
            .take(500)
            .collect::<Vec<_>>()
    };
    assert_eq!(take(42), take(42));
    assert_ne!(take(42), take(43));
}

#[test]
fn every_request_is_a_full_span_inside_the_table() {
    for req in RequestScript::new(7, 2000, 1280).take(2000) {
        assert_eq!(req.rows.len(), 1280);
        assert!(req.rows.end <= 2000);
    }
    // A table smaller than the span is asked for whole.
    let req = RequestScript::new(7, 100, 1280).next().unwrap();
    assert_eq!(req.rows, 0..100);
}

#[test]
fn about_one_response_in_fifty_is_verified() {
    let n = RequestScript::new(3, 16_000, 1280)
        .take(5000)
        .filter(|r| r.verify)
        .count();
    assert!((50..=150).contains(&n), "{n} of 5000 sampled");
}
