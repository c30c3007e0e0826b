//! `BENCHMARK.json` at the repo root must describe exactly the metrics
//! and workloads this crate defines. The file keeps one object per line
//! in a fixed key order, so the comparison is textual.

use dsbench::metrics::{END_TO_END, PER_LAYER};
use dsbench::workloads::{workload, NAMES, RUN_SECONDS};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

/// Lines of the array called `key`.
fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{key}\": [")).expect("array present");
    json[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| l.trim().trim_end_matches(','))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let want: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    assert_eq!(section(&manifest(), "end_to_end"), want);
}

#[test]
fn per_layer_metrics_match() {
    let want: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            assert!(d.bound.is_none());
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    assert_eq!(section(&manifest(), "per_layer"), want);
}

#[test]
fn workloads_match() {
    let want: Vec<String> = NAMES
        .iter()
        .map(|name| {
            let w = workload(name, false).expect("named workload exists");
            assert!(w.why.len() <= 200);
            format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
        })
        .collect();
    assert_eq!(section(&manifest(), "workloads"), want);
}

#[test]
fn run_seconds_match() {
    assert!(manifest().contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
}

#[test]
fn setup_has_the_largest_bound() {
    let bound = |name: &str| {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound)
            .expect("metric present")
    };
    for d in END_TO_END {
        assert!(bound(d.name) <= bound("setup_s"));
        assert!(bound(d.name) <= 0.25);
    }
}
