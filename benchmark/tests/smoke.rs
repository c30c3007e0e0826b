//! A smoke run of every workload, untraced and traced, through the real
//! binary: every named metric comes back with its unit and a finite
//! value (or an explicit `null`), and nothing fails verification.

use std::process::Command;

use dsbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use dsbench::workloads::NAMES;

/// The text after `"<name>": {"value": ` up to the closing brace.
fn metric_body<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let end = line[start..].find('}').expect("object closes") + start;
    &line[start..end]
}

fn check(name: &str, trace: bool, defs: &[MetricDef]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsbench"))
        .args(["--workload", name, "--smoke", "--seed", "5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("dsbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{name} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    for d in defs {
        let body = metric_body(last, d.name);
        let (value, unit) = body.split_once(", \"unit\": ").expect("value then unit");
        assert_eq!(unit, format!("\"{}\"", d.unit), "{}", d.name);
        if value != "null" {
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("{}: {value}", d.name));
            assert!(v.is_finite(), "{}: {v}", d.name);
        }
    }
    if trace {
        let path = format!("{}/out/{name}.trace.jsonl", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        assert!(trace.lines().any(|l| l.contains("\"name\":\"compress\"")));
        assert!(trace.lines().any(|l| l.contains("\"name\":\"get\"")));
    }
}

#[test]
fn smoke_runs_emit_every_metric() {
    for name in NAMES {
        check(name, false, END_TO_END);
        check(name, true, PER_LAYER);
    }
}
