//! `dsbench` command line.
//!
//! * `dsbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!   [--smoke]` — one run in this process. Prints a header, one `metric`
//!   line per metric, `note` lines, and as the last line of stdout one
//!   JSON object (`correct`, `attempted`, `failed`, `metrics`). Exits 1
//!   when an op failed or an output did not verify.
//! * `dsbench [--sets N] [--seed N] [--seconds S] [--smoke]` — every
//!   workload, untraced then traced, one child process per run. With
//!   `--sets 2` the two sets are compared against the metric bounds (the
//!   benchmark's own noise floor) and a disagreement exits non-zero.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use dsbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use dsbench::run::{run, RunArgs};
use dsbench::workloads::{workload, NAMES, RUN_SECONDS};

const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: usize,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 1,
        commit: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--sets" => {
                let v = value()?;
                args.sets = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?;
            }
            "--commit" => args.commit = value()?,
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_number(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |v| format!("{v}"))
}

/// One workload, in this process.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let w = workload(name, args.smoke)
        .ok_or_else(|| format!("unknown workload {name} (one of {})", NAMES.join(", ")))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    });
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# dsbench workload={name} commit={} seed={} seconds={seconds} trace={} smoke={} \
         host_threads={host_threads} ds_threads={} simd_kernel={} rows={}",
        args.commit,
        args.seed,
        u8::from(args.trace),
        args.smoke,
        ds_exec::effective_threads(),
        ds_simd::active().name(),
        w.rows,
    );
    let run_args = RunArgs {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: out_dir(),
    };
    let outcome = run(&w, &run_args)?;
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.ordered(defs)?;
    for (def, m) in &metrics {
        let median = m
            .plain_median
            .map_or(String::new(), |v| format!(" median={v:.4}"));
        let high = m
            .high
            .map_or(String::new(), |(p, v)| format!(" p{p}={v:.4}"));
        println!(
            "metric {} {} {} n={}{median}{high}",
            def.name,
            json_number(m.value),
            def.unit,
            m.n
        );
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    let correct = outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(m.value),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// `(workload, metric) → value` of one set.
type SetValues = BTreeMap<(String, String), f64>;

/// Runs one workload in a child process, echoing its output and
/// collecting its `metric` lines.
fn child(name: &str, trace: bool, args: &Args, into: &mut SetValues) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--commit", &args.commit])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child: {e}"))?;
        println!("{line}");
        let mut words = line.split_whitespace();
        if let (Some("metric"), Some(metric), Some(value)) =
            (words.next(), words.next(), words.next())
        {
            if let Ok(v) = value.parse() {
                into.insert((name.to_owned(), metric.to_owned()), v);
            }
        }
    }
    let status = proc.wait().map_err(|e| format!("wait: {e}"))?;
    Ok(status.success())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Every workload, `sets` times over; compares the first two sets.
fn all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<SetValues> = Vec::new();
    for set in 0..args.sets {
        println!("# set {} of {}", set + 1, args.sets);
        let mut values = SetValues::new();
        for name in NAMES {
            for trace in [false, true] {
                ok &= child(name, trace, args, &mut values)?;
            }
        }
        sets.push(values);
    }
    if let [a, b, ..] = sets.as_slice() {
        println!(
            "# noise floor: set 2 against set 1, worsening in either direction next to the bound"
        );
        for name in NAMES {
            for def in END_TO_END {
                let key = (name.to_owned(), def.name.to_owned());
                let (Some(&va), Some(&vb)) = (a.get(&key), b.get(&key)) else {
                    continue;
                };
                let diff = worsening(def, va, vb)
                    .abs()
                    .max(worsening(def, vb, va).abs());
                let bound = def.bound.expect("end-to-end metrics carry a bound");
                let verdict = if diff <= bound { "ok" } else { "DISAGREE" };
                ok &= diff <= bound;
                println!(
                    "noise {name} {} {va} {vb} diff={diff:.4} bound={bound} {verdict}",
                    def.name
                );
            }
        }
    }
    println!("# dsbench {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsbench: {e}");
            ExitCode::from(2)
        }
    }
}
