//! `ds-lint` CLI.
//!
//! ```text
//! ds-lint [--root DIR] [--config FILE] [--list-rules]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage/config/io error.

use std::path::PathBuf;
use std::process::ExitCode;

use ds_lint::config::Config;
use ds_lint::{lint_root, rules};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root requires a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config requires a file")?));
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                println!("usage: ds-lint [--root DIR] [--config FILE] [--list-rules]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ds-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (name, desc) in rules::RULES {
            println!("{name:28} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ds-lint: reading {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ds-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let (scanned, findings) = match lint_root(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ds-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    let status = if findings.is_empty() {
        "clean"
    } else {
        "FAILED"
    };
    println!(
        "ds-lint: {} file(s) scanned, {} finding(s) — {status}",
        scanned,
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
