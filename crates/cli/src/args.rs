//! Tiny dependency-free argument parser: one subcommand, positional
//! arguments, `--flag value` pairs, and boolean `--switch`es.

use std::collections::BTreeMap;
use std::fmt;

/// Argument-parsing failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` appeared with no value.
    MissingValue(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
        }
    }
}

/// Known boolean switches (everything else taking `--x` consumes a value).
const SWITCHES: &[&str] = &["tune", "quiet", "stats"];

/// Parsed command line.
#[derive(Debug)]
pub struct Parsed {
    /// The subcommand.
    pub command: String,
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    /// Flag and switch names the command asked about.
    consumed: Vec<String>,
}

impl Parsed {
    /// Splits `argv` into command, positionals, flags, and switches.
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        let mut it = argv.iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let mut positionals = Vec::new();
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    switches.push(name.to_owned());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                    flags.insert(name.to_owned(), value.clone());
                }
            } else {
                positionals.push(arg.clone());
            }
        }
        Ok(Parsed {
            command,
            positionals,
            flags,
            switches,
            consumed: Vec::new(),
        })
    }

    /// Required positional argument at `idx`.
    pub fn positional(&self, idx: usize) -> Result<String, String> {
        self.positionals
            .get(idx)
            .cloned()
            .ok_or_else(|| format!("missing argument #{}", idx + 1))
    }

    /// Typed flag with a default.
    pub fn flag_or<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        self.consumed.push(name.to_owned());
        match self.flags.get(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{name}: `{raw}`")),
            None => Ok(default),
        }
    }

    /// Boolean switch presence.
    pub fn switch(&mut self, name: &str) -> bool {
        self.consumed.push(name.to_owned());
        self.switches.iter().any(|s| s == name)
    }

    /// Rejects flags and switches the command never asked about: typos
    /// like `--erorr`, and switches another command takes (`recompress
    /// --tune`), which would otherwise be silently ignored.
    pub fn finish(&self) -> Result<(), String> {
        let mut given = self.flags.keys().chain(&self.switches);
        match given.find(|name| !self.consumed.contains(name)) {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_positionals_flags_switches() {
        let mut p = Parsed::parse(&argv(&[
            "compress", "in.csv", "out.dsqz", "--error", "0.05", "--tune",
        ]))
        .unwrap();
        assert_eq!(p.command, "compress");
        assert_eq!(p.positional(0).unwrap(), "in.csv");
        assert_eq!(p.positional(1).unwrap(), "out.dsqz");
        assert_eq!(p.flag_or("error", 0.0).unwrap(), 0.05);
        assert!(p.switch("tune"));
        assert!(!p.switch("quiet"));
        assert!(p.finish().is_ok());
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let mut p = Parsed::parse(&argv(&["compress", "a", "b"])).unwrap();
        assert_eq!(p.flag_or("epochs", 120usize).unwrap(), 120);
    }

    #[test]
    fn errors_are_informative() {
        assert_eq!(Parsed::parse(&[]).unwrap_err(), ArgError::MissingCommand);
        let err = Parsed::parse(&argv(&["compress", "--error"])).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("error".into()));
        let p = Parsed::parse(&argv(&["x", "--bogus", "1"])).unwrap();
        assert!(p.finish().unwrap_err().contains("--bogus"));
        // A known switch the command never reads is refused too.
        let mut p = Parsed::parse(&argv(&["x", "--tune", "--quiet"])).unwrap();
        assert!(p.switch("quiet"));
        assert!(p.finish().unwrap_err().contains("--tune"));
        let mut p = Parsed::parse(&argv(&["x", "--error", "abc"])).unwrap();
        assert!(p.flag_or("error", 0.0f64).is_err());
    }

    #[test]
    fn missing_positional_reported() {
        let p = Parsed::parse(&argv(&["inspect"])).unwrap();
        assert!(p.positional(0).unwrap_err().contains("#1"));
    }
}
