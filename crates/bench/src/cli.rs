//! Shared strict command-line parsing for the corpus binaries.
//!
//! `batch_corpus`, `delin_serve`, and `delin_loadgen` all take the same
//! shape of command line — boolean flags plus `--name VALUE` pairs — and
//! all promise the same contract: an unknown flag, a flag missing its
//! value, or a numeric flag with a non-numeric value is rejected up front
//! with the usage string and exit code [`BAD_USAGE`], before any work (or
//! any daemon socket) is touched. The contract used to
//! be copy-pasted per binary; this module is the single implementation.
//!
//! The parsing core is pure (`Result`-returning, no process exit), so the
//! exit-code policy is testable without spawning processes; the `*_or_exit`
//! wrappers are the only functions that terminate.

use std::fmt;

/// Exit code for a malformed command line (the sysexits `EX_USAGE`
/// convention every corpus binary follows).
pub const BAD_USAGE: i32 = 2;

/// A command-line rejection: what was wrong, phrased for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description (without the program-name prefix).
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// One binary's parsed-on-demand command line.
#[derive(Debug, Clone)]
pub struct Cli {
    prog: &'static str,
    usage: &'static str,
    args: Vec<String>,
}

impl Cli {
    /// Captures the process arguments (without the program name).
    pub fn from_env(prog: &'static str, usage: &'static str) -> Cli {
        Cli::new(prog, usage, std::env::args().skip(1).collect())
    }

    /// Builds from an explicit argument vector (the testable entry point).
    pub fn new(prog: &'static str, usage: &'static str, args: Vec<String>) -> Cli {
        Cli { prog, usage, args }
    }

    /// Checks every token is a known boolean flag or a known valued flag
    /// followed by its value.
    pub fn validate(&self, flags: &[&str], valued: &[&str]) -> Result<(), CliError> {
        let mut i = 0;
        while i < self.args.len() {
            let arg = self.args[i].as_str();
            if flags.contains(&arg) {
                i += 1;
                continue;
            }
            if !valued.contains(&arg) {
                return Err(CliError { message: format!("unknown argument {arg:?}") });
            }
            if self.args.get(i + 1).is_none() {
                return Err(CliError { message: format!("{arg} needs a value") });
            }
            i += 2;
        }
        Ok(())
    }

    /// The value after `name`, if the flag is present at all.
    pub fn string(&self, name: &str) -> Option<String> {
        self.args.iter().position(|a| a == name).and_then(|i| self.args.get(i + 1)).cloned()
    }

    /// Whether the boolean flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value after `name` parsed as a count. Strict: a present flag
    /// whose value does not parse is an error, never a silent default.
    pub fn count(&self, name: &str) -> Result<Option<usize>, CliError> {
        let Some(value) = self.string(name) else { return Ok(None) };
        value
            .parse()
            .map(Some)
            .map_err(|_| CliError { message: format!("{name} needs a number, got {value:?}") })
    }

    /// Reports `err` the way every corpus binary does — `prog: message`,
    /// then usage — and exits with [`BAD_USAGE`].
    pub fn exit_usage(&self, err: &CliError) -> ! {
        eprintln!("{}: {}", self.prog, err);
        eprintln!("{}", self.usage);
        std::process::exit(BAD_USAGE);
    }

    /// [`Cli::validate`], exiting with [`BAD_USAGE`] on rejection.
    pub fn validate_or_exit(&self, flags: &[&str], valued: &[&str]) {
        if let Err(e) = self.validate(flags, valued) {
            self.exit_usage(&e);
        }
    }

    /// [`Cli::count`], exiting with [`BAD_USAGE`] on a malformed value.
    pub fn count_or_exit(&self, name: &str) -> Option<usize> {
        match self.count(name) {
            Ok(v) => v,
            Err(e) => self.exit_usage(&e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::new("t", "usage: t", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn bad_usage_is_exit_code_two() {
        // The corpus binaries' documented contract; ci.sh asserts the live
        // processes agree.
        assert_eq!(BAD_USAGE, 2);
    }

    #[test]
    fn malformed_counts_are_rejected_not_defaulted() {
        let c = cli(&["--workers", "four"]);
        let err = c.count("--workers").unwrap_err();
        assert!(err.message.contains("--workers"), "{err}");
        assert!(err.message.contains("four"), "{err}");
        // Absent flags are fine; present well-formed flags parse.
        assert_eq!(cli(&[]).count("--workers").unwrap(), None);
        assert_eq!(cli(&["--workers", "4"]).count("--workers").unwrap(), Some(4));
    }

    #[test]
    fn validate_rejects_unknown_flags_and_missing_values() {
        let flags = ["--verify"];
        let valued = ["--workers"];
        assert!(cli(&["--verify", "--workers", "2"]).validate(&flags, &valued).is_ok());
        let unknown = cli(&["--wrokers", "2"]).validate(&flags, &valued).unwrap_err();
        assert!(unknown.message.contains("--wrokers"), "{unknown}");
        let missing = cli(&["--workers"]).validate(&flags, &valued).unwrap_err();
        assert!(missing.message.contains("needs a value"), "{missing}");
    }

    #[test]
    fn a_flag_can_swallow_the_next_token_but_count_stays_strict() {
        // `--workers --verify` passes shape validation (the value slot is
        // filled) but the numeric parse still rejects it — matching the
        // historical per-binary behavior.
        let c = cli(&["--workers", "--verify"]);
        assert!(c.validate(&["--verify"], &["--workers"]).is_ok());
        assert!(c.count("--workers").is_err());
    }
}
