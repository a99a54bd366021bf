//! The corpus binaries' shared command-line contract, pinned at the
//! process level: a malformed numeric value, an unknown flag, or a flag
//! missing its value exits with code 2 (`delin_bench::cli::BAD_USAGE`)
//! before any work starts, and says why on stderr.
//!
//! The parsing logic itself is unit-tested in `delin_bench::cli`; this
//! suite proves all three binaries actually route their arguments through
//! it (the historical bug class was a copy-pasted parser drifting in one
//! binary only).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(bin).args(args).output().expect("binary spawns");
    let code = output.status.code().expect("binary exits normally");
    (code, String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn malformed_counts_exit_two_in_every_binary() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_batch_corpus"), &["--workers", "four"]),
        (env!("CARGO_BIN_EXE_delin_serve"), &["--cache-cap", "many"]),
        (env!("CARGO_BIN_EXE_delin_loadgen"), &["--clients", "x", "--socket", "/none"]),
    ];
    for (bin, args) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{bin} {args:?} must exit 2, stderr:\n{stderr}");
        assert!(stderr.contains("needs a number"), "{bin}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} must print usage: {stderr}");
    }
}

#[test]
fn unknown_flags_and_missing_values_exit_two() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_batch_corpus"), &["--wrokers", "2"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--wrokers"), "{stderr}");

    // The retired sampler and trajectory flags are unknown flags now.
    let retired: &[&[&str]] = &[
        &["--sampled"],
        &["--sampled-check"],
        &["--trajectory"],
        &["--bench-out", "x"],
        &["--label", "x"],
    ];
    for args in retired {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_batch_corpus"), args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }

    let (code, stderr) = run(env!("CARGO_BIN_EXE_delin_serve"), &["--workers"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("needs a value"), "{stderr}");

    // A corpus comes from at most one of a suite and a trace.
    let (code, stderr) = run(env!("CARGO_BIN_EXE_batch_corpus"), &["--trace"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--trace needs a value"), "{stderr}");
    let (code, stderr) =
        run(env!("CARGO_BIN_EXE_batch_corpus"), &["--trace", "t.bin", "--suite", "s.json"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}
