//! Record, replay, and inspect dependence-corpus traces.
//!
//! Subcommands:
//!
//! * `record --out PATH [--suite PATH]` — stream a suite's corpus into a
//!   trace file (default suite: `benchmarks/ci/config.json`). The file is
//!   written atomically; the unit count and byte size are reported.
//! * `replay --trace PATH [--workers N]` — stream a recorded trace through
//!   the batch engine and print the standard corpus report. A truncated,
//!   corrupt, or malformed trace fails with the structured error and exit
//!   code 1 *after* the valid prefix was analyzed — the report for the
//!   trusted prefix still prints, but the run does not pass.
//! * `replay --suite PATH [--workers N]` / `replay --full` — synthesize
//!   the suite's corpus and stream every unit through the trace codec
//!   (encode → frame → decode) on its way into the batch engine, which
//!   exercises the format at full-corpus scale without staging a
//!   multi-hundred-megabyte file. `--full` is shorthand for the
//!   multi-million-pair suite at `benchmarks/full/config.json`.
//! * `info --trace PATH` — validate every record and summarize the file.
//!
//! Every replay ends with a machine-greppable summary line:
//! `trace-replay: units=U pairs=P wall_ms=W source=...`.

use delin_bench::cli::Cli;
use delin_bench::suite::SuiteConfig;
use delin_corpus::trace;
use delin_vic::batch::{BatchConfig, BatchRunner, BatchUnit};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: delin_trace <record|replay|info> [options]\n\
  record --out PATH [--suite PATH]\n\
  replay (--trace PATH | --suite PATH | --full) [--workers N]\n\
  info   --trace PATH";

const FULL_SUITE: &str = "benchmarks/full/config.json";
const DEFAULT_RECORD_SUITE: &str = "benchmarks/ci/config.json";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() { String::new() } else { args.remove(0) };
    let cli = Cli::new("delin_trace", USAGE, args);
    match command.as_str() {
        "record" => record(&cli),
        "replay" => replay(&cli),
        "info" => info(&cli),
        other => {
            eprintln!("delin_trace: unknown command {other:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn load_suite(path: &Path) -> SuiteConfig {
    match SuiteConfig::load(path) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("delin_trace: {e}");
            std::process::exit(1);
        }
    }
}

fn record(cli: &Cli) {
    cli.validate_or_exit(&[], &["--out", "--suite"]);
    let Some(out) = cli.string("--out") else {
        eprintln!("delin_trace: record needs --out PATH");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let suite_path = PathBuf::from(cli.string("--suite").unwrap_or(DEFAULT_RECORD_SUITE.into()));
    let suite = load_suite(&suite_path);
    let out = PathBuf::from(out);
    let started = Instant::now();
    match trace::record(&out, suite.units()) {
        Ok(written) => {
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {written} units ({bytes} bytes) from suite {} to {} in {:.1} ms",
                suite.name,
                out.display(),
                started.elapsed().as_secs_f64() * 1.0e3
            );
        }
        Err(e) => {
            eprintln!("delin_trace: cannot record {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// One unit pushed through the full codec path: encode, frame, verify the
/// frame, decode. This is what a file round-trip does per record, minus the
/// disk — so a suite replay exercises the format at corpus scale in
/// constant memory.
fn codec_roundtrip(unit: BatchUnit) -> BatchUnit {
    let mut frame = Vec::new();
    trace::frame_unit(&mut frame, &unit);
    let decoded = trace::decode_unit(&frame[12..]).unwrap_or_else(|| {
        eprintln!("delin_trace: codec round-trip failed for unit {:?}", unit.name);
        std::process::exit(1);
    });
    assert_eq!(decoded.name, unit.name, "codec must preserve the unit name");
    decoded
}

fn replay(cli: &Cli) {
    cli.validate_or_exit(&["--full"], &["--trace", "--suite", "--workers"]);
    let workers = cli.count_or_exit("--workers").unwrap_or_else(delin_vic::batch::workers_from_env);
    let config = BatchConfig { workers, ..BatchConfig::default() };
    let trace_path = cli.string("--trace").map(PathBuf::from);
    let suite_path = match (&trace_path, cli.string("--suite"), cli.flag("--full")) {
        (Some(_), None, false) => None,
        (None, Some(p), _) => Some(PathBuf::from(p)),
        (None, None, true) => Some(PathBuf::from(FULL_SUITE)),
        _ => {
            eprintln!(
                "delin_trace: replay needs exactly one of --trace PATH, --suite PATH, --full"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let (stats, source) = match (&trace_path, &suite_path) {
        (Some(path), _) => {
            let mut reader = trace::TraceReader::open(path).unwrap_or_else(|e| {
                eprintln!("delin_trace: {}: {e}", path.display());
                std::process::exit(1);
            });
            let stats = BatchRunner::new(config).run(&mut reader);
            let decoded = reader.decoded();
            if let Err(e) = reader.finish() {
                print!("{}", stats.render());
                eprintln!(
                    "delin_trace: {}: {e} ({decoded} valid records analyzed above)",
                    path.display()
                );
                std::process::exit(1);
            }
            (stats, format!("trace:{}", path.display()))
        }
        (None, Some(path)) => {
            let suite = load_suite(path);
            let stats = BatchRunner::new(config).run(suite.units().map(codec_roundtrip));
            (stats, format!("suite:{}", suite.name))
        }
        (None, None) => unreachable!("validated above"),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1.0e3;
    print!("{}", stats.render());
    println!();
    println!(
        "trace-replay: units={} pairs={} wall_ms={wall_ms:.1} source={source}",
        stats.unit_count,
        stats.totals.verdict_stats().pairs_tested
    );
}

fn info(cli: &Cli) {
    cli.validate_or_exit(&[], &["--trace"]);
    let Some(path) = cli.string("--trace") else {
        eprintln!("delin_trace: info needs --trace PATH");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match trace::info(Path::new(&path)) {
        Ok(summary) => {
            println!("trace:          {}", summary.path.display());
            println!("format version: {}", summary.version);
            println!("file bytes:     {}", summary.bytes);
            println!("units:          {}", summary.units);
            println!("source bytes:   {}", summary.source_bytes);
            println!("symbolic units: {}", summary.symbolic_units);
        }
        Err(e) => {
            eprintln!("delin_trace: {path}: {e}");
            std::process::exit(1);
        }
    }
}
