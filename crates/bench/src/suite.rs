//! Config-driven corpus suites (`benchmarks/<suite>/config.json`).
//!
//! A suite names a corpus declaratively: which unit streams, at what sizes
//! and seeds. `batch_corpus --suite` loads a suite instead of the
//! hardcoded workloads (and `--suite PATH --record FILE` freezes it into a
//! trace), so growing a corpus is a config edit reviewed like one, not a
//! code change.
//!
//! The format is the workspace's hand-rolled strict JSON
//! (`delin_vic::json` — no serde): a `delin-suite` schema marker, an
//! optional `name` and `description`, and a `streams` array of generator
//! invocations. Unknown keys (top-level or inside a stream), unknown
//! stream kinds, missing fields, and non-integer sizes are structured load
//! errors naming the offending key or field, never defaults — a suite that
//! CI gates on must not silently shrink or grow because of a typo.

use delin_corpus::stream::{dense_units, generated_units, refinement_units, riceps_units};
use delin_vic::batch::BatchUnit;
use delin_vic::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The `schema` marker every suite config must carry.
pub const SUITE_SCHEMA: &str = "delin-suite";

/// The top-level keys a suite config may carry.
const SUITE_KEYS: [&str; 4] = ["schema", "name", "description", "streams"];

/// One generator invocation inside a suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamSpec {
    /// The eight synthetic RiCEPS programs, optionally size-reduced.
    Riceps {
        /// Approximate lines per program; `None` = the paper's full sizes.
        lines: Option<usize>,
    },
    /// The mixed generated workload (`delin_corpus::stream::generated_units`).
    Generated {
        /// Unit count.
        units: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The refinement-heavy workload.
    Refinement {
        /// Unit count.
        units: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The pair-dense workload that scales full runs to millions of pairs.
    Dense {
        /// Unit count.
        units: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl StreamSpec {
    /// The stream as a lazy unit iterator.
    pub fn units(&self) -> Box<dyn Iterator<Item = BatchUnit> + Send> {
        match *self {
            StreamSpec::Riceps { lines } => Box::new(riceps_units(lines)),
            StreamSpec::Generated { units, seed } => Box::new(generated_units(units, seed)),
            StreamSpec::Refinement { units, seed } => Box::new(refinement_units(units, seed)),
            StreamSpec::Dense { units, seed } => Box::new(dense_units(units, seed)),
        }
    }

    /// How many units the stream will yield (RiCEPS is the fixed suite of
    /// eight).
    pub fn declared_units(&self) -> usize {
        match *self {
            StreamSpec::Riceps { .. } => 8,
            StreamSpec::Generated { units, .. }
            | StreamSpec::Refinement { units, .. }
            | StreamSpec::Dense { units, .. } => units,
        }
    }
}

/// One loaded suite config.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Suite name from the config (falls back to the directory name).
    pub name: String,
    /// Where the config was loaded from.
    pub path: PathBuf,
    /// The corpus, as an ordered list of generator invocations.
    pub streams: Vec<StreamSpec>,
}

impl SuiteConfig {
    /// Loads and validates `path`.
    pub fn load(path: &Path) -> Result<SuiteConfig, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SuiteConfig::parse(path, &text)
    }

    /// Parses a config text (exposed for tests; `path` is recorded and
    /// used as the name fallback).
    pub fn parse(path: &Path, text: &str) -> Result<SuiteConfig, String> {
        let at = |field: &str| format!("{}: {field}", path.display());
        let root = json::parse(text).map_err(|e| format!("{}: {e}", path.display()))?;
        let obj = root.as_obj().ok_or_else(|| at("config must be a JSON object"))?;
        only_keys(obj, &SUITE_KEYS).map_err(|e| at(&e))?;
        let schema = obj.get("schema").and_then(Json::as_str).unwrap_or_default();
        if schema != SUITE_SCHEMA {
            return Err(at(&format!("schema must be \"{SUITE_SCHEMA}\", got {schema:?}")));
        }
        let name = match obj.get("name").and_then(Json::as_str) {
            Some(n) => n.to_string(),
            None => path
                .parent()
                .and_then(|p| p.file_name())
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "suite".into()),
        };
        let Some(Json::Arr(raw_streams)) = obj.get("streams") else {
            return Err(at("\"streams\" must be an array"));
        };
        if raw_streams.is_empty() {
            return Err(at("\"streams\" must not be empty"));
        }
        let mut streams = Vec::with_capacity(raw_streams.len());
        for (i, raw) in raw_streams.iter().enumerate() {
            streams.push(parse_stream(raw).map_err(|e| at(&format!("streams[{i}]: {e}")))?);
        }
        Ok(SuiteConfig { name, path: path.to_path_buf(), streams })
    }

    /// The whole corpus as one lazy stream, in config order.
    pub fn units(&self) -> Box<dyn Iterator<Item = BatchUnit> + Send> {
        let mut chained: Box<dyn Iterator<Item = BatchUnit> + Send> = Box::new(std::iter::empty());
        for stream in &self.streams {
            chained = Box::new(chained.chain(stream.units()));
        }
        chained
    }

    /// How many units the suite declares across all streams.
    pub fn declared_units(&self) -> usize {
        self.streams.iter().map(StreamSpec::declared_units).sum()
    }
}

/// Rejects the first key of `obj` outside `allowed`, naming it.
fn only_keys(obj: &BTreeMap<String, Json>, allowed: &[&str]) -> Result<(), String> {
    match obj.keys().find(|k| !allowed.contains(&k.as_str())) {
        Some(key) => Err(format!("unknown key {key:?}")),
        None => Ok(()),
    }
}

fn field_usize(obj: &BTreeMap<String, Json>, name: &str) -> Result<usize, String> {
    obj.get(name)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("\"{name}\" must be a non-negative integer"))
}

fn field_u64(obj: &BTreeMap<String, Json>, name: &str) -> Result<u64, String> {
    obj.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("\"{name}\" must be a non-negative integer"))
}

fn parse_stream(raw: &Json) -> Result<StreamSpec, String> {
    let obj = raw.as_obj().ok_or("stream must be an object")?;
    let kind = obj.get("kind").and_then(Json::as_str).ok_or("\"kind\" must be a string")?;
    only_keys(obj, if kind == "riceps" { &["kind", "lines"] } else { &["kind", "units", "seed"] })?;
    match kind {
        "riceps" => {
            let lines = match obj.get("lines") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    Some(v.as_u64().ok_or("\"lines\" must be a non-negative integer or null")?
                        as usize)
                }
            };
            Ok(StreamSpec::Riceps { lines })
        }
        "generated" => Ok(StreamSpec::Generated {
            units: field_usize(obj, "units")?,
            seed: field_u64(obj, "seed")?,
        }),
        "refinement" => Ok(StreamSpec::Refinement {
            units: field_usize(obj, "units")?,
            seed: field_u64(obj, "seed")?,
        }),
        "dense" => Ok(StreamSpec::Dense {
            units: field_usize(obj, "units")?,
            seed: field_u64(obj, "seed")?,
        }),
        other => Err(format!("unknown stream kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<SuiteConfig, String> {
        SuiteConfig::parse(Path::new("benchmarks/t/config.json"), text)
    }

    #[test]
    fn a_full_config_round_trips() {
        let suite = parse(
            r#"{
                "schema": "delin-suite",
                "name": "demo",
                "description": "every stream kind once",
                "streams": [
                    {"kind": "riceps", "lines": 120},
                    {"kind": "generated", "units": 3, "seed": 7},
                    {"kind": "refinement", "units": 2, "seed": 7},
                    {"kind": "dense", "units": 2, "seed": 9}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(suite.name, "demo");
        assert_eq!(suite.streams.len(), 4);
        assert_eq!(suite.declared_units(), 8 + 3 + 2 + 2);
        let units: Vec<BatchUnit> = suite.units().collect();
        assert_eq!(units.len(), suite.declared_units());
        // Config order is corpus order.
        assert!(units[0].name.starts_with("riceps/"));
        assert!(units.last().unwrap().name.starts_with("dense/"));
    }

    #[test]
    fn name_falls_back_to_the_directory() {
        let suite = parse(r#"{"schema": "delin-suite", "streams": [{"kind": "riceps"}]}"#).unwrap();
        assert_eq!(suite.name, "t");
        assert_eq!(suite.streams, vec![StreamSpec::Riceps { lines: None }]);
    }

    #[test]
    fn structured_errors_name_the_offending_field() {
        let wrong_schema = parse(r#"{"schema": "delin-bench", "streams": []}"#).unwrap_err();
        assert!(wrong_schema.contains("delin-suite"), "{wrong_schema}");

        let unknown_kind =
            parse(r#"{"schema": "delin-suite", "streams": [{"kind": "fortran"}]}"#).unwrap_err();
        assert!(unknown_kind.contains("streams[0]"), "{unknown_kind}");
        assert!(unknown_kind.contains("fortran"), "{unknown_kind}");

        let bad_units = parse(
            r#"{"schema": "delin-suite", "streams": [{"kind": "dense", "units": -4, "seed": 1}]}"#,
        )
        .unwrap_err();
        assert!(bad_units.contains("units"), "{bad_units}");

        // A typo or a retired key is an error naming it, not an ignored key.
        for key in ["stream", "sample", "tolerance_pct"] {
            let text = format!(
                r#"{{"schema": "delin-suite", "streams": [{{"kind": "riceps"}}], "{key}": 1}}"#
            );
            let unknown_key = parse(&text).unwrap_err();
            assert!(unknown_key.contains(&format!("unknown key \"{key}\"")), "{unknown_key}");
        }
        // Inside a stream too: a misspelled `lines` must not load the
        // full-size programs.
        let stream_typo =
            parse(r#"{"schema": "delin-suite", "streams": [{"kind": "riceps", "line": 120}]}"#)
                .unwrap_err();
        assert!(stream_typo.contains("streams[0]: unknown key \"line\""), "{stream_typo}");

        let empty = parse(r#"{"schema": "delin-suite", "streams": []}"#).unwrap_err();
        assert!(empty.contains("must not be empty"), "{empty}");

        let garbage = parse("not json").unwrap_err();
        assert!(garbage.contains("config.json"), "{garbage}");
    }
}
