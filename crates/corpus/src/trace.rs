//! Corpus traces: unit streams frozen into record files.
//!
//! A *trace* captures a [`BatchUnit`] stream — the exact corpus a bench or
//! CI run analyzed — as a versioned, checksummed record file, so the same
//! workload replays byte-identically later (and elsewhere) without
//! regenerating it from generator code that may since have changed.
//! `batch_corpus --record PATH` writes one from any corpus it can run, and
//! `batch_corpus --trace PATH` runs one; perfbench records and replays its
//! workloads through [`record`] and [`read_all`].
//!
//! # Format
//!
//! A `delin_vic::recfile` file, the framing the persistent verdict-cache
//! tier (`delin_vic::persist`) shares:
//!
//! ```text
//! magic    b"DELINTR\x01"                      8 bytes
//! version  u32 LE                              format revision (1)
//! record*  u32 len · u64 checksum · payload    until end of file
//! ```
//!
//! This module owns only the payload codec: one record per unit, packing
//! its name, mini-FORTRAN source, and assumption environment (default
//! lower bound, then the per-symbol bounds). Truncation, bit flips, and
//! malformed payloads are all detected **at the first bad record**, and
//! [`read_all`] fails with a [`TraceError`] naming its index: a run that
//! silently analyzed a shortened corpus would report wrong numbers as if
//! they were the recorded workload's.
//!
//! Unlike the verdict-cache tier, traces carry no fingerprints — only plain
//! bytes — so a trace written by one build replays under any other build of
//! the same format version.

use delin_numeric::Assumptions;
use delin_vic::batch::BatchUnit;
use delin_vic::recfile::{self, Cursor, Header, Payload, RecordReader};
use std::path::Path;

/// A structured trace failure; every record-level variant names the index
/// of the first untrusted record.
pub use delin_vic::recfile::RecordError as TraceError;

/// The trace header: "DELINTR" plus a format byte, revision 1.
const HEADER: Header<'static> = Header { magic: b"DELINTR\x01", version: 1, stamp: &[] };

fn encode(p: &mut Payload, unit: &BatchUnit) {
    p.blob(unit.name.as_bytes());
    p.blob(unit.source.as_bytes());
    p.i128(unit.assumptions.default_lower_bound());
    p.u32(unit.assumptions.len() as u32);
    for (sym, lb) in unit.assumptions.iter() {
        p.blob(sym.name().as_bytes());
        p.i128(lb);
    }
}

fn decode(r: &mut Cursor<'_>) -> Option<BatchUnit> {
    let name = r.str()?.to_owned();
    let source = r.str()?.to_owned();
    let default_lb = r.i128()?;
    let mut assumptions = if default_lb == 0 {
        Assumptions::new()
    } else {
        Assumptions::with_default_lower_bound(default_lb)
    };
    for _ in 0..r.u32()? {
        let sym = r.str()?;
        assumptions.set_lower_bound(sym, r.i128()?);
    }
    Some(BatchUnit::new(name, source).with_assumptions(assumptions))
}

/// Records every unit of `units` to `path` (written atomically via a
/// sibling temporary file) and returns the record count. Units stream
/// straight to the file, so a corpus of any size records in constant
/// memory.
pub fn record<I>(path: &Path, units: I) -> std::io::Result<usize>
where
    I: IntoIterator<Item = BatchUnit>,
{
    recfile::write_file(path, &HEADER, |w| {
        for unit in units {
            w.record(|p| encode(p, &unit))?;
        }
        Ok(())
    })
}

/// Reads a whole trace into memory, failing on the first invalid record.
pub fn read_all(path: &Path) -> Result<Vec<BatchUnit>, TraceError> {
    let mut reader = RecordReader::open(path, &HEADER)?;
    let mut units = Vec::new();
    while let Some(unit) = reader.next_with(decode)? {
        units.push(unit);
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(unit: &BatchUnit) -> Option<BatchUnit> {
        let mut p = Payload::default();
        encode(&mut p, unit);
        let mut r = Cursor::new(p.as_bytes());
        decode(&mut r).filter(|_| r.at_end())
    }

    #[test]
    fn unit_codec_round_trips() {
        for i in 0..4 {
            let mut assumptions = Assumptions::new();
            if i % 2 == 1 {
                assumptions.set_lower_bound("NX", 1 + i as i128);
            }
            let u = BatchUnit::new(
                format!("t/{i:03}"),
                format!("REAL W(0:99)\nDO 1 I = 0, 9\n1 W(I + {i}) = W(I)\nEND\n"),
            )
            .with_assumptions(assumptions);
            let decoded = round_trip(&u).expect("decodes");
            assert_eq!(decoded.name, u.name);
            assert_eq!(decoded.source, u.source);
            assert_eq!(decoded.assumptions, u.assumptions);
        }
    }

    #[test]
    fn default_lower_bound_survives_the_codec() {
        let u =
            BatchUnit::new("d", "END\n").with_assumptions(Assumptions::with_default_lower_bound(3));
        assert_eq!(round_trip(&u).unwrap().assumptions.default_lower_bound(), 3);
    }
}
