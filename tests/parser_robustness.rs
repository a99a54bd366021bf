//! The frontends never panic on mutated source.
//!
//! Each case takes one seed program — a size-reduced RiCEPS program, a
//! generated nest, a refinement unit, or the paper's C pointer loop — and
//! applies one mutation: delete a byte, insert or overwrite one with a
//! byte of the Fortran token alphabet, or duplicate a short span. Both
//! frontends (`parse_program`, `translate_c`) must return, with a program
//! or an error, and every mutant that parses must run through the whole
//! pipeline. A panic found here is fixed in the frontend, never filtered
//! out of the mutations.

use delinearization::corpus::stream::{generated_units, refinement_units, riceps_units};
use delinearization::dep::budget::BudgetSpec;
use delinearization::frontend::cfront::translate_c;
use delinearization::frontend::parse_program;
use delinearization::vic::deps::EngineConfig;
use delinearization::vic::pipeline::{run_pipeline, PipelineConfig};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The paper's C pointer loop (Section 1).
const C_POINTER_LOOP: &str = "
    float d[100];
    float *i, *j;
    for (j = d; j <= d + 90; j += 10)
      for (i = j; i < j + 5; i++)
        *i = *(i + 5);
";

/// Bytes the Fortran lexer gives meaning to, plus the blanks and line
/// breaks that separate them.
const ALPHABET: &[u8] = b"ACDEIJKLNQRX0123456789+-*/=(),:!_ \n";

fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        riceps_units(Some(60))
            .chain(generated_units(8, 11))
            .chain(refinement_units(4, 11))
            .map(|unit| unit.source)
            .chain([C_POINTER_LOOP.to_string()])
            .collect()
    })
}

/// A node budget that keeps a mutant with huge loop bounds from searching
/// for long.
fn config() -> PipelineConfig {
    let engine = EngineConfig { budget: BudgetSpec::nodes_only(100_000), ..Default::default() };
    PipelineConfig { engine, ..PipelineConfig::default() }
}

fn mutate(src: &str, kind: usize, pos: usize, byte: u8, span: usize) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let pos = pos % (bytes.len() + 1);
    match kind {
        0 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        1 => bytes.insert(pos, byte),
        2 if pos < bytes.len() => bytes[pos] = byte,
        _ => {
            let end = (pos + span).min(bytes.len());
            let copy = bytes[pos..end].to_vec();
            bytes.splice(end..end, copy);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #[test]
    fn mutated_sources_never_panic_the_frontends(
        seed in 0usize..seeds().len(),
        kind in 0usize..4,
        pos in 0usize..1 << 20,
        byte in 0usize..ALPHABET.len(),
        span in 1usize..=8,
    ) {
        let src = mutate(&seeds()[seed], kind, pos, ALPHABET[byte], span);
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_program(&src)));
        prop_assert!(parsed.is_ok(), "parse_program panicked on:\n{src}");
        let translated = catch_unwind(AssertUnwindSafe(|| translate_c(&src).is_ok()));
        prop_assert!(translated.is_ok(), "translate_c panicked on:\n{src}");
        if matches!(parsed, Ok(Ok(_))) {
            let ran = catch_unwind(AssertUnwindSafe(|| run_pipeline(&src, &config()).is_ok()));
            prop_assert!(ran.is_ok(), "run_pipeline panicked on:\n{src}");
        }
    }
}
