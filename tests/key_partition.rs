//! The verdict cache keys on 128-bit structural fingerprints
//! ([`fingerprint_problem`]) and never renders the canonical string key
//! ([`canonicalize`] under [`env_key`]) it stands for. This file checks
//! that the two partition real dependence problems identically, in both
//! directions: two pairs share a fingerprint exactly when they share a
//! canonical key. A fingerprint collision would merge two cache entries
//! (a wrong verdict); a fingerprint that sees more than the key would
//! split one (lost sharing).
//!
//! The problems are the engine's own: every same-array site pair with a
//! write, built by [`pair_problem`] after the pipeline's frontend steps,
//! collected across a whole corpus the way one shared cache sees them.

use delinearization::corpus::stream::{generated_units, refinement_units, riceps_units};
use delinearization::frontend::affine::infer_bound_assumptions;
use delinearization::frontend::induction::substitute_inductions;
use delinearization::frontend::linearize::linearize_aliased;
use delinearization::frontend::{collect_accesses, parse_program, AccessKind};
use delinearization::vic::batch::BatchUnit;
use delinearization::vic::cache::{canonicalize, env_key, fingerprint_problem};
use delinearization::vic::deps::pair_problem;
use proptest::prelude::*;
use std::collections::HashMap;

/// Both directions of the partition, accumulated pair by pair.
#[derive(Default)]
struct Partition {
    key_of: HashMap<u128, String>,
    fp_of: HashMap<String, u128>,
    pairs: usize,
}

impl Partition {
    /// Records one pair's two keys; `Err` names the first disagreement.
    fn add(&mut self, fp: u128, key: String) -> Result<(), String> {
        self.pairs += 1;
        if let Some(seen) = self.key_of.get(&fp) {
            if *seen != key {
                return Err(format!("one fingerprint for two keys:\n  {seen}\n  {key}"));
            }
        }
        if let Some(&seen) = self.fp_of.get(&key) {
            if seen != fp {
                return Err(format!("two fingerprints for one key:\n  {key}"));
            }
        }
        self.key_of.insert(fp, key.clone());
        self.fp_of.insert(key, fp);
        Ok(())
    }

    /// Runs `unit` through the pipeline's frontend (parse, induction
    /// substitution, `EQUIVALENCE` linearization, bound inference) and adds
    /// every pair the engine's worklist would test.
    fn add_unit(&mut self, unit: &BatchUnit) -> Result<(), String> {
        let Ok(mut program) = parse_program(&unit.source) else { return Ok(()) };
        program = substitute_inductions(&program).0;
        for (a, b) in program.equivalences.clone() {
            if let Ok((p, _)) = linearize_aliased(&program, &a, &b) {
                program = p;
            }
        }
        let assumptions = infer_bound_assumptions(&program, &unit.assumptions);
        let sites = collect_accesses(&program, &assumptions);
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i..] {
                if a.array != b.array
                    || (a.kind != AccessKind::Write && b.kind != AccessKind::Write)
                {
                    continue;
                }
                let problem = pair_problem(a, b);
                let fp = fingerprint_problem(&problem, &assumptions);
                let (key, _) = canonicalize(&problem, &env_key(&problem, &assumptions));
                self.add(fp, key).map_err(|e| format!("unit {}: {e}", unit.name))?;
            }
        }
        Ok(())
    }
}

/// The mixed corpus: size-reduced RiCEPS, generated nests (concrete and
/// symbolic environments), refinement-heavy nests.
fn corpus() -> Vec<BatchUnit> {
    riceps_units(Some(120)).chain(generated_units(8, 99)).chain(refinement_units(6, 99)).collect()
}

#[test]
fn fingerprints_and_canonical_keys_partition_the_corpus_alike() {
    let mut partition = Partition::default();
    for unit in corpus() {
        if let Err(e) = partition.add_unit(&unit) {
            panic!("{e}");
        }
    }
    let keys = partition.fp_of.len();
    assert_eq!(partition.key_of.len(), keys);
    // The check only bites if many pairs share keys and many keys exist.
    assert!(keys >= 200, "only {keys} distinct keys");
    assert!(partition.pairs >= 20 * keys, "{} pairs over {keys} keys", partition.pairs);
}

proptest! {
    /// Randomized corpora: any mix of generated and refinement units, any
    /// seed.
    #[test]
    fn random_corpora_partition_alike(
        seed in 0u64..1000,
        gen_count in 1usize..6,
        ref_count in 1usize..6,
    ) {
        let mut partition = Partition::default();
        for unit in generated_units(gen_count, seed).chain(refinement_units(ref_count, seed)) {
            let added = partition.add_unit(&unit);
            prop_assert!(added.is_ok(), "{}", added.unwrap_err());
        }
    }
}
