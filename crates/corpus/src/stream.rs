//! Streamable [`BatchUnit`] sources for the batch engine.
//!
//! Both sources are lazy iterators — nothing is generated until the batch
//! runner pulls the next unit — and every unit is a pure function of its
//! identity (`(spec)` for RiCEPS, `(seed, index)` for the generated
//! workload), *not* of the position in the stream. Shuffling or reversing
//! the stream therefore yields the same unit set, which is what makes the
//! batch determinism contract testable on these sources.

use crate::riceps::{all_benchmarks, generate, generate_scaled};
use delin_numeric::Assumptions;
use delin_vic::batch::BatchUnit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The eight synthetic RiCEPS programs as batch units, at the Fig. 1 size
/// class, or scaled down to roughly `lines` lines each when given.
///
/// Units with run-time dimensioning carry the paper's Section 4 premise as
/// assumptions (`NX ≥ 2`, `NY ≥ 2` — the arrays are real), exercising the
/// environment-keyed sharing of the batch cache.
pub fn riceps_units(lines: Option<usize>) -> impl Iterator<Item = BatchUnit> {
    all_benchmarks().into_iter().map(move |spec| {
        let source = match lines {
            Some(l) => generate_scaled(&spec, l),
            None => generate(&spec),
        };
        let mut assumptions = Assumptions::new();
        if spec.run_time_dimensioning {
            assumptions.set_lower_bound("NX", 2);
            assumptions.set_lower_bound("NY", 2);
        }
        BatchUnit::new(format!("riceps/{}", spec.name), source).with_assumptions(assumptions)
    })
}

/// `count` generated workload units for `seed`.
///
/// Every third unit uses symbolic strides with a *varying* lower bound on
/// the stride symbol, so a corpus mixes units whose assumption environments
/// agree (sharing cache entries) with units whose environments differ
/// (which must not share — see `delin_vic::cache`).
pub fn generated_units(count: usize, seed: u64) -> impl Iterator<Item = BatchUnit> {
    (0..count).map(move |index| generated_unit(seed, index))
}

/// The `index`-th generated unit of the `seed` workload — deterministic in
/// `(seed, index)` alone.
pub fn generated_unit(seed: u64, index: usize) -> BatchUnit {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index as u64),
    );
    let offset = rng.gen_range(0..7) as i128;
    if index.is_multiple_of(3) {
        // Symbolic strides (run-time dimensioning). The NX lower bound
        // cycles so different units land in different cache environments.
        let lb = 1 + (index / 3 % 4) as i128;
        let mut assumptions = Assumptions::new();
        assumptions.set_lower_bound("NX", lb);
        let source = format!(
            "REAL W(0:99999)\n\
             DO 1 J = 0, NY - 1\n\
             DO 1 I = 0, NX - 1 - {offset}\n\
             1 W(I + NX*J) = W(I + NX*J + {offset}) + 1\n\
             END\n"
        );
        BatchUnit::new(format!("gen/{index:04}-sym{lb}"), source).with_assumptions(assumptions)
    } else {
        // Hand-linearized constant strides; the I range stops short of the
        // row end, so the nest is independent iff offset fits the row.
        let stride = 8 + rng.gen_range(0..9) as i128;
        let upper = stride - 1 - offset.max(1);
        let source = format!(
            "REAL W(0:99999)\n\
             DO 1 J = 0, 9\n\
             DO 1 I = 0, {upper}\n\
             1 W(I + {stride}*J) = W(I + {stride}*J + {offset}) + 1\n\
             END\n"
        );
        BatchUnit::new(format!("gen/{index:04}"), source)
    }
}

/// `count` refinement-heavy units for `seed`.
///
/// Every nest carries a *real* loop-carried dependence: the read trails the
/// write by a small offset inside the same row, so no test can disprove the
/// pair. The rows do not overlap, so delinearization separates the three
/// dimensions and reads the direction vector `(=, =, <)` off them without
/// the exact solver (each `ref/` unit reports `nodes=0`). Strides and
/// offsets are drawn from small pools, so a corpus repeats canonical
/// problems heavily — a hit-dominated workload of dependent pairs whose
/// edges carry direction vectors.
pub fn refinement_units(count: usize, seed: u64) -> impl Iterator<Item = BatchUnit> {
    (0..count).map(move |index| refinement_unit(seed, index))
}

/// The `index`-th refinement-heavy unit of the `seed` workload —
/// deterministic in `(seed, index)` alone.
pub fn refinement_unit(seed: u64, index: usize) -> BatchUnit {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0xd605_1b4e_98cf_b1a1).wrapping_add(index as u64),
    );
    let stride = [8i128, 12, 16, 20][rng.gen_range(0..4)];
    let offset = 1 + rng.gen_range(0..3) as i128;
    let plane = stride * 10;
    let upper = stride - 1;
    // W(x) = W(x - offset) with I ≥ offset keeps the read in the same row:
    // iteration (K, J, I) reads the value written at (K, J, I - offset) —
    // a dependence carried by the innermost loop, direction (=, =, <).
    let source = format!(
        "REAL W(0:99999)\n\
         DO 1 K = 0, 3\n\
         DO 1 J = 0, 9\n\
         DO 1 I = {offset}, {upper}\n\
         1 W(I + {stride}*J + {plane}*K) = W(I + {stride}*J + {plane}*K - {offset}) + 1\n\
         END\n"
    );
    BatchUnit::new(format!("ref/{index:04}-s{stride}o{offset}"), source)
}

/// `count` pair-dense units for `seed`: each unit is one two-deep nest with
/// [`DENSE_STATEMENTS`] statements over the same linearized array, so a
/// single unit yields hundreds of reference pairs while parsing stays
/// cheap. Strides are drawn from a small pool, making a large corpus
/// heavily cache-hit-dominated — this is the stream that lets trace-driven
/// full runs reach millions of pairs in seconds.
pub fn dense_units(count: usize, seed: u64) -> impl Iterator<Item = BatchUnit> {
    (0..count).map(move |index| dense_unit(seed, index))
}

/// Statements per [`dense_unit`] nest.
pub const DENSE_STATEMENTS: usize = 12;

/// The `index`-th pair-dense unit of the `seed` workload — deterministic in
/// `(seed, index)` alone.
pub fn dense_unit(seed: u64, index: usize) -> BatchUnit {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0xa076_1d64_78bd_642f).wrapping_add(index as u64),
    );
    let stride = [16i128, 24, 32, 48][rng.gen_range(0..4)];
    let base = rng.gen_range(0..3) as i128;
    let mut source = String::from("REAL W(0:99999)\nDO 1 J = 0, 9\nDO 1 I = 0, 7\n");
    for s in 0..DENSE_STATEMENTS {
        // Distinct constant offsets per statement keep every reference in
        // the same row family; offsets cycle through a small pool so the
        // canonical problems repeat across units (cache-hit-dominated).
        let off = base + (s as i128 % 4);
        source.push_str(&format!(
            "1 W(I + {stride}*J + {s}) = W(I + {stride}*J + {s} + {off}) + 1\n"
        ));
    }
    source.push_str("END\n");
    BatchUnit::new(format!("dense/{index:06}-s{stride}b{base}"), source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riceps_units_cover_the_suite() {
        let units: Vec<BatchUnit> = riceps_units(Some(120)).collect();
        assert_eq!(units.len(), 8);
        assert!(units.iter().any(|u| u.name == "riceps/BOAST"));
        // Run-time-dimensioned programs carry symbolic assumptions.
        let boast = units.iter().find(|u| u.name == "riceps/BOAST").unwrap();
        assert!(!boast.assumptions.is_empty());
        let qcd = units.iter().find(|u| u.name == "riceps/QCD").unwrap();
        assert!(qcd.assumptions.is_empty());
    }

    #[test]
    fn generated_units_are_position_independent() {
        let forward: Vec<BatchUnit> = generated_units(12, 7).collect();
        let mut backward: Vec<BatchUnit> = generated_units(12, 7).collect();
        backward.reverse();
        for unit in &forward {
            let twin = backward.iter().find(|u| u.name == unit.name).unwrap();
            assert_eq!(unit.source, twin.source);
            assert_eq!(unit.assumptions, twin.assumptions);
        }
        // Different seeds give different corpora.
        let other: Vec<BatchUnit> = generated_units(12, 8).collect();
        assert!(forward.iter().zip(&other).any(|(a, b)| a.source != b.source));
    }

    #[test]
    fn refinement_units_carry_real_dependences() {
        let units: Vec<BatchUnit> = refinement_units(6, 3).collect();
        assert_eq!(units.len(), 6);
        // Deterministic in (seed, index), independent of stream position.
        let again: Vec<BatchUnit> = refinement_units(6, 3).collect();
        for (a, b) in units.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.source, b.source);
        }
        for u in &units {
            delin_frontend::parse_program(&u.source).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        }
        // The workload's premise: the nest is dependent, so the engine
        // refines direction vectors rather than proving independence.
        let report = delin_vic::pipeline::run_pipeline(
            &units[0].source,
            &delin_vic::pipeline::PipelineConfig::default(),
        )
        .unwrap();
        assert!(!report.graph.edges.is_empty(), "refinement unit must be dependent");
        assert!(
            report.graph.edges.iter().any(|e| !e.dir_vecs.is_empty()),
            "dependence must carry refined direction vectors"
        );
    }

    #[test]
    fn dense_units_are_pair_dense_and_deterministic() {
        let units: Vec<BatchUnit> = dense_units(4, 5).collect();
        let again: Vec<BatchUnit> = dense_units(4, 5).collect();
        for (a, b) in units.iter().zip(&again) {
            assert_eq!((&a.name, &a.source), (&b.name, &b.source));
        }
        for u in &units {
            delin_frontend::parse_program(&u.source).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        }
        // The stream's reason to exist: many pairs per parsed unit.
        let stats = delin_vic::batch::BatchRunner::new(delin_vic::batch::BatchConfig {
            workers: 1,
            ..delin_vic::batch::BatchConfig::default()
        })
        .run(units);
        let pairs = stats.totals.verdict_stats().pairs_tested;
        assert!(pairs >= 4 * 100, "dense units must be pair-dense, got {pairs} pairs");
    }

    #[test]
    fn generated_units_mix_environments() {
        let units: Vec<BatchUnit> = generated_units(24, 1).collect();
        let symbolic: Vec<&BatchUnit> =
            units.iter().filter(|u| !u.assumptions.is_empty()).collect();
        assert!(symbolic.len() >= 8);
        // At least two distinct NX lower bounds appear.
        let mut bounds: Vec<i128> = symbolic
            .iter()
            .map(|u| u.assumptions.lower_bound(&delin_numeric::Sym::new("NX")))
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        assert!(bounds.len() >= 2, "{bounds:?}");
        // Every unit parses.
        for u in &units {
            delin_frontend::parse_program(&u.source).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        }
    }
}
