//! The miss-cold generator: small linearized loop nests drawn from a wide
//! parameter space, so most reference pairs key a canonical problem no
//! earlier pair produced.
//!
//! Every unit is a pure function of `(seed, index)`. Trip counts and
//! strides are bounded so no single unit dominates a pass (an unbounded
//! draft put 40% of pass time into 1% of the units).

use delin_numeric::Assumptions;
use delin_vic::batch::BatchUnit;

/// SplitMix64: a tiny, well-mixed generator, so the benchmark's inputs do
/// not depend on any other crate's random stream.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// A generated unit plus the number of assignment statements it holds (the
/// base of `vectorized_pct`).
#[derive(Clone)]
pub struct GenUnit {
    /// The unit as the engine receives it.
    pub unit: BatchUnit,
    /// Assignment statements in the unit.
    pub statements: usize,
}

/// The `index`-th miss-cold unit of the `seed` workload.
pub fn miss_unit(seed: u64, index: usize) -> GenUnit {
    let mut rng = Rng::new(seed.wrapping_mul(0xa24b_aed4_963e_e407) ^ (index as u64));
    let statements = if rng.chance(1, 2) { 1 } else { 2 };
    if index.is_multiple_of(3) {
        symbolic_unit(&mut rng, index, statements)
    } else {
        concrete_unit(&mut rng, index, statements)
    }
}

/// `count` miss-cold units for `seed`, indices `first..first + count`.
pub fn miss_units(seed: u64, first: usize, count: usize) -> Vec<GenUnit> {
    (first..first + count).map(|i| miss_unit(seed, i)).collect()
}

/// The terminal label goes on the nest's last statement only: the first
/// statement carrying it closes every `DO 1` loop.
fn label(s: usize, statements: usize) -> &'static str {
    if s + 1 == statements {
        "1 "
    } else {
        ""
    }
}

/// A run-time dimensioned nest: the row stride is the symbol `NX`, whose
/// lower bound varies per unit so units land in different cache
/// environments.
fn symbolic_unit(rng: &mut Rng, index: usize, statements: usize) -> GenUnit {
    let lb = rng.range(1, 16);
    let rows = rng.range(2, 80);
    let short = rng.range(0, 8);
    let mut src = format!("REAL W(0:9999999)\nDO 1 J = 0, {rows}\nDO 1 I = 0, NX - 1 - {short}\n");
    for s in 0..statements {
        let a = rng.range(0, 40);
        let b = rng.range(0, 40);
        src.push_str(&format!(
            "{}W(I + NX*J + {a}) = W(I + NX*J + {b}) + 1\n",
            label(s, statements)
        ));
    }
    src.push_str("END\n");
    let mut assumptions = Assumptions::new();
    assumptions.set_lower_bound("NX", i128::from(lb));
    let unit = BatchUnit::new(format!("miss/{index:05}-nx{lb}"), src).with_assumptions(assumptions);
    GenUnit { unit, statements }
}

/// A hand-linearized nest with constant strides. Half the nests leave a
/// gap after each row, as in the paper's `C(i + 10j)` (the stride is two
/// to three rows long), and half their reads land in the gap after the
/// written element's row, which makes the pair independent; the other half
/// pack rows tightly or overlap them, so the exact solver settles the pair.
/// Trip counts are capped where rows overlap or nests are three deep,
/// which bounds the solver's work per unit.
fn concrete_unit(rng: &mut Rng, index: usize, statements: usize) -> GenUnit {
    let deep = rng.chance(1, 3);
    let gap = rng.chance(1, 2);
    let (ni_max, nj_max) = match (deep, gap) {
        (true, true) => (8, 5),
        (true, false) => (6, 3),
        (false, true) => (32, 10),
        (false, false) => (12, 8),
    };
    let ni = rng.range(3, ni_max);
    let nj = rng.range(2, nj_max);
    let row = ni + 1;
    let s1 = if gap { 2 * row + rng.range(0, row - 1) } else { row + rng.range(-2, 2) };
    let mut src = String::from("REAL W(0:9999999)\n");
    let k = if deep {
        let nk = rng.range(1, 3);
        src.push_str(&format!("DO 1 K = 0, {nk}\n"));
        format!(" + {}*K", s1 * (nj + 1) + rng.range(0, 6))
    } else {
        String::new()
    };
    src.push_str(&format!("DO 1 J = 0, {nj}\nDO 1 I = 0, {ni}\n"));
    for s in 0..statements {
        let a = rng.range(0, 2 * s1);
        let b = if gap && rng.chance(1, 2) {
            a + rng.range(row, s1 - row)
        } else {
            rng.range(0, 2 * s1)
        };
        let l = label(s, statements);
        src.push_str(&format!("{l}W(I + {s1}*J{k} + {a}) = W(I + {s1}*J{k} + {b}) + 1\n"));
    }
    src.push_str("END\n");
    GenUnit { unit: BatchUnit::new(format!("miss/{index:05}"), src), statements }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(seed: u64) -> Vec<u64> {
        miss_units(seed, 0, 200).iter().map(|g| g.unit.fingerprint()).collect()
    }

    #[test]
    fn same_seed_same_units() {
        assert_eq!(fingerprints(7), fingerprints(7));
        let a = miss_unit(7, 42);
        let b = miss_unit(7, 42);
        assert_eq!(a.unit.source, b.unit.source);
        assert_eq!(a.statements, b.statements);
    }

    #[test]
    fn different_seed_different_units() {
        let a = fingerprints(7);
        let b = fingerprints(8);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 10, "{same} of 200 units coincide across seeds");
    }

    #[test]
    fn one_unit_in_three_is_symbolic() {
        let units = miss_units(3, 0, 300);
        let symbolic = units.iter().filter(|g| g.unit.source.contains("NX")).count();
        assert_eq!(symbolic, 100);
        for g in &units {
            let program = delin_frontend::parse_program(&g.unit.source).expect("parses");
            // Every statement sits inside the nest: the top level is one loop.
            assert_eq!(program.body.len(), 1, "{}", g.unit.source);
            assert_eq!(crate::batch::assignments(&g.unit.source), g.statements);
        }
    }
}
