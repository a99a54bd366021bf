//! Synthetic RiCEPS-like corpus (Fig. 1 substitution).
//!
//! The real RiCEPS suite (Porterfield 1989) is not available, so each of
//! the eight programs is replaced by a deterministic synthetic
//! mini-FORTRAN program with the same reported size class and the same
//! number of loop nests containing linearized references. The kernels
//! mirror what the paper describes: run-time dimensioning via symbolic
//! strides for the large codes (BOAST, CCM), hand-linearized constant
//! strides elsewhere, multi-loop induction variables in BOAST, and
//! ordinary multidimensional code as filler.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Expected Fig. 1 count of linearized loop nests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedCount {
    /// The paper reports "more than" this many.
    AtLeast(usize),
    /// The paper reports exactly this many.
    Exactly(usize),
}

impl ExpectedCount {
    /// Does a measured count satisfy the expectation?
    pub fn matches(&self, measured: usize) -> bool {
        match *self {
            ExpectedCount::AtLeast(n) => measured > n,
            ExpectedCount::Exactly(n) => measured == n,
        }
    }
}

impl std::fmt::Display for ExpectedCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpectedCount::AtLeast(n) => write!(f, ">{n}"),
            ExpectedCount::Exactly(n) => write!(f, "{n}"),
        }
    }
}

/// One benchmark of the synthetic suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Program name (as in Fig. 1).
    pub name: &'static str,
    /// Program domain (Fig. 1's "Type" column).
    pub domain: &'static str,
    /// Approximate line count reported in Fig. 1.
    pub lines: usize,
    /// Expected number of loop nests with linearized references.
    pub expected: ExpectedCount,
    /// Whether the program uses run-time dimensioning (symbolic strides).
    pub run_time_dimensioning: bool,
    /// Whether the program contains multi-loop induction variables.
    pub induction_variables: bool,
}

/// The eight programs of Fig. 1.
pub fn all_benchmarks() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "BOAST",
            domain: "Reservoir Simulation",
            lines: 7000,
            expected: ExpectedCount::AtLeast(28),
            run_time_dimensioning: true,
            induction_variables: true,
        },
        BenchmarkSpec {
            name: "CCM",
            domain: "Atmospheric",
            lines: 24000,
            expected: ExpectedCount::AtLeast(24),
            run_time_dimensioning: true,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "LINPACKD",
            domain: "Linear Algebra",
            lines: 400,
            expected: ExpectedCount::Exactly(0),
            run_time_dimensioning: false,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "QCD",
            domain: "Quantum Chromodynamics",
            lines: 2000,
            expected: ExpectedCount::Exactly(2),
            run_time_dimensioning: false,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "SIMPLE",
            domain: "Fluid Flow",
            lines: 1000,
            expected: ExpectedCount::Exactly(0),
            run_time_dimensioning: false,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "SPHOT",
            domain: "Particle Transport",
            lines: 1000,
            expected: ExpectedCount::Exactly(2),
            run_time_dimensioning: false,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "TRACK",
            domain: "Trajectory Plot",
            lines: 4000,
            expected: ExpectedCount::Exactly(5),
            run_time_dimensioning: false,
            induction_variables: false,
        },
        BenchmarkSpec {
            name: "WANAL1",
            domain: "Wave Equation",
            lines: 2000,
            expected: ExpectedCount::Exactly(4),
            run_time_dimensioning: false,
            induction_variables: false,
        },
    ]
}

/// How many linearized nests the generator emits for a spec (Fig. 1's
/// exact counts; "more than n" becomes `n + 3`).
pub fn target_nests(spec: &BenchmarkSpec) -> usize {
    match spec.expected {
        ExpectedCount::AtLeast(n) => n + 3,
        ExpectedCount::Exactly(n) => n,
    }
}

/// Generates the synthetic program for a spec (deterministic), at the
/// spec's reported size class.
pub fn generate(spec: &BenchmarkSpec) -> String {
    generate_scaled(spec, spec.lines)
}

/// Generates a size-reduced variant with the same linearized-nest counts;
/// used by the reduced-size census (E1), the end-to-end vectorizer
/// experiment (E9) and the batch corpora.
pub fn generate_scaled(spec: &BenchmarkSpec, lines: usize) -> String {
    let mut seed = [0u8; 32];
    for (i, b) in spec.name.bytes().enumerate() {
        seed[i % 32] ^= b;
    }
    let mut rng = SmallRng::from_seed(seed);
    let mut out = String::new();
    let _ = writeln!(out, "PROGRAM {}", spec.name);

    let linearized = target_nests(spec);
    // Declarations.
    let _ = writeln!(out, "REAL WORK(0:99999), GRID(0:99, 0:99), VEC(0:999)");
    let _ = writeln!(out, "REAL FLUX(0:99, 0:99, 0:9), ACC(0:999)");

    let mut nests = 0usize;
    let mut line_estimate = 6usize;
    let mut induction_done = !spec.induction_variables;

    // Linearized nests first.
    for n in 0..linearized {
        if !induction_done && n == 0 {
            // The BOAST pattern: a multi-loop induction variable.
            let _ = writeln!(out, "IB = -1");
            let _ = writeln!(out, "DO 9{n:03} I = 0, 9");
            let _ = writeln!(out, "DO 9{n:03} J = 0, 9");
            let _ = writeln!(out, "DO 9{n:03} K = 0, 9");
            let _ = writeln!(out, "  IB = IB + 1");
            let _ = writeln!(out, "  ACC(J) = ACC(J) + 1");
            let _ = writeln!(out, "9{n:03} WORK(IB) = WORK(IB) + 1");
            induction_done = true;
            nests += 1;
            line_estimate += 8;
            continue;
        }
        let offset = rng.gen_range(0..7);
        if spec.run_time_dimensioning {
            // Run-time dimensioning: symbolic strides. The I range stops
            // `offset` short of the row end so the shifted reference stays
            // within the same J-row (otherwise the dependence is real).
            let _ = writeln!(out, "DO 8{n:03} J = 0, NY - 1");
            let _ = writeln!(out, "DO 8{n:03} I = 0, NX - 1 - {offset}");
            let _ = writeln!(out, "8{n:03} WORK(I + NX*J) = WORK(I + NX*J + {offset}) + 1");
        } else {
            let stride = [10i128, 16, 100][rng.gen_range(0..3)];
            let ubound = stride - 1 - offset.max(1) as i128;
            let _ = writeln!(out, "DO 8{n:03} J = 0, 9");
            let _ = writeln!(out, "DO 8{n:03} I = 0, {}", ubound.max(1));
            let _ =
                writeln!(out, "8{n:03} WORK(I + {stride}*J) = WORK(I + {stride}*J + {offset}) + 1");
        }
        nests += 1;
        line_estimate += 4;
    }

    // Filler: ordinary multidimensional and 1-D nests plus scalar code up
    // to the reported size class.
    let mut filler = 0usize;
    while line_estimate + 2 < lines {
        match filler % 4 {
            0 => {
                let _ = writeln!(out, "DO 7{filler:04} I = 0, 99");
                let _ = writeln!(out, "DO 7{filler:04} J = 0, 99");
                let _ = writeln!(out, "7{filler:04} GRID(I, J) = GRID(I, J) + 1");
                line_estimate += 3;
            }
            1 => {
                let k = rng.gen_range(1..5);
                let _ = writeln!(out, "DO 7{filler:04} I = 0, 99");
                let _ = writeln!(out, "7{filler:04} VEC(I) = VEC(I + {k}) * 2");
                line_estimate += 2;
            }
            2 => {
                let _ = writeln!(out, "DO 7{filler:04} K = 0, 9");
                let _ = writeln!(out, "DO 7{filler:04} J = 0, 99");
                let _ = writeln!(out, "DO 7{filler:04} I = 0, 99");
                let _ = writeln!(out, "7{filler:04} FLUX(I, J, K) = FLUX(I, J, K) + GRID(I, J)");
                line_estimate += 4;
            }
            _ => {
                let c = rng.gen_range(1..100);
                let _ = writeln!(out, "S{filler:04} = S{filler:04} + {c}");
                line_estimate += 1;
            }
        }
        filler += 1;
    }
    let _ = writeln!(out, "END");
    debug_assert!(nests == linearized);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::census;
    use delin_frontend::parse_program;
    use delin_numeric::Assumptions;

    #[test]
    fn figure1_metadata() {
        let specs = all_benchmarks();
        assert_eq!(specs.len(), 8);
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["BOAST", "CCM", "LINPACKD", "QCD", "SIMPLE", "SPHOT", "TRACK", "WANAL1"]
        );
        assert_eq!(specs.iter().map(|s| s.lines).sum::<usize>(), 41400);
        assert_eq!(ExpectedCount::AtLeast(28).to_string(), ">28");
        assert_eq!(ExpectedCount::Exactly(5).to_string(), "5");
        assert!(ExpectedCount::AtLeast(28).matches(31));
        assert!(!ExpectedCount::AtLeast(28).matches(28));
        assert!(ExpectedCount::Exactly(5).matches(5));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &all_benchmarks()[3]; // QCD
        assert_eq!(generate(spec), generate(spec));
    }

    #[test]
    fn generated_programs_parse_and_census_matches_figure1() {
        for spec in all_benchmarks() {
            let src = generate(&spec);
            let program = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let result = census(&program, &Assumptions::new());
            assert!(
                spec.expected.matches(result.linearized_nests),
                "{}: expected {}, measured {}",
                spec.name,
                spec.expected,
                result.linearized_nests
            );
            // Size class is approximately honoured (within 40%).
            let lines = src.lines().count();
            assert!(
                lines as f64 > spec.lines as f64 * 0.6,
                "{}: only {lines} lines generated for a {}-line program",
                spec.name,
                spec.lines
            );
        }
    }

    #[test]
    fn boast_contains_induction_pattern() {
        let spec = all_benchmarks().into_iter().find(|s| s.name == "BOAST").unwrap();
        let src = generate(&spec);
        assert!(src.contains("IB = IB + 1"));
        let program = parse_program(&src).unwrap();
        let result = census(&program, &Assumptions::new());
        assert_eq!(result.induction_variables, 1);
    }
}
