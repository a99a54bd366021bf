//! Seeded mini-FORTRAN programs for the differential tests of access
//! collection and vector code generation.
//!
//! A program mixes the shapes those layers must get right: miss-cold style
//! symbolic nests (`W(I + NX*J + a)`), constant-stride linearized nests,
//! and random nests whose loops repeat names, whose bounds name outer,
//! own and inner loops and symbols (triangular and non-normalizing nests),
//! whose steps are zero, negative, non-unit or symbolic, and whose
//! coefficients and constants sit near `i128::MAX` and `i128::MIN`.
//! Statements sit at every depth, and read and write arrays, scalars,
//! function calls and loop variables.
//!
//! The generator is plain `std` and returns source text, so the `vic`
//! tests include this file too.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    pub fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

const MAX: &str = "170141183460469231731687303715884105727";
const MAX_1: &str = "170141183460469231731687303715884105726";
const MIN: &str = "(-170141183460469231731687303715884105727 - 1)";
const LOOP_VARS: [&str; 4] = ["I", "J", "K", "L"];

/// A loop-invariant expression.
fn invariant(r: &mut Rng) -> String {
    let lits = ["0", "1", "2", "3", "5", "9", "10", "99", MAX, MAX_1, MIN];
    match r.below(10) {
        0..=4 => r.pick(&lits).to_string(),
        5 => r.pick(&["N", "NX", "M"]).to_string(),
        6 => format!("{} - {}", r.pick(&["N", "NX"]), r.pick(&["1", "4", "0"])),
        7 => r.pick(&["NX*NX", "2*N", "(4*N)/2", "N/2", "NX - NX", "-N"]).to_string(),
        8 => format!("{} * {}", r.pick(&lits), r.pick(&["2", "-1", MAX])),
        _ => format!("-{}", r.pick(&lits)),
    }
}

/// A term over the variables in scope (or a name that may not be).
fn term(r: &mut Rng, vars: &[&str]) -> String {
    let var = if vars.is_empty() || r.chance(15) { r.pick(&LOOP_VARS) } else { r.pick(vars) };
    let coeff = r.pick(&["", "", "", "2*", "10*", "16*", "-", "NX*", "N*N*", MAX, MIN, "0*"]);
    match coeff {
        c if c == MAX || c == MIN => format!("{c}*{var}"),
        c => format!("{c}{var}"),
    }
}

/// A subscript: mostly affine in `vars`, sometimes not.
fn subscript(r: &mut Rng, vars: &[&str]) -> String {
    match r.below(20) {
        0 => "IFUN(3)".to_string(),
        1 if !vars.is_empty() => format!("{0}*{0}", r.pick(vars)),
        2 if !vars.is_empty() => format!("{}/2", r.pick(vars)),
        3 => format!("A({})", term(r, vars)),
        4 => invariant(r),
        _ => {
            let mut s = term(r, vars);
            for _ in 0..r.below(3) {
                let op = r.pick(&[" + ", " - "]);
                s.push_str(op);
                s.push_str(&term(r, vars));
            }
            if r.chance(70) {
                s.push_str(&format!(" + {}", r.pick(&["1", "5", "17", "30", MAX, "N"])));
            }
            s
        }
    }
}

fn reference(r: &mut Rng, vars: &[&str]) -> String {
    match r.below(9) {
        0..=2 => format!("A({})", subscript(r, vars)),
        3 | 4 => format!("B({}, {})", subscript(r, vars), subscript(r, vars)),
        5 => format!("W({})", subscript(r, vars)),
        6 => r.pick(&["S", "T", "N"]).to_string(),
        7 => format!("F({})", subscript(r, vars)),
        _ => r.pick(&LOOP_VARS).to_string(),
    }
}

fn statement(r: &mut Rng, vars: &[&str], out: &mut String) {
    let lhs = match r.below(10) {
        0 => r.pick(&["S", "T"]).to_string(),
        1 => r.pick(&LOOP_VARS).to_string(),
        2 => format!("F({})", subscript(r, vars)),
        _ => reference(r, vars),
    };
    let mut rhs = reference(r, vars);
    for _ in 0..r.below(3) {
        let op = r.pick(&[" + ", " - ", " * "]);
        rhs.push_str(op);
        rhs.push_str(&if r.chance(25) {
            r.pick(&["1", "2", MAX]).to_string()
        } else {
            reference(r, vars)
        });
    }
    if r.chance(10) {
        rhs = format!("-({rhs})");
    }
    out.push_str(&format!("{lhs} = {rhs}\n"));
}

/// A loop header over the variables in scope.
fn header(r: &mut Rng, var: &str, vars: &[&str]) -> String {
    let bound = |r: &mut Rng| match r.below(12) {
        0..=4 => r.pick(&["0", "1", "0", "2"]).to_string(),
        5 | 6 => invariant(r),
        7 | 8 if !vars.is_empty() => format!("{} + {}", term(r, vars), r.pick(&["0", "1", "N"])),
        9 => r.pick(&LOOP_VARS).to_string(),
        10 if !vars.is_empty() => format!("{} * {}", r.pick(&[MIN, MAX, "-1"]), r.pick(vars)),
        _ => r.pick(&["9", "99", "40", "NX - 4"]).to_string(),
    };
    let lower = bound(r);
    let upper = match r.below(3) {
        0 => bound(r),
        _ => r.pick(&["9", "99", "N - 1", "NX - 1 - 3", "5"]).to_string(),
    };
    let step = match r.below(30) {
        0 => ", 1",
        1 => ", -1",
        2 => ", 2",
        3 => ", -3",
        4 => ", 0",
        5 => ", N",
        6 => ", N - N + 2",
        7 => ", I",
        8 => ", (-170141183460469231731687303715884105727 - 1)",
        _ => "",
    };
    format!("DO {var} = {lower}, {upper}{step}\n")
}

/// A random nest: loops with statements at every depth.
fn nest(r: &mut Rng, vars: &mut Vec<&'static str>, depth: usize, out: &mut String) {
    let var = r.pick(&LOOP_VARS);
    out.push_str(&header(r, var, vars));
    vars.push(var);
    let items = 1 + r.below(3);
    for _ in 0..items {
        if depth < 3 && r.chance(35) {
            nest(r, vars, depth + 1, out);
        } else {
            statement(r, vars, out);
        }
    }
    vars.pop();
    out.push_str("ENDDO\n");
}

/// The `seed`-th generated program.
pub fn program(seed: u64) -> String {
    let mut r = Rng::new(seed);
    let mut out = String::from("REAL A(0:99), B(0:99, 0:99), W(0:9999999)\n");
    for _ in 0..1 + r.below(3) {
        match r.below(6) {
            0 => {
                // Miss-cold's symbolic nest.
                let rows = 2 + r.below(40);
                let short = r.below(8);
                out.push_str(&format!("DO J = 0, {rows}\nDO I = 0, NX - 1 - {short}\n"));
                for _ in 0..1 + r.below(2) {
                    let (a, b) = (r.below(40), r.below(40));
                    out.push_str(&format!("W(I + NX*J + {a}) = W(I + NX*J + {b}) + 1\n"));
                }
                out.push_str("ENDDO\nENDDO\n");
            }
            1 => {
                // A constant-stride linearized nest.
                let stride = [10, 16, 100][r.below(3)];
                let off = r.below(7);
                out.push_str(&format!("DO J = 0, 9\nDO I = 0, {}\n", stride - 2));
                out.push_str(&format!("W(I + {stride}*J) = W(I + {stride}*J + {off}) + 1\n"));
                out.push_str("ENDDO\nENDDO\n");
            }
            2 => statement(&mut r, &[], &mut out),
            _ => nest(&mut r, &mut Vec::new(), 0, &mut out),
        }
    }
    out.push_str("END\n");
    out
}
