//! Access-site collection: every array (and scalar) read/write with its
//! normalized loop context and affine subscripts.
//!
//! This is the hand-off point between the front end and dependence
//! analysis: a [`AccessSite`] carries everything Section 2's dependence
//! definition needs — the statement, the reference kind, the (possibly
//! opaque) affine subscript per dimension, and the normalized loops that
//! enclose the statement.

use crate::affine::{expr_to_affine, normalize_nest, NormalizedLoop, RawLoop, SymAffine};
use crate::ast::{Assign, Expr, Program, Stmt, StmtId};
use delin_numeric::Assumptions;
use std::sync::Arc;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The reference stores to memory.
    Write,
    /// The reference loads from memory.
    Read,
}

/// The normalized loop context of a statement (outermost first).
pub type LoopContext = Vec<NormalizedLoop>;

/// One subscript: an affine function of the normalized loop variables, or
/// opaque.
// `SymAffine` carries inline term storage by design — the size gap to
// `Opaque` is the point (no heap allocation per subscript), and boxing the
// affine arm would reintroduce exactly that allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subscript {
    /// Affine over the site's normalized loop variables.
    Affine(SymAffine),
    /// Not analyzable; treated as touching the whole dimension.
    Opaque,
}

impl Subscript {
    /// The affine form, when present.
    pub fn as_affine(&self) -> Option<&SymAffine> {
        match self {
            Subscript::Affine(a) => Some(a),
            Subscript::Opaque => None,
        }
    }
}

/// One array or scalar reference inside the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// The enclosing statement.
    pub stmt: StmtId,
    /// Referenced variable name (uppercased). Shared, so every dependence
    /// edge on this site copies a pointer rather than the name.
    pub array: Arc<str>,
    /// Whether this is the statement's store or one of its loads.
    pub kind: AccessKind,
    /// One subscript per dimension (empty for scalars).
    pub subscripts: Vec<Subscript>,
    /// The normalized enclosing loops, outermost first.
    pub loops: LoopContext,
}

impl AccessSite {
    /// `true` when every subscript is affine.
    pub fn is_affine(&self) -> bool {
        self.subscripts.iter().all(|s| matches!(s, Subscript::Affine(_)))
    }

    /// Number of common outermost loops shared with another site (matching
    /// by loop identity).
    pub fn common_loops_with(&self, other: &AccessSite) -> usize {
        self.loops.iter().zip(&other.loops).take_while(|(a, b)| a.uid == b.uid).count()
    }
}

/// Collects every access site of the program. Loop nests whose bounds
/// cannot be normalized yield sites with opaque subscripts (conservative).
pub fn collect_accesses(program: &Program, assumptions: &Assumptions) -> Vec<AccessSite> {
    let mut out = Vec::new();
    let mut stack: Vec<RawLoop> = Vec::new();
    let mut next_uid = 0u32;
    for stmt in &program.body {
        walk(program, assumptions, stmt, &mut stack, &mut next_uid, &mut out);
    }
    out
}

fn walk(
    program: &Program,
    assumptions: &Assumptions,
    stmt: &Stmt,
    stack: &mut Vec<RawLoop>,
    next_uid: &mut u32,
    out: &mut Vec<AccessSite>,
) {
    match stmt {
        Stmt::Loop(l) => {
            let uid = *next_uid;
            *next_uid += 1;
            stack.push(RawLoop {
                uid,
                var: l.var.clone(),
                lower: l.lower.clone(),
                upper: l.upper.clone(),
                step: l.step.clone(),
            });
            for s in &l.body {
                walk(program, assumptions, s, stack, next_uid, out);
            }
            stack.pop();
        }
        Stmt::Assign(a) => {
            out.extend(sites_of_assign(program, assumptions, a, stack));
        }
    }
}

fn sites_of_assign(
    program: &Program,
    assumptions: &Assumptions,
    a: &Assign,
    stack: &[RawLoop],
) -> Vec<AccessSite> {
    let nest = normalize_nest(stack, assumptions);
    let loop_names: Vec<String> = stack.iter().map(|l| l.var.clone()).collect();
    let (loops, normalizer): (LoopContext, Option<&crate::affine::NormalizedNest>) = match &nest {
        Some(n) => (n.loops.clone(), Some(n)),
        None => (
            // Unanalyzable nest: keep the loop structure with fresh
            // symbolic bounds so at least statement ordering survives.
            stack
                .iter()
                .map(|l| NormalizedLoop {
                    uid: l.uid,
                    var: l.var.clone(),
                    upper: delin_numeric::SymPoly::symbol(format!("UB_{}", l.var).as_str()),
                })
                .collect(),
            None,
        ),
    };
    let mut out = Vec::new();
    // The LHS as a whole is a write; its subscripts are reads.
    match &a.lhs {
        Expr::Index(name, subs) if program.is_array(name) => {
            let subscripts =
                subs.iter().map(|s| make_subscript(s, &loop_names, normalizer)).collect();
            out.push(AccessSite {
                stmt: a.id,
                array: name.as_str().into(),
                kind: AccessKind::Write,
                subscripts,
                loops: loops.clone(),
            });
            for s in subs {
                collect_refs(
                    program,
                    s,
                    AccessKind::Read,
                    a.id,
                    &loops,
                    &loop_names,
                    normalizer,
                    &mut out,
                );
            }
        }
        Expr::Var(name) if !loop_names.contains(name) => {
            out.push(AccessSite {
                stmt: a.id,
                array: name.as_str().into(),
                kind: AccessKind::Write,
                subscripts: Vec::new(),
                loops: loops.clone(),
            });
        }
        other => collect_refs(
            program,
            other,
            AccessKind::Write,
            a.id,
            &loops,
            &loop_names,
            normalizer,
            &mut out,
        ),
    }
    collect_refs(
        program,
        &a.rhs,
        AccessKind::Read,
        a.id,
        &loops,
        &loop_names,
        normalizer,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn collect_refs(
    program: &Program,
    expr: &Expr,
    kind: AccessKind,
    stmt: StmtId,
    loops: &LoopContext,
    loop_names: &[String],
    normalizer: Option<&crate::affine::NormalizedNest>,
    out: &mut Vec<AccessSite>,
) {
    match expr {
        Expr::Int(_) => {}
        Expr::Var(name) => {
            if !loop_names.contains(name) {
                out.push(AccessSite {
                    stmt,
                    array: name.as_str().into(),
                    kind,
                    subscripts: Vec::new(),
                    loops: loops.clone(),
                });
            }
        }
        Expr::Index(name, subs) => {
            if program.is_array(name) {
                let subscripts =
                    subs.iter().map(|s| make_subscript(s, loop_names, normalizer)).collect();
                out.push(AccessSite {
                    stmt,
                    array: name.as_str().into(),
                    kind,
                    subscripts,
                    loops: loops.clone(),
                });
            }
            // Subscripts (or call arguments) are themselves reads.
            for s in subs {
                collect_refs(
                    program,
                    s,
                    AccessKind::Read,
                    stmt,
                    loops,
                    loop_names,
                    normalizer,
                    out,
                );
            }
        }
        Expr::Bin(_, a, b) => {
            collect_refs(program, a, kind, stmt, loops, loop_names, normalizer, out);
            collect_refs(program, b, kind, stmt, loops, loop_names, normalizer, out);
        }
        Expr::Neg(a) => {
            collect_refs(program, a, kind, stmt, loops, loop_names, normalizer, out);
        }
    }
}

fn make_subscript(
    e: &Expr,
    loop_names: &[String],
    normalizer: Option<&crate::affine::NormalizedNest>,
) -> Subscript {
    let Some(raw) = expr_to_affine(e, loop_names) else {
        return Subscript::Opaque;
    };
    match normalizer {
        Some(n) => match n.apply(&raw) {
            Some(a) => Subscript::Affine(a),
            None => Subscript::Opaque,
        },
        None => {
            if raw.is_constant() {
                Subscript::Affine(raw)
            } else {
                Subscript::Opaque
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use delin_numeric::{SymPoly, VarId};

    fn accesses(src: &str) -> Vec<AccessSite> {
        let p = parse_program(src).unwrap();
        collect_accesses(&p, &Assumptions::new())
    }

    #[test]
    fn motivating_program_sites() {
        let sites = accesses(
            "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ",
        );
        assert_eq!(sites.len(), 2);
        let w = &sites[0];
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(&*w.array, "C");
        assert_eq!(w.loops.len(), 2);
        assert_eq!(w.loops[0].upper, SymPoly::constant(4));
        assert_eq!(w.loops[1].upper, SymPoly::constant(9));
        let a = w.subscripts[0].as_affine().unwrap();
        assert_eq!(a.coeff(VarId(0)).as_constant(), Some(1));
        assert_eq!(a.coeff(VarId(1)).as_constant(), Some(10));
        let r = &sites[1];
        assert_eq!(r.kind, AccessKind::Read);
        let b = r.subscripts[0].as_affine().unwrap();
        assert_eq!(b.constant_part().as_constant(), Some(5));
        assert_eq!(w.common_loops_with(r), 2);
    }

    #[test]
    fn normalization_applied_to_one_based_loops() {
        let sites = accesses(
            "
            REAL A(100)
            DO 1 i = 1, 99
        1   A(i + 1) = A(i)
            END
        ",
        );
        // i in [1,99] normalizes to i' in [0,98]; subscript i+1 -> i'+2.
        let w = &sites[0];
        assert_eq!(w.loops[0].upper, SymPoly::constant(98));
        assert_eq!(w.subscripts[0].as_affine().unwrap().constant_part().as_constant(), Some(2));
    }

    #[test]
    fn scalar_sites_and_loop_vars_skipped() {
        let sites = accesses(
            "
            REAL B(10)
            DO 1 i = 1, 9
              Q = B(i) + Q
        1   B(i) = Q
            END
        ",
        );
        // Q write, B(i) read, Q read, B write, Q read.
        let names: Vec<(&str, AccessKind)> = sites.iter().map(|s| (&*s.array, s.kind)).collect();
        assert!(names.contains(&("Q", AccessKind::Write)));
        assert!(names.contains(&("Q", AccessKind::Read)));
        assert!(names.contains(&("B", AccessKind::Write)));
        // Loop variable `i` never appears as a site.
        assert!(!names.iter().any(|(n, _)| *n == "I"));
    }

    #[test]
    fn opaque_subscripts() {
        let sites = accesses(
            "
            REAL A(100, 100)
            DO 1 i = 1, 9
        1   A(IFUN(10), i) = A(i*i, i)
            END
        ",
        );
        let w = sites.iter().find(|s| s.kind == AccessKind::Write && &*s.array == "A").unwrap();
        assert_eq!(w.subscripts[0], Subscript::Opaque);
        assert!(w.subscripts[1].as_affine().is_some());
        assert!(!w.is_affine());
        let r = sites.iter().find(|s| s.kind == AccessKind::Read && &*s.array == "A").unwrap();
        assert_eq!(r.subscripts[0], Subscript::Opaque);
    }

    #[test]
    fn symbolic_nest() {
        let sites = accesses(
            "
            REAL A(0:N*N*N-1)
            DO i = 0, N-2
              A(N*N*i + N) = A(N*N*i)
            ENDDO
        ",
        );
        let w = &sites[0];
        let n = SymPoly::symbol("N");
        let n2 = n.checked_mul(&n).unwrap();
        assert_eq!(w.loops[0].upper, n.checked_sub(&SymPoly::constant(2)).unwrap());
        assert_eq!(w.subscripts[0].as_affine().unwrap().coeff(VarId(0)), n2);
    }

    #[test]
    fn common_loops_between_disjoint_nests() {
        let sites = accesses(
            "
            REAL A(10), B(10)
            DO 1 i = 1, 9
        1   A(i) = 0
            DO 2 i = 1, 9
        2   B(i) = A(i)
            END
        ",
        );
        let w = sites.iter().find(|s| &*s.array == "A" && s.kind == AccessKind::Write).unwrap();
        let r = sites.iter().find(|s| &*s.array == "A" && s.kind == AccessKind::Read).unwrap();
        // Same variable name, different loops: zero common loops.
        assert_eq!(w.common_loops_with(r), 0);
    }
}
