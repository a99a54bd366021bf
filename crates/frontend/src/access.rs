//! Access-site collection: every array (and scalar) read/write with its
//! normalized loop context and affine subscripts.
//!
//! This is the hand-off point between the front end and dependence
//! analysis: a [`AccessSite`] carries everything Section 2's dependence
//! definition needs — the statement, the reference kind, the (possibly
//! opaque) affine subscript per dimension, and the normalized loops that
//! enclose the statement.
//!
//! Cost: the walk normalizes each loop once, when it enters it, against
//! the loops around it (the paper's `i := L + s·i'`), and builds one shared
//! [`LoopContext`] per loop body that holds a statement. A subscript or
//! bound without symbols is evaluated in `i128` arithmetic; only one with a
//! symbol builds polynomials (see [`crate::affine`]). Array, loop and symbol
//! names are interned once per walk, so every site, loop and symbol of one
//! name shares one `Arc<str>`. A site then costs its subscript vector and
//! one term map per subscript with a loop variable. A loop bound that reads
//! an inner loop's variable as a symbol (`DO i = 0, k` around `DO k`) does
//! not normalize once the inner loop is entered; the statements inside
//! such a nest renormalize it against all of its loop names.

use crate::affine::{normalize_loop, normalize_subscript, Normalized, NormalizedLoop, SymAffine};
use crate::ast::{Assign, Expr, Loop, Program, Stmt, StmtId};
use delin_numeric::{Assumptions, Sym, SymPoly};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The reference stores to memory.
    Write,
    /// The reference loads from memory.
    Read,
}

/// The normalized loop context of a statement (outermost first). The sites
/// of every statement in one loop body share one list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopContext(Arc<[NormalizedLoop]>);

impl Deref for LoopContext {
    type Target = [NormalizedLoop];

    fn deref(&self) -> &[NormalizedLoop] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a LoopContext {
    type Item = &'a NormalizedLoop;
    type IntoIter = std::slice::Iter<'a, NormalizedLoop>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<NormalizedLoop> for LoopContext {
    fn from_iter<I: IntoIterator<Item = NormalizedLoop>>(loops: I) -> LoopContext {
        LoopContext(loops.into_iter().collect())
    }
}

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
        self.loops.iter().zip(other.loops.iter()).take_while(|(a, b)| a.uid == b.uid).count()
    }
}

/// Collects every access site of the program. Loop nests whose bounds
/// cannot be normalized yield sites with opaque subscripts (conservative).
pub fn collect_accesses(program: &Program, assumptions: &Assumptions) -> Vec<AccessSite> {
    let mut walk = Walk {
        program,
        assumptions,
        names: Names::default(),
        loops: Vec::new(),
        normalized: Vec::new(),
        free: Vec::new(),
        shadowing: 0,
        context: None,
        next_uid: 0,
        sites: Vec::new(),
    };
    walk.body(&program.body);
    walk.sites
}

/// The program's names, interned once per walk.
#[derive(Default)]
struct Names(HashMap<Arc<str>, Interned>);

struct Interned {
    name: Arc<str>,
    /// Whether the name is a declared array, once asked.
    array: Option<bool>,
}

impl Names {
    /// The shared copy of `name`.
    fn get(&mut self, name: &str) -> Arc<str> {
        match self.0.get(name) {
            Some(e) => Arc::clone(&e.name),
            None => Arc::clone(&self.insert(name).name),
        }
    }

    /// The shared copy of `name` when it names a declared array.
    fn array(&mut self, program: &Program, name: &str) -> Option<Arc<str>> {
        if let Some(Interned { name, array: Some(array) }) = self.0.get(name) {
            return array.then(|| Arc::clone(name));
        }
        let e = self.insert(name);
        let array = *e.array.get_or_insert_with(|| program.is_array(name));
        array.then(|| Arc::clone(&e.name))
    }

    fn insert(&mut self, name: &str) -> &mut Interned {
        self.0
            .entry(name.into())
            .or_insert_with_key(|name| Interned { name: Arc::clone(name), array: None })
    }

    fn symbol(&mut self, name: &str) -> Sym {
        Sym::from(self.get(name))
    }
}

/// A loop the walk is inside.
struct Entered<'a> {
    lp: &'a Loop,
    uid: u32,
    var: Arc<str>,
    /// Whether the bounds or step of an outer loop read this loop's
    /// variable as a symbol.
    shadows: bool,
    /// Where this loop's entries in [`Walk::free`] start.
    free_from: usize,
}

/// The normalization the sites of the walk's current statement use.
enum Nest {
    /// Every enclosing loop normalized when the walk entered it.
    Entered,
    /// Renormalized against the names of all enclosing loops.
    Renormalized(Vec<Normalized>),
    /// The nest does not normalize.
    Not,
}

impl Nest {
    /// The normalized loops, given the ones normalized on entry; `None`
    /// when the nest does not normalize.
    fn loops<'s>(&'s self, entered: &'s [Normalized]) -> Option<&'s [Normalized]> {
        match self {
            Nest::Entered => Some(entered),
            Nest::Renormalized(n) => Some(n),
            Nest::Not => None,
        }
    }
}

/// What the sites of every statement in the current loop body share.
struct Context {
    loops: LoopContext,
    nest: Nest,
}

struct Walk<'a> {
    program: &'a Program,
    assumptions: &'a Assumptions,
    names: Names,
    /// The enclosing loops, outermost first.
    loops: Vec<Entered<'a>>,
    /// The normalized outermost loops: all of `loops` while each one
    /// normalized against the loops around it when the walk entered it,
    /// else those before the first that did not.
    normalized: Vec<Normalized>,
    /// The names the enclosing loops' bounds and steps read as symbols.
    free: Vec<&'a str>,
    /// How many enclosing loops shadow one of those symbols.
    shadowing: usize,
    /// The current loop body's context, built by its first statement.
    context: Option<Context>,
    next_uid: u32,
    sites: Vec<AccessSite>,
}

impl<'a> Walk<'a> {
    fn body(&mut self, body: &'a [Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Loop(l) => {
                    self.enter(l);
                    self.body(&l.body);
                    self.leave();
                }
                Stmt::Assign(a) => self.assign(a),
            }
        }
    }

    fn enter(&mut self, l: &'a Loop) {
        let uid = self.next_uid;
        self.next_uid += 1;
        let var = self.names.get(&l.var);
        let k = self.loops.len();
        let shadows = self.free.iter().any(|n| **n == *var);
        let free_from = self.free.len();
        let outer = &self.loops;
        let find = |name: &str| {
            outer.iter().position(|o| *o.var == *name).or((name == &*var).then_some(k))
        };
        for e in [&l.lower, &l.upper].into_iter().chain(&l.step) {
            vars(e, &mut |name| {
                if find(name).is_none() {
                    self.free.push(name);
                }
            });
        }
        if self.normalized.len() == k {
            let names = &mut self.names;
            let n = normalize_loop(l, k, &self.normalized, self.assumptions, &find, &mut |s| {
                names.symbol(s)
            });
            self.normalized.extend(n);
        }
        self.shadowing += usize::from(shadows);
        self.loops.push(Entered { lp: l, uid, var, shadows, free_from });
        self.context = None;
    }

    fn leave(&mut self) {
        let l = self.loops.pop().expect("a loop to leave");
        self.free.truncate(l.free_from);
        self.shadowing -= usize::from(l.shadows);
        self.normalized.truncate(self.loops.len());
        self.context = None;
    }

    /// Builds the current loop body's context, once.
    fn context(&mut self) {
        if self.context.is_some() {
            return;
        }
        let nest = if self.shadowing > 0 {
            self.renormalize().map_or(Nest::Not, Nest::Renormalized)
        } else if self.normalized.len() == self.loops.len() {
            Nest::Entered
        } else {
            Nest::Not
        };
        let loops = match nest.loops(&self.normalized) {
            Some(n) => self
                .loops
                .iter()
                .zip(n)
                .map(|(l, n)| NormalizedLoop {
                    uid: l.uid,
                    var: l.var.clone(),
                    upper: n.upper.clone(),
                })
                .collect(),
            // Unanalyzable nest: keep the loop structure with fresh
            // symbolic bounds so at least statement ordering survives.
            None => {
                let names = &mut self.names;
                self.loops
                    .iter()
                    .map(|l| NormalizedLoop {
                        uid: l.uid,
                        var: l.var.clone(),
                        upper: SymPoly::symbol(names.symbol(&format!("UB_{}", l.var))),
                    })
                    .collect()
            }
        };
        self.context = Some(Context { loops, nest });
    }

    /// Normalizes the whole nest against the names of all its loops.
    fn renormalize(&mut self) -> Option<Vec<Normalized>> {
        let loops = &self.loops;
        let find = |name: &str| loops.iter().position(|l| *l.var == *name);
        let mut out: Vec<Normalized> = Vec::with_capacity(loops.len());
        for (k, l) in loops.iter().enumerate() {
            let names = &mut self.names;
            let n =
                normalize_loop(l.lp, k, &out, self.assumptions, &find, &mut |s| names.symbol(s))?;
            out.push(n);
        }
        Some(out)
    }

    fn is_loop_var(&self, name: &str) -> bool {
        self.loops.iter().any(|l| *l.var == *name)
    }

    fn assign(&mut self, a: &Assign) {
        self.context();
        // The LHS as a whole is a write; its subscripts are reads.
        let array = match &a.lhs {
            Expr::Index(name, _) => self.names.array(self.program, name),
            _ => None,
        };
        match (&a.lhs, array) {
            (Expr::Index(_, subs), Some(array)) => {
                self.site(a.id, array, AccessKind::Write, subs);
                for s in subs {
                    self.refs(a.id, s, AccessKind::Read);
                }
            }
            (Expr::Var(name), _) if !self.is_loop_var(name) => {
                let scalar = self.names.get(name);
                self.site(a.id, scalar, AccessKind::Write, &[]);
            }
            (other, _) => self.refs(a.id, other, AccessKind::Write),
        }
        self.refs(a.id, &a.rhs, AccessKind::Read);
    }

    fn refs(&mut self, stmt: StmtId, e: &Expr, kind: AccessKind) {
        match e {
            Expr::Int(_) => {}
            Expr::Var(name) => {
                if !self.is_loop_var(name) {
                    let scalar = self.names.get(name);
                    self.site(stmt, scalar, kind, &[]);
                }
            }
            Expr::Index(name, subs) => {
                if let Some(array) = self.names.array(self.program, name) {
                    self.site(stmt, array, kind, subs);
                }
                // Subscripts (or call arguments) are themselves reads.
                for s in subs {
                    self.refs(stmt, s, AccessKind::Read);
                }
            }
            Expr::Bin(_, a, b) => {
                self.refs(stmt, a, kind);
                self.refs(stmt, b, kind);
            }
            Expr::Neg(a) => self.refs(stmt, a, kind),
        }
    }

    fn site(&mut self, stmt: StmtId, array: Arc<str>, kind: AccessKind, subs: &[Expr]) {
        let context = self.context.as_ref().expect("built by the statement");
        let nest = context.nest.loops(&self.normalized);
        let loops = &self.loops;
        let find = |name: &str| loops.iter().position(|l| *l.var == *name);
        let names = &mut self.names;
        let subscripts = subs
            .iter()
            .map(|s| match normalize_subscript(s, nest, &find, &mut |s| names.symbol(s)) {
                Some(a) => Subscript::Affine(a),
                None => Subscript::Opaque,
            })
            .collect();
        self.sites.push(AccessSite { stmt, array, kind, subscripts, loops: context.loops.clone() });
    }
}

/// Calls `f` on each variable an evaluation of `e` may resolve: every
/// `Var` outside array elements and calls, whose arguments no bound
/// evaluates.
fn vars<'e>(e: &'e Expr, f: &mut impl FnMut(&'e str)) {
    match e {
        Expr::Int(_) | Expr::Index(..) => {}
        Expr::Var(name) => f(name),
        Expr::Bin(_, a, b) => {
            vars(a, f);
            vars(b, f);
        }
        Expr::Neg(a) => vars(a, f),
    }
}

/// The per-statement collection this module had before loops were
/// normalized once per walk, kept as the reference the walk is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::affine::expr_to_affine;
    use crate::affine::reference::{normalize_nest, NormalizedNest, RawLoop};

    /// Collects every access site of the program, renormalizing the whole
    /// nest of each assignment.
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
        let (loops, normalizer): (LoopContext, Option<&NormalizedNest>) = match &nest {
            Some(n) => (n.loops.iter().cloned().collect(), Some(n)),
            None => (
                stack
                    .iter()
                    .map(|l| NormalizedLoop {
                        uid: l.uid,
                        var: l.var.as_str().into(),
                        upper: SymPoly::symbol(format!("UB_{}", l.var).as_str()),
                    })
                    .collect(),
                None,
            ),
        };
        let mut out = Vec::new();
        let cx = Cx { program, stmt: a.id, loops: &loops, loop_names: &loop_names, normalizer };
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
                    cx.collect_refs(s, AccessKind::Read, &mut out);
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
            other => cx.collect_refs(other, AccessKind::Write, &mut out),
        }
        cx.collect_refs(&a.rhs, AccessKind::Read, &mut out);
        out
    }

    struct Cx<'a> {
        program: &'a Program,
        stmt: StmtId,
        loops: &'a LoopContext,
        loop_names: &'a [String],
        normalizer: Option<&'a NormalizedNest>,
    }

    impl Cx<'_> {
        fn collect_refs(&self, expr: &Expr, kind: AccessKind, out: &mut Vec<AccessSite>) {
            match expr {
                Expr::Int(_) => {}
                Expr::Var(name) => {
                    if !self.loop_names.contains(name) {
                        out.push(AccessSite {
                            stmt: self.stmt,
                            array: name.as_str().into(),
                            kind,
                            subscripts: Vec::new(),
                            loops: self.loops.clone(),
                        });
                    }
                }
                Expr::Index(name, subs) => {
                    if self.program.is_array(name) {
                        let subscripts = subs
                            .iter()
                            .map(|s| make_subscript(s, self.loop_names, self.normalizer))
                            .collect();
                        out.push(AccessSite {
                            stmt: self.stmt,
                            array: name.as_str().into(),
                            kind,
                            subscripts,
                            loops: self.loops.clone(),
                        });
                    }
                    for s in subs {
                        self.collect_refs(s, AccessKind::Read, out);
                    }
                }
                Expr::Bin(_, a, b) => {
                    self.collect_refs(a, kind, out);
                    self.collect_refs(b, kind, out);
                }
                Expr::Neg(a) => self.collect_refs(a, kind, out),
            }
        }
    }

    fn make_subscript(
        e: &Expr,
        loop_names: &[String],
        normalizer: Option<&NormalizedNest>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::testgen;
    use delin_numeric::VarId;
    use proptest::prelude::*;

    fn accesses(src: &str) -> Vec<AccessSite> {
        let p = parse_program(src).unwrap();
        collect_accesses(&p, &Assumptions::new())
    }

    /// Collects `src`'s sites both ways; they must agree site for site.
    fn check_against_reference(src: &str, assumptions: &Assumptions) -> Result<(), TestCaseError> {
        let Ok(p) = parse_program(src) else { return Ok(()) };
        let walked = collect_accesses(&p, assumptions);
        let reference = reference::collect_accesses(&p, assumptions);
        prop_assert_eq!(walked.len(), reference.len(), "site count of\n{}", src);
        for (i, (w, r)) in walked.iter().zip(&reference).enumerate() {
            prop_assert_eq!(w, r, "site {} of\n{}", i, src);
        }
        Ok(())
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
        // One loop list and one name for both sites.
        assert!(Arc::ptr_eq(&w.loops.0, &r.loops.0));
        assert!(Arc::ptr_eq(&w.array, &r.array));
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

    #[test]
    fn outer_bound_naming_an_inner_loop_does_not_normalize_inside_it() {
        // K is a symbol in the I loop's bound until the K loop is entered.
        let src = "
            REAL A(0:99)
            DO I = 0, K
              A(I) = 0
              DO K = 0, 9
                A(I + K) = 1
              ENDDO
            ENDDO
        ";
        let sites = accesses(src);
        assert_eq!(sites[0].loops[0].upper, SymPoly::symbol("K"));
        assert!(sites[0].is_affine());
        assert_eq!(sites[1].loops[0].upper, SymPoly::symbol("UB_I"));
        assert_eq!(sites[1].subscripts[0], Subscript::Opaque);
        check_against_reference(src, &Assumptions::new()).unwrap();
    }

    #[test]
    fn riceps_programs_match_the_reference() {
        for spec in delin_corpus::riceps::all_benchmarks() {
            let src = delin_corpus::riceps::generate_scaled(&spec, 120);
            let mut assumptions = Assumptions::new();
            assumptions.set_lower_bound("NX", 2);
            assumptions.set_lower_bound("NY", 2);
            check_against_reference(&src, &assumptions).unwrap();
            // The pipeline collects after induction substitution.
            let p = parse_program(&src).unwrap();
            let (p, _) = crate::induction::substitute_inductions(&p);
            assert_eq!(
                collect_accesses(&p, &assumptions),
                reference::collect_accesses(&p, &assumptions),
                "{}",
                spec.name
            );
        }
    }

    proptest! {
        /// Generated programs, eight per case: symbolic and concrete
        /// linearized nests, repeated loop names, bounds naming outer, own
        /// and inner loops, zero, negative, non-unit and symbolic steps, and
        /// coefficients near `i128::MAX` and `i128::MIN`.
        #[test]
        fn walk_matches_the_reference(seed in 0u64..u64::MAX, nx in 0i128..12) {
            let mut assumptions = Assumptions::new();
            if nx > 0 {
                assumptions.set_lower_bound("NX", nx);
            }
            for s in 0..8 {
                check_against_reference(&testgen::program(seed.wrapping_add(s)), &assumptions)?;
            }
        }
    }
}
