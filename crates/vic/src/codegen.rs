//! Allen–Kennedy vector code generation.
//!
//! `codegen(R, k)`: consider the dependence edges among statements `R`
//! that are not already satisfied by the serialized outer loops (carried
//! level > k, or loop-independent). Statements not on a cycle vectorize
//! over all their remaining loops; strongly-connected components keep the
//! level-`k` loop serial and recurse at `k + 1`. The output is printed in
//! FORTRAN-90 style with `lo:hi` sections substituted for vectorized loop
//! variables.
//!
//! Cost: [`vectorize`] resolves each graph edge to dense statement indices
//! once. A `codegen` call then reads only the edges it is handed and hands
//! each cyclic component only the edges among that component's members, so
//! one call costs O(its statements + its edges), and the calls of one
//! recursion level together cost O(statements + edges).
//!
//! Order invariant: a child's edges are its parent's edges among the
//! child's members, in graph order. Tarjan visits successors in edge order,
//! so that order fixes the component order and therefore the output; sorted
//! or deduplicated edges could yield another valid topological order, i.e.
//! different code.

use crate::deps::DepGraph;
use crate::scc::strongly_connected_components;
use delin_frontend::ast::{Assign, Expr, Program, Stmt, StmtId};
use delin_frontend::pretty::expr_to_string;
use std::fmt::Write as _;

/// One loop shell enclosing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopShell {
    /// Loop variable name.
    pub var: String,
    /// Lower bound.
    pub lower: Expr,
    /// Upper bound.
    pub upper: Expr,
    /// Identity (preorder index), matching the access-collection walk.
    pub uid: u32,
}

/// A statement with its loop context.
#[derive(Debug, Clone)]
struct StmtCtx {
    id: StmtId,
    assign: Assign,
    loops: Vec<LoopShell>,
}

/// A dependence edge resolved to dense statement indices (positions in the
/// flattened statement list).
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: usize,
    dst: usize,
    /// Carrying level (1-based); `usize::MAX` for a loop-independent edge,
    /// which no serial loop satisfies.
    level: usize,
}

/// Generated vector code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VectorStmt {
    /// A loop kept serial.
    Serial {
        /// Loop variable.
        var: String,
        /// Lower bound (rendered).
        lower: String,
        /// Upper bound (rendered).
        upper: String,
        /// Body.
        body: Vec<VectorStmt>,
    },
    /// A (possibly vectorized) assignment.
    Statement {
        /// Statement identity.
        id: StmtId,
        /// Rendered FORTRAN-90-style text.
        text: String,
        /// Number of loops turned into vector sections for this statement.
        vector_dims: usize,
    },
}

/// Result of vectorization.
#[derive(Debug, Clone)]
pub struct VectorizeResult {
    /// The generated code tree.
    pub code: Vec<VectorStmt>,
    /// Total assignment statements.
    pub total_statements: usize,
    /// Statements vectorized over at least one loop.
    pub vectorized_statements: usize,
    /// Total vectorized loop dimensions summed over statements.
    pub vector_dimensions: usize,
}

impl VectorizeResult {
    /// Renders the code tree as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.code {
            render_stmt(s, 0, &mut out);
        }
        out
    }
}

fn render_stmt(s: &VectorStmt, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match s {
        VectorStmt::Serial { var, lower, upper, body } => {
            let _ = writeln!(out, "{indent}DO {var} = {lower}, {upper}");
            for b in body {
                render_stmt(b, depth + 1, out);
            }
            let _ = writeln!(out, "{indent}ENDDO");
        }
        VectorStmt::Statement { text, .. } => {
            let _ = writeln!(out, "{indent}{text}");
        }
    }
}

/// Vectorizes a program given its dependence graph.
pub fn vectorize(program: &Program, graph: &DepGraph) -> VectorizeResult {
    // Flatten statements with their loop shells.
    let mut ctxs: Vec<StmtCtx> = Vec::new();
    let mut stack: Vec<LoopShell> = Vec::new();
    let mut uid = 0u32;
    fn walk(stmts: &[Stmt], stack: &mut Vec<LoopShell>, uid: &mut u32, out: &mut Vec<StmtCtx>) {
        for s in stmts {
            match s {
                Stmt::Loop(l) => {
                    stack.push(LoopShell {
                        var: l.var.clone(),
                        lower: l.lower.clone(),
                        upper: l.upper.clone(),
                        uid: *uid,
                    });
                    *uid += 1;
                    walk(&l.body, stack, uid, out);
                    stack.pop();
                }
                Stmt::Assign(a) => {
                    out.push(StmtCtx { id: a.id, assign: a.clone(), loops: stack.clone() })
                }
            }
        }
    }
    walk(&program.body, &mut stack, &mut uid, &mut ctxs);

    // Dense statement index by id; edges whose ends are not assignments of
    // this program resolve to nothing and are dropped.
    let mut index_of =
        vec![usize::MAX; ctxs.iter().map(|c| c.id.0 as usize + 1).max().unwrap_or(0)];
    for (i, c) in ctxs.iter().enumerate() {
        index_of[c.id.0 as usize] = i;
    }
    let resolve = |s: StmtId| index_of.get(s.0 as usize).copied().filter(|&i| i != usize::MAX);
    let edges: Vec<Edge> = graph
        .edges
        .iter()
        .filter_map(|e| {
            Some(Edge {
                src: resolve(e.src)?,
                dst: resolve(e.dst)?,
                level: e.level.unwrap_or(usize::MAX),
            })
        })
        .collect();
    let mut result = VectorizeResult {
        code: Vec::new(),
        total_statements: ctxs.len(),
        vectorized_statements: 0,
        vector_dimensions: 0,
    };
    let all: Vec<usize> = (0..ctxs.len()).collect();
    let mut pos = vec![0; ctxs.len()];
    let code = codegen(&ctxs, &all, &edges, 0, &mut pos, &mut result);
    result.code = code;
    result
}

/// One level of the recursion over `members` (ascending statement indices).
/// `edges` are the graph's edges among `members`, in graph order. `pos` is
/// scratch indexed by statement, written for `members` on entry and read
/// only before the first recursive call, so one buffer serves every call.
fn codegen(
    ctxs: &[StmtCtx],
    members: &[usize],
    edges: &[Edge],
    level: usize,
    pos: &mut [usize],
    result: &mut VectorizeResult,
) -> Vec<VectorStmt> {
    for (p, &m) in members.iter().enumerate() {
        pos[m] = p;
    }
    // Active edges: not yet satisfied by outer serial loops.
    let active: Vec<Edge> = edges.iter().copied().filter(|e| e.level > level).collect();
    let local: Vec<(usize, usize)> = active.iter().map(|e| (pos[e.src], pos[e.dst])).collect();
    let comps = strongly_connected_components(members.len(), &local);
    let mut comp_of = vec![0; members.len()];
    for (c, comp) in comps.iter().enumerate() {
        for &p in comp {
            comp_of[p] = c;
        }
    }
    // One pass buckets each component's internal edges, in graph order;
    // edges between components are satisfied by the emission order. A
    // singleton's bucket holds exactly its self-loops.
    let mut buckets: Vec<Vec<Edge>> = vec![Vec::new(); comps.len()];
    for (&e, &(a, b)) in active.iter().zip(&local) {
        if comp_of[a] == comp_of[b] {
            buckets[comp_of[a]].push(e);
        }
    }

    let mut out = Vec::new();
    for (comp, bucket) in comps.iter().zip(&buckets) {
        let comp_members: Vec<usize> = comp.iter().map(|&p| members[p]).collect();
        let cyclic = comp.len() > 1 || !bucket.is_empty();
        if !cyclic {
            // Vectorize this statement over all its loops at depth >= level.
            let m = comp_members[0];
            out.push(emit_vector_statement(&ctxs[m], level, result));
            continue;
        }
        // A cycle: the level-`level` loop stays serial. All members must
        // share that loop (guaranteed for cycles — carried edges need
        // common loops); fall back to fully serial code if not.
        let shared = comp_members
            .iter()
            .map(|&m| ctxs[m].loops.get(level).map(|l| l.uid))
            .collect::<Vec<_>>();
        let all_share =
            shared.iter().all(|u| u.is_some() && *u == shared[0]) && shared[0].is_some();
        if !all_share {
            for &m in &comp_members {
                out.push(emit_fully_serial(&ctxs[m], level));
            }
            continue;
        }
        let shell = &ctxs[comp_members[0]].loops[level];
        let body = codegen(ctxs, &comp_members, bucket, level + 1, pos, result);
        out.push(VectorStmt::Serial {
            var: shell.var.clone(),
            lower: expr_to_string(&shell.lower),
            upper: expr_to_string(&shell.upper),
            body,
        });
    }
    out
}

/// Emits a statement vectorized over its loops at depth ≥ `level`
/// (substituting `lo:hi` sections for the loop variables).
fn emit_vector_statement(ctx: &StmtCtx, level: usize, result: &mut VectorizeResult) -> VectorStmt {
    let mut lhs = ctx.assign.lhs.clone();
    let mut rhs = ctx.assign.rhs.clone();
    let mut dims = 0;
    for shell in ctx.loops.iter().skip(level) {
        let section = Expr::var(&format!(
            "{}:{}",
            expr_to_string(&shell.lower),
            expr_to_string(&shell.upper)
        ));
        lhs = lhs.substitute_var(&shell.var, &section);
        rhs = rhs.substitute_var(&shell.var, &section);
        dims += 1;
    }
    if dims > 0 {
        result.vectorized_statements += 1;
        result.vector_dimensions += dims;
    }
    VectorStmt::Statement {
        id: ctx.id,
        text: format!("{} = {}", expr_to_string(&lhs), expr_to_string(&rhs)),
        vector_dims: dims,
    }
}

/// Conservative fallback: the statement wrapped in all its remaining serial
/// loops.
fn emit_fully_serial(ctx: &StmtCtx, level: usize) -> VectorStmt {
    let stmt = VectorStmt::Statement {
        id: ctx.id,
        text: format!("{} = {}", expr_to_string(&ctx.assign.lhs), expr_to_string(&ctx.assign.rhs)),
        vector_dims: 0,
    };
    let mut cur = stmt;
    for shell in ctx.loops.iter().skip(level).rev() {
        cur = VectorStmt::Serial {
            var: shell.var.clone(),
            lower: expr_to_string(&shell.lower),
            upper: expr_to_string(&shell.upper),
            body: vec![cur],
        };
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{build_dependence_graph, TestChoice};
    use delin_frontend::parse_program;
    use delin_numeric::Assumptions;

    fn run(src: &str) -> VectorizeResult {
        let p = parse_program(src).unwrap();
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst);
        vectorize(&p, &g)
    }

    #[test]
    fn independent_loop_vectorizes() {
        let r = run("
            REAL D(0:9)
            DO 1 i = 0, 4
        1   D(i) = D(i + 5)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        let text = r.render();
        assert!(text.contains("D(0:4) = D(0:4 + 5)"), "{text}");
        assert!(!text.contains("DO "), "{text}");
    }

    #[test]
    fn recurrence_stays_serial() {
        let r = run("
            REAL D(0:9)
            DO 1 i = 0, 8
        1   D(i + 1) = D(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 0);
        let text = r.render();
        assert!(text.contains("DO I = 0, 8"), "{text}");
        assert!(text.contains("D(I + 1) = D(I)"), "{text}");
    }

    #[test]
    fn motivating_example_vectorizes_with_delinearization() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let r = run(src);
        assert_eq!(r.vectorized_statements, 1);
        assert_eq!(r.vector_dimensions, 2);
        let text = r.render();
        assert!(text.contains("C(0:4 + 10 * 0:9) = C(0:4 + 10 * 0:9 + 5)"), "{text}");
        // Without delinearization the statement stays fully serial.
        let p = parse_program(src).unwrap();
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::BatteryOnly);
        let r = vectorize(&p, &g);
        assert_eq!(r.vectorized_statements, 0);
    }

    #[test]
    fn loop_distribution_orders_statements() {
        // S2 feeds S1 across iterations? No: S1 writes A, S2 reads A at the
        // same iteration: loop-independent edge S1 -> S2; both vectorize,
        // S1 printed before S2.
        let r = run("
            REAL A(0:9), B(0:9)
            DO 1 i = 0, 9
              A(i) = 1
        1   B(i) = A(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 2);
        let text = r.render();
        let a_pos = text.find("A(0:9) = 1").expect("A statement");
        let b_pos = text.find("B(0:9) = A(0:9)").expect("B statement");
        assert!(a_pos < b_pos, "{text}");
    }

    #[test]
    fn partial_vectorization_outer_serial() {
        // Outer-carried recurrence, inner independent: the i loop stays
        // serial, the j loop vectorizes.
        let r = run("
            REAL A(0:10, 0:10)
            DO 1 i = 1, 9
            DO 1 j = 1, 9
        1   A(i + 1, j) = A(i, j)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        assert_eq!(r.vector_dimensions, 1);
        let text = r.render();
        assert!(text.contains("DO I = 1, 9"), "{text}");
        assert!(text.contains("A(I + 1, 1:9) = A(I, 1:9)"), "{text}");
        assert!(!text.contains("DO J"), "{text}");
    }

    #[test]
    fn mixed_cycle_and_free_statement() {
        // S1 is a recurrence (serial); S2 is independent of everything
        // (vector).
        let r = run("
            REAL A(0:20), B(0:20), C(0:20)
            DO 1 i = 0, 9
              A(i + 1) = A(i)
        1   B(i) = C(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        let text = r.render();
        assert!(text.contains("B(0:9) = C(0:9)"), "{text}");
        assert!(text.contains("DO I = 0, 9"), "{text}");
    }

    #[test]
    fn two_statement_cycle_serializes_only_the_outer_loop() {
        // S2 -> S1 is carried by I and S1 -> S2 by J: the cycle breaks once
        // I is serial, so both statements vectorize over J, S1 first.
        let r = run("
            REAL A(0:10, 0:10), B(0:10, 0:10)
            DO i = 1, 9
            DO j = 1, 9
              A(i, j) = B(i - 1, j)
              B(i, j) = A(i, j - 1)
            ENDDO
            ENDDO
            END
        ");
        assert_eq!(
            r.render(),
            "DO I = 1, 9\n  A(I, 1:9) = B(I - 1, 1:9)\n  B(I, 1:9) = A(I, 1:9 - 1)\nENDDO\n"
        );
        assert_eq!((r.vectorized_statements, r.vector_dimensions), (2, 2));
    }

    #[test]
    fn cycle_carried_at_both_levels_stays_serial() {
        // S2 -> S1 is carried by I and again by J, so the cycle survives a
        // serial I and both statements stay inside DO I / DO J.
        let r = run("
            REAL A(0:10, 0:10), B(0:10, 0:10)
            DO i = 1, 9
            DO j = 1, 9
              A(i, j) = B(i - 1, j) + B(i, j - 1)
              B(i, j) = A(i, j)
            ENDDO
            ENDDO
            END
        ");
        assert_eq!(
            r.render(),
            "DO I = 1, 9\n  DO J = 1, 9\n    A(I, J) = B(I - 1, J) + B(I, J - 1)\n    \
             B(I, J) = A(I, J)\n  ENDDO\nENDDO\n"
        );
        assert_eq!(r.vectorized_statements, 0);
    }

    #[test]
    fn statements_outside_loops() {
        let r = run("
            REAL A(0:9)
            X = 1
            A(0) = X
            END
        ");
        assert_eq!(r.total_statements, 2);
        assert_eq!(r.vectorized_statements, 0);
        let text = r.render();
        let x = text.find("X = 1").unwrap();
        let a = text.find("A(0) = X").unwrap();
        assert!(x < a);
    }
}
