//! Pretty-printers: serial FORTRAN-77-style output.

use crate::ast::{ArrayDecl, Assign, BinOp, Expr, Loop, Program, Stmt};
use std::fmt::Write as _;

/// Renders an expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, &|_| None);
    out
}

/// Appends `e` to `out` as [`expr_to_string`] renders it, except that a
/// variable for which `section` returns text prints as that text (vector
/// code prints its `lo:hi` sections this way, without rewriting the tree).
pub fn write_expr<'s>(out: &mut String, e: &Expr, section: &impl Fn(&str) -> Option<&'s str>) {
    write_prec(out, e, 0, section);
}

fn write_prec<'s>(
    out: &mut String,
    e: &Expr,
    parent_prec: u8,
    section: &impl Fn(&str) -> Option<&'s str>,
) {
    let prec = match e {
        Expr::Int(_) | Expr::Var(_) | Expr::Index(..) => 3,
        Expr::Neg(_) | Expr::Bin(BinOp::Add | BinOp::Sub, ..) => 1,
        Expr::Bin(BinOp::Mul | BinOp::Div, ..) => 2,
    };
    if prec < parent_prec {
        out.push('(');
    }
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(v) => out.push_str(section(v).unwrap_or(v)),
        Expr::Index(name, subs) => {
            out.push_str(name);
            out.push('(');
            for (i, s) in subs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_prec(out, s, 0, section);
            }
            out.push(')');
        }
        Expr::Neg(a) => {
            out.push('-');
            write_prec(out, a, 2, section);
        }
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Div => " / ",
            };
            let right_prec = if matches!(op, BinOp::Sub | BinOp::Div) { prec + 1 } else { prec };
            write_prec(out, a, prec, section);
            out.push_str(sym);
            write_prec(out, b, right_prec, section);
        }
    }
    if prec < parent_prec {
        out.push(')');
    }
}

/// Renders a whole program in canonical (ENDDO-delimited) form.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    if let Some(name) = &p.name {
        let _ = writeln!(out, "PROGRAM {name}");
    }
    for d in &p.decls {
        let _ = writeln!(out, "REAL {}", decl_to_string(d));
    }
    for (a, b) in &p.equivalences {
        let _ = writeln!(out, "EQUIVALENCE ({a}, {b})");
    }
    for s in &p.body {
        render_stmt(s, 0, &mut out);
    }
    let _ = writeln!(out, "END");
    out
}

/// Renders one array declaration body (`NAME(l1:u1, …)`).
pub fn decl_to_string(d: &ArrayDecl) -> String {
    let dims: Vec<String> = d
        .dims
        .iter()
        .map(|b| {
            if b.lower == Expr::int(1) {
                expr_to_string(&b.upper)
            } else {
                format!("{}:{}", expr_to_string(&b.lower), expr_to_string(&b.upper))
            }
        })
        .collect();
    format!("{}({})", d.name, dims.join(", "))
}

fn render_stmt(s: &Stmt, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth + 1);
    match s {
        Stmt::Loop(Loop { var, lower, upper, step, body }) => {
            let step_str =
                step.as_ref().map(|e| format!(", {}", expr_to_string(e))).unwrap_or_default();
            let _ = writeln!(
                out,
                "{indent}DO {var} = {}, {}{step_str}",
                expr_to_string(lower),
                expr_to_string(upper)
            );
            for b in body {
                render_stmt(b, depth + 1, out);
            }
            let _ = writeln!(out, "{indent}ENDDO");
        }
        Stmt::Assign(Assign { lhs, rhs, .. }) => {
            let _ = writeln!(out, "{indent}{} = {}", expr_to_string(lhs), expr_to_string(rhs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::testgen;
    use proptest::prelude::*;

    /// The renderer that built one `String` per node, kept as the
    /// reference for [`write_expr`].
    fn render_expr(e: &Expr, parent_prec: u8) -> String {
        let (s, prec) = match e {
            Expr::Int(v) => (v.to_string(), 3),
            Expr::Var(v) => (v.clone(), 3),
            Expr::Index(name, subs) => {
                let inner: Vec<String> = subs.iter().map(|s| render_expr(s, 0)).collect();
                (format!("{}({})", name, inner.join(", ")), 3)
            }
            Expr::Neg(a) => (format!("-{}", render_expr(a, 2)), 1),
            Expr::Bin(op, a, b) => {
                let (sym, prec) = match op {
                    BinOp::Add => ("+", 1),
                    BinOp::Sub => ("-", 1),
                    BinOp::Mul => ("*", 2),
                    BinOp::Div => ("/", 2),
                };
                let right_prec =
                    if matches!(op, BinOp::Sub | BinOp::Div) { prec + 1 } else { prec };
                (format!("{} {} {}", render_expr(a, prec), sym, render_expr(b, right_prec)), prec)
            }
        };
        if prec < parent_prec {
            format!("({s})")
        } else {
            s
        }
    }

    proptest! {
        /// Every expression of a generated program prints as the reference
        /// renders it, and a section replaces exactly the variables named.
        #[test]
        fn write_expr_matches_the_reference(seed in 0u64..u64::MAX) {
            let p = parse_program(&testgen::program(seed)).unwrap();
            let mut exprs = Vec::new();
            p.visit_assigns(&mut |a| exprs.extend([&a.lhs, &a.rhs]));
            for e in exprs {
                prop_assert_eq!(expr_to_string(e), render_expr(e, 0));
                let mut sectioned = String::new();
                write_expr(&mut sectioned, e, &|v| (v == "I").then_some("0:9"));
                let substituted = e.substitute_var("I", &Expr::var("0:9"));
                prop_assert_eq!(sectioned, render_expr(&substituted, 0));
            }
        }
    }

    #[test]
    fn expression_precedence() {
        let e = Expr::mul(Expr::add(Expr::var("A"), Expr::var("B")), Expr::int(2));
        assert_eq!(expr_to_string(&e), "(A + B) * 2");
        let e = Expr::add(Expr::var("A"), Expr::mul(Expr::var("B"), Expr::int(2)));
        assert_eq!(expr_to_string(&e), "A + B * 2");
        let e = Expr::sub(Expr::var("A"), Expr::sub(Expr::var("B"), Expr::var("C")));
        assert_eq!(expr_to_string(&e), "A - (B - C)");
        let e = Expr::Neg(Box::new(Expr::add(Expr::var("A"), Expr::int(1))));
        assert_eq!(expr_to_string(&e), "-(A + 1)");
    }

    #[test]
    fn roundtrip_through_parser() {
        let src = "
            REAL C(0:99), D(10)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let p = parse_program(src).unwrap();
        let text = program_to_string(&p);
        assert!(text.contains("REAL C(0:99)"));
        assert!(text.contains("DO I = 0, 4"));
        assert!(text.contains("C(I + 10 * J) = C(I + 10 * J + 5)"));
        // And the rendering parses back to the same structure.
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p.num_assigns(), p2.num_assigns());
        let text2 = program_to_string(&p2);
        assert_eq!(text, text2);
    }
}
