//! An independent soundness oracle: brute-force enumeration of a concrete
//! pair problem's iteration space. It shares no code with the engine's
//! solvers (`dep::exact`, the battery, delinearization) — only the problem
//! representation.

use delin_dep::{DependenceProblem, Dir, DirVec, Verdict};
use delin_frontend::{AccessKind, AccessSite};
use delin_vic::deps::{DepEdge, DepKind};
use std::collections::BTreeSet;

/// What enumeration found: whether any integer solution exists and every
/// realized atomic direction vector over the common loops.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ground {
    /// Some point satisfies every equation and inequality.
    pub dependent: bool,
    /// Realized atomic direction vectors (`<`, `=`, `>` per common loop).
    pub dirs: BTreeSet<Vec<Dir>>,
}

/// Number of points in the problem's iteration space (every variable
/// ranges over `0..=upper`), saturating.
pub fn space_size(p: &DependenceProblem<i128>) -> u128 {
    p.vars().iter().fold(1u128, |acc, v| acc.saturating_mul((v.upper + 1).max(0) as u128))
}

/// Enumerates every point of a concrete problem whose space holds at most
/// `cap` points; `None` above the cap.
pub fn enumerate(p: &DependenceProblem<i128>, cap: u128) -> Option<Ground> {
    if space_size(p) > cap {
        return None;
    }
    let n = p.num_vars();
    let mut ground = Ground::default();
    if p.vars().iter().any(|v| v.upper < 0) {
        return Some(ground);
    }
    let mut x = vec![0i128; n];
    loop {
        if satisfies(p, &x) {
            ground.dependent = true;
            let dirs = p
                .common_loops()
                .iter()
                .map(|&(a, b)| match x[a].cmp(&x[b]) {
                    std::cmp::Ordering::Less => Dir::Lt,
                    std::cmp::Ordering::Equal => Dir::Eq,
                    std::cmp::Ordering::Greater => Dir::Gt,
                })
                .collect();
            ground.dirs.insert(dirs);
        }
        // Odometer increment over 0..=upper per variable.
        let mut k = 0;
        loop {
            if k == n {
                return Some(ground);
            }
            if x[k] < p.vars()[k].upper {
                x[k] += 1;
                break;
            }
            x[k] = 0;
            k += 1;
        }
    }
}

fn satisfies(p: &DependenceProblem<i128>, x: &[i128]) -> bool {
    let dot =
        |c0: i128, coeffs: &[i128]| c0 + coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<i128>();
    p.equations().iter().all(|eq| dot(eq.c0, eq.coeffs.as_slice()) == 0)
        && p.inequalities().iter().all(|iq| dot(iq.c0, iq.coeffs.as_slice()) >= 0)
}

/// Whether `dv` admits the atomic vector `atom`.
fn covers(dv: &DirVec, atom: &[Dir]) -> bool {
    dv.0.len() == atom.len() && dv.0.iter().zip(atom).all(|(d, a)| d.atoms().contains(a))
}

/// Checks a pair's reported verdict against ground truth: independence
/// must mean no solution, and every realized direction must survive in the
/// verdict's direction vectors. Returns a description of the violation.
pub fn check_verdict(verdict: &Verdict, ground: &Ground) -> Result<(), String> {
    match verdict {
        Verdict::Independent if ground.dependent => {
            Err(format!("reported independent, but realizes {:?}", ground.dirs))
        }
        Verdict::Dependent { info, .. } if !info.dir_vecs.is_empty() => {
            match ground.dirs.iter().find(|a| !info.dir_vecs.iter().any(|dv| covers(dv, a))) {
                Some(a) => Err(format!("direction {a:?} missing from {:?}", info.dir_vecs)),
                None => Ok(()),
            }
        }
        _ => Ok(()),
    }
}

/// Checks that every realized direction of the pair `(a, b)` appears on an
/// emitted edge, following the engine's edge convention: a backward atom
/// is reversed onto the `b → a` edge, an all-`=` atom is loop-independent
/// in textual order, and the carrying level is the first `<`.
pub fn check_edges(
    a: &AccessSite,
    b: &AccessSite,
    ground: &Ground,
    edges: &[DepEdge],
) -> Result<(), String> {
    for atom in &ground.dirs {
        let first = atom.iter().position(|d| *d != Dir::Eq);
        let (src, dst, vector) = match first {
            None if a.stmt <= b.stmt => (a, b, atom.clone()),
            None => (b, a, atom.clone()),
            Some(l) if atom[l] == Dir::Gt => (b, a, atom.iter().map(|d| d.reverse()).collect()),
            Some(_) => (a, b, atom.clone()),
        };
        let level = vector.iter().position(|d| *d == Dir::Lt).map(|p| p + 1);
        if src.stmt == dst.stmt && level.is_none() {
            continue; // same statement, same iteration: no edge by design
        }
        let kind = match (src.kind, dst.kind) {
            (AccessKind::Write, AccessKind::Read) => DepKind::True,
            (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
            (AccessKind::Write, AccessKind::Write) => DepKind::Output,
            (AccessKind::Read, AccessKind::Read) => continue,
        };
        let found = edges.iter().any(|e| {
            e.src == src.stmt
                && e.dst == dst.stmt
                && e.kind == kind
                && e.array == src.array
                && e.level == level
                && e.dir_vecs.iter().any(|dv| covers(dv, &vector))
        });
        if !found {
            return Err(format!(
                "realized {atom:?} between {:?} and {:?} on {} has no edge",
                a.stmt, b.stmt, a.array
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_core::DelinearizationTest;
    use delin_dep::DependenceTest;

    /// The paper's motivating pair: `C(i + 10j)` written, `C(i + 10j + 5)`
    /// read, `i ∈ [0, 4]`, `j ∈ [0, 9]`. Variables are `i1, j1, i2, j2`.
    fn paper_pair(offset: i128) -> DependenceProblem<i128> {
        let mut b = DependenceProblem::<i128>::builder();
        let i1 = b.var("i1", 4);
        let j1 = b.var("j1", 9);
        let i2 = b.var("i2", 4);
        let j2 = b.var("j2", 9);
        b.equation(-offset, vec![1, 10, -1, -10]);
        b.common_pair(i1, i2);
        b.common_pair(j1, j2);
        b.build()
    }

    #[test]
    fn paper_example_is_independent() {
        let p = paper_pair(5);
        let ground = enumerate(&p, 1 << 20).expect("under cap");
        assert!(!ground.dependent);
        assert!(DelinearizationTest::default().test(&p).is_independent());
        assert!(check_verdict(&Verdict::Independent, &ground).is_ok());
    }

    #[test]
    fn shifted_by_a_row_is_dependent_with_the_true_direction() {
        // C(i + 10j) written vs C(i + 10j + 10) read: the read of iteration
        // (i, j) fetches what iteration (i, j + 1) writes, so the write's
        // iteration comes later — the realized atom is (=, >).
        let p = paper_pair(10);
        let ground = enumerate(&p, 1 << 20).expect("under cap");
        assert!(ground.dependent);
        assert_eq!(ground.dirs, BTreeSet::from([vec![Dir::Eq, Dir::Gt]]));
        let wrong = Verdict::dependent_with_dirs(vec![DirVec(vec![Dir::Eq, Dir::Lt])]);
        assert!(check_verdict(&wrong, &ground).is_err());
        let right = Verdict::dependent_with_dirs(vec![DirVec(vec![Dir::Any, Dir::Ge])]);
        assert!(check_verdict(&right, &ground).is_ok());
        assert!(check_verdict(&Verdict::Independent, &ground).is_err());
        assert!(check_verdict(&Verdict::Unknown, &ground).is_ok());
    }

    #[test]
    fn hand_built_single_loop_pairs() {
        // A(i) vs A(i - 1), i ∈ [1, 50] normalized to [0, 49]: dependent, `<`.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 49);
        let y = b.var("i2", 49);
        b.equation(1, vec![1, -1]);
        b.common_pair(x, y);
        let ground = enumerate(&b.build(), 1 << 20).expect("under cap");
        assert_eq!(ground.dirs, BTreeSet::from([vec![Dir::Lt]]));
        // A(2i) vs A(2i + 1): parity keeps them apart.
        let mut b = DependenceProblem::<i128>::builder();
        let x = b.var("i1", 49);
        let y = b.var("i2", 49);
        b.equation(-1, vec![2, -2]);
        b.common_pair(x, y);
        assert_eq!(enumerate(&b.build(), 1 << 20), Some(Ground::default()));
    }

    #[test]
    fn the_cap_bounds_the_search() {
        let p = paper_pair(5);
        assert_eq!(space_size(&p), 5 * 10 * 5 * 10);
        assert!(enumerate(&p, 2499).is_none());
        assert!(enumerate(&p, 2500).is_some());
    }
}
