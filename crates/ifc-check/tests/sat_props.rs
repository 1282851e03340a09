//! Properties of the prover's CDCL solver (`prover::sat`) against
//! exhaustive enumeration.
//!
//! Random CNFs over at most twelve variables mix unit, binary, ternary
//! and long clauses, duplicate and complementary literals included.
//! Every `Sat` model must satisfy every clause, `Unsat` must agree with
//! brute force, and `Budget` must appear exactly when the conflict
//! budget is smaller than the number of conflicts the unbounded search
//! analyses. All-binary instances make every conflict a binary-clause
//! conflict, the path that propagates without reading the clause arena.

use ifc_check::prover::sat::{slit, SLit, SolveResult, Solver};
use proptest::collection::vec;
use proptest::prelude::*;

/// Most variables an instance uses; brute force enumerates `2^MAX_VARS`.
const MAX_VARS: u32 = 12;

/// A clause as `(variable, negated)` pairs.
type Clause = Vec<(u32, bool)>;

#[derive(Debug, Clone)]
struct Cnf {
    vars: u32,
    clauses: Vec<Clause>,
}

/// A literal, negated one time in three: the solver's first decisions
/// set variables false, so mostly-positive clauses make it conflict.
fn lit() -> impl Strategy<Value = (u32, bool)> {
    (
        0..MAX_VARS,
        prop_oneof![Just(false), Just(false), Just(true)],
    )
}

/// Clause lengths weighted toward the binary and ternary clauses the
/// Tseitin encoding produces; units are rare so that most instances
/// need a search.
fn arb_clause() -> impl Strategy<Value = Clause> {
    prop_oneof![
        vec(lit(), 1..=1),
        vec(lit(), 2..=2),
        vec(lit(), 2..=2),
        vec(lit(), 2..=2),
        vec(lit(), 3..=3),
        vec(lit(), 3..=3),
        vec(lit(), 3..=3),
        vec(lit(), 3..=3),
        vec(lit(), 3..=3),
        vec(lit(), 4..=8),
    ]
}

/// Keeps up to `per_var × vars` clauses (`per_var` around the
/// satisfiability threshold) and folds every variable into `0..vars`,
/// which makes duplicate and complementary literals common.
fn fold(vars: u32, per_var: f64, clauses: Vec<Clause>) -> Cnf {
    let keep = (per_var * f64::from(vars)) as usize + 1;
    let clauses = clauses
        .into_iter()
        .take(keep)
        .map(|c| c.into_iter().map(|(v, n)| (v % vars, n)).collect())
        .collect();
    Cnf { vars, clauses }
}

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    (4..=MAX_VARS, 15u32..60, vec(arb_clause(), 60))
        .prop_map(|(vars, tenths, clauses)| fold(vars, f64::from(tenths) / 10.0, clauses))
}

fn arb_two_sat() -> impl Strategy<Value = Cnf> {
    (2..=MAX_VARS, 5u32..25, vec(vec(lit(), 2..=2), 30))
        .prop_map(|(vars, tenths, clauses)| fold(vars, f64::from(tenths) / 10.0, clauses))
}

fn load(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    for _ in 0..cnf.vars {
        s.new_var();
    }
    for clause in &cnf.clauses {
        let lits: Vec<SLit> = clause.iter().map(|&(v, n)| slit(v, n)).collect();
        // `false` means trivially unsatisfiable; later clauses are no-ops.
        s.add_clause(&lits);
    }
    s
}

fn satisfies(cnf: &Cnf, value: impl Fn(u32) -> bool) -> bool {
    cnf.clauses
        .iter()
        .all(|c| c.iter().any(|&(v, n)| value(v) != n))
}

fn brute_force_sat(cnf: &Cnf) -> bool {
    (0u32..1 << cnf.vars).any(|bits| satisfies(cnf, |v| bits >> v & 1 == 1))
}

/// Solves with `budget` on a fresh solver; returns the result, the
/// conflict count, and whether a `Sat` model satisfies every clause.
fn solve(cnf: &Cnf, budget: u64) -> (SolveResult, u64, bool) {
    let mut s = load(cnf);
    let out = s.solve(budget);
    let model_ok = out != SolveResult::Sat || satisfies(cnf, |v| s.value(v));
    (out, s.stats().conflicts, model_ok)
}

fn check(cnf: &Cnf) -> Result<(), TestCaseError> {
    let (full, conflicts, model_ok) = solve(cnf, u64::MAX);
    prop_assert!(full != SolveResult::Budget, "unbounded search gave up");
    prop_assert!(model_ok, "Sat model violates a clause: {cnf:?}");
    prop_assert_eq!(full == SolveResult::Sat, brute_force_sat(cnf));
    // An `Unsat` search ends on a level-0 conflict that is counted but
    // never analysed, so the budget cannot cut it.
    let analysed = if full == SolveResult::Unsat {
        conflicts.saturating_sub(1)
    } else {
        conflicts
    };
    for budget in 1..=analysed + 1 {
        let (out, _, model_ok) = solve(cnf, budget);
        if budget <= analysed {
            prop_assert_eq!(
                out,
                SolveResult::Budget,
                "budget {} of {}",
                budget,
                analysed
            );
        } else {
            prop_assert_eq!(out, full, "budget {} covers the search", budget);
            prop_assert!(model_ok);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_cnfs_agree_with_enumeration(cnf in arb_cnf()) {
        check(&cnf)?;
    }

    #[test]
    fn binary_only_cnfs_agree_with_enumeration(cnf in arb_two_sat()) {
        check(&cnf)?;
    }
}

/// `(a ∨ b)(a ∨ ¬b)(¬a ∨ c)(¬a ∨ ¬c)`: no units, so the search must
/// decide, hit a conflict on a binary clause, learn `a`, and refute it.
#[test]
fn binary_clause_conflict_is_analysed_to_unsat() {
    let (a, b, c) = (0, 1, 2);
    let cnf = Cnf {
        vars: 3,
        clauses: vec![
            vec![(a, false), (b, false)],
            vec![(a, false), (b, true)],
            vec![(a, true), (c, false)],
            vec![(a, true), (c, true)],
        ],
    };
    let (out, conflicts, _) = solve(&cnf, u64::MAX);
    assert_eq!(out, SolveResult::Unsat);
    assert!(conflicts >= 2, "one analysed conflict plus the level-0 one");
    check(&cnf).expect("properties hold");
}
