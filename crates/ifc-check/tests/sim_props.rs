//! Properties of the prover's simulation pre-pass (`Aig::simulate`)
//! on random small AIG miters, against the AIG's own evaluator and the
//! CDCL solver.
//!
//! A random graph grows from at most six inputs by AND, OR and XOR
//! gates over earlier literals of random polarity, built as two
//! equivalent rails that differ only in how XOR is written. A handful
//! of its literals, or disagreements between the rails, are the
//! per-cycle differences, and their disjunction is the miter, as the
//! prover builds it; both satisfiable and unsatisfiable miters are
//! common.

use ifc_check::prover::aig::{self, Aig, Lit};
use ifc_check::prover::sat::{neg, slit, SolveResult, Solver};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Miter {
    inputs: usize,
    /// `(op, operand, operand)`, operands indexing earlier gates and
    /// their low bit choosing polarity.
    gates: Vec<(u8, usize, usize)>,
    /// `(gate, rails)`: a gate's literal, or with `rails` the XOR of
    /// its two rails.
    diffs: Vec<(usize, bool)>,
}

fn arb_miter() -> impl Strategy<Value = Miter> {
    (
        1usize..=6,
        vec((0u8..3, any::<usize>(), any::<usize>()), 1..30),
        vec((any::<usize>(), any::<bool>()), 1..=3),
    )
        .prop_map(|(inputs, gates, diffs)| Miter {
            inputs,
            gates,
            diffs,
        })
}

/// Builds the graph; returns it with its miter and diff literals.
///
/// The gates are built twice over the same inputs, as two rails: rail B
/// writes XOR as `(a ∨ b) ∧ ¬(a ∧ b)`, which hashing cannot fold into
/// rail A's `(a ∧ ¬b) ∨ (¬a ∧ b)`. A rails diff is the two rails'
/// disagreement, which the solver must refute; a plain diff is one
/// gate, usually satisfiable.
fn build(m: &Miter) -> (Aig, Lit, Vec<Lit>) {
    let mut g = Aig::new(1 << 16);
    let inputs: Vec<Lit> = (0..m.inputs).map(|_| g.var()).collect();
    let (mut rail_a, mut rail_b) = (inputs.clone(), inputs);
    // One operand is among the two newest gates, so cones grow deep.
    let pick = |lits: &[Lit], i: usize, window: usize| {
        let recent = &lits[lits.len().saturating_sub(window)..];
        (i >> 1) % recent.len() + lits.len() - recent.len()
    };
    let lit = |lits: &[Lit], i: usize, at: usize| lits[at] ^ (i as Lit & 1);
    for &(op, a, b) in &m.gates {
        let (ia, ib) = (pick(&rail_a, a, 2), pick(&rail_a, b, usize::MAX));
        let (xa, xb) = (lit(&rail_a, a, ia), lit(&rail_a, b, ib));
        let (ya, yb) = (lit(&rail_b, a, ia), lit(&rail_b, b, ib));
        let (x, y) = match op {
            0 => (g.and(xa, xb), g.and(ya, yb)),
            1 => (g.or(xa, xb), g.or(ya, yb)),
            _ => {
                let any = g.or(ya, yb);
                let both = g.and(ya, yb);
                (g.xor(xa, xb), g.and(any, aig::not(both)))
            }
        };
        rail_a.push(x);
        rail_b.push(y);
    }
    let diffs: Vec<Lit> = m
        .diffs
        .iter()
        .map(|&(i, rails)| {
            let at = pick(&rail_a, i, 3);
            if rails {
                g.xor(rail_a[at], rail_b[at])
            } else {
                lit(&rail_a, i, at)
            }
        })
        .collect();
    let miter = diffs.iter().fold(aig::FALSE, |acc, &d| g.or(acc, d));
    (g, miter, diffs)
}

/// Whether `miter` is satisfiable, by the solver on a Tseitin encoding
/// of the whole graph.
fn solver_says_sat(g: &Aig, miter: Lit) -> bool {
    let mut s = Solver::new();
    let vars: Vec<u32> = (0..g.len()).map(|_| s.new_var()).collect();
    let lit = |l: Lit| slit(vars[aig::node_of(l) as usize], aig::is_neg(l));
    s.add_clause(&[slit(vars[0], false)]);
    for n in 1..g.len() as u32 {
        if let Some((a, b)) = g.and_operands(n) {
            let out = slit(vars[n as usize], false);
            s.add_clause(&[neg(out), lit(a)]);
            s.add_clause(&[neg(out), lit(b)]);
            s.add_clause(&[out, neg(lit(a)), neg(lit(b))]);
        }
    }
    s.add_clause(&[lit(miter)]);
    match s.solve(u64::MAX) {
        SolveResult::Sat => true,
        SolveResult::Unsat => false,
        SolveResult::Budget => unreachable!("unbounded search"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn simulation_agrees_with_the_solver(m in arb_miter()) {
        let (g, miter, diffs) = build(&m);
        let hit = g.simulate(&diffs);
        prop_assert_eq!(&hit, &g.simulate(&diffs), "not deterministic");
        let sat = solver_says_sat(&g, miter);
        match hit {
            Some((pattern, cycle)) => {
                prop_assert!(sat, "hit on a miter the solver refutes");
                let model = |n: u32| pattern.get(n as usize) == Some(&true);
                let mut memo = vec![None; g.len()];
                prop_assert!(g.eval_lit(miter, &model, &mut memo));
                let first = diffs.iter().position(|&d| g.eval_lit(d, &model, &mut memo));
                prop_assert_eq!(first, Some(cycle as usize));
            }
            // The 4,096 patterns include every assignment of at most six
            // inputs, so only an unsatisfiable miter goes unhit.
            None => prop_assert!(!sat, "missed a satisfiable miter"),
        }
    }
}
