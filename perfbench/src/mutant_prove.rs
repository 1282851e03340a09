//! `mutant-prove`: every mutant of the protected design's fault
//! catalogue, applied, lowered, linted and proved at one fixed depth on
//! one thread.
//!
//! Almost all of the time is prover time and none is simulation. The
//! load is heavy-tailed: a handful of debug-port mutants encode hundreds
//! of thousands of variables while the rest take milliseconds. No
//! mutant is ever skipped.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use attacks::mutate::{enumerate, BoxedMutation};
use hdl::Design;
use ifc_check::prover::sat::SolverStats;
use ifc_check::prover::{prove_annotated, ProveOptions, ProveReport, Verdict};
use ifc_check::{run_static_passes, LintConfig};

use crate::fuzz_campaign::{confirmed_counterexamples, set_solver_stats};
use crate::report::{Layers, RunOutput};
use crate::stats::{median, summarize};
use crate::Args;

/// Unrolling depth of every proof.
pub const PROVE_K: u32 = 5;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 15;

/// Expected verdict per mutant id, one `id<TAB>verdict` line each.
const GOLDEN: &str = include_str!("../golden/mutant_verdicts.tsv");

pub fn golden() -> BTreeMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .collect()
}

/// The base design and its mutants, in the seed's order.
pub fn mutant_list(seed: u64) -> (Design, Vec<BoxedMutation>) {
    let design = accel::protected();
    let mutants = enumerate(&design, seed);
    (design, mutants)
}

/// A proof's verdict in golden-table form: `proved` when every
/// observable is proved, else the observables with counterexamples.
/// `None` when any observable is unknown or a counterexample was not
/// confirmed by the oracle replay.
fn verdict(report: &ProveReport) -> Option<String> {
    let mut cex = Vec::new();
    for r in &report.results {
        match &r.verdict {
            Verdict::ProvedStructural | Verdict::Proved { .. } => {}
            Verdict::Counterexample(c) if c.confirmed => cex.push(r.name.as_str()),
            Verdict::Counterexample(_) | Verdict::Unknown { .. } => return None,
        }
    }
    cex.sort_unstable();
    Some(if cex.is_empty() {
        "proved".to_string()
    } else {
        format!("cex:{}", cex.join(","))
    })
}

/// What one mutant must reproduce exactly on every pass. `verdict` is
/// `None` when the mutant failed to lower.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Digest {
    verdict: Option<String>,
    lint_findings: usize,
    stats: [u64; 6],
}

/// One mutant through apply, lower, lint and prove, each timed.
#[derive(Default)]
struct MutantRun {
    digest: Digest,
    report: Option<ProveReport>,
    apply: Duration,
    lower: Duration,
    lint: Duration,
    prove: Duration,
}

fn prove_mutant(design: &Design, m: &BoxedMutation, opts: &ProveOptions) -> MutantRun {
    let mut run = MutantRun::default();
    let s = Instant::now();
    let mutant = m.apply(design);
    run.apply = s.elapsed();
    let s = Instant::now();
    let lowered = mutant.lower();
    run.lower = s.elapsed();
    let Ok(net) = lowered else {
        return run;
    };
    let s = Instant::now();
    let lint = run_static_passes(Some(&mutant), &net, &LintConfig::new());
    run.lint = s.elapsed();
    let s = Instant::now();
    let report = prove_annotated(&net, opts);
    run.prove = s.elapsed();
    let st = &report.stats;
    run.digest = Digest {
        verdict: verdict(&report),
        lint_findings: lint.findings.len(),
        stats: [
            st.vars,
            st.clauses,
            st.conflicts,
            st.decisions,
            st.propagations,
            st.learnt,
        ],
    };
    run.report = Some(report);
    run
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let list = mutant_list(args.seed);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some(list);
    }
    let (design, mutants) = prepared.expect("at least one set-up");
    let golden = golden();
    if mutants.len() != golden.len() {
        out.problem(format!(
            "{} mutants enumerated, golden table has {}",
            mutants.len(),
            golden.len()
        ));
    }
    let opts = ProveOptions {
        k: PROVE_K,
        ..ProveOptions::default()
    };
    out.note(format!(
        "mutant-prove: {} mutants per pass, k={PROVE_K}",
        mutants.len()
    ));

    let mut reference: Option<Vec<Digest>> = None;
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut layers = Layers::default();
    let (mut build_lower, mut lint, mut prove) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut totals = SolverStats::default();
    let mut counterexamples = 0u64;
    let mut traced_wall = Duration::ZERO;
    let mut plain_wall = Duration::ZERO;
    let measure_started = Instant::now();
    loop {
        let traced = args.trace && reference.is_some();
        let pass_started = Instant::now();
        let mut pass_ms = Vec::new();
        let mut digests = Vec::with_capacity(mutants.len());
        for (i, m) in mutants.iter().enumerate() {
            let started = Instant::now();
            let run = prove_mutant(&design, m, &opts);
            pass_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if traced {
                layers.add("attacks", run.apply);
                layers.add("hdl", run.lower);
                layers.add("ifc-check", run.lint + run.prove);
                build_lower += run.apply + run.lower;
                lint += run.lint;
                prove += run.prove;
                let s = Instant::now();
                if let Some(report) = &run.report {
                    totals.absorb(&report.stats);
                    counterexamples += confirmed_counterexamples(report) as u64;
                }
                layers.add("bench", s.elapsed());
            }
            let s = Instant::now();
            let id = m.id();
            let want = golden.get(id.as_str()).copied();
            let got = run.digest.verdict.as_deref();
            // After the first pass every mutant must also repeat its
            // verdict, lint findings and solver counts exactly.
            let repeated = reference.as_ref().is_none_or(|r| r[i] == run.digest);
            if got.is_none() || got != want || !repeated {
                out.failed += 1;
                out.note(format!(
                    "mutant failed: {id}\tgot {}\twant {}\trepeated {repeated}",
                    got.unwrap_or("unknown-or-unconfirmed"),
                    want.unwrap_or("(not in golden table)")
                ));
            }
            digests.push(run.digest);
            if traced {
                layers.add("bench", s.elapsed());
            }
        }
        let wall = pass_started.elapsed();
        if traced {
            traced_wall = wall;
        } else {
            plain_wall = wall;
        }
        op_ms.push(pass_ms);
        out.attempted += mutants.len() as u64;
        reference.get_or_insert(digests);
        let done = if args.trace {
            traced
        } else {
            crate::enough(args, measure_started, op_ms.len())
        };
        if done {
            break;
        }
    }

    if args.trace {
        let n = mutants.len() as f64;
        let msf = |d: Duration| d.as_secs_f64() * 1e3;
        out.set("hdl.build_lower_ms", msf(build_lower) / n);
        out.set("lint.ms", msf(lint) / n);
        out.set("prover.ms", msf(prove) / n);
        out.set("prover.ms_sum", msf(prove));
        set_solver_stats(&totals, counterexamples, &mut out);
        out.set(
            "telemetry.overhead",
            traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        );
        layers.report(traced_wall, &mut out);
    } else {
        out.closed_loop("mutants_per_s", &summarize(&op_ms), median(&setups));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_yields_the_same_mutant_list() {
        let ids = |seed| -> Vec<String> { mutant_list(seed).1.iter().map(|m| m.id()).collect() };
        let a = ids(5);
        assert_eq!(a, ids(5));
        assert_ne!(a, ids(6), "the seed orders the catalogue");
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "mutant ids are unique");
    }

    #[test]
    fn the_golden_table_covers_every_mutant() {
        let golden = golden();
        let ids: Vec<String> = mutant_list(0).1.iter().map(|m| m.id()).collect();
        assert_eq!(golden.len(), ids.len());
        for id in &ids {
            assert!(
                golden.contains_key(id.as_str()),
                "{id} missing from the golden table"
            );
        }
    }
}
