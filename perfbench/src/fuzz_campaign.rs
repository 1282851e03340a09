//! `fuzz-campaign`: a closed loop on one thread over a fixed list of
//! generated fuzz inputs, each run through the full lint → static check
//! → prover → runtime tracking → protected replay pipeline.
//!
//! This is the netlist-to-verdict path without the farm. Its simulation
//! is one lane of the compiled backend under all three tracking modes,
//! driven through string-keyed ports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fuzz::coverage::fnv64;
use fuzz::{
    apply_surgery, build_design, fuzz_prove_options, gen_input, mutate, prove_stage, run_generated,
    run_input_with, CoverageMap, FuzzInput, FuzzRng, InputCoverage, KillStage, PipelineConfig,
    ProtectedReplayer,
};
use ifc_check::dataflow::{bound_plane, passes::crosscheck_findings};
use ifc_check::prover::sat::SolverStats;
use ifc_check::prover::{ProveReport, Verdict};
use ifc_check::{run_static_passes, LintConfig, Severity};

use crate::report::{Layers, RunOutput};
use crate::stats::{median, summarize};
use crate::Args;

/// Inputs in one pass over the list.
pub const INPUTS: usize = 960;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 9;

/// The input list for `seed`: fresh draws, each followed by one
/// mutated child. Children descend from their own draw only, so no
/// single early input's lineage can fill the list.
pub fn input_list(seed: u64, n: usize) -> Vec<FuzzInput> {
    let mut rng = FuzzRng::new(seed ^ 0xf0cc_ca3b_a1c0_0001);
    let mut list: Vec<FuzzInput> = Vec::with_capacity(n);
    while list.len() < n {
        let fresh = gen_input(rng.next_u64());
        let child = mutate(&fresh, &mut rng);
        list.push(fresh);
        if list.len() < n {
            list.push(child);
        }
    }
    list
}

/// What one input must reproduce exactly on every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    kill: KillStage,
    events: u64,
    invariants_hold: bool,
}

fn events_hash(cov: &InputCoverage) -> u64 {
    cov.events.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
        (h ^ e).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let replayer = ProtectedReplayer::new();
        let inputs = input_list(args.seed, INPUTS);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((replayer, inputs));
    }
    let (replayer, inputs) = prepared.expect("at least one set-up");
    let cfg = PipelineConfig { prove: true };
    out.note(format!(
        "fuzz-campaign: {} inputs per pass, prover stage on",
        inputs.len()
    ));

    // Untraced passes: the library pipeline, one call per input. The
    // first pass also builds the campaign's exact counts: the coverage
    // fingerprint and the kill histogram.
    let mut coverage = CoverageMap::new();
    let mut kills: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut reference: Option<Vec<Digest>> = None;
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut plain_wall;
    let measure_started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let mut pass_ms = Vec::with_capacity(inputs.len());
        let mut digests = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let started = Instant::now();
            let report = run_input_with(input, &replayer, &cfg);
            pass_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if reference.is_none() {
                coverage.absorb(&report.coverage.events);
                *kills.entry(report.kill.key()).or_default() += 1;
            }
            digests.push(Digest {
                kill: report.kill,
                events: events_hash(&report.coverage),
                invariants_hold: report.invariants_hold(),
            });
        }
        plain_wall = pass_started.elapsed();
        op_ms.push(pass_ms);
        out.attempted += inputs.len() as u64;
        check_pass(&digests, reference.as_deref(), &mut out);
        reference.get_or_insert(digests);
        if args.trace || crate::enough(args, measure_started, op_ms.len()) {
            break;
        }
    }
    out.note(format!(
        "exact counts: coverage fingerprint {:#018x}, {} events, kills {kills:?}",
        coverage.fingerprint(),
        coverage.len()
    ));

    if args.trace {
        let reference = reference.expect("at least one pass");
        traced_pass(&inputs, &replayer, &reference, plain_wall, &mut out);
        out.set("fuzz.coverage_events", coverage.len() as f64);
        for (kill, count) in kills {
            out.set(format!("fuzz.kills.{kill}"), count as f64);
        }
    } else {
        out.closed_loop("inputs_per_s", &summarize(&op_ms), median(&setups));
    }
    out
}

/// Counts each input that broke a fuzz invariant or, after the first
/// pass, did not reproduce its first-pass digest.
fn check_pass(digests: &[Digest], reference: Option<&[Digest]>, out: &mut RunOutput) {
    for (i, d) in digests.iter().enumerate() {
        let reproduced = reference.is_none_or(|r| r[i] == *d);
        if !d.invariants_hold || !reproduced {
            out.failed += 1;
            if out.failed <= 5 {
                out.note(format!(
                    "input {i} failed: invariants_hold={} reproduced={reproduced}",
                    d.invariants_hold
                ));
            }
        }
    }
}

/// Per-stage wall time accumulated over a traced pass.
#[derive(Default)]
struct StageTimes {
    build_lower: Duration,
    lint: Duration,
    check: Duration,
    crosscheck: Duration,
    prove: Duration,
    exec: Duration,
    replay: Duration,
    stats: SolverStats,
    counterexamples: u64,
}

/// Re-runs every input with the pipeline's stages called one at a time,
/// each timed, and checks that the result matches the library call.
fn traced_pass(
    inputs: &[FuzzInput],
    replayer: &ProtectedReplayer,
    reference: &[Digest],
    plain_wall: Duration,
    out: &mut RunOutput,
) {
    let mut layers = Layers::default();
    let mut times = StageTimes::default();
    let started = Instant::now();
    let mut digests = Vec::with_capacity(inputs.len());
    for input in inputs {
        digests.push(staged_input(input, replayer, &mut layers, &mut times));
    }
    let wall = started.elapsed();
    out.attempted += inputs.len() as u64;
    check_pass(&digests, Some(reference), out);

    let n = inputs.len() as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.set("hdl.build_lower_ms", ms(times.build_lower) / n);
    out.set("lint.ms", ms(times.lint) / n);
    out.set("check.ms", ms(times.check) / n);
    out.set("dataflow.crosscheck_ms", ms(times.crosscheck) / n);
    out.set("prover.ms", ms(times.prove) / n);
    out.set("prover.ms_sum", ms(times.prove));
    out.set("fuzz.exec_ms", ms(times.exec) / n);
    out.set("fuzz.replay_ms", ms(times.replay) / n);
    set_solver_stats(&times.stats, times.counterexamples, out);
    out.set(
        "telemetry.overhead",
        wall.as_secs_f64() / plain_wall.as_secs_f64(),
    );
    layers.report(wall, out);
}

pub fn set_solver_stats(stats: &SolverStats, counterexamples: u64, out: &mut RunOutput) {
    out.set("prover.vars", stats.vars as f64);
    out.set("prover.clauses", stats.clauses as f64);
    out.set("prover.conflicts", stats.conflicts as f64);
    out.set("prover.decisions", stats.decisions as f64);
    out.set("prover.propagations", stats.propagations as f64);
    out.set("prover.learnt", stats.learnt as f64);
    out.set("prover.counterexamples", counterexamples as f64);
    out.note(format!(
        "exact counts: prover vars {} clauses {} conflicts {} decisions {} propagations {} \
         learnt {} confirmed counterexamples {counterexamples}",
        stats.vars,
        stats.clauses,
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.learnt
    ));
}

/// Counterexamples the interpreter oracle confirmed: the only prover
/// verdicts that convict.
pub fn confirmed_counterexamples(report: &ProveReport) -> usize {
    report
        .counterexamples()
        .iter()
        .filter(|r| matches!(&r.verdict, Verdict::Counterexample(cex) if cex.confirmed))
        .count()
}

/// `fuzz::run_input_with` with the prover on, one stage at a time.
fn staged_input(
    input: &FuzzInput,
    replayer: &ProtectedReplayer,
    layers: &mut Layers,
    t: &mut StageTimes,
) -> Digest {
    let mut timed = |layer, slot: &mut Duration, started: Instant| {
        let d = started.elapsed();
        *slot += d;
        layers.add(layer, d);
    };
    let mut coverage = InputCoverage::new();

    let s = Instant::now();
    let design = apply_surgery(&build_design(&input.spec), &input.surgery);
    let lowered = design.lower();
    timed("hdl", &mut t.build_lower, s);
    let Ok(net) = lowered else {
        coverage.events.insert(fnv64("build:failed"));
        coverage.kill(KillStage::Lint);
        return Digest {
            kill: KillStage::Lint,
            events: events_hash(&coverage),
            invariants_hold: true,
        };
    };

    let s = Instant::now();
    let cfg = LintConfig::new();
    let lint = run_static_passes(Some(&design), &net, &cfg);
    timed("ifc-check", &mut t.lint, s);
    let lint_errors = lint.count_at(Severity::Error);

    let s = Instant::now();
    let check = ifc_check::check(&design);
    timed("ifc-check", &mut t.check, s);
    let static_violations = check.violations.len();

    let s = Instant::now();
    let prove_report = prove_stage(&net, &fuzz_prove_options());
    timed("ifc-check", &mut t.prove, s);
    let counterexamples = confirmed_counterexamples(&prove_report);
    t.stats.absorb(&prove_report.stats);
    t.counterexamples += counterexamples as u64;

    let s = Instant::now();
    let outcome = run_generated(&net, &input.spec, &input.programs);
    timed("fuzz", &mut t.exec, s);

    let s = Instant::now();
    let bound = bound_plane(&net);
    let invariant1 = crosscheck_findings(&net, &bound, &outcome.observed, &cfg);
    timed("ifc-check", &mut t.crosscheck, s);

    let s = Instant::now();
    let replay = replayer.replay(&input.programs);
    timed("accel", &mut t.replay, s);

    let s = Instant::now();
    coverage.lint(&lint);
    coverage.static_check(&check);
    coverage.prove(&prove_report);
    coverage.runtime(&outcome.violations);
    coverage.plane(&net, &outcome.observed);
    coverage.out_tags(&outcome.out_tag_bits);
    coverage.replay(&replay);
    let invariant2 = replay.leaks();
    let replay_blocked = replay
        .modes
        .iter()
        .any(|m| !m.drained || m.stalled_submits > 0);
    let kill = if lint_errors > 0 {
        KillStage::Lint
    } else if static_violations > 0 {
        KillStage::Static
    } else if counterexamples > 0 {
        KillStage::Counterexample
    } else if !outcome.violations.is_empty() {
        KillStage::Runtime
    } else if replay_blocked {
        KillStage::ReplayBlocked
    } else {
        KillStage::Clean
    };
    coverage.kill(kill);
    let digest = Digest {
        kill,
        events: events_hash(&coverage),
        invariants_hold: invariant1.is_empty() && invariant2.is_empty(),
    };
    layers.add("fuzz", s.elapsed());
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_yields_the_same_input_list() {
        let a = input_list(11, 64);
        assert_eq!(a, input_list(11, 64));
        assert_ne!(a, input_list(12, 64));
        // Fresh draws alternate with their mutated children.
        for pair in a.chunks(2) {
            assert_eq!(pair[0], gen_input(pair[0].seed));
            assert_ne!(pair[1], pair[0]);
        }
    }

    #[test]
    fn the_staged_pipeline_matches_the_library_call() {
        let replayer = ProtectedReplayer::new();
        let cfg = PipelineConfig { prove: true };
        let mut layers = Layers::default();
        let mut times = StageTimes::default();
        for input in input_list(3, 6) {
            let report = run_input_with(&input, &replayer, &cfg);
            let staged = staged_input(&input, &replayer, &mut layers, &mut times);
            assert_eq!(staged.kill, report.kill);
            assert_eq!(staged.events, events_hash(&report.coverage));
            assert_eq!(staged.invariants_hold, report.invariants_hold());
        }
    }
}
