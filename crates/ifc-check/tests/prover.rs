//! End-to-end exercises of the noninterference prover on hand-built
//! designs: leaky designs must yield SAT counterexamples that the
//! interpreter oracle confirms, and tight designs must come back proved
//! (structurally, by circuit folding, or by CDCL UNSAT).

use hdl::json::Json;
use hdl::{Design, LabelExpr, ModuleBuilder};
use ifc_check::prover::encode::Encoder;
use ifc_check::prover::sat::SolverStats;
use ifc_check::prover::{
    observables, prove, prove_annotated, Counterexample, InputClass, ObsKind, ProveEnv,
    ProveOptions, ProveReport, Search, Verdict,
};
use ifc_lattice::Label;

fn opts(k: u32) -> ProveOptions {
    ProveOptions {
        k,
        ..ProveOptions::default()
    }
}

fn lower(design: &Design) -> hdl::Netlist {
    design.lower().expect("design lowers")
}

#[test]
fn direct_secret_leak_yields_confirmed_counterexample() {
    let mut m = ModuleBuilder::new("leak_direct");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    m.output("out", s);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(2));
    assert!(!report.all_proved());
    let cex = &report.counterexamples()[0];
    assert_eq!(cex.name, "out");
    let Verdict::Counterexample(cex) = &cex.verdict else {
        panic!("expected counterexample");
    };
    assert!(cex.confirmed, "oracle must reproduce the difference");
    assert_ne!(cex.observed[0], cex.observed[1]);
    assert!(report.stats.conflicts < 1000, "trivial leak must be cheap");
}

#[test]
fn public_passthrough_is_proved_structurally() {
    let mut m = ModuleBuilder::new("pass_public");
    let p = m.input("p", 8);
    m.set_label(p, Label::PUBLIC_TRUSTED);
    let q = m.input("q", 8);
    let sum = m.add(p, q);
    m.output("out", sum);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::ProvedStructural
    ));
}

#[test]
fn declassified_release_is_proved() {
    // The released value is modelled as shared havoc, so the cone below
    // the declassify is secret-free: structural proof, no SAT.
    let mut m = ModuleBuilder::new("release");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let principal = m.tag_lit(Label::PUBLIC_TRUSTED);
    let rel = m.declassify(s, Label::PUBLIC_TRUSTED, principal);
    m.output("out", rel);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::ProvedStructural
    ));
}

#[test]
fn self_masked_secret_is_proved_by_folding() {
    // s ^ s folds to constant zero inside the AIG: the miter collapses
    // before the solver is ever invoked, but the cone *is* tainted so
    // this is the `Proved` (not `ProvedStructural`) path.
    let mut m = ModuleBuilder::new("masked");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let z = m.xor(s, s);
    m.output("out", z);
    let net = lower(&m.finish());
    let mut o = opts(4);
    o.induction = true;
    let report = prove_annotated(&net, &o);
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::Proved {
            inductive: true,
            ..
        }
    ));
}

#[test]
fn registered_leak_reports_the_right_cycle() {
    let mut m = ModuleBuilder::new("leak_reg");
    let s = m.input("s", 1);
    m.set_label(s, Label::SECRET_TRUSTED);
    let r = m.reg("r", 1, 0);
    m.connect(r, s);
    m.output("ready", r);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    let Verdict::Counterexample(cex) = &report.results[0].verdict else {
        panic!("expected counterexample");
    };
    assert!(cex.confirmed);
    // The register delays the secret by one cycle; cycle 0 cannot differ.
    assert!(cex.cycle >= 1);
    assert_eq!(cex.programs[0].cycles.len() as u32, cex.cycle + 1);
}

#[test]
fn tagged_channel_respecting_its_tag_is_proved() {
    // Data rides under a tag; the output is released under the same
    // tag. Runs only differ in data when the tag is secret, and then
    // the output is unobservable: UNSAT.
    let mut m = ModuleBuilder::new("tagged_ok");
    let tag = m.input("tag", 8);
    let data = m.input("data", 8);
    m.set_label(data, LabelExpr::FromTag(tag.id()));
    m.output_labeled("out", data, LabelExpr::FromTag(tag.id()));
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(3));
    assert!(report.all_proved());
    assert!(
        matches!(report.results[0].verdict, Verdict::Proved { .. }),
        "tainted-but-safe cone must need the solver, got {:?}",
        report.results[0].verdict
    );
}

#[test]
fn spoofed_public_annotation_is_detected_under_role_env() {
    // The annotation claims `data` is constant-public, but the real
    // environment drives it as a tagged channel. The claimed-public
    // observable exposes the lie with a concrete witness.
    let mut m = ModuleBuilder::new("spoofed");
    let _tag = m.input("tag", 8);
    let data = m.input("data", 8);
    m.set_label(data, Label::PUBLIC_TRUSTED);
    let keep = m.or(data, data);
    m.output("out", keep);
    let net = lower(&m.finish());

    // Under the annotation-trusting contract nothing is wrong.
    assert!(prove_annotated(&net, &opts(2)).all_proved());

    // Under the true role contract the input itself is an observable.
    let mut env = ProveEnv::from_annotations(&net);
    let data_node = net
        .inputs
        .iter()
        .find(|p| p.name == "data")
        .expect("data port")
        .node;
    let tag_node = net
        .inputs
        .iter()
        .find(|p| p.name == "tag")
        .expect("tag port")
        .node;
    env.classify(data_node, InputClass::CondTag(tag_node));
    let report = prove(&net, &env, &opts(2));
    let claimed = report
        .results
        .iter()
        .find(|r| r.kind == ObsKind::ClaimedPublic)
        .expect("claimed-public observable");
    let Verdict::Counterexample(cex) = &claimed.verdict else {
        panic!("expected a spoof witness, got {:?}", claimed.verdict);
    };
    assert!(cex.confirmed);
}

#[test]
fn secret_gated_write_enable_is_a_timing_channel() {
    let mut m = ModuleBuilder::new("wr_timing");
    let s = m.input("s", 1);
    m.set_label(s, Label::SECRET_TRUSTED);
    let addr = m.input("addr", 2);
    let data = m.input("data", 8);
    let mem = m.mem("buf", 8, 4, vec![0; 4]);
    m.when(s, |m| {
        m.mem_write(mem, addr, data);
    });
    let zero = m.lit(0, 1);
    m.output("alive", zero);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(2));
    let wr = report
        .results
        .iter()
        .find(|r| r.kind == ObsKind::WriteEnable)
        .expect("write-enable observable");
    let Verdict::Counterexample(cex) = &wr.verdict else {
        panic!(
            "expected write-traffic counterexample, got {:?}",
            wr.verdict
        );
    };
    assert!(cex.confirmed);
}

#[test]
fn deep_counter_release_shows_the_k_induction_caveat() {
    // A 5-bit counter releases the secret only on cycle 31 — far past
    // k=4. The bounded proof holds, but 1-induction must *fail*: from a
    // havoced state the counter can sit at 31 immediately. An honest
    // `inductive: false` is the correct (and only sound) answer.
    let mut m = ModuleBuilder::new("deep_release");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let cnt = m.reg("cnt", 5, 0);
    let one = m.lit(1, 5);
    let next = m.add(cnt, one);
    m.connect(cnt, next);
    let all = m.lit(31, 5);
    let at_end = m.eq(cnt, all);
    let zero = m.lit(0, 8);
    let out = m.mux(at_end, s, zero);
    m.output("out", out);
    let net = lower(&m.finish());
    let mut o = opts(4);
    o.induction = true;
    let report = prove_annotated(&net, &o);
    assert!(matches!(
        report.results[0].verdict,
        Verdict::Proved {
            k: 4,
            inductive: false
        }
    ));
}

#[test]
fn report_json_round_trips_the_verdict_keys() {
    let mut m = ModuleBuilder::new("json");
    let s = m.input("s", 4);
    m.set_label(s, Label::SECRET_TRUSTED);
    m.output("out", s);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(1));
    let json = Json::parse(&report.to_json().render()).expect("report parses");
    assert_eq!(json.field_as("design", Json::as_str), Ok("json"));
    let result = &json.field_as("results", Json::as_arr).unwrap()[0];
    assert_eq!(
        result.field_as("verdict", Json::as_str),
        Ok("counterexample")
    );
    assert_eq!(result.field_as("confirmed", Json::as_bool), Ok(true));
    assert_eq!(result.field_as("search", Json::as_str), Ok("simulation"));
    let stats = json.field("stats").unwrap();
    assert!(stats.field_as("vars", Json::as_u64).is_ok());
    let timings = json.field("timings_ms").unwrap();
    for phase in ["encode", "sim", "cnf", "sat", "replay"] {
        let ms = timings.field_as(phase, Json::as_f64).unwrap();
        assert!(ms >= 0.0, "{phase} took {ms} ms");
    }
}

/// The single verdict of a run restricted to one observable; no
/// budget-limited run may ever report a proof.
fn only_verdict(report: &ProveReport) -> &Verdict {
    assert_eq!(report.results.len(), 1, "one targeted observable");
    let verdict = &report.results[0].verdict;
    assert!(
        !verdict.is_proved(),
        "a budget-limited run proved: {verdict:?}"
    );
    verdict
}

fn unknown_reason(verdict: &Verdict) -> &str {
    match verdict {
        Verdict::Unknown { reason } => reason,
        other => panic!("expected Unknown, got {other:?}"),
    }
}

#[test]
fn node_budget_turns_a_large_cone_into_unknown() {
    // The `dbg_out-drop` mutant's leaking cone needs ~320k AIG nodes at
    // k=5; a budget far below that must give up honestly.
    let design = accel::protected();
    let mutant = attacks::mutate::enumerate(&design, 1)
        .into_iter()
        .find(|m| m.id() == "port-label/dbg_out-drop")
        .expect("catalogue has port-label/dbg_out-drop");
    let net = lower(&mutant.apply(&design));
    let report = prove_annotated(
        &net,
        &ProveOptions {
            k: 5,
            max_nodes: 50_000,
            targets: Some(vec!["dbg_out".into()]),
            ..ProveOptions::default()
        },
    );
    let reason = unknown_reason(only_verdict(&report));
    assert!(reason.contains("AIG node budget"), "reason: {reason}");
}

#[test]
fn conflict_budget_turns_a_hard_query_into_unknown() {
    // The protected design's `cfg_out` query at k=8 needs 405 conflicts.
    let net = lower(&accel::protected());
    let report = prove_annotated(
        &net,
        &ProveOptions {
            k: 8,
            max_conflicts: 1,
            targets: Some(vec!["cfg_out".into()]),
            ..ProveOptions::default()
        },
    );
    let reason = unknown_reason(only_verdict(&report));
    assert!(reason.contains("conflict budget"), "reason: {reason}");
}

/// Pins the prover's search on the protected accelerator: the same AIG,
/// CNF, decisions and conflicts give exactly these counts, which are
/// also the committed `PROVE_REPORT.json` values. A change to data
/// layout must leave them alone; a deliberate change to the search
/// (encoding, branching, restarts, learning) updates them, and the
/// committed report, in the same change.
#[test]
fn protected_proof_search_is_pinned() {
    let net = lower(&accel::protected());
    let report = prove_annotated(&net, &opts(8));
    assert!(report.all_proved());
    assert_eq!(
        report.stats,
        SolverStats {
            vars: 989,
            clauses: 2442,
            learnt: 400,
            conflicts: 405,
            decisions: 2992,
            propagations: 40585,
            restarts: 2,
        }
    );
}

/// The counterexample the run reports for observable `name`.
fn counterexample_for<'r>(report: &'r ProveReport, name: &str) -> &'r Counterexample {
    let result = report
        .results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no observable {name}"));
    match &result.verdict {
        Verdict::Counterexample(cex) => cex,
        other => panic!("{name}: expected a counterexample, got {other:?}"),
    }
}

/// The leaking debug-port mutants' cones (~315k AIG nodes at k=5) cost
/// the solver 0.4–0.9 s each; random simulation finds each leak, and
/// the oracle confirms it, before any CNF is built.
#[test]
fn debug_port_leaks_are_found_by_simulation() {
    let design = accel::protected();
    let mutants = attacks::mutate::enumerate(&design, 1);
    for (id, port) in [
        ("mechanism-drop/supervisor-debug", "dbg_out"),
        ("port-label/dbg_out-drop", "dbg_out"),
        ("port-label/dbg_out-widen-pu", "dbg_out"),
        ("port-reroute/dbg-mirror", "dbg_mirror"),
        ("port-reroute/dbg-unguarded", "dbg_out"),
    ] {
        let mutant = mutants
            .iter()
            .find(|m| m.id() == id)
            .unwrap_or_else(|| panic!("catalogue has {id}"));
        let net = lower(&mutant.apply(&design));
        let report = prove_annotated(
            &net,
            &ProveOptions {
                k: 5,
                targets: Some(vec![port.into()]),
                ..ProveOptions::default()
            },
        );
        let cex = counterexample_for(&report, port);
        assert!(cex.confirmed, "{id}: oracle must confirm the leak");
        assert_eq!(cex.search, Search::Simulation, "{id}");
        assert_eq!(report.stats, SolverStats::default(), "{id}: no SAT call");
    }
}

/// The enforcement-ablated control's two leaks at the `prove_guard`
/// depth, found the same way.
#[test]
fn ablated_control_leaks_are_found_by_simulation() {
    let net = lower(&accel::baseline_annotated());
    let report = prove_annotated(
        &net,
        &ProveOptions {
            k: 8,
            targets: Some(vec!["cfg_out".into(), "dbg_out".into()]),
            ..ProveOptions::default()
        },
    );
    for port in ["cfg_out", "dbg_out"] {
        let cex = counterexample_for(&report, port);
        assert!(cex.confirmed, "{port}: oracle must confirm the leak");
        assert_eq!(cex.search, Search::Simulation, "{port}");
    }
    assert_eq!(report.stats, SolverStats::default(), "no SAT call");
}

/// `same = (declassify(s) == s)` is 1 in every real run, but the
/// encoder releases `declassify(s)` as shared havoc, so simulation hits
/// patterns where the two rails disagree and the oracle refutes them.
/// The query then goes to the solver, whose search, model and verdict
/// are exactly those of a prover without the simulation pre-pass.
#[test]
fn refuted_simulation_hit_falls_back_to_the_solver() {
    let mut m = ModuleBuilder::new("release_check");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let principal = m.tag_lit(Label::PUBLIC_TRUSTED);
    let rel = m.declassify(s, Label::PUBLIC_TRUSTED, principal);
    let same = m.eq(rel, s);
    m.output("same", same);
    let net = lower(&m.finish());

    // Simulation does hit the per-cycle differences `prove` builds for
    // `same`.
    let env = ProveEnv::from_annotations(&net);
    let obs = &observables(&net, &env, true)[0];
    let mut enc = Encoder::new(&net, env, 1 << 20, false);
    let diffs: Vec<_> = (0..3).map(|cycle| enc.obs_diff(cycle, obs)).collect();
    assert!(enc.aig.simulate(&diffs).is_some());

    let report = prove_annotated(&net, &opts(3));
    let cex = counterexample_for(&report, "same");
    assert_eq!(cex.search, Search::Sat);
    assert!(!cex.confirmed, "the havoc model is spurious");
    assert_eq!(cex.cycle, 0);
    let drives: Vec<_> = cex.programs.iter().map(|p| p.cycles.clone()).collect();
    assert_eq!(
        drives,
        [
            vec![vec![("s".to_string(), 255)]],
            vec![vec![("s".to_string(), 0)]]
        ]
    );
    assert_eq!(
        report.stats,
        SolverStats {
            vars: 269,
            clauses: 591,
            learnt: 0,
            conflicts: 0,
            decisions: 73,
            propagations: 269,
            restarts: 0,
        }
    );
}
