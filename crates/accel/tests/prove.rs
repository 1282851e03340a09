//! The prover against the real accelerator builds: the protected design
//! is noninterferent at depth 8 for every observable, and the ablated
//! baseline leaks through its debug/config surface with a counterexample
//! the interpreter oracle confirms.

use ifc_check::prover::{prove_annotated, ProveOptions, Verdict};

#[test]
fn protected_design_proves_noninterferent_at_k8() {
    let net = accel::protected().lower().expect("protected lowers");
    let report = prove_annotated(&net, &ProveOptions::default());
    assert!(
        report.all_proved(),
        "protected must prove clean: {}",
        report.to_json().render()
    );
    // The bulk of the surface never touches a secret cone at all.
    let structural = report
        .results
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::ProvedStructural))
        .count();
    assert!(structural >= 10, "expected a mostly-structural surface");
}

#[test]
fn baseline_debug_port_yields_confirmed_counterexample() {
    let net = accel::baseline_annotated()
        .lower()
        .expect("baseline lowers");
    let report = prove_annotated(
        &net,
        &ProveOptions {
            k: 3,
            targets: Some(vec!["dbg_out".into(), "cfg_out".into()]),
            ..ProveOptions::default()
        },
    );
    let cexs = report.counterexamples();
    assert!(!cexs.is_empty(), "ablated control must leak");
    for r in cexs {
        let Verdict::Counterexample(cex) = &r.verdict else {
            unreachable!();
        };
        assert!(cex.confirmed, "{} model must replay on the oracle", r.name);
        assert_ne!(cex.observed[0], cex.observed[1]);
    }
}
