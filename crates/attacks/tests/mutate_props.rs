//! Property tests for the mutation campaign's report encoding and its
//! enumeration determinism.
//!
//! The JSON emitter/parser pair in `mutate::report` is hand-rolled (no
//! serde in the offline dependency set), so round-tripping is checked
//! against generated reports whose strings deliberately contain quotes,
//! backslashes, control characters, and multi-byte code points — the
//! inputs a hand-written escaper gets wrong first.

use std::sync::OnceLock;

use attacks::mutate::{
    enumerate, CampaignConfig, KillStage, MutantOutcome, MutationClass, MutationReport,
};
use hdl::json::Json;
use hdl::Design;
use proptest::collection::vec;
use proptest::prelude::*;
use sim::TrackMode;

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        // The characters the escaper special-cases, plus raw control
        // characters (must come back via \u00XX) and multi-byte points.
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('é'),
        Just('→'),
        Just('☃'),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    vec(arb_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

fn arb_class() -> impl Strategy<Value = MutationClass> {
    (0usize..MutationClass::ALL.len()).prop_map(|i| MutationClass::ALL[i])
}

fn arb_kill() -> impl Strategy<Value = Option<KillStage>> {
    prop_oneof![
        Just(None),
        Just(Some(KillStage::Lint)),
        Just(Some(KillStage::Static)),
        Just(Some(KillStage::Counterexample)),
        Just(Some(KillStage::Runtime)),
        Just(Some(KillStage::Attack)),
        Just(Some(KillStage::Functional)),
    ]
}

fn arb_cycles() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)]
}

fn arb_outcome() -> impl Strategy<Value = MutantOutcome> {
    (
        arb_string(),
        arb_class(),
        arb_string(),
        arb_string(),
        arb_kill(),
        arb_string(),
        arb_cycles(),
    )
        .prop_map(
            |(id, class, site, description, kill, detail, cycles_to_kill)| MutantOutcome {
                id,
                class,
                site,
                description,
                kill,
                detail,
                cycles_to_kill,
            },
        )
}

fn arb_report() -> impl Strategy<Value = MutationReport> {
    (
        any::<bool>(),
        any::<u64>(),
        arb_string(),
        vec(arb_outcome(), 0..8),
    )
        .prop_map(|(control, seed, design, outcomes)| MutationReport {
            design,
            control,
            seed,
            outcomes,
        })
}

fn protected() -> &'static Design {
    static DESIGN: OnceLock<Design> = OnceLock::new();
    DESIGN.get_or_init(accel::protected)
}

proptest! {
    #[test]
    fn report_json_round_trips(report in arb_report()) {
        let json = report.to_json().render();
        let back = MutationReport::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{json}")))?;
        prop_assert_eq!(report, back);
    }

    #[test]
    fn report_json_counts_are_consistent(report in arb_report()) {
        // The emitted summary fields must agree with the outcome rows —
        // a consumer may trust either.
        let json = report.to_json();
        prop_assert_eq!(
            json.get("mutants").and_then(Json::as_u64),
            Some(report.outcomes.len() as u64)
        );
        prop_assert_eq!(
            json.get("survivors").and_then(Json::as_u64),
            Some(report.survivors().len() as u64)
        );
    }

    #[test]
    fn enumeration_is_deterministic_per_seed(seed in any::<u64>()) {
        // The campaign's catalogue order depends on the seed alone, never
        // on the tracking mode the pipeline will later run under.
        for mode in [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise] {
            let cfg = CampaignConfig { seed, mode, ..CampaignConfig::default() };
            let a: Vec<String> = enumerate(protected(), cfg.seed).iter().map(|m| m.id()).collect();
            let b: Vec<String> = enumerate(protected(), cfg.seed).iter().map(|m| m.id()).collect();
            prop_assert_eq!(&a, &b, "seed {} mode {:?} must enumerate identically", seed, mode);
            prop_assert!(a.len() >= 60, "catalogue size {} under seed {}", a.len(), seed);
        }
    }

    #[test]
    fn seed_shuffles_order_but_not_membership(a in any::<u64>(), b in any::<u64>()) {
        let mut ids_a: Vec<String> = enumerate(protected(), a).iter().map(|m| m.id()).collect();
        let mut ids_b: Vec<String> = enumerate(protected(), b).iter().map(|m| m.id()).collect();
        ids_a.sort();
        ids_b.sort();
        prop_assert_eq!(ids_a, ids_b, "seeds {} vs {} changed catalogue membership", a, b);
    }
}
