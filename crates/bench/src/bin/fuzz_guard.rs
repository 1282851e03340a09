//! CI gate for the coverage-guided netlist/attack fuzzer.
//!
//! Four checks, all deterministic from one seed:
//!
//! 1. **Corpus replay, twice** — every checked-in witness in `corpus/`
//!    must match its filename's expectation (`bad-*` still fails fuzz
//!    invariant 1; everything else holds both invariants), and the two
//!    replays must produce bit-identical coverage fingerprints.
//! 2. **Fresh campaign** — a bounded coverage-guided campaign from the
//!    run's seed; any input breaking an invariant fails the gate and is
//!    written to the witness directory as a new minimized-candidate
//!    artifact for triage.
//! 3. **Shrinking** — a planted known-bad input (the annotation spoof
//!    buried under noise ops) must shrink, under the *real* pipeline
//!    predicate, to a 1-minimal witness.
//! 4. **Campaign determinism** — re-running the first slice of the
//!    campaign from the same seed must reproduce the same coverage
//!    fingerprint.
//!
//! Writes `FUZZ_REPORT.json` with the seed first, so a CI failure
//! replays locally from the artifact alone:
//! `CI_SEED=<seed> cargo run --release -p bench --bin fuzz_guard`.
//!
//! Usage: `cargo run --release -p bench --bin fuzz_guard
//! [--inputs N] [--seed S] [--corpus DIR] [--witness-dir DIR]
//! [--emit-corpus] [REPORT.json]`
//!
//! `--emit-corpus` regenerates the checked-in corpus from the seed
//! (interesting inputs of a small campaign plus the shrunk known-bad
//! witness) and exits; it is a maintainer tool, not a CI check.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fuzz::{
    gen_input, is_one_minimal, load_corpus, replay_corpus, run_campaign, run_input, shrink, size,
    store_entry, AttackOp, CampaignConfig, FuzzInput, ProtectedReplayer, SurgeryOp, TenantProgram,
};
use hdl::json::Json;

/// Default fresh-input budget: the acceptance bar is a ≥500-input
/// campaign with both invariants intact.
const DEFAULT_INPUTS: usize = 500;

/// Shrink-predicate evaluation budget. Each evaluation is a full
/// pipeline run, so this bounds the shrink phase to seconds.
const SHRINK_BUDGET: usize = 200;

/// How many interesting campaign inputs `--emit-corpus` checks in.
const CORPUS_INTERESTING: usize = 6;

/// The planted known-bad input for the shrink demonstration: the seeded
/// annotation-spoof class under a pile of shrinkable noise (extra
/// surgery that cannot break invariants, extra program traffic). The
/// spoof plus a single submission is the 1-minimal core the shrinker
/// must dig out.
fn planted_known_bad(seed: u64) -> FuzzInput {
    let mut input = gen_input(seed);
    input.surgery.truncate(2);
    input.surgery.push(SurgeryOp::DeadConst { wide: true });
    input.surgery.push(SurgeryOp::SpoofInputLabel { input: 0 });
    // Guarantee traffic on the spoofed port, then add droppable noise.
    input.programs = vec![TenantProgram {
        ops: vec![
            AttackOp::Idle { cycles: 2 },
            AttackOp::Submit { slot: 0, data: 1 },
            AttackOp::Submit { slot: 1, data: 7 },
            AttackOp::ReadDebug { sel: 0 },
        ],
    }];
    input.spec.tenants = 1;
    input.spec.normalize();
    input
}

fn emit_corpus(dir: &Path, seed: u64, replayer: &ProtectedReplayer) -> Result<(), String> {
    let cfg = CampaignConfig {
        seed,
        inputs: 64,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&cfg, replayer);
    if !result.invariants_hold() {
        return Err(format!(
            "refusing to emit a corpus from a failing campaign ({} invariant failures)",
            result.failures.len()
        ));
    }
    for (i, input) in result
        .interesting
        .iter()
        .take(CORPUS_INTERESTING)
        .enumerate()
    {
        store_entry(dir, &format!("seed-{i:02}.json"), input)?;
    }
    let bad = planted_known_bad(seed);
    let mut fails = |candidate: &FuzzInput| !run_input(candidate, replayer).invariant1.is_empty();
    let minimal = shrink(&bad, SHRINK_BUDGET, &mut fails);
    store_entry(dir, "bad-spoof-submit.json", &minimal)?;
    println!(
        "corpus written to {}: {} interesting + 1 known-bad witness (size {} -> {})",
        dir.display(),
        result.interesting.len().min(CORPUS_INTERESTING),
        size(&bad),
        size(&minimal),
    );
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut report_path = "FUZZ_REPORT.json".to_string();
    let mut corpus_dir = PathBuf::from("corpus");
    let mut witness_dir = PathBuf::from("FUZZ_WITNESSES");
    let mut inputs = DEFAULT_INPUTS;
    let mut seed = bench::ci_seed(0xf022_2019);
    let mut emit = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--inputs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => inputs = n,
                None => {
                    eprintln!("fuzz_guard: --inputs expects a number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("fuzz_guard: --seed expects a u64");
                    return ExitCode::FAILURE;
                }
            },
            "--corpus" => match args.next() {
                Some(d) => corpus_dir = PathBuf::from(d),
                None => {
                    eprintln!("fuzz_guard: --corpus expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--witness-dir" => match args.next() {
                Some(d) => witness_dir = PathBuf::from(d),
                None => {
                    eprintln!("fuzz_guard: --witness-dir expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--emit-corpus" => emit = true,
            other => report_path = other.to_string(),
        }
    }

    println!("fuzz_guard: seed {seed} ({seed:#x})");
    let start = Instant::now();
    let replayer = ProtectedReplayer::new();

    if emit {
        return match emit_corpus(&corpus_dir, seed, &replayer) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fuzz_guard: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = false;

    // Check 1: deterministic corpus replay.
    let entries = match load_corpus(&corpus_dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fuzz_guard: cannot load corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replay_a = replay_corpus(&entries, &replayer);
    let replay_b = replay_corpus(&entries, &replayer);
    let corpus_deterministic = replay_a.coverage.fingerprint() == replay_b.coverage.fingerprint()
        && replay_a.kills == replay_b.kills;
    println!(
        "corpus: {} entries, {} coverage events, fingerprint {:#018x}, kills {:?}",
        replay_a.entries,
        replay_a.coverage.len(),
        replay_a.coverage.fingerprint(),
        replay_a.kills
    );
    if entries.is_empty() {
        failed = true;
        eprintln!(
            "fuzz_guard: FAIL — corpus {} is empty (regenerate with --emit-corpus)",
            corpus_dir.display()
        );
    }
    if !entries.iter().any(|e| e.expects_failure()) {
        failed = true;
        eprintln!("fuzz_guard: FAIL — corpus has no known-bad (bad-*) witness");
    }
    if !replay_a.ok() {
        failed = true;
        for m in &replay_a.mismatches {
            eprintln!("fuzz_guard: FAIL — corpus mismatch: {m}");
        }
    }
    if !corpus_deterministic {
        failed = true;
        eprintln!("fuzz_guard: FAIL — corpus replay is not deterministic");
    }

    // Check 2: fresh coverage-guided campaign from the seed.
    let cfg = CampaignConfig {
        seed,
        inputs,
        ..CampaignConfig::default()
    };
    let campaign = run_campaign(&cfg, &replayer);
    println!(
        "campaign: {} inputs ({} mutated), {} coverage events, fingerprint {:#018x}",
        campaign.executed,
        campaign.mutated,
        campaign.coverage.len(),
        campaign.coverage.fingerprint()
    );
    println!("  kills: {:?}", campaign.kills);
    if !campaign.invariants_hold() {
        failed = true;
        eprintln!(
            "fuzz_guard: FAIL — {} campaign input(s) broke a fuzz invariant:",
            campaign.failures.len()
        );
        for (i, w) in campaign.failures.iter().enumerate() {
            eprintln!("  invariant {}: {:?}", w.invariant, w.details);
            let name = format!("invariant{}-{i:02}.json", w.invariant);
            if let Err(e) = store_entry(&witness_dir, &name, &w.input) {
                eprintln!("fuzz_guard: cannot store witness {name}: {e}");
            } else {
                eprintln!("  witness written to {}", witness_dir.join(&name).display());
            }
        }
    }

    // Check 3: the shrinker digs the 1-minimal core out of a planted
    // known-bad input, under the real pipeline predicate.
    let planted = planted_known_bad(seed);
    let mut fails = |candidate: &FuzzInput| !run_input(candidate, &replayer).invariant1.is_empty();
    let planted_size = size(&planted);
    if !fails(&planted) {
        failed = true;
        eprintln!("fuzz_guard: FAIL — planted annotation spoof no longer breaks invariant 1");
    }
    let minimal = shrink(&planted, SHRINK_BUDGET, &mut fails);
    let minimal_size = size(&minimal);
    let one_minimal = is_one_minimal(&minimal, &mut fails);
    println!("shrink: planted size {planted_size} -> {minimal_size}, 1-minimal: {one_minimal}");
    if minimal_size >= planted_size {
        failed = true;
        eprintln!("fuzz_guard: FAIL — shrinking made no progress on the planted witness");
    }
    if !one_minimal {
        failed = true;
        eprintln!("fuzz_guard: FAIL — shrunk witness is not 1-minimal");
    }

    // Check 4: the campaign is a pure function of the seed.
    let probe_cfg = CampaignConfig {
        seed,
        inputs: inputs.min(32),
        ..CampaignConfig::default()
    };
    let probe_a = run_campaign(&probe_cfg, &replayer);
    let probe_b = run_campaign(&probe_cfg, &replayer);
    let campaign_deterministic = probe_a.coverage.fingerprint() == probe_b.coverage.fingerprint()
        && probe_a.kills == probe_b.kills;
    if !campaign_deterministic {
        failed = true;
        eprintln!("fuzz_guard: FAIL — campaign replay from the same seed diverged");
    }

    let total_secs = start.elapsed().as_secs_f64();
    let report = Json::obj(vec![
        ("seed", Json::U64(seed)),
        (
            "corpus",
            Json::obj(vec![
                ("dir", Json::Str(corpus_dir.display().to_string())),
                ("entries", Json::U64(replay_a.entries as u64)),
                ("coverage_events", Json::U64(replay_a.coverage.len() as u64)),
                (
                    "coverage_fingerprint",
                    Json::Str(format!("{:#018x}", replay_a.coverage.fingerprint())),
                ),
                (
                    "kills",
                    Json::Obj(
                        replay_a
                            .kills
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::U64(*v as u64)))
                            .collect(),
                    ),
                ),
                ("deterministic", Json::Bool(corpus_deterministic)),
                (
                    "mismatches",
                    Json::Arr(
                        replay_a
                            .mismatches
                            .iter()
                            .map(|m| Json::Str(m.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("campaign", campaign.to_json()),
        (
            "shrink",
            Json::obj(vec![
                ("planted_size", Json::U64(planted_size as u64)),
                ("minimal_size", Json::U64(minimal_size as u64)),
                ("one_minimal", Json::Bool(one_minimal)),
                ("witness", minimal.to_json()),
            ]),
        ),
        ("campaign_deterministic", Json::Bool(campaign_deterministic)),
        ("total_seconds", Json::F64(total_secs)),
    ]);
    let mut text = report.render();
    text.push('\n');
    if let Err(e) = std::fs::write(&report_path, &text) {
        eprintln!("fuzz_guard: cannot write {report_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {report_path} ({total_secs:.1}s)");

    if failed {
        return ExitCode::FAILURE;
    }
    println!("fuzz_guard: OK");
    ExitCode::SUCCESS
}
