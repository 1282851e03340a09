//! The fused protected replay against independent single-mode replays.
//!
//! `ProtectedReplayer` replays each input once, on one compiled engine
//! carrying a conservative and a precise label plane, and derives the
//! `Off` replay from the shared value outcome. The oracle here is the
//! obvious construction it replaces: one `AccelDriver` session per
//! tracking mode, each on its own single-mode backend, driven through
//! the same round-robin schedule. Every `ReplayOutcome` field must agree
//! for every corpus entry and for a range of generated inputs; two of
//! those inputs are also replayed on the interpreting `Simulator`.

use std::collections::VecDeque;
use std::path::Path;

use accel::driver::{AccelDriver, Request};
use accel::{master_key_encrypt, supervisor_label, user_label, MASTER_KEY_SLOT};
use fuzz::replay::ModeReplay;
use fuzz::{
    gen_input, load_corpus, mode_key, AttackOp, FuzzInput, ProtectedReplayer, ReplayOutcome,
    TenantProgram, REPLAY_MODES,
};
use sim::{CompiledSim, SimBackend, Simulator, TrackMode};

/// One independent replay of `programs` on a fresh single-mode session.
fn oracle_replay<B: SimBackend>(
    net: &hdl::Netlist,
    mode: TrackMode,
    programs: &[TenantProgram],
) -> ModeReplay {
    let mut driver: AccelDriver<B> = AccelDriver::from_netlist_on(net.clone(), mode);
    let users: Vec<_> = (0..programs.len()).map(|k| user_label(k % 4)).collect();
    let mut queues: Vec<VecDeque<&AttackOp>> =
        programs.iter().map(|p| p.ops.iter().collect()).collect();
    let mut forbidden: Vec<Vec<[u8; 16]>> = vec![Vec::new(); programs.len()];
    let mut leaks = Vec::new();
    let mut stalled_submits = 0u32;

    while queues.iter().any(|q| !q.is_empty()) {
        for (k, queue) in queues.iter_mut().enumerate() {
            let Some(op) = queue.pop_front() else {
                continue;
            };
            let me = users[k];
            match *op {
                AttackOp::Submit { slot, data } => {
                    let block = accel::fleet::block_from(data, 0);
                    let key_slot = usize::from(slot) % 4;
                    if key_slot == MASTER_KEY_SLOT {
                        forbidden[k].push(master_key_encrypt(block));
                    }
                    let req = Request {
                        block,
                        key_slot,
                        user: me,
                    };
                    if !(0..64).any(|_| driver.try_submit(&req)) {
                        stalled_submits += 1;
                    }
                }
                AttackOp::WriteKey {
                    addr,
                    data,
                    supervisor,
                } => {
                    let writer = if supervisor { supervisor_label() } else { me };
                    driver.write_key_cell(usize::from(addr) % 8, data, writer);
                }
                AttackOp::Alloc { cell } => driver.alloc_cell(usize::from(cell) % 8, me),
                AttackOp::WriteCfg { value } => driver.write_cfg(value, me),
                AttackOp::ReadDebug { sel } => {
                    if driver.read_debug(u32::from(sel) % 8, me).is_some() {
                        leaks.push(format!(
                            "debug tap answered non-supervisor {me} at sel {sel}"
                        ));
                    }
                }
                AttackOp::Idle { cycles } => driver.idle(u64::from(cycles.max(1))),
            }
        }
    }

    let mut budget = 2_000u32;
    while driver.in_flight() > 0 && budget > 0 {
        driver.idle_cycle();
        budget -= 1;
    }
    let drained = driver.in_flight() == 0;

    for resp in &driver.responses {
        if resp.user == supervisor_label() {
            continue;
        }
        let hit = (0..programs.len())
            .any(|k| users[k] == resp.user && forbidden[k].contains(&resp.block));
        if hit {
            leaks.push(format!(
                "master-key ciphertext delivered to {} at cycle {}",
                resp.user, resp.completed
            ));
        }
    }

    ModeReplay {
        mode,
        leaks,
        violations: driver.violations().to_vec(),
        responses: driver.responses.len(),
        rejections: driver.rejections.len(),
        stalled_submits,
        drained,
    }
}

/// Asserts the fused replay of `input` equals the independent replays on
/// backend `B`, field by field and mode by mode, and returns it.
fn assert_matches_oracle<B: SimBackend>(
    what: &str,
    net: &hdl::Netlist,
    replayer: &ProtectedReplayer,
    input: &FuzzInput,
) -> ReplayOutcome {
    let fused = replayer.replay(&input.programs);
    assert_eq!(fused.modes.len(), REPLAY_MODES.len(), "{what}");
    for (got, &mode) in fused.modes.iter().zip(REPLAY_MODES.iter()) {
        let want = oracle_replay::<B>(net, mode, &input.programs);
        let at = format!("{what}, mode {}", mode_key(mode));
        assert_eq!(got.mode, want.mode, "{at}: mode");
        assert_eq!(got.leaks, want.leaks, "{at}: leaks");
        assert_eq!(got.violations, want.violations, "{at}: violations");
        assert_eq!(got.responses, want.responses, "{at}: responses");
        assert_eq!(got.rejections, want.rejections, "{at}: rejections");
        assert_eq!(
            got.stalled_submits, want.stalled_submits,
            "{at}: stalled submits"
        );
        assert_eq!(got.drained, want.drained, "{at}: drained");
    }
    fused
}

fn protected_net() -> hdl::Netlist {
    accel::protected().lower().expect("protected design lowers")
}

#[test]
fn fused_replay_matches_independent_replays_on_the_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let entries = load_corpus(&dir).expect("checked-in corpus loads");
    assert!(!entries.is_empty(), "corpus must not be empty");
    let net = protected_net();
    let replayer = ProtectedReplayer::new();
    for entry in &entries {
        assert_matches_oracle::<CompiledSim>(&entry.name, &net, &replayer, &entry.input);
    }
}

#[test]
fn fused_replay_matches_independent_replays_on_generated_inputs() {
    let net = protected_net();
    let replayer = ProtectedReplayer::new();
    let (mut violating, mut planes_differ) = (0, 0);
    for seed in 0..64 {
        let input = gen_input(seed);
        let outcome =
            assert_matches_oracle::<CompiledSim>(&format!("seed {seed}"), &net, &replayer, &input);
        violating += usize::from(outcome.modes.iter().any(|m| !m.violations.is_empty()));
        planes_differ += usize::from(outcome.modes[1].violations != outcome.modes[2].violations);
    }
    // The comparison only means something if tracked modes raise
    // violations, and only pins each plane to its own mux rule if the two
    // modes' streams differ somewhere.
    assert!(violating > 0, "no generated input raised a violation");
    assert!(planes_differ > 0, "conservative and precise never differed");
}

#[test]
fn fused_replay_matches_interpreter_replays() {
    let net = protected_net();
    let replayer = ProtectedReplayer::new();
    for seed in [3, 17] {
        let input = gen_input(seed);
        assert_matches_oracle::<Simulator>(
            &format!("seed {seed} (interpreter)"),
            &net,
            &replayer,
            &input,
        );
    }
}
