//! Fuzz invariant 2: no generated attack leaks on the protected build.
//!
//! Every fuzz input's tenant programs are replayed — interleaved on one
//! device, the multi-tenant reality — against the real *protected*
//! accelerator under each [`TrackMode`]. The oracle is **value-based**,
//! not violation-based: a `DowngradeRejected` on the protected design is
//! enforcement *working* (coverage signal), while an actual master-key
//! ciphertext landing in a non-supervisor's response queue, or the debug
//! tap answering a non-supervisor, is a leak no tracking mode may permit.
//!
//! Runtime labels are shadow state that no value computation reads, so
//! every tracking mode drives the device through the same values. The
//! protected tape is therefore compiled once, as a [`CompiledSim`] with a
//! conservative and a precise label plane
//! ([`CompiledSim::with_both_planes`]), and each input is replayed once
//! on a clone: one tape pass per cycle yields both tracked modes'
//! violation streams. `Off` needs no pass of its own — its replay is the
//! shared value outcome (responses, rejections, stalls, drain, leaks)
//! with no violations, which is all untracked simulation records. A
//! 500-input campaign pays for one compile and one replay per input.

use std::collections::VecDeque;

use accel::driver::{AccelDriver, Request};
use accel::{master_key_encrypt, supervisor_label, user_label, MASTER_KEY_SLOT};
use ifc_lattice::Label;
use sim::{CompiledSim, RuntimeViolation, TrackMode};

use crate::program::{AttackOp, TenantProgram};

/// Tracking modes invariant 2 quantifies over.
pub const REPLAY_MODES: [TrackMode; 3] =
    [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise];

/// Stable key for a tracking mode (report and coverage vocabulary).
#[must_use]
pub fn mode_key(mode: TrackMode) -> &'static str {
    match mode {
        TrackMode::Off => "off",
        TrackMode::Conservative => "conservative",
        TrackMode::Precise => "precise",
    }
}

/// One tracking mode's replay of one fuzz input.
#[derive(Debug, Clone)]
pub struct ModeReplay {
    /// The mode replayed.
    pub mode: TrackMode,
    /// Invariant-2 failures: each string describes one observed leak.
    pub leaks: Vec<String>,
    /// Violations the runtime tracking raised (coverage, not failures).
    pub violations: Vec<RuntimeViolation>,
    /// Completed encryptions.
    pub responses: usize,
    /// Release-gate rejections (the nonmalleable check firing).
    pub rejections: usize,
    /// Submits abandoned after the stall-retry budget.
    pub stalled_submits: u32,
    /// Whether every in-flight request completed within the drain bound.
    pub drained: bool,
}

/// All modes' replays of one fuzz input.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One entry per [`REPLAY_MODES`] element, in that order.
    pub modes: Vec<ModeReplay>,
}

impl ReplayOutcome {
    /// Every leak across all modes, as `"mode: description"` lines.
    #[must_use]
    pub fn leaks(&self) -> Vec<String> {
        self.modes
            .iter()
            .flat_map(|m| m.leaks.iter().map(|l| format!("{}: {l}", mode_key(m.mode))))
            .collect()
    }
}

/// Compiles the protected accelerator once, with a label plane for each
/// tracked mode, and replays fuzz inputs against clones.
#[derive(Debug)]
pub struct ProtectedReplayer {
    prototype: CompiledSim,
}

impl Default for ProtectedReplayer {
    fn default() -> ProtectedReplayer {
        ProtectedReplayer::new()
    }
}

impl ProtectedReplayer {
    /// Builds and compiles the protected design with a conservative and a
    /// precise label plane.
    ///
    /// # Panics
    ///
    /// Panics if the shipped protected design fails to lower (it never
    /// does).
    #[must_use]
    pub fn new() -> ProtectedReplayer {
        let net = accel::protected().lower().expect("protected design lowers");
        ProtectedReplayer {
            prototype: CompiledSim::with_both_planes(net),
        }
    }

    /// Replays one input's tenant programs once and reports it under
    /// every tracking mode.
    #[must_use]
    pub fn replay(&self, programs: &[TenantProgram]) -> ReplayOutcome {
        let mut driver = AccelDriver::from_backend(self.prototype.clone());
        let run = drive(&mut driver, programs);
        let sim = driver.sim();
        let modes = REPLAY_MODES
            .iter()
            .map(|&mode| ModeReplay {
                mode,
                leaks: run.leaks.clone(),
                // `Off` tracks nothing; each tracked mode reads its plane.
                violations: sim
                    .label_planes()
                    .iter()
                    .position(|&m| m == mode)
                    .map_or_else(Vec::new, |k| sim.plane_violations(k).to_vec()),
                responses: driver.responses.len(),
                rejections: driver.rejections.len(),
                stalled_submits: run.stalled_submits,
                drained: run.drained,
            })
            .collect();
        ReplayOutcome { modes }
    }
}

/// What one replay observed through values alone, and so shares across
/// every tracking mode.
struct Drive {
    leaks: Vec<String>,
    stalled_submits: u32,
    drained: bool,
}

struct Tenant<'p> {
    user: Label,
    ops: VecDeque<&'p AttackOp>,
    /// Expected master-key ciphertexts of this tenant's own master-slot
    /// submissions: delivery of any of them to this (non-supervisor)
    /// tenant is the leak invariant 2 watches for.
    forbidden: Vec<[u8; 16]>,
}

/// Drives the tenant programs round-robin through `driver`, then drains.
fn drive(driver: &mut AccelDriver<CompiledSim>, programs: &[TenantProgram]) -> Drive {
    let mut tenants: Vec<Tenant<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| Tenant {
            user: user_label(k % 4),
            ops: p.ops.iter().collect(),
            forbidden: Vec::new(),
        })
        .collect();

    let mut leaks = Vec::new();
    let mut stalled_submits = 0u32;

    // Round-robin, one op per tenant per turn: the interleaving a real
    // multi-tenant device sees.
    let mut remaining = tenants.iter().map(|t| t.ops.len()).sum::<usize>();
    while remaining > 0 {
        for tenant in &mut tenants {
            let Some(op) = tenant.ops.pop_front() else {
                continue;
            };
            remaining -= 1;
            let me = tenant.user;
            match *op {
                AttackOp::Submit { slot, data } => {
                    let block = accel::fleet::block_from(data, 0);
                    let key_slot = usize::from(slot) % 4;
                    if key_slot == MASTER_KEY_SLOT {
                        tenant.forbidden.push(master_key_encrypt(block));
                    }
                    let req = Request {
                        block,
                        key_slot,
                        user: me,
                    };
                    let mut accepted = false;
                    for _ in 0..64 {
                        if driver.try_submit(&req) {
                            accepted = true;
                            break;
                        }
                    }
                    if !accepted {
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
                AttackOp::Alloc { cell } => {
                    driver.alloc_cell(usize::from(cell) % 8, me);
                }
                AttackOp::WriteCfg { value } => {
                    driver.write_cfg(value, me);
                }
                AttackOp::ReadDebug { sel } => {
                    if driver.read_debug(u32::from(sel) % 8, me).is_some() {
                        leaks.push(format!(
                            "debug tap answered non-supervisor {me} at sel {sel}"
                        ));
                    }
                }
                AttackOp::Idle { cycles } => {
                    driver.idle(u64::from(cycles.max(1)));
                }
            }
        }
    }

    // Bounded drain — no panic on a wedged pipeline, just a recorded
    // replay-blocked condition.
    let mut budget = 2_000u32;
    while driver.in_flight() > 0 && budget > 0 {
        driver.idle_cycle();
        budget -= 1;
    }
    let drained = driver.in_flight() == 0;

    // The value oracle: did any tenant actually receive a master-key
    // ciphertext of one of their own master-slot submissions?
    let supervisor = supervisor_label();
    for resp in &driver.responses {
        if resp.user == supervisor {
            continue;
        }
        let hit = tenants
            .iter()
            .any(|t| t.user == resp.user && t.forbidden.contains(&resp.block));
        if hit {
            leaks.push(format!(
                "master-key ciphertext delivered to {} at cycle {}",
                resp.user, resp.completed
            ));
        }
    }

    Drive {
        leaks,
        stalled_submits,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::gen_programs;
    use crate::rng::FuzzRng;

    #[test]
    fn random_programs_never_leak_on_protected() {
        let replayer = ProtectedReplayer::new();
        let mut rng = FuzzRng::new(0x5ea1);
        for _ in 0..3 {
            let programs = gen_programs(&mut rng, 2);
            let outcome = replayer.replay(&programs);
            assert_eq!(outcome.modes.len(), REPLAY_MODES.len());
            assert!(
                outcome.leaks().is_empty(),
                "protected build leaked: {:?}",
                outcome.leaks()
            );
        }
    }
}
