//! Runtime labels are shadow state: values never read them.
//!
//! On random stimulus against the protected and the baseline accelerator
//! netlists, cycle by cycle:
//!
//! * `Off`, `Conservative` and `Precise` [`CompiledSim`] engines settle
//!   every node and memory cell to identical values — tracking changes
//!   labels only;
//! * the two-plane engine ([`CompiledSim::with_both_planes`]) settles to
//!   the same values, and its conservative and precise planes carry the
//!   slot labels, memory labels and violation streams (truncation flag
//!   included, under a small violation cap too) of the matching
//!   single-mode engine and of the interpreting [`Simulator`].
//!
//! This is what lets the protected fuzz replay run each input once and
//! read every tracking mode's outcome off one pass.

use hdl::{Netlist, NodeId};
use ifc_lattice::Label;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{CompiledSim, SimBackend, Simulator, TrackMode};

const LABELS: [Label; 4] = [
    Label::PUBLIC_TRUSTED,
    Label::SECRET_TRUSTED,
    Label::PUBLIC_UNTRUSTED,
    Label::SECRET_UNTRUSTED,
];

const TRACKED: [TrackMode; 2] = [TrackMode::Conservative, TrackMode::Precise];

/// Every engine under comparison, fed identical stimulus.
struct Engines {
    off: CompiledSim,
    /// Single-mode compiled engines, one per tracked mode.
    single: Vec<CompiledSim>,
    /// Interpreters, one per tracked mode.
    interp: Vec<Simulator>,
    both: CompiledSim,
}

impl Engines {
    fn new(net: &Netlist, cap: Option<usize>) -> Engines {
        let mut e = Engines {
            off: CompiledSim::with_tracking(net.clone(), TrackMode::Off),
            single: TRACKED
                .iter()
                .map(|&m| CompiledSim::with_tracking(net.clone(), m))
                .collect(),
            interp: TRACKED
                .iter()
                .map(|&m| Simulator::with_tracking(net.clone(), m))
                .collect(),
            both: CompiledSim::with_both_planes(net.clone()),
        };
        assert_eq!(e.both.label_planes(), TRACKED);
        e.for_each(|s| {
            if let Some(cap) = cap {
                s.set_violation_cap(cap);
            }
            // Provisioned secrets: a secret-trusted cell in every memory.
            for mem in 0..s.netlist().mems.len() {
                s.set_mem_cell_label(mem, 0, Label::SECRET_TRUSTED);
            }
        });
        e
    }

    fn for_each(&mut self, mut f: impl FnMut(&mut dyn SimBackend)) {
        f(&mut self.off);
        f(&mut self.both);
        for s in &mut self.single {
            f(s);
        }
        for s in &mut self.interp {
            f(s);
        }
    }

    /// Values of every node and memory cell agree across the compiled
    /// engines; each plane's labels agree with its single-mode engine and
    /// interpreter.
    fn assert_settled_state_agrees(&mut self, at: &str) {
        let net = self.off.netlist().clone();
        for i in 0..net.node_count() {
            let id = NodeId::from_raw(i as u32);
            let value = self.off.peek_node(id);
            assert_eq!(self.both.peek_node(id), value, "{at}: value of node {i}");
            for (k, mode) in TRACKED.iter().enumerate() {
                assert_eq!(
                    self.single[k].peek_node(id),
                    value,
                    "{at}: {mode:?} value of node {i}"
                );
                let label = self.both.peek_node_plane_label(k, id);
                assert_eq!(
                    self.single[k].peek_node_label(id),
                    label,
                    "{at}: {mode:?} plane label of node {i}"
                );
                assert_eq!(
                    self.interp[k].peek_node_label(id),
                    label,
                    "{at}: {mode:?} interpreter label of node {i}"
                );
            }
        }
        for (mem, info) in net.mems.iter().enumerate() {
            for addr in 0..info.depth {
                let value = self.off.mem_cell(mem, addr);
                assert_eq!(self.both.mem_cell(mem, addr), value, "{at}: {}", info.name);
                for (k, mode) in TRACKED.iter().enumerate() {
                    assert_eq!(self.single[k].mem_cell(mem, addr), value, "{at}: {mode:?}");
                    let label = self.both.mem_cell_plane_label(k, mem, addr);
                    assert_eq!(
                        self.single[k].mem_cell_label(mem, addr),
                        label,
                        "{at}: {mode:?} label of {}[{addr}]",
                        info.name
                    );
                    assert_eq!(
                        self.interp[k].mem_cell_label(mem, addr),
                        label,
                        "{at}: {mode:?} interpreter label of {}[{addr}]",
                        info.name
                    );
                }
            }
        }
    }

    /// Each plane's violation stream and truncation flag agree with its
    /// single-mode engine and interpreter; `Off` records nothing.
    fn assert_violations_agree(&self, at: &str) {
        assert!(self.off.violations().is_empty(), "{at}: Off recorded");
        for (k, mode) in TRACKED.iter().enumerate() {
            let stream = self.both.plane_violations(k);
            let truncated = self.both.plane_violations_truncated(k);
            assert_eq!(self.single[k].violations(), stream, "{at}: {mode:?} stream");
            assert_eq!(self.interp[k].violations(), stream, "{at}: {mode:?} interp");
            assert_eq!(
                self.single[k].violations_truncated(),
                truncated,
                "{at}: {mode:?} truncation"
            );
            assert_eq!(
                self.interp[k].violations_truncated(),
                truncated,
                "{at}: {mode:?} interpreter truncation"
            );
        }
    }
}

/// Drives `cycles` of random stimulus through every engine, checking
/// agreement along the way; returns the two-plane engine.
fn run_random(net: &Netlist, seed: u64, cycles: usize, cap: Option<usize>) -> CompiledSim {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Engines::new(net, cap);
    let ports: Vec<String> = net.inputs.iter().map(|p| p.name.clone()).collect();
    for cycle in 0..cycles {
        let at = format!("seed {seed} cycle {cycle}");
        for port in &ports {
            let value: u128 = rng.gen();
            // Half the drives are 0 or 1, so wide selects and tags also
            // take their small, in-range values.
            let value = if rng.gen_bool(0.5) { value & 1 } else { value };
            let label = LABELS[rng.gen_range(0..LABELS.len())];
            e.for_each(|s| {
                s.set(port, value);
                s.set_label(port, label);
            });
        }
        // Settling before the clock sends the tick down the settled fast
        // path; otherwise it runs a recording propagation.
        if rng.gen_bool(0.5) {
            e.assert_settled_state_agrees(&at);
        }
        if rng.gen_bool(0.25) {
            let n = rng.gen_range(1..4u64);
            e.for_each(|s| s.run(n));
        } else {
            e.for_each(|s| s.tick());
        }
        e.assert_violations_agree(&at);
        if rng.gen_bool(0.5) {
            e.assert_settled_state_agrees(&format!("{at}, after the edge"));
        }
    }
    e.assert_settled_state_agrees(&format!("seed {seed}, end"));
    e.both
}

fn netlists() -> [(&'static str, Netlist); 2] {
    [
        (
            "protected",
            accel::protected().lower().expect("protected lowers"),
        ),
        (
            "baseline",
            accel::baseline().lower().expect("baseline lowers"),
        ),
    ]
}

#[test]
fn values_ignore_labels_and_planes_match_single_mode_engines() {
    for (name, net) in netlists() {
        let both = run_random(&net, 0x1abe1 ^ name.len() as u64, 40, None);
        if name == "protected" {
            assert!(
                (0..2).all(|k| !both.plane_violations(k).is_empty()),
                "random stimulus raised no violation on a plane"
            );
        }
    }
}

#[test]
fn violation_cap_truncates_each_plane_like_its_single_mode_engine() {
    let (_, net) = netlists().into_iter().next().expect("protected");
    for seed in [7, 8] {
        let both = run_random(&net, seed, 24, Some(2));
        for k in 0..2 {
            assert_eq!(both.plane_violations(k).len(), 2, "seed {seed} plane {k}");
            assert!(both.plane_violations_truncated(k), "seed {seed} plane {k}");
        }
    }
}
