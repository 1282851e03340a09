//! Steady-state stream measurements of the simulation engines and the
//! drivers around them, made by every traced run.
//!
//! Each stream first fills the 30-stage pipeline, then times whole
//! windows in which every lane offers a block on every cycle, so no
//! fill or drain is in the figure. The same loaded engine then runs
//! `run(n)` with no port traffic; the difference is the driver's
//! per-cycle protocol cost.

use std::collections::BTreeSet;
use std::time::Instant;

use accel::batch::BatchedDriver;
use accel::driver::{AccelDriver, Request, Response};
use accel::fleet::{block_from, mix, KEY_DERIVE_INDEX};
use accel::{protected, user_label, PIPELINE_DEPTH};
use aes_core::Aes;
use fuzz::{mode_key, REPLAY_MODES};
use hdl::Netlist;
use ifc_lattice::Label;
use sim::{
    BatchedSim, CompiledSim, LaneBackend, OptConfig, SimBackend, TrackMode, SUPPORTED_LANES,
};

use crate::report::RunOutput;
use crate::stats::median;

/// The paper's figures: a 30-cycle pipeline accepting one block per
/// cycle.
const PAPER_LATENCY_CYCLES: u64 = 30;
const PAPER_CYCLES_PER_BLOCK: f64 = 1.0;
/// Lane-cycles in one timed window, at every width.
const WINDOW_LANE_CYCLES: u64 = 2048;
/// Timed windows per stream; the median is reported.
const WINDOWS: usize = 3;
const REPS: usize = 5;

/// Simulated-time facts every stream must agree on.
#[derive(Default)]
struct Simulated {
    /// Every distinct submit-to-response latency seen, in cycles.
    latencies: BTreeSet<u64>,
    blocks: u64,
    timed_cycles: u64,
    timed_blocks: u64,
    bad_blocks: u64,
}

impl Simulated {
    /// Checks one session's responses against the software oracle and
    /// records their latencies.
    fn absorb(&mut self, responses: &[Response], key: [u8; 16], stream: u64) {
        let oracle = Aes::new(&key).expect("16-byte key");
        for (i, r) in responses.iter().enumerate() {
            if oracle.encrypt_block(block_from(stream, i as u64)) != r.block {
                self.bad_blocks += 1;
            }
            self.latencies.insert(r.completed - r.submitted);
            self.blocks += 1;
        }
    }
}

/// Per-cycle wall time of `f`, median over [`WINDOWS`] windows of
/// `cycles` cycles each.
fn windows_ns(cycles: u64, mut f: impl FnMut(u64)) -> f64 {
    let per_cycle: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let started = Instant::now();
            f(cycles);
            started.elapsed().as_secs_f64() * 1e9 / cycles as f64
        })
        .collect();
    median(&per_cycle)
}

/// A `width`-lane batched stream under precise tracking:
/// `(ns per lane-cycle streaming, ns per lane-cycle raw)`.
fn batched_stream(net: &Netlist, width: usize, seed: u64, sim: &mut Simulated) -> (f64, f64) {
    let engine =
        BatchedSim::with_tracking_opt(net.clone(), TrackMode::Precise, width, &OptConfig::all());
    let mut d = BatchedDriver::from_batched(engine);
    let users: Vec<Label> = (0..width).map(|l| user_label(l % 3)).collect();
    let streams: Vec<u64> = (0..width).map(|l| mix(seed ^ (l as u64 + 1))).collect();
    let keys: Vec<[u8; 16]> = streams
        .iter()
        .map(|&s| block_from(s, KEY_DERIVE_INDEX))
        .collect();
    d.load_keys(0, &keys, &users);
    let mut next = vec![0u64; width];
    let mut reqs = vec![None; width];
    let mut accepted = vec![false; width];
    let mut step = |d: &mut BatchedDriver, cycles: u64| {
        for _ in 0..cycles {
            for lane in 0..width {
                reqs[lane] = Some(Request {
                    block: block_from(streams[lane], next[lane]),
                    key_slot: 0,
                    user: users[lane],
                });
            }
            d.try_submit_each(&reqs, &mut accepted);
            for lane in 0..width {
                next[lane] += u64::from(accepted[lane]);
            }
        }
    };
    step(&mut d, 2 * PIPELINE_DEPTH as u64);
    let cycles = WINDOW_LANE_CYCLES / width as u64;
    let before: usize = d.responses.iter().map(Vec::len).sum();
    let stream = windows_ns(cycles, |n| step(&mut d, n));
    let after: usize = d.responses.iter().map(Vec::len).sum();
    sim.timed_cycles += cycles * WINDOWS as u64 * width as u64;
    sim.timed_blocks += (after - before) as u64;
    d.drain(10 * PIPELINE_DEPTH as u64);
    for lane in 0..width {
        sim.absorb(&d.responses[lane], keys[lane], streams[lane]);
    }
    let engine = d.sim_mut();
    let raw = windows_ns(cycles, |n| LaneBackend::run(engine, n));
    (stream / width as f64, raw / width as f64)
}

/// A single-session compiled stream: `(ns per cycle streaming, ns per
/// cycle raw)`.
fn compiled_stream(net: &Netlist, mode: TrackMode, seed: u64, sim: &mut Simulated) -> (f64, f64) {
    let engine = <CompiledSim as SimBackend>::from_netlist(net.clone(), mode);
    let mut d: AccelDriver<CompiledSim> = AccelDriver::from_backend(engine);
    let user = user_label(1);
    let stream = mix(seed ^ 0xc0);
    let key = block_from(stream, KEY_DERIVE_INDEX);
    d.load_key(0, key, user);
    let mut next = 0u64;
    let mut step = |d: &mut AccelDriver<CompiledSim>, cycles: u64| {
        for _ in 0..cycles {
            let req = Request {
                block: block_from(stream, next),
                key_slot: 0,
                user,
            };
            next += u64::from(d.try_submit(&req));
        }
    };
    step(&mut d, 2 * PIPELINE_DEPTH as u64);
    let before = d.responses.len();
    let per_cycle = windows_ns(WINDOW_LANE_CYCLES, |n| step(&mut d, n));
    sim.timed_cycles += WINDOW_LANE_CYCLES * WINDOWS as u64;
    sim.timed_blocks += (d.responses.len() - before) as u64;
    d.drain(10 * PIPELINE_DEPTH as u64);
    sim.absorb(&d.responses, key, stream);
    let engine = d.sim_mut();
    let raw = windows_ns(WINDOW_LANE_CYCLES, |n| SimBackend::run(engine, n));
    (per_cycle, raw)
}

fn median_ms(reps: usize, mut f: impl FnMut() -> std::time::Duration) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e3).collect();
    median(&xs)
}

pub fn measure(seed: u64, out: &mut RunOutput) {
    let started = Instant::now();
    out.set(
        "hdl.lower_ms",
        median_ms(REPS, || {
            let s = Instant::now();
            let net = protected().lower().expect("protected design lowers");
            let d = s.elapsed();
            drop(net);
            d
        }),
    );
    let net = protected().lower().expect("protected design lowers");
    out.set(
        "sim.compile_ms.batched",
        median_ms(REPS, || {
            let n = net.clone();
            let s = Instant::now();
            let e = BatchedSim::with_tracking_opt(n, TrackMode::Precise, 1, &OptConfig::all());
            let d = s.elapsed();
            drop(e);
            d
        }),
    );
    out.set(
        "sim.compile_ms.compiled",
        median_ms(REPS, || {
            let n = net.clone();
            let s = Instant::now();
            let e = <CompiledSim as SimBackend>::from_netlist(n, TrackMode::Precise);
            let d = s.elapsed();
            drop(e);
            d
        }),
    );

    let mut simulated = Simulated::default();
    for width in SUPPORTED_LANES {
        let (stream, raw) = batched_stream(&net, width, seed, &mut simulated);
        out.set(format!("sim.ns_per_lane_cycle.w{width}"), stream);
        out.set(format!("sim.raw_ns_per_lane_cycle.w{width}"), raw);
        if width == 16 {
            out.set(
                "accel.driver_ns_per_cycle.batched_w16",
                (stream - raw) * 16.0,
            );
        }
    }
    for mode in REPLAY_MODES {
        let (stream, raw) = compiled_stream(&net, mode, seed, &mut simulated);
        out.set(
            format!("sim.ns_per_cycle.compiled.{}", mode_key(mode)),
            stream,
        );
        out.set(
            format!("sim.raw_ns_per_cycle.compiled.{}", mode_key(mode)),
            raw,
        );
        if mode == TrackMode::Precise {
            out.set("accel.driver_ns_per_cycle.compiled", stream - raw);
        }
    }

    // Simulated time: identical on every stream and every run.
    let latency = simulated.latencies.last().copied().unwrap_or(0);
    let cycles_per_block = simulated.timed_cycles as f64 / simulated.timed_blocks.max(1) as f64;
    out.set("sim.latency_cycles", latency as f64);
    out.set("sim.cycles_per_block", cycles_per_block);
    out.note(format!(
        "simulated: latency {latency} cycles (paper {PAPER_LATENCY_CYCLES}), \
         {cycles_per_block:.3} cycles/block (paper {PAPER_CYCLES_PER_BLOCK:.3}) over {} blocks",
        simulated.blocks
    ));
    if simulated.latencies != BTreeSet::from([PAPER_LATENCY_CYCLES]) {
        out.problem(format!(
            "block latencies {:?} cycles, not {PAPER_LATENCY_CYCLES} on every block",
            simulated.latencies
        ));
    }
    if simulated.timed_blocks != simulated.timed_cycles {
        out.problem(format!(
            "{} blocks completed in {} timed lane-cycles, not one per cycle",
            simulated.timed_blocks, simulated.timed_cycles
        ));
    }
    if simulated.bad_blocks > 0 {
        out.problem(format!(
            "{} streamed blocks failed the software AES oracle",
            simulated.bad_blocks
        ));
    }
    out.note(format!(
        "sim streams: {:.2} s",
        started.elapsed().as_secs_f64()
    ));
}
