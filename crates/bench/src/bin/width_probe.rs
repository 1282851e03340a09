//! Per-width sustained-throughput probe for lane-batched engines.
//!
//! Measures steady-state blocks/s of a fully occupied `BatchedDriver`
//! at every supported lane width, for one engine and for one engine per
//! core in parallel (median of several reps — containerised hosts are
//! noisy). Each engine streams long per-lane request trains through
//! `accel::fleet::run_lane_sessions`, so key-load and pipeline-drain
//! overheads wash out, a stalled pipeline panics instead of hanging, and
//! every ciphertext is checked against the AES oracle.
//!
//! These are per-engine rates, not fleet aggregates: a fleet folds
//! worker-pool partitioning into the number (the original "W=8 cliff"
//! was one 8-wide batch pinned to one worker while the second core sat
//! idle). The one-engine rows seed the farm's `WidthTuner`; the probe
//! prints them as the `SEED_BLOCKS_PER_SEC` array literal of
//! `farm::tuner`. Re-run it after changing the batched interpreter or
//! the scheduler to keep the checked-in seeds honest.
//!
//! Usage: `cargo run --release -p bench --bin width_probe [blocks_per_lane]`

use std::thread;
use std::time::Instant;

use accel::batch::BatchedDriver;
use accel::fleet::{mix, run_lane_sessions};
use accel::{protected, user_label};
use ifc_lattice::Label;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

const DEFAULT_BLOCKS: usize = 256;
const REPS: usize = 3;

/// Streams `blocks` blocks through every lane of one `width`-lane engine
/// at full occupancy.
///
/// # Panics
///
/// Panics if any lane misses or mis-encrypts a block.
fn stream(proto: &BatchedSim, width: usize, blocks: usize, seed: u64) {
    let mut driver = BatchedDriver::from_batched(proto.with_lanes(width));
    let users: Vec<Label> = (0..width).map(|l| user_label(l % 4)).collect();
    let seeds: Vec<u64> = (0..width).map(|l| mix(seed ^ l as u64)).collect();
    for s in run_lane_sessions(&mut driver, blocks, &users, &seeds) {
        assert!(
            s.responses == blocks && s.verified == blocks,
            "W={width} engine produced a bad or missing ciphertext: {s:?}"
        );
    }
}

/// Aggregate blocks/s of `engines` engines of `width` lanes running
/// concurrently, each streaming `blocks` blocks per lane.
fn run_once(proto: &BatchedSim, width: usize, engines: usize, blocks: usize) -> f64 {
    let start = Instant::now();
    thread::scope(|s| {
        for e in 0..engines {
            s.spawn(move || stream(proto, width, blocks, 0xbeef ^ (e as u64) << 32));
        }
    });
    (engines * width * blocks) as f64 / start.elapsed().as_secs_f64()
}

/// Median blocks/s over [`REPS`] runs, after one uncounted warm-up.
fn engine_rate(proto: &BatchedSim, width: usize, engines: usize, blocks: usize) -> f64 {
    run_once(proto, width, engines, blocks);
    let mut rates: Vec<f64> = (0..REPS)
        .map(|_| run_once(proto, width, engines, blocks))
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[REPS / 2]
}

fn main() {
    let blocks = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_BLOCKS);
    let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let net = protected().lower().expect("protected lowers");
    let proto = BatchedSim::with_tracking_opt(net, TrackMode::Precise, 1, &OptConfig::all());
    println!(
        "width probe: {blocks} blocks/lane, Precise tracking, OptConfig::all(), \
         {cores} cores, median of {REPS}"
    );
    println!(
        "{:>5} {:>18} {:>24}",
        "width", "1 engine (blk/s)", "per-core engines (blk/s)"
    );
    let mut seeds = Vec::new();
    for w in SUPPORTED_LANES {
        let one = engine_rate(&proto, w, 1, blocks);
        let many = engine_rate(&proto, w, cores, blocks);
        println!("{w:>5} {one:>18.0} {many:>24.0}");
        seeds.push(format!("{:.1}", one.round()));
    }
    println!(
        "const SEED_BLOCKS_PER_SEC: [f64; {}] = [{}];",
        SUPPORTED_LANES.len(),
        seeds.join(", ")
    );
}
