//! Regression guard for the lane-batched backend.
//!
//! Measures, in one process, the batched 8-session fleet (conservative
//! tracking, every optimizer pass) against the single-session compiled
//! baseline in the same tracking mode, and **exits non-zero** if the
//! batched aggregate throughput has dropped below the baseline — i.e. if
//! lane batching ever stops paying for itself, CI goes red rather than
//! the regression landing silently.
//!
//! The two sides run as interleaved pairs, alternating which side runs
//! first, so host drift hits both alike; each side is timed including
//! its own compile and verifies every ciphertext against the AES oracle.
//! The gate is the median per-pair ratio. Nothing is read from disk: the
//! baseline is measured on the same host in the same run.
//!
//! Usage: `cargo run --release -p bench --bin batched_guard`

use std::process::ExitCode;
use std::time::Instant;

use accel::driver::AccelDriver;
use accel::fleet::{mix, run_fleet_batched_opt, run_session, FleetConfig};
use accel::{protected, user_label};
use hdl::Netlist;
use sim::{CompiledSim, OptConfig, TrackMode};

const SESSIONS: usize = 8;
const BLOCKS: usize = 32;
const PAIRS: usize = 7;
const MODE: TrackMode = TrackMode::Conservative;
const SEED: u64 = 42;
/// Minimum median batched/compiled throughput ratio.
const FLOOR: f64 = 1.0;

/// Blocks/s of the batched fleet, compile included.
fn batched_rate(net: &Netlist) -> f64 {
    let config = FleetConfig {
        sessions: SESSIONS,
        blocks_per_session: BLOCKS,
        mode: MODE,
        seed: SEED,
    };
    let start = Instant::now();
    let stats = run_fleet_batched_opt(net, config, &OptConfig::all());
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        stats.all_verified(),
        "batched fleet produced a bad ciphertext"
    );
    (SESSIONS * BLOCKS) as f64 / elapsed
}

/// Blocks/s of one session on the compiled backend, compile included.
/// The session is the batched fleet's session 0 (same user and seed).
fn compiled_rate(net: &Netlist) -> f64 {
    let start = Instant::now();
    let mut driver = AccelDriver::<CompiledSim>::from_netlist_on(net.clone(), MODE);
    let stats = run_session(&mut driver, BLOCKS, user_label(0), mix(SEED));
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        stats.responses == BLOCKS && stats.verified == BLOCKS,
        "compiled session produced a bad or missing ciphertext: {stats:?}"
    );
    BLOCKS as f64 / elapsed
}

/// The gate's decision over per-pair batched/compiled ratios: the
/// median ratio if it is at least [`FLOOR`], otherwise why not. An empty
/// sample set or any non-finite ratio fails.
fn gate(ratios: &[f64]) -> Result<f64, String> {
    if ratios.is_empty() {
        return Err("no measured pairs".to_string());
    }
    if let Some(bad) = ratios.iter().find(|r| !r.is_finite()) {
        return Err(format!("non-finite ratio {bad}"));
    }
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    if median < FLOOR {
        return Err(format!("median ratio {median:.2} is below {FLOOR:.1}"));
    }
    Ok(median)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: batched_guard (takes no arguments)");
        return ExitCode::FAILURE;
    }
    let net = protected().lower().expect("protected lowers");
    // One warm-up of each side, not counted.
    batched_rate(&net);
    compiled_rate(&net);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "batched {SESSIONS}-session fleet vs single-session compiled, \
         {BLOCKS} blocks/session, {PAIRS} alternating pairs, {cores} cores"
    );
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (batched, compiled) = if i % 2 == 0 {
                let b = batched_rate(&net);
                (b, compiled_rate(&net))
            } else {
                let c = compiled_rate(&net);
                (batched_rate(&net), c)
            };
            let ratio = batched / compiled;
            println!(
                "  pair {i}: batched {batched:.0} blocks/s, compiled {compiled:.0} blocks/s, {ratio:.2}x"
            );
            ratio
        })
        .collect();
    match gate(&ratios) {
        Ok(median) => {
            println!("batched_guard: OK — median ratio {median:.2}x (floor {FLOOR:.1}x)");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!(
                "batched_guard: FAIL — batched {SESSIONS}-session throughput fell below \
                 the single-session compiled baseline: {why}"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gate;

    #[test]
    fn median_below_the_floor_fails() {
        assert!(gate(&[0.9, 1.2, 0.8, 0.95, 1.5]).is_err());
    }

    #[test]
    fn median_exactly_at_the_floor_passes() {
        assert_eq!(gate(&[0.5, 1.0, 2.0]), Ok(1.0));
    }

    #[test]
    fn empty_sample_set_fails() {
        assert!(gate(&[]).is_err());
    }

    #[test]
    fn non_finite_ratio_fails() {
        assert!(gate(&[2.0, f64::INFINITY, 3.0]).is_err());
        assert!(gate(&[2.0, f64::NAN, 3.0]).is_err());
    }
}
