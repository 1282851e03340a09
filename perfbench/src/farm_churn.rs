//! `farm-churn`: open-loop Poisson arrivals of a four-tenant, 16x-spread
//! job mix into the accelerator farm.
//!
//! One thread submits every job at its scheduled time (or as soon as
//! the farm admits it, once the queues are full) and then drains the
//! farm. The offered load is far above capacity, so the verified-block
//! rate is the farm's capacity under churn: admission, stealing, lane
//! refill, re-packing and the width tuner all run.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use accel::fleet::mix;
use accel::{protected, supervisor_label, user_label};
use farm::{Farm, FarmConfig, FarmReport, JobSpec, TenantSpec};
use ifc_lattice::Label;
use sim::{OptConfig, TrackMode};
use telemetry::TelemetryConfig;

use crate::report::{Layers, RunOutput};
use crate::stats::{median, tail};
use crate::Args;

/// The tenant mix of the farm's CI gate, every tenant's job count
/// multiplied by this.
const SCALE: usize = 16;
/// Mean gap between arrivals.
const ARRIVAL_MEAN_MS: f64 = 0.2;
const QUEUE_CAPACITY: usize = 64;
const REPACK_QUANTUM: u64 = 64;
/// How long one submit may wait for queue space before it counts as
/// refused.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);

struct TenantLoad {
    name: &'static str,
    label: Label,
    jobs: usize,
    blocks: usize,
}

/// Four tenants, 64–1024 blocks per job.
fn tenant_loads() -> [TenantLoad; 4] {
    [
        TenantLoad {
            name: "bulk",
            label: user_label(0),
            jobs: 4 * SCALE,
            blocks: 1024,
        },
        TenantLoad {
            name: "steady",
            label: user_label(1),
            jobs: 16 * SCALE,
            blocks: 192,
        },
        TenantLoad {
            name: "bursty",
            label: user_label(2),
            jobs: 32 * SCALE,
            blocks: 64,
        },
        TenantLoad {
            name: "supervisor",
            label: supervisor_label(),
            jobs: 4 * SCALE,
            blocks: 256,
        },
    ]
}

/// One scheduled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub tenant: usize,
    pub spec: JobSpec,
    /// When the job is due, from the start of submission.
    pub due: Duration,
}

/// The churn schedule for `seed`: tenants interleaved at random,
/// weighted by their remaining jobs, with exponential inter-arrival
/// gaps; every fifth job decrypts.
pub fn schedule(seed: u64) -> Vec<Arrival> {
    let loads = tenant_loads();
    let mut remaining: Vec<usize> = loads.iter().map(|l| l.jobs).collect();
    let total: usize = remaining.iter().sum();
    let mut k = 0u64;
    let mut rng = || {
        k += 1;
        mix(seed ^ k)
    };
    let mut due = Duration::ZERO;
    let mut out = Vec::with_capacity(total);
    for job in 0..total {
        let mut pick = (rng() as usize) % remaining.iter().sum::<usize>();
        let t = remaining
            .iter()
            .position(|&r| {
                if pick < r {
                    true
                } else {
                    pick -= r;
                    false
                }
            })
            .expect("pick is below the remaining total");
        remaining[t] -= 1;
        let u = (rng() >> 11) as f64 / (1u64 << 53) as f64;
        due += Duration::from_secs_f64(-(1.0 - u).ln() * ARRIVAL_MEAN_MS / 1000.0);
        out.push(Arrival {
            tenant: t,
            spec: JobSpec {
                // User slots 0..=2; the master slot carries no churn.
                key_slot: t % 3,
                blocks: loads[t].blocks,
                seed: seed ^ (0xfa12 << 16) ^ job as u64,
                decrypt: job % 5 == 0,
                user: loads[t].label,
            },
            due,
        });
    }
    out
}

/// The schedule seed of pass `k`: every pass submits the same job mix
/// in a different order, so a run averages over several orderings.
pub fn pass_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One pass: set up a farm, submit the schedule, drain.
struct Pass {
    setup: Duration,
    /// First submit until `drain` returned.
    wall: Duration,
    verified_blocks: u64,
    failed: u64,
    /// Due time to admission, per job.
    admit_ms: Vec<f64>,
    /// Time inside `submit_blocking`, per job.
    submit_wait_ms: Vec<f64>,
    max_lag: Duration,
    drain: Duration,
    /// Set-up through the output checks.
    total: Duration,
    report: FarmReport,
    layers: Layers,
    /// Check failures not tied to one job.
    problems: Vec<String>,
}

fn run_pass(seed: u64, trace: bool, workers: usize) -> Pass {
    let mut layers = Layers::default();
    let setup_started = Instant::now();
    let arrivals = layers.time("bench", || schedule(seed));
    let net = layers.time("hdl", || {
        protected().lower().expect("protected design lowers")
    });
    let farm = layers.time("farm", || {
        let farm = Farm::start(
            &net,
            FarmConfig {
                mode: TrackMode::Precise,
                workers,
                queue_capacity: QUEUE_CAPACITY,
                use_native: false,
                repack_quantum: REPACK_QUANTUM,
                opt: Some(OptConfig::all()),
                telemetry: trace.then(|| TelemetryConfig {
                    trace: true,
                    trace_capacity: 1 << 18,
                    audit: false,
                    flight: false,
                    metrics: false,
                    ..TelemetryConfig::default()
                }),
            },
        );
        let tenants: Vec<_> = tenant_loads()
            .iter()
            .map(|l| {
                farm.register_tenant(TenantSpec {
                    name: l.name.to_string(),
                    label: l.label,
                })
            })
            .collect();
        (farm, tenants)
    });
    let (farm, tenants) = farm;
    let setup = setup_started.elapsed();

    let mut problems = Vec::new();
    let mut ids = Vec::with_capacity(arrivals.len());
    let mut admit_ms = Vec::with_capacity(arrivals.len());
    let mut submit_wait_ms = Vec::with_capacity(arrivals.len());
    let mut max_lag = Duration::ZERO;
    let start = Instant::now();
    for a in &arrivals {
        let due = start + a.due;
        let now = Instant::now();
        if now < due {
            layers.time("bench", || thread::sleep(due - now));
        }
        let before = Instant::now();
        max_lag = max_lag.max(before.saturating_duration_since(due));
        let admitted = farm.submit_blocking(tenants[a.tenant], a.spec, SUBMIT_TIMEOUT);
        let after = Instant::now();
        layers.add("farm", after - before);
        submit_wait_ms.push((after - before).as_secs_f64() * 1e3);
        admit_ms.push(after.saturating_duration_since(due).as_secs_f64() * 1e3);
        ids.push(admitted.ok());
    }
    let drain_started = Instant::now();
    let report = farm.drain();
    let drain = drain_started.elapsed();
    layers.add("farm", drain);
    let wall = start.elapsed();

    // Every admitted job completes with every block oracle-verified and
    // no runtime violation; a refused job fails outright.
    let check_started = Instant::now();
    let outcomes: HashMap<u64, _> = report.outcomes.iter().map(|o| (o.id, o)).collect();
    let mut failed = 0u64;
    let mut verified_blocks = 0u64;
    for (a, id) in arrivals.iter().zip(&ids) {
        let outcome = id.and_then(|id| outcomes.get(&id));
        verified_blocks += outcome.map_or(0, |o| o.verified as u64);
        let ok = outcome.is_some_and(|o| {
            o.responses == a.spec.blocks
                && o.verified == a.spec.blocks
                && o.violations == 0
                && o.rejections == 0
        });
        failed += u64::from(!ok);
    }
    if report.outcomes.len() != ids.iter().flatten().count() {
        problems.push(format!(
            "{} outcomes for {} admitted jobs",
            report.outcomes.len(),
            ids.iter().flatten().count()
        ));
    }
    let m = &report.metrics;
    if m.queue_depth != 0 || m.active_jobs != 0 {
        problems.push(format!(
            "drain left queue_depth={} active_jobs={}",
            m.queue_depth, m.active_jobs
        ));
    }
    layers.add("bench", check_started.elapsed());
    Pass {
        setup,
        wall,
        verified_blocks,
        failed,
        admit_ms,
        submit_wait_ms,
        max_lag,
        drain,
        total: setup_started.elapsed(),
        report,
        layers,
        problems,
    }
}

pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let workers = crate::host::nproc();
    let jobs = schedule(pass_seed(args.seed, 0));
    out.note(format!(
        "farm-churn: {} jobs, {} blocks per pass, {workers} workers, precise tracking",
        jobs.len(),
        jobs.iter().map(|a| a.spec.blocks).sum::<usize>()
    ));
    let mut passes = Vec::new();
    let measure_started = Instant::now();
    // Whole passes until the time is up; the traced run makes one
    // untraced and one traced pass.
    loop {
        let trace = args.trace && passes.len() == 1;
        let seed = pass_seed(args.seed, if args.trace { 0 } else { passes.len() });
        let pass = run_pass(seed, trace, workers);
        out.attempted += jobs.len() as u64;
        out.failed += pass.failed;
        out.problems.extend(pass.problems.iter().cloned());
        passes.push(pass);
        let done = if args.trace {
            passes.len() == 2
        } else {
            crate::enough(args, measure_started, passes.len())
        };
        if done {
            break;
        }
    }
    if args.trace {
        traced_metrics(&passes[0], &passes[1], workers, &mut out);
    } else {
        end_to_end(&passes, &mut out);
    }
    out
}

fn end_to_end(passes: &[Pass], out: &mut RunOutput) {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.verified_blocks as f64 / p.wall.as_secs_f64())
        .collect();
    let p50s: Vec<f64> = passes.iter().map(|p| median(&p.admit_ms)).collect();
    let tails: Vec<(f64, f64)> = passes.iter().map(|p| tail(&p.admit_ms)).collect();
    let (p50, tail_p) = (median(&p50s), tails[0].0);
    let tail_ms = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    out.set("throughput_per_s", median(&rates));
    out.set("op_ms_p50", p50);
    out.set("setup_s", median(&setups));
    out.note(format!(
        "verified_blocks_per_s: {:.1} (median of {} passes: {})",
        median(&rates),
        rates.len(),
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!(
        "admission ms (due to admitted): p50 {p50:.2}, p{tail_p} {tail_ms:.2}, \
         medians over {} passes of {} jobs",
        passes.len(),
        passes[0].admit_ms.len()
    ));
}

fn traced_metrics(plain: &Pass, traced: &Pass, workers: usize, out: &mut RunOutput) {
    let m = &traced.report.metrics;
    let lane_cycles = (m.busy_lane_cycles + m.idle_lane_cycles).max(1);
    out.set(
        "farm.lane_occupancy",
        m.busy_lane_cycles as f64 / lane_cycles as f64,
    );
    out.set("farm.stall_rate", m.stall_rate);
    out.set("farm.steals", m.steals as f64);
    out.set("farm.repacks", m.repacks as f64);
    for &(w, q) in &m.width_quanta {
        out.set(format!("farm.quanta.w{w}"), q as f64);
    }
    let (wait_p, wait_tail) = tail(&traced.submit_wait_ms);
    out.set("farm.submit_wait_ms_p50", median(&traced.submit_wait_ms));
    out.set("farm.submit_wait_ms_tail", wait_tail);
    out.set("farm.generator_lag_ms", traced.max_lag.as_secs_f64() * 1e3);
    out.set("farm.drain_s", traced.drain.as_secs_f64());
    out.set(
        "telemetry.overhead",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64(),
    );

    let mut layers = Layers::default();
    let bundle = traced.report.telemetry.as_ref();
    let analysed = layers.time("bench", || bundle.map(analyse_trace));
    let Some(spans) = analysed else {
        out.problem("traced pass returned no telemetry".to_string());
        return;
    };
    if spans.dropped > 0 {
        out.problem(format!("trace dropped {} events", spans.dropped));
    }
    let worker_us = workers as f64 * traced.wall.as_secs_f64() * 1e6;
    let quanta_us: f64 = spans.quantum_us.iter().sum();
    let repack_us: f64 = spans.repack_us.iter().sum();
    out.set("farm.quantum_us_p50", median(&spans.quantum_us));
    out.set("farm.quantum_us_tail", tail(&spans.quantum_us).1);
    out.set("farm.repack_us_p50", median(&spans.repack_us));
    out.set("farm.quantum_share", quanta_us / worker_us);
    out.set("farm.repack_share", repack_us / worker_us);
    out.set(
        "farm.other_share",
        1.0 - (quanta_us + repack_us) / worker_us,
    );
    let (job_p, job_tail) = tail(&spans.job_ms);
    out.set("farm.job_latency_ms_p50", median(&spans.job_ms));
    out.set("farm.job_latency_ms_tail", job_tail);
    if spans.job_ms.len() != traced.admit_ms.len() {
        out.problem(format!(
            "trace holds {} complete job lifecycles for {} jobs",
            spans.job_ms.len(),
            traced.admit_ms.len()
        ));
    }
    out.note(format!(
        "worker time {:.0} ms: quanta {:.1}%, repacks {:.1}%, other {:.1}%; \
         job latency p50 {:.1} ms, p{job_p} {job_tail:.1} ms",
        worker_us / 1e3,
        100.0 * quanta_us / worker_us,
        100.0 * repack_us / worker_us,
        100.0 * (1.0 - (quanta_us + repack_us) / worker_us),
        median(&spans.job_ms),
    ));
    out.note(format!(
        "submit wait p50 {:.2} ms, p{wait_p} {wait_tail:.2} ms, quantum p50 {:.0} us over {} quanta, \
         {} repacks, {} steals",
        median(&traced.submit_wait_ms),
        median(&spans.quantum_us),
        spans.quantum_us.len(),
        m.repacks,
        m.steals
    ));

    // The layer table covers the traced pass on the submitting thread:
    // set-up, the farm's front door and drain, the generator's sleeps
    // and the output checks, then the trace analysis.
    let mut table = Layers::default();
    for layer in crate::report::LAYERS {
        let ms = traced.layers.ms(layer) + layers.ms(layer);
        table.add(layer, Duration::from_secs_f64(ms / 1e3));
    }
    let analysis = Duration::from_secs_f64(layers.ms("bench") / 1e3);
    table.report(traced.total + analysis, out);
}

/// What the farm's trace says about one pass.
struct Spans {
    quantum_us: Vec<f64>,
    repack_us: Vec<f64>,
    /// Submit to completion, per job.
    job_ms: Vec<f64>,
    dropped: u64,
}

fn analyse_trace(bundle: &telemetry::TelemetryBundle) -> Spans {
    let mut spans = Spans {
        quantum_us: Vec::new(),
        repack_us: Vec::new(),
        job_ms: Vec::new(),
        dropped: bundle.trace.dropped,
    };
    let mut begun: HashMap<u64, u64> = HashMap::new();
    let mut ended: HashMap<u64, u64> = HashMap::new();
    for e in &bundle.trace.events {
        match (e.ph, e.name.as_str()) {
            ('X', "quantum") => spans.quantum_us.push(e.dur_us as f64),
            ('X', "repack") => spans.repack_us.push(e.dur_us as f64),
            ('b', "job") => {
                begun.insert(e.id, e.ts_us);
            }
            ('e', "job") => {
                ended.insert(e.id, e.ts_us);
            }
            _ => {}
        }
    }
    for (id, b) in &begun {
        if let Some(e) = ended.get(id) {
            spans.job_ms.push(e.saturating_sub(*b) as f64 / 1e3);
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_yields_the_same_job_list() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn the_job_list_has_the_scaled_mix() {
        let jobs = schedule(1);
        assert_eq!(jobs.len(), 896);
        assert_eq!(jobs.iter().map(|a| a.spec.blocks).sum::<usize>(), 163_840);
        assert_eq!(jobs.iter().filter(|a| a.spec.decrypt).count(), 896 / 5 + 1);
        assert!(jobs.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
