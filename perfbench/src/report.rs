//! The metric vocabulary and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::quote;
use crate::stats::OpSummary;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// The tail latency is printed in the notes but not gated: on
/// `fuzz-campaign` it is set by which heavy designs a seed happens to
/// draw, and it moves between seeds by more than any bound allows.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The layers a traced run splits its wall time across. `sim` has no
/// entry: no workload calls it except through another layer, so its
/// cost shows in the `sim.*` stream measurements instead.
pub const LAYERS: [&str; 8] = [
    "hdl",
    "accel",
    "farm",
    "ifc-check",
    "fuzz",
    "attacks",
    "telemetry",
    "bench",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hdl.lower_ms", "ms"),
    ("hdl.build_lower_ms", "ms"),
    ("sim.compile_ms.batched", "ms"),
    ("sim.compile_ms.compiled", "ms"),
    ("sim.ns_per_lane_cycle.w1", "ns"),
    ("sim.ns_per_lane_cycle.w2", "ns"),
    ("sim.ns_per_lane_cycle.w4", "ns"),
    ("sim.ns_per_lane_cycle.w8", "ns"),
    ("sim.ns_per_lane_cycle.w16", "ns"),
    ("sim.raw_ns_per_lane_cycle.w1", "ns"),
    ("sim.raw_ns_per_lane_cycle.w2", "ns"),
    ("sim.raw_ns_per_lane_cycle.w4", "ns"),
    ("sim.raw_ns_per_lane_cycle.w8", "ns"),
    ("sim.raw_ns_per_lane_cycle.w16", "ns"),
    ("sim.ns_per_cycle.compiled.off", "ns"),
    ("sim.ns_per_cycle.compiled.conservative", "ns"),
    ("sim.ns_per_cycle.compiled.precise", "ns"),
    ("sim.raw_ns_per_cycle.compiled.off", "ns"),
    ("sim.raw_ns_per_cycle.compiled.conservative", "ns"),
    ("sim.raw_ns_per_cycle.compiled.precise", "ns"),
    ("sim.latency_cycles", "cycles"),
    ("sim.cycles_per_block", "cycles"),
    ("accel.driver_ns_per_cycle.batched_w16", "ns"),
    ("accel.driver_ns_per_cycle.compiled", "ns"),
    ("farm.lane_occupancy", "ratio"),
    ("farm.stall_rate", "ratio"),
    ("farm.steals", "count"),
    ("farm.repacks", "count"),
    ("farm.quanta.w1", "count"),
    ("farm.quanta.w2", "count"),
    ("farm.quanta.w4", "count"),
    ("farm.quanta.w8", "count"),
    ("farm.quanta.w16", "count"),
    ("farm.submit_wait_ms_p50", "ms"),
    ("farm.submit_wait_ms_tail", "ms"),
    ("farm.generator_lag_ms", "ms"),
    ("farm.drain_s", "s"),
    ("farm.quantum_us_p50", "us"),
    ("farm.quantum_us_tail", "us"),
    ("farm.repack_us_p50", "us"),
    ("farm.quantum_share", "ratio"),
    ("farm.repack_share", "ratio"),
    ("farm.other_share", "ratio"),
    ("farm.job_latency_ms_p50", "ms"),
    ("farm.job_latency_ms_tail", "ms"),
    ("lint.ms", "ms"),
    ("check.ms", "ms"),
    ("dataflow.crosscheck_ms", "ms"),
    ("prover.ms", "ms"),
    ("prover.ms_sum", "ms"),
    ("prover.vars", "count"),
    ("prover.clauses", "count"),
    ("prover.conflicts", "count"),
    ("prover.decisions", "count"),
    ("prover.propagations", "count"),
    ("prover.learnt", "count"),
    ("prover.counterexamples", "count"),
    ("fuzz.exec_ms", "ms"),
    ("fuzz.replay_ms", "ms"),
    ("fuzz.coverage_events", "count"),
    ("fuzz.kills.lint", "count"),
    ("fuzz.kills.static", "count"),
    ("fuzz.kills.counterexample", "count"),
    ("fuzz.kills.runtime", "count"),
    ("fuzz.kills.replay-blocked", "count"),
    ("fuzz.kills.clean", "count"),
    ("telemetry.overhead", "ratio"),
    ("self_ms.hdl", "ms"),
    ("self_ms.accel", "ms"),
    ("self_ms.farm", "ms"),
    ("self_ms.ifc-check", "ms"),
    ("self_ms.fuzz", "ms"),
    ("self_ms.attacks", "ms"),
    ("self_ms.telemetry", "ms"),
    ("self_ms.bench", "ms"),
    ("layer_table.coverage", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct RunOutput {
    /// Operations attempted (jobs, inputs or mutants, every pass).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Run-level check failures (not tied to one operation).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    /// The end-to-end metrics of a closed-loop workload; `rate` names
    /// the throughput for the notes.
    pub fn closed_loop(&mut self, rate: &str, s: &OpSummary, setup_s: f64) {
        self.set("throughput_per_s", s.per_s);
        self.set("op_ms_p50", s.p50_ms);
        self.set("setup_s", setup_s);
        self.note(format!(
            "{rate}: {:.2}; verdict ms p50 {:.2}, p{} {:.2}; per-op medians over {} passes",
            s.per_s, s.p50_ms, s.tail_p, s.tail_ms, s.passes
        ));
    }

    /// The result line: every metric of `table`, with units.
    pub fn result_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut problems = self.problems.clone();
        for name in self.metrics.keys() {
            if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
                problems.push(format!("measured metric {name} is in neither table"));
            }
        }
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite"));
                value = 0.0;
            }
            fields.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            ));
        }
        let correct = self.failed == 0 && problems.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Wall time split by the layer each call went into, timed from the
/// benchmark's side of the call.
#[derive(Default)]
pub struct Layers {
    spent: BTreeMap<&'static str, Duration>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    pub fn add(&mut self, layer: &'static str, d: Duration) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        *self.spent.entry(layer).or_default() += d;
    }

    pub fn ms(&self, layer: &str) -> f64 {
        self.spent.get(layer).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Writes `self_ms.*` and `layer_table.coverage` (the share of
    /// `wall` the layers account for) into `out`.
    pub fn report(&self, wall: Duration, out: &mut RunOutput) {
        let mut total = 0.0;
        for layer in LAYERS {
            let ms = self.ms(layer);
            total += ms;
            out.set(format!("self_ms.{layer}"), ms);
        }
        let wall_ms = wall.as_secs_f64() * 1e3;
        out.set("layer_table.coverage", total / wall_ms.max(1e-9));
        out.note(format!(
            "layer table: {} of {wall_ms:.1} ms traced wall time = {:.1}%",
            LAYERS
                .iter()
                .map(|l| format!("{l} {:.1} ms", self.ms(l)))
                .collect::<Vec<_>>()
                .join(", "),
            100.0 * total / wall_ms.max(1e-9)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]`, at most 64 characters, starting with a letter
    /// or digit.
    fn valid_metric_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("sim.ns_per_lane_cycle.w16"));
        assert!(valid_metric_name("self_ms.ifc-check"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
        }
        for layer in LAYERS {
            let name = format!("self_ms.{layer}");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
        }
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let count = spec.matches("\"name\":").count();
        // Workload names are the remaining "name" keys.
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut out = RunOutput {
            attempted: 3,
            ..RunOutput::default()
        };
        out.set("throughput_per_s", 12.5);
        let line = out.result_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        out.set("op_ms_p50", f64::NAN);
        assert!(out
            .result_json(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
