//! The unified metrics registry: counters, gauges, and histograms with
//! snapshot/delta semantics and two expositions (JSON and
//! Prometheus-style text).
//!
//! The registry is a name → instrument map behind a mutex; the
//! *instruments* themselves are lock-free atomics. Hot paths fetch a
//! handle once ([`Registry::counter`] etc.) and then update without ever
//! touching the map again, so a per-cycle increment costs one relaxed
//! atomic op. Snapshots are deterministic: the map is a `BTreeMap`, so
//! every exposition lists instruments in name order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hdl::json::Json;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge handle (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. Non-finite values are dropped (the expositions
    /// guarantee finite output; see the farm metrics audit).
    pub fn set(&self, v: f64) {
        if v.is_finite() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
///
/// Buckets are cumulative-upper-bound style (Prometheus semantics): a
/// sample lands in the first bucket whose bound is `>=` the value, and
/// the implicit `+Inf` bucket catches the rest. The sum is accumulated
/// as integer micro-units to stay atomic without a CAS loop.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum of observations in micro-units (v * 1e6, saturating).
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Histogram {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation. Non-finite or negative values are
    /// dropped.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn observe(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((v * 1e6).min(u64::MAX as f64) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64_from_micros(self.sum_micros.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn f64_from_micros(micros: u64) -> f64 {
    micros as f64 / 1e6
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The registry: get-or-create instruments by name, snapshot them all.
///
/// Cloning shares the underlying instruments (it's a handle).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates a counter.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("registry poisoned");
        Counter(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("registry poisoned");
        Gauge(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Gets or creates a histogram with the given bucket upper bounds
    /// (an existing histogram keeps its original bounds).
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().expect("registry poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new(bounds.to_vec()))),
        )
    }

    /// A point-in-time snapshot of every instrument, name-ordered.
    ///
    /// # Panics
    ///
    /// Panics if a registry mutex is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the implicit `+Inf` bucket is `counts`'s
    /// last entry).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of observations (micro-unit resolution).
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

/// Every instrument's value at one instant, name-ordered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name/state pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter/histogram increments since `earlier` (gauges keep
    /// their later value — they're levels, not totals). Instruments
    /// absent from `earlier` count from zero.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let base_counter = |name: &str| {
            earlier
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v)
        };
        let base_histo = |name: &str| earlier.histograms.iter().find(|(k, _)| k == name);
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(base_counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let mut h = h.clone();
                    if let Some((_, b)) = base_histo(k) {
                        if b.bounds == h.bounds {
                            for (c, bc) in h.counts.iter_mut().zip(&b.counts) {
                                *c = c.saturating_sub(*bc);
                            }
                            h.sum = (h.sum - b.sum).max(0.0);
                            h.count = h.count.saturating_sub(b.count);
                        }
                    }
                    (k.clone(), h)
                })
                .collect(),
        }
    }

    /// Renders the snapshot as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    (
                                        "bounds",
                                        Json::Arr(h.bounds.iter().map(|&b| Json::F64(b)).collect()),
                                    ),
                                    (
                                        "counts",
                                        Json::Arr(h.counts.iter().map(|&c| Json::U64(c)).collect()),
                                    ),
                                    ("sum", Json::F64(h.sum)),
                                    ("count", Json::U64(h.count)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a snapshot rendered by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// A description of the first syntax or shape error.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let root = Json::parse(text)?;
        let section = |name: &str| -> Result<Vec<(String, Json)>, String> {
            match root.get(name) {
                Some(Json::Obj(fields)) => Ok(fields.clone()),
                _ => Err(format!("missing object section {name:?}")),
            }
        };
        let counters = section("counters")?
            .into_iter()
            .map(|(k, v)| v.as_u64().map(|v| (k, v)).ok_or("counter not u64"))
            .collect::<Result<_, _>>()?;
        let gauges = section("gauges")?
            .into_iter()
            .map(|(k, v)| v.as_f64().map(|v| (k, v)).ok_or("gauge not a number"))
            .collect::<Result<_, _>>()?;
        let histograms = section("histograms")?
            .into_iter()
            .map(|(k, v)| {
                let bounds = v
                    .field_as("bounds", Json::as_arr)?
                    .iter()
                    .map(|b| b.as_f64().ok_or("bound not a number"))
                    .collect::<Result<_, _>>()?;
                let counts = v
                    .field_as("counts", Json::as_arr)?
                    .iter()
                    .map(|c| c.as_u64().ok_or("count not u64"))
                    .collect::<Result<_, _>>()?;
                Ok::<_, String>((
                    k,
                    HistogramSnapshot {
                        bounds,
                        counts,
                        sum: v.field_as("sum", Json::as_f64)?,
                        count: v.field_as("count", Json::as_u64)?,
                    },
                ))
            })
            .collect::<Result<_, _>>()?;
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot in Prometheus text exposition format.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            cumulative += h.counts.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total");
        c.add(3);
        reg.counter("jobs_total").inc(); // same instrument by name
        reg.gauge("queue_depth").set(7.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("jobs_total".into(), 4)]);
        assert_eq!(snap.gauges, vec![("queue_depth".into(), 7.5)]);
    }

    #[test]
    fn histogram_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        let snap = reg.snapshot();
        let (_, hs) = &snap.histograms[0];
        assert_eq!(hs.counts, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert!((hs.sum - 106.4).abs() < 1e-6);
    }

    #[test]
    fn delta_subtracts_counters_not_gauges() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let g = reg.gauge("level");
        c.add(10);
        g.set(1.0);
        let before = reg.snapshot();
        c.add(5);
        g.set(2.0);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counters, vec![("n".into(), 5)]);
        assert_eq!(delta.gauges, vec![("level".into(), 2.0)]);
    }

    #[test]
    fn json_round_trip() {
        let reg = Registry::new();
        reg.counter("a").add(42);
        reg.gauge("b").set(0.25);
        reg.histogram("c", &[1.0]).observe(0.5);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter("farm_blocks_total").add(9);
        reg.histogram("q", &[0.5]).observe(0.1);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE farm_blocks_total counter"));
        assert!(text.contains("farm_blocks_total 9"));
        assert!(text.contains("q_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("q_count 1"));
    }
}
