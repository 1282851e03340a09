//! Order statistics and the metric-name rule.

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 11] = [
    50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99,
];

/// The fewest samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `xs`; 0 when empty.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank, or
/// `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= TAIL_MIN_BEYOND && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// The tail of `xs` under [`tail_percentile`]: `(percentile, value)`.
/// With too few samples for any ladder step the maximum stands in, as
/// the 100th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    match tail_percentile(xs.len()) {
        Some(p) => (p, percentile(xs, p)),
        None => (100.0, percentile(xs, 100.0)),
    }
}

/// Each op's median time across passes over the same list: passes is
/// one `Vec` of per-op times per pass, every pass in the same order.
/// A burst of host noise during one pass then moves no op's figure.
pub fn op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Rate and latency of a closed loop that ran the same list of ops on
/// every pass, from each op's median time.
pub struct OpSummary {
    pub per_s: f64,
    pub p50_ms: f64,
    pub tail_p: f64,
    pub tail_ms: f64,
    pub passes: usize,
}

pub fn summarize(passes_ms: &[Vec<f64>]) -> OpSummary {
    let ops = op_medians(passes_ms);
    let (tail_p, tail_ms) = tail(&ops);
    OpSummary {
        per_s: ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3),
        p50_ms: median(&ops),
        tail_p,
        tail_ms,
        passes: passes_ms.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..5000 {
            let p = tail_percentile(n).expect("20+ samples always have a tail");
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            // The next ladder step up would leave fewer than ten.
            if let Some(&up) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(
                    n - rank(n, up) < TAIL_MIN_BEYOND,
                    "n={n}: p{up} also qualifies"
                );
            }
        }
    }

    #[test]
    fn tail_rule_on_the_workload_sizes() {
        // One mutant pass, one and two fuzz passes, a thousand samples.
        assert_eq!(tail_percentile(68), Some(75.0));
        assert_eq!(tail_percentile(136), Some(90.0));
        assert_eq!(tail_percentile(800), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // n=100: p90 leaves exactly ten samples beyond rank 90.
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
    }

    #[test]
    fn op_medians_drop_a_noisy_pass() {
        let passes = vec![vec![1.0, 10.0], vec![9.0, 11.0], vec![2.0, 12.0]];
        assert_eq!(op_medians(&passes), vec![2.0, 11.0]);
        assert!(op_medians(&[]).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
