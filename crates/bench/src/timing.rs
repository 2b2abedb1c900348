//! Latency summaries and duration formatting: `serve_load`'s per-kind
//! percentiles, and the walls the `scaling` bench and the `kill_matrix`
//! binary print.

use crate::json::{Json, ToJson};
use crate::json_object;

/// Latency-distribution summary over a set of raw nanosecond samples — the
/// telemetry shape the serving load harness reports per job kind
/// (p50/p95/p99 are the fields EXPERIMENTS.md documents for
/// `results/BENCH_serve.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Median (50th percentile), ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Fastest sample, ns.
    pub min_ns: u64,
    /// Slowest sample, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes raw latency samples (order irrelevant; `samples` is
    /// sorted in place). Percentiles use the nearest-rank method:
    /// `p = samples_sorted[ceil(q/100 · n) − 1]`, so `p99` of 100 samples
    /// is the 99th-smallest and every percentile is an actually observed
    /// latency. Returns an all-zero summary for an empty input.
    pub fn from_samples(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                p50_ns: 0,
                p95_ns: 0,
                p99_ns: 0,
                mean_ns: 0.0,
                min_ns: 0,
                max_ns: 0,
            };
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((q / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
        LatencySummary {
            count: n,
            p50_ns: rank(50.0),
            p95_ns: rank(95.0),
            p99_ns: rank(99.0),
            mean_ns: samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64,
            min_ns: samples[0],
            max_ns: samples[n - 1],
        }
    }
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> Json {
        json_object! {
            count: self.count,
            p50_ns: self.p50_ns,
            p95_ns: self.p95_ns,
            p99_ns: self.p99_ns,
            mean_ns: self.mean_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
        }
    }
}

/// Formats a nanosecond duration with an adaptive unit (ns/µs/ms/s).
pub fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_units() {
        assert_eq!(human_time(12.3), "12.3 ns");
        assert_eq!(human_time(12_300.0), "12.300 µs");
        assert_eq!(human_time(12_300_000.0), "12.300 ms");
        assert_eq!(human_time(2_500_000_000.0), "2.500 s");
    }
}
