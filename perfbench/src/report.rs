//! Metric names, statistics helpers, and the result line.
//!
//! Every metric the benchmark can print is declared here, once, with
//! its unit. `BENCHMARK.json` lists the same names (a test holds the
//! two together). End-to-end metrics are printed by the untraced run;
//! per-layer metrics by the traced run. A per-layer metric of a layer
//! the workload never calls reads 0 — that is the measured fact, and
//! the prediction the workload exists to check.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; what each means per workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim_haggle
    ("traces.generate_s", "s"),
    ("workload.generate_s", "s"),
    ("sim.runner_self_s", "s"),
    ("core.on_contact_count", "count"),
    ("core.on_contact_p50_ns", "ns"),
    ("core.on_contact_p99_ns", "ns"),
    ("core.on_message_count", "count"),
    ("core.on_message_p50_ns", "ns"),
    ("core.on_message_p99_ns", "ns"),
    ("core.self_s", "s"),
    ("baselines.on_contact_s", "s"),
    ("bloom.self_s", "s"),
    ("bloom.tcbf_merge_ns", "ns"),
    ("bloom.tcbf_decay_ns", "ns"),
    ("bloom.tcbf_preference_ns", "ns"),
    ("bloom.wire_encode_ns", "ns"),
    ("bloom.wire_decode_ns", "ns"),
    ("bloom.tcbf_a_merge", "count"),
    ("bloom.tcbf_m_merge", "count"),
    ("sim.contacts", "count"),
    ("sim.forwardings", "count"),
    ("sim.delivered", "count"),
    ("sim.total_bytes", "B"),
    // broker_uds
    ("net.deliver_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.self_s", "s"),
    ("net.client_publish_p50_ns", "ns"),
    ("net.client_publish_p99_ns", "ns"),
    ("net.client_recv_wait_s", "s"),
    ("net.client_send_stalls", "count"),
    ("net.broker.send_stalls", "count"),
    ("net.frame_publish_p50_ns", "ns"),
    ("net.frame_publish_p99_ns", "ns"),
    ("net.frame_deliver_p50_ns", "ns"),
    ("net.frame_deliver_p99_ns", "ns"),
    ("net.bytes_sent", "B"),
    ("net.frames_sent", "count"),
    ("net.bytes_per_delivery", "B"),
    ("net.broker.batches", "count"),
    ("net.broker.batch_ops_mean", "count"),
    ("net.broker.batch_p50_ns", "ns"),
    ("net.broker.batch_p99_ns", "ns"),
    ("net.broker.match_batch_ns", "ns"),
    ("net.broker.match_share", "ratio"),
    // match_churn
    ("match.churn_op_p99_ns", "ns"),
    ("match.match_events_p50_ns", "ns"),
    ("match.match_events_p99_ns", "ns"),
    ("match.candidates_per_event", "count"),
    ("match.tier_hit_ratio", "ratio"),
    ("match.confirm_ratio", "ratio"),
    ("match.subscribe_p50_ns", "ns"),
    ("match.subscribe_p99_ns", "ns"),
    ("match.unsubscribe_p50_ns", "ns"),
    ("match.unsubscribe_p99_ns", "ns"),
    ("match.expire_p50_ns", "ns"),
    ("match.expire_p99_ns", "ns"),
    ("match.decay_ns", "ns"),
    ("match.churn_ops_per_s", "1/s"),
    ("match.build_s", "s"),
    ("match.live", "count"),
    ("match.tiers", "count"),
    ("match.pool_filters", "count"),
    ("match.compactions", "count"),
    // tracing itself
    ("trace.spans", "count"),
    ("overhead.setup_s", "ratio"),
    ("overhead.throughput_per_s", "ratio"),
    ("overhead.latency_p50_ms", "ratio"),
    ("overhead.peak_rss_mb", "ratio"),
];

/// Named values a workload measured, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (publishes, protocol runs, index calls).
    pub attempted: u64,
    /// Attempted operations that failed their oracle or never finished.
    pub failed: u64,
    /// End-to-end values (`peak_rss_mb` is filled in by the caller).
    pub e2e: Values,
    /// Per-layer values (traced runs only).
    pub layers: Values,
    /// Human-readable lines: named metrics, sample counts, oracles.
    pub notes: Vec<String>,
    /// Per-layer self-time table rows: `(layer, calls, self seconds)`.
    pub self_times: Vec<(String, u64, f64)>,
}

impl Outcome {
    /// Records an oracle verdict for `n` operations.
    pub fn check(&mut self, n: u64, ok: bool, what: impl Into<String>) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.notes.push(format!("ORACLE FAILED: {}", what.into()));
        }
    }
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile the benchmark reports for `n` samples: p99 when
/// at least ten samples lie beyond it, otherwise the maximum.
pub fn tail_label(n: usize) -> &'static str {
    if n >= 1000 {
        "p99"
    } else {
        "max"
    }
}

/// p50 and tail (see [`tail_label`]) of `samples`, sorting in place.
pub fn p50_tail(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    let tail = if samples.len() >= 1000 {
        quantile(samples, 0.99)
    } else {
        samples.last().copied().unwrap_or(0)
    };
    (quantile(samples, 0.5), tail)
}

/// The process's resident high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The result line: exactly the declared metrics of `table`, in order,
/// with values missing from `values` (layers the workload never calls)
/// reported as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared in the printed table"
        );
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn names_are_unique_and_valid() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!all[..i].contains(n), "{n} declared twice");
        }
    }

    #[test]
    fn benchmark_json_lists_the_declared_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (table, key) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let start = text.find(key).expect("section present");
            let section = &text[start..];
            let section = &section[..section.find(']').expect("section closes")];
            let listed = section.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{key} lists every declared metric");
            for (name, unit) in table {
                assert!(
                    section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key} lacks {name} [{unit}]"
                );
            }
        }
    }

    #[test]
    fn result_line_zero_fills_and_keeps_digits() {
        let mut v = Values::new();
        v.insert("setup_s", 0.123_456_789);
        let line = result_line(true, 3, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    }
}
