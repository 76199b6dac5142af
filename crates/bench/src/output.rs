//! Table, CSV, and perf-trajectory output helpers for the experiment
//! binaries, plus the small argument and percentile helpers they
//! share.
//!
//! Figure CSVs must stay byte-identical across executor worker counts
//! (see `engine`'s determinism contract), so wall-clock data never
//! goes into them — [`record_perf`] writes it to separate artifacts.

use crate::engine::SweepOutcome;
use bsub_sim::{EpochRow, EventLog};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Prints an aligned text table and returns it as a string.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    let _ = writeln!(out, "{}", header_line.join("  "));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
    out
}

/// The `results/` directory next to the workspace root (created on
/// demand).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("BSUB_RESULTS_DIR") {
        Ok(custom) => PathBuf::from(custom),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    };
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes rows as CSV under `results/<name>.csv`.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, out).expect("write CSV");
    println!("[written {}]", path.display());
}

/// Renders sealed epoch rows as `results/timeseries_<name>.csv`.
///
/// Every value comes from the deterministic event stream (see the
/// `bsub-sim` record module), so the file is byte-identical across
/// worker counts, like the figure CSVs.
pub fn write_timeseries(name: &str, rows: &[EpochRow]) {
    let headers = [
        "epoch",
        "end_mins",
        "brokers",
        "buffered",
        "relay_fill",
        "relay_fpr",
        "max_counter",
        "published",
        "delivered",
        "false_delivered",
        "forwarded",
        "injected",
        "expired",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.epoch.to_string(),
                f1(r.end_mins),
                r.brokers.to_string(),
                r.buffered.to_string(),
                f4(r.relay_fill),
                format!("{:.6}", r.relay_fpr),
                r.max_counter.to_string(),
                r.published.to_string(),
                r.delivered.to_string(),
                r.false_delivered.to_string(),
                r.forwarded.to_string(),
                r.injected.to_string(),
                r.expired.to_string(),
            ]
        })
        .collect();
    write_csv(&format!("timeseries_{name}"), &headers, &body);
}

/// Renders an event log as `results/events_<name>.jsonl` — one JSON
/// object per [`bsub_sim::TraceEvent`], in emission order.
pub fn write_events(name: &str, log: &EventLog) {
    let path = results_dir().join(format!("events_{name}.jsonl"));
    fs::write(&path, log.to_jsonl()).expect("write event log");
    println!(
        "[written {} ({} events)]",
        path.display(),
        log.events().len()
    );
}

/// Records a sweep's timing: per-run wall clocks as
/// `results/perf_<name>.csv` (a snapshot, overwritten each run) and
/// one [`crate::perf::PerfEntry`] appended to
/// `results/BENCH_perf.json` (the cross-run perf trajectory the
/// regression gate compares against).
pub fn record_perf(outcome: &SweepOutcome) {
    let headers = ["index", "point", "label", "seed", "wall_ms"];
    let rows: Vec<Vec<String>> = outcome
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                r.point.clone(),
                r.label.clone(),
                r.seed.to_string(),
                format!("{:.3}", r.wall.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    write_csv(&format!("perf_{}", outcome.name), &headers, &rows);

    let path = results_dir().join("BENCH_perf.json");
    crate::perf::append(&path, &crate::perf::PerfEntry::from_outcome(outcome));
    println!("[appended {}]", path.display());
}

/// Formats a float with three decimals.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with one decimal.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with four decimals.
#[must_use]
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// The `pct`-th percentile (nearest rank, rounding down) of ascending
/// nanosecond samples, in microseconds; `0.0` when there are none.
#[must_use]
pub fn percentile_us(sorted_ns: &[u64], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[rank] as f64 / 1e3
}

/// The argument following the first `key` in `args`, if any.
#[must_use]
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "demo",
            &["a", "metric"],
            &[
                vec!["1".into(), "0.5".into()],
                vec!["100".into(), "12.25".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("metric"));
        let lines: Vec<&str> = t.lines().filter(|l| !l.is_empty()).collect();
        // Header, separator, two rows, title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f1(12.34), "12.3");
        assert_eq!(f4(0.00025), "0.0003");
    }

    #[test]
    fn csv_roundtrip() {
        std::env::set_var(
            "BSUB_RESULTS_DIR",
            std::env::temp_dir().join("bsub-test-results"),
        );
        write_csv("unit-test", &["x", "y"], &[vec!["1".into(), "2".into()]]);
        let path = results_dir().join("unit-test.csv");
        let content = fs::read_to_string(path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        std::env::remove_var("BSUB_RESULTS_DIR");
    }
}
