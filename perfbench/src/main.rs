//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_haggle|broker_uds|match_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints every
//! end-to-end metric. `--trace 1` runs the workload twice, untraced
//! and then traced, each for half the seconds; it prints the per-layer
//! self-time table, the traced-vs-untraced overhead of every
//! end-to-end metric, and every per-layer metric, and writes the spans
//! to `perfbench/out/`. The last line of standard output is always the
//! JSON result. See `perfbench/README.md`.

mod broker_uds;
mod match_churn;
mod openloop;
mod report;
mod sim_haggle;
mod spans;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["sim_haggle", "broker_uds", "match_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let (mut out, tracer) = match name {
        "sim_haggle" => sim_haggle::run(seed, seconds, traced),
        "broker_uds" => broker_uds::run(seed, seconds, traced),
        "match_churn" => match_churn::run(seed, seconds, traced),
        _ => unreachable!("workload names are checked when parsing"),
    };
    match report::peak_rss_mb() {
        Some(mb) => {
            out.e2e.insert("peak_rss_mb", mb);
        }
        None => out.check(1, false, "peak RSS unreadable from /proc/self/status"),
    }
    (out, tracer)
}

/// What each generic end-to-end metric is on each workload.
fn meaning(workload: &str, metric: &str) -> &'static str {
    match (workload, metric) {
        ("sim_haggle", "setup_s") => "trace + workload generation",
        ("sim_haggle", "throughput_per_s") => "sim_contacts_per_s",
        ("sim_haggle", "latency_p50_ms") => "fig7 point (PUSH+B-SUB+PULL) wall, median repetition",
        ("broker_uds", "setup_s") => "broker start + connect + subscriptions applied",
        ("broker_uds", "throughput_per_s") => "flood_deliveries_per_s",
        ("broker_uds", "latency_p50_ms") => "deliver_p50 from intended send time (steady)",
        ("match_churn", "setup_s") => "index bulk load",
        ("match_churn", "throughput_per_s") => "match_events_per_s",
        ("match_churn", "latency_p50_ms") => "churn op (subscribe_until/unsubscribe/expire) p50",
        (_, "peak_rss_mb") => "resident high-water of this process",
        _ => "",
    }
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={nproc}, bsub_obs::calibrate_ns()={} ns",
        bsub_obs::calibrate_ns()
    );
    if args.workload == "broker_uds" {
        println!(
            "# transport: broker traffic crosses loopback Unix-domain sockets on one host, not a real network link"
        );
    }
}

fn print_e2e(workload: &str, out: &Outcome) {
    for (name, unit) in END_TO_END {
        let v = out.e2e.get(name).copied().unwrap_or(0.0);
        println!("{name} = {v:.6} {unit}  ({})", meaning(workload, name));
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac = {frac} ratio ({} of {} operations)",
        out.failed, out.attempted
    );
    for note in &out.notes {
        println!("  {note}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    print_header(&args);

    if !args.trace {
        let (out, _) = run_workload(&args.workload, args.seed, args.seconds, false);
        print_e2e(&args.workload, &out);
        let correct = out.failed == 0 && out.attempted > 0;
        println!(
            "{}",
            report::result_line(correct, out.attempted, out.failed, END_TO_END, &out.e2e)
        );
        return;
    }

    let half = args.seconds / 2.0;
    println!("## untraced half ({half} s)");
    let (plain, _) = run_workload(&args.workload, args.seed, half, false);
    print_e2e(&args.workload, &plain);
    println!("## traced half ({half} s)");
    let (traced, tracer) = run_workload(&args.workload, args.seed, half, true);
    print_e2e(&args.workload, &traced);

    let mut layers: Values = traced.layers.clone();
    println!("## overhead: traced / untraced - 1, per end-to-end metric");
    for (name, unit) in END_TO_END {
        let value = |out: &Outcome| out.e2e.get(name).copied().unwrap_or(0.0);
        let (u, t) = (value(&plain), value(&traced));
        let overhead = if u != 0.0 { t / u - 1.0 } else { 0.0 };
        println!(
            "  {name:<18} untraced {u:>14.6} traced {t:>14.6} {unit:<4} overhead {:+.2}%",
            overhead * 100.0
        );
        let key = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("overhead.") == Some(name))
            .expect("an overhead metric per end-to-end metric");
        layers.insert(key, overhead);
    }
    println!("## per-layer self time ({})", args.workload);
    println!("  {:<52} {:>12} {:>12}", "layer", "calls", "self_s");
    for (layer, calls, self_s) in &traced.self_times {
        println!("  {layer:<52} {calls:>12} {self_s:>12.6}");
    }
    if let Some(t) = &tracer {
        layers.insert("trace.spans", t.span_count() as f64);
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match t.dump(&path) {
            Ok(()) => println!("## spans: {} written to {}", t.span_count(), path.display()),
            Err(e) => println!("## spans: could not write {}: {e}", path.display()),
        }
    }
    println!("## per-layer metrics");
    for (name, unit) in PER_LAYER {
        let v = layers.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {v:>18.6} {unit}");
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let correct = failed == 0 && plain.attempted > 0 && traced.attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, PER_LAYER, &layers)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_drives_every_generator() {
        let a = 11;
        let b = 12;
        let sim = sim_haggle::input_bytes;
        let broker = |s| broker_uds::Inputs::generate(s).to_bytes(2.0);
        let churn = match_churn::input_bytes;
        for (name, gen) in [
            ("sim_haggle", &sim as &dyn Fn(u64) -> Vec<u8>),
            ("broker_uds", &broker),
            ("match_churn", &churn),
        ] {
            assert_eq!(gen(a), gen(a), "{name}: same seed, different inputs");
            assert_ne!(gen(a), gen(b), "{name}: different seeds, same inputs");
        }
    }
}
