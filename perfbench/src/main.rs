//! The ssdhammer benchmark: three workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload leak_paper|device_rw|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the traced drivers and prints the per-layer
//! metrics. Either way the outputs are checked, a digest of the simulated
//! results is printed, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]

mod campaign;
mod device_rw;
mod leak;
mod measure;

use measure::Report;

/// The attack stages of `leak_paper`, in cycle order.
pub const STAGES: [&str; 6] = ["spray", "fill", "recon", "hammer", "scan", "clear"];

/// Per-stage metrics of `leak_paper`: `(layer, suffix, unit)` names
/// `<layer>.<stage><suffix>`.
const STAGE_METRICS: [(&str, &str, &str); 8] = [
    ("core", "_s", "s"),
    ("fs", "_self_s", "s"),
    ("nvme", "_dev_s", "s"),
    ("nvme", "_cmds", "count"),
    ("fs", "_block_reads", "count"),
    ("ftl", "_l2p_reads", "count"),
    ("dram", "_activations", "count"),
    ("flash", "_reads", "count"),
];

/// Per-layer metrics of `device_rw` and `campaign`, and the tracing
/// overhead every workload reports.
const OTHER_PER_LAYER: [(&str, &str); 17] = [
    ("nvme.submit_s", "s"),
    ("nvme.process_s", "s"),
    ("nvme.drain_s", "s"),
    ("nvme.batch_p50_us", "us"),
    ("nvme.batch_p99_us", "us"),
    ("nvme.batch_samples", "count"),
    ("ftl.l2p_reads", "count"),
    ("ftl.gc_relocated", "count"),
    ("ftl.write_amp", "ratio"),
    ("dram.activations", "count"),
    ("flash.erases", "count"),
    ("bench.episode_p50_ms", "ms"),
    ("bench.episode_p99_ms", "ms"),
    ("bench.episode_samples", "count"),
    ("simkit.supervisor_overhead_frac", "ratio"),
    ("bench.torture_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// End-to-end metrics, measured with tracing off on every workload.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Every metric a run prints, in order: the end-to-end set untraced, the
/// per-layer set traced. A workload leaves out the per-layer metrics of
/// layers it does not run; they print as 0.
fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut names = Vec::new();
    for st in STAGES {
        for (layer, suffix, unit) in STAGE_METRICS {
            names.push((format!("{layer}.{st}{suffix}"), unit));
        }
    }
    names.extend(OTHER_PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds a run should measure for.
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload leak_paper|device_rw|campaign \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "leak_paper" => leak::run,
        "device_rw" => device_rw::run,
        "campaign" => campaign::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report: Report = run(&args);
    if !args.trace {
        match report.peak_rss_mb {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
            None => report.problems.push("peak RSS unavailable".to_string()),
        }
    }
    // Print exactly the declared metrics, in declared order.
    let mut measured = std::mem::take(&mut report.metrics);
    for (name, unit) in metric_names(args.trace) {
        match measured.iter().position(|m| m.0 == name) {
            Some(i) => {
                let m = measured.remove(i);
                if m.2 != unit {
                    report
                        .problems
                        .push(format!("{name}: unit {} is not {unit}", m.2));
                }
                report.metrics.push(m);
            }
            None => {
                if !args.trace {
                    report.problems.push(format!("{name} was not measured"));
                }
                report.metrics.push((name, 0.0, unit));
            }
        }
    }
    for (name, _, _) in measured {
        report.problems.push(format!("undeclared metric {name}"));
    }
    report.print();
}
