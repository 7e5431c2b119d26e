//! `zkbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path zkbench/Cargo.toml -- \
//!     --workload <prove-mock-mu16|serve-poisson|serve-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it replays each layer's public calls on the workload's own inputs and
//! prints the per-layer table. Every run checks its outputs and exits
//! non-zero when a check fails. The last stdout line is the result JSON;
//! the line before it records the run's provenance. `zkbench/README.md`
//! explains the workloads and what each metric is expected to move.

mod json;
mod layers;
mod offline;
mod selftime;
mod serve;
mod stats;

use std::process::ExitCode;

/// The workloads, by the names later changes cite.
const WORKLOADS: [&str; 3] = ["prove-mock-mu16", "serve-poisson", "serve-burst"];

/// Times each workload's set-up is repeated for the `setup_s` median.
pub const SETUP_REPS: usize = 3;

/// Seeds derived from the workload seed, one per generated input.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric. `samples` is the number of measurements it
/// summarizes (1 for a count or a single timing).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Jobs (proofs) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed; any entry fails the run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form facts about the run (flags, lateness, sample support),
    /// recorded next to the provenance.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn usage() -> String {
    format!(
        "usage: zkbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses environments that would silently change what is measured.
fn check_environment() -> Result<(), String> {
    if let Some(spec) = std::env::var_os("ZKSPEED_FAULTS") {
        return Err(format!(
            "ZKSPEED_FAULTS={spec:?} is set: the service would inject faults into the measured \
             waves; unset it"
        ));
    }
    if let Ok(v) = std::env::var("ZKSPEED_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if (1..=nproc()).contains(&n) => {}
            _ => {
                return Err(format!(
                    "ZKSPEED_THREADS={v:?} must be an integer in 1..={} (nproc)",
                    nproc()
                ))
            }
        }
    }
    Ok(())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` when the checkout is not a git repository).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cumulative (steal, total) CPU jiffies of the machine, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zkbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("zkbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let jiffies_before = cpu_jiffies();
    let outcome = match args.workload.as_str() {
        "prove-mock-mu16" => offline::run(&args),
        "serve-poisson" => serve::run(&args, serve::Shape::Poisson),
        _ => serve::run(&args, serve::Shape::Burst),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zkbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if report.attempted == 0 {
        report.problems.push("no job was attempted".into());
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("metric {} is not a finite number", m.name));
        }
    }

    // CPU time the hypervisor gave to other guests during the run: a run
    // with a high share was measured on a contended machine.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies_before, cpu_jiffies()) {
        report.note("steal_share", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    }
    report.note(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let threads = zkspeed::rt::par::current_threads();
    let mut info = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("git_rev".into(), json_str(&git_rev())),
        ("cpu".into(), json_str(&cpu_model())),
        ("nproc".into(), nproc().to_string()),
        ("threads".into(), threads.to_string()),
        ("rustc".into(), json_str(env!("ZKBENCH_RUSTC_VERSION"))),
    ];
    info.extend(report.notes.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let samples: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    info.push(("samples".into(), format!("{{{}}}", samples.join(", "))));
    let problems: Vec<String> = report.problems.iter().map(|p| json_str(p)).collect();
    info.push(("problems".into(), format!("[{}]", problems.join(", "))));

    eprintln!(
        "{:<28} {:>14} {:<8} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        eprintln!(
            "{:<28} {:>14.6} {:<8} {:>7}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &report.problems {
        eprintln!("zkbench: CHECK FAILED: {p}");
    }

    let fields: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("zkbench-info {{{}}}", fields.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit)
            )
        })
        .collect();
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
