//! A minimal benchmark harness: warmup + median-of-N timing with JSON
//! output, replacing `criterion` for the workspace's `benches/` targets
//! (which are built with `harness = false`).
//!
//! Sample counts are intentionally small and environment-tunable so the
//! benches double as smoke tests in CI:
//!
//! * `ZKSPEED_BENCH_SAMPLES` — timed samples per benchmark (default 10);
//! * `ZKSPEED_BENCH_WARMUP` — untimed warmup iterations (default 2).
//!
//! On [`Harness::finish`] the JSON report is printed to stdout **and**
//! persisted to `target/bench-history/<suite>.json` (override the directory
//! with `ZKSPEED_BENCH_HISTORY`, or set it to `off` to disable). Two history
//! files can be diffed with `scripts/bench_compare.sh` to spot hot-path
//! regressions between commits.
//!
//! # Examples
//!
//! ```no_run
//! use zkspeed_rt::bench::Harness;
//!
//! let mut h = Harness::new("field");
//! h.bench("fr_mul", || 3u64.wrapping_mul(5));
//! h.finish();
//! ```

use std::time::Instant;

pub use core::hint::black_box;

use crate::json::JsonValue;

/// Timing record of one benchmark.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Closure invocations per timed sample (auto-calibrated so fast
    /// closures are amortized over many calls instead of measuring timer
    /// overhead).
    pub iters_per_sample: u64,
    /// Per-invocation wall-clock nanoseconds of each timed sample.
    pub samples_ns: Vec<u128>,
}

impl BenchRecord {
    /// Median sample time in nanoseconds.
    pub fn median_ns(&self) -> u128 {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Fastest sample in nanoseconds.
    pub fn min_ns(&self) -> u128 {
        *self.samples_ns.iter().min().expect("at least one sample")
    }

    /// Slowest sample in nanoseconds.
    pub fn max_ns(&self) -> u128 {
        *self.samples_ns.iter().max().expect("at least one sample")
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("median_ns".into(), JsonValue::UInt(self.median_ns() as u64)),
            ("min_ns".into(), JsonValue::UInt(self.min_ns() as u64)),
            ("max_ns".into(), JsonValue::UInt(self.max_ns() as u64)),
            (
                "samples".into(),
                JsonValue::UInt(self.samples_ns.len() as u64),
            ),
            (
                "iters_per_sample".into(),
                JsonValue::UInt(self.iters_per_sample),
            ),
        ])
    }
}

/// A benchmark suite: runs closures with warmup, records median-of-N
/// timings, and emits a JSON report on [`Harness::finish`].
pub struct Harness {
    suite: String,
    warmup: usize,
    samples: usize,
    records: Vec<BenchRecord>,
    history: bool,
}

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

impl Harness {
    /// Creates a suite with sample counts taken from the environment.
    pub fn new(suite: impl Into<String>) -> Self {
        Self {
            suite: suite.into(),
            warmup: env_count("ZKSPEED_BENCH_WARMUP", 2),
            samples: env_count("ZKSPEED_BENCH_SAMPLES", 10),
            records: Vec::new(),
            history: true,
        }
    }

    /// Overrides the number of timed samples.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Overrides the number of warmup iterations.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Enables or disables writing the history file on [`Harness::finish`].
    pub fn with_history(mut self, history: bool) -> Self {
        self.history = history;
        self
    }

    /// Runs one benchmark: `warmup` untimed calls, then `samples` timed
    /// samples, printing a one-line summary immediately.
    ///
    /// Each sample amortizes the closure over enough iterations to fill
    /// roughly 50 µs (`TARGET_SAMPLE_NS`), so nanosecond-scale closures
    /// measure the closure rather than `Instant` overhead.
    pub fn bench<R>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> R) {
        /// Minimum wall-clock time one sample should cover.
        const TARGET_SAMPLE_NS: u128 = 50_000;
        const MAX_ITERS: u128 = 1_000_000;

        let name = name.into();
        for _ in 0..self.warmup {
            black_box(f());
        }
        // Calibration: one timed call decides how many iterations a sample
        // needs. Slow closures (≥ the target) run once per sample.
        let start = Instant::now();
        black_box(f());
        let probe_ns = start.elapsed().as_nanos().max(1);
        let iters = (TARGET_SAMPLE_NS / probe_ns).clamp(1, MAX_ITERS) as u64;

        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() / iters as u128);
        }
        let record = BenchRecord {
            name: name.clone(),
            iters_per_sample: iters,
            samples_ns,
        };
        println!(
            "bench {}/{name}: median {} (min {}, max {}, {} samples x {} iters)",
            self.suite,
            fmt_ns(record.median_ns()),
            fmt_ns(record.min_ns()),
            fmt_ns(record.max_ns()),
            record.samples_ns.len(),
            record.iters_per_sample,
        );
        self.records.push(record);
    }

    /// The median of the most recently recorded benchmark's samples, in
    /// nanoseconds — lets a suite compare two scenarios it just ran (e.g.
    /// an on/off overhead pair) from the same measured samples.
    pub fn last_median_ns(&self) -> Option<u128> {
        self.records.last().map(BenchRecord::median_ns)
    }

    /// Prints the suite's JSON report to stdout, persists it to the bench
    /// history directory, and consumes the harness.
    pub fn finish(self) {
        let doc = JsonValue::Object(vec![
            ("suite".into(), JsonValue::Str(self.suite.clone())),
            (
                "results".into(),
                JsonValue::Array(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ]);
        let rendered = doc.pretty();
        println!("{rendered}");
        if self.history {
            if let Some(dir) = history_dir() {
                let path = dir.join(format!("{}.json", self.suite));
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, rendered.as_bytes()));
                match written {
                    Ok(()) => println!("bench history: wrote {}", path.display()),
                    Err(e) => eprintln!("bench history: could not write {}: {e}", path.display()),
                }
            }
        }
    }
}

/// Resolves the bench-history directory: `ZKSPEED_BENCH_HISTORY` if set
/// (`off`, `0` or the empty string disable persistence), otherwise the
/// workspace's `target/bench-history`. Public so bench targets can drop
/// auxiliary reports (e.g. measured `CircuitStats` JSON) next to the
/// timing histories CI archives.
pub fn history_dir() -> Option<std::path::PathBuf> {
    match std::env::var("ZKSPEED_BENCH_HISTORY") {
        Ok(v) => {
            let v = v.trim().to_string();
            if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(v.into())
            }
        }
        // `cargo bench` runs with the package directory as cwd, so a plain
        // relative "target/" would land inside crates/bench; anchor on this
        // crate's manifest dir to reach the workspace target instead.
        Err(_) => Some(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-history"),
        ),
    }
}

/// Formats nanoseconds with a human-friendly unit.
fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_report_order_statistics() {
        let r = BenchRecord {
            name: "t".into(),
            iters_per_sample: 1,
            samples_ns: vec![30, 10, 20],
        };
        assert_eq!(r.median_ns(), 20);
        assert_eq!(r.min_ns(), 10);
        assert_eq!(r.max_ns(), 30);
    }

    #[test]
    fn harness_runs_and_counts_samples() {
        let mut h = Harness::new("test-suite")
            .with_samples(3)
            .with_warmup(1)
            .with_history(false);
        let mut calls = 0u64;
        h.bench("counter", || {
            calls += 1;
            calls
        });
        let record = &h.records[0];
        // 1 warmup + 1 calibration probe + 3 samples of `iters` calls each.
        assert_eq!(calls, 2 + 3 * record.iters_per_sample);
        assert!(record.iters_per_sample >= 1);
        assert_eq!(h.records.len(), 1);
        h.finish();
    }

    #[test]
    fn slow_closures_run_once_per_sample() {
        let mut h = Harness::new("slow")
            .with_samples(2)
            .with_warmup(0)
            .with_history(false);
        h.bench("sleepy", || {
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        assert_eq!(h.records[0].iters_per_sample, 1);
    }

    #[test]
    fn nanosecond_formatting_picks_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert!(fmt_ns(1_500).contains("µs"));
        assert!(fmt_ns(2_000_000).contains("ms"));
        assert!(fmt_ns(3_000_000_000).ends_with(" s"));
    }
}
