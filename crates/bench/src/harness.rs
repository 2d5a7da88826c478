//! A vendored micro-benchmark harness with a Criterion-shaped API.
//!
//! The workspace builds fully offline, so the ablation benches cannot link
//! the external `criterion` crate. This module provides the narrow subset
//! they use — [`Criterion`], `benchmark_group`, [`BenchmarkId`],
//! `bench_function` / `bench_with_input`, [`Bencher::iter`], [`black_box`]
//! and the [`criterion_group!`]/[`criterion_main!`] macros — backed by a
//! simple adaptive timer: each benchmark is calibrated so one sample takes
//! roughly two milliseconds, then a fixed number of samples is collected
//! and the median, minimum and mean nanoseconds per iteration reported.
//!
//! It is intentionally *not* a statistics engine (no outlier analysis, no
//! regression baselines); it exists so `cargo bench -p zeroconf-bench`
//! keeps answering the DESIGN.md ablation questions hermetically, and so
//! programmatic consumers (the `engine_throughput` bench) can reuse
//! [`measure`] to record machine-readable summaries.

use std::time::Instant;

pub use std::hint::black_box;

// Re-export the crate-root macros under the harness path so benches can
// `use zeroconf_bench::harness::{criterion_group, criterion_main}`.
pub use crate::{criterion_group, criterion_main};

/// Number of timed samples per benchmark (Criterion's `sample_size`).
const DEFAULT_SAMPLES: usize = 15;
/// Target wall time of one sample, used to calibrate iterations-per-sample.
const TARGET_SAMPLE_NANOS: f64 = 2e6;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark id, `group/function/parameter`.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// Mean nanoseconds per iteration over all samples.
    pub mean_ns: f64,
    /// Number of samples collected.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Wall time of the very first (calibration) iteration. One-off
    /// costs — first-touch page faults of a fresh mapping, cold branch
    /// predictors — land here instead of skewing the timed samples.
    pub first_iter_ns: f64,
}

/// Times `f`, first calibrating iterations-per-sample, then collecting
/// `samples` timed samples. The building block behind [`Bencher::iter`];
/// public so custom `main`s (e.g. `engine_throughput`) can record results.
pub fn measure<T>(id: &str, samples: usize, mut f: impl FnMut() -> T) -> BenchRecord {
    // Calibration: run once, then pick iterations so one sample lands near
    // the target duration.
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed().as_nanos().max(1) as f64;
    let iters = (TARGET_SAMPLE_NANOS / first).clamp(1.0, 10_000_000.0) as u64;

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        // One discarded warmup iteration per sample: the timed loop then
        // starts from warm caches and TLBs, so low-iteration rows (where
        // calibration picks a handful of iterations) report steady-state
        // throughput instead of averaging a cold first iteration into
        // every sample.
        black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    BenchRecord {
        id: id.to_owned(),
        median_ns: median,
        min_ns: min,
        mean_ns: mean,
        samples: per_iter.len(),
        iters_per_sample: iters,
        first_iter_ns: first,
    }
}

/// Renders nanoseconds in a human scale.
pub fn format_nanos(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// The harness entry point handed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}:");
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) {
        self.run(id.to_owned(), DEFAULT_SAMPLES, f);
    }

    /// All measurements collected so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    fn run(&mut self, id: String, samples: usize, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            id: id.clone(),
            samples,
            record: None,
        };
        f(&mut bencher);
        let record = bencher.record.unwrap_or(BenchRecord {
            id,
            median_ns: f64::NAN,
            min_ns: f64::NAN,
            mean_ns: f64::NAN,
            samples: 0,
            iters_per_sample: 0,
            first_iter_ns: f64::NAN,
        });
        println!(
            "  {:<44} median {:>10}/iter  (min {}, mean {}, first {}, {} samples x {} iters)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            format_nanos(record.mean_ns),
            format_nanos(record.first_iter_ns),
            record.samples,
            record.iters_per_sample,
        );
        self.records.push(record);
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Benchmarks a function under `group/id`.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{id}", self.name);
        self.criterion.run(full, self.samples, f);
    }

    /// Benchmarks a function parameterized by `input` under the
    /// [`BenchmarkId`]'s `group/function/parameter` label.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let full = format!("{}/{}", self.name, id.label);
        self.criterion.run(full, self.samples, |b| f(b, input));
    }

    /// Ends the group (drop would do; kept for API compatibility).
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds the label `function/parameter`.
    pub fn new(function: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] performs the timing.
#[derive(Debug)]
pub struct Bencher {
    id: String,
    samples: usize,
    record: Option<BenchRecord>,
}

impl Bencher {
    /// Measures `f`, replacing any earlier measurement from this closure.
    pub fn iter<T>(&mut self, f: impl FnMut() -> T) {
        self.record = Some(measure(&self.id, self.samples, f));
    }
}

/// Declares a benchmark-group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_times() {
        let record = measure("noop_sum", 5, || (0..100u64).sum::<u64>());
        assert!(record.median_ns > 0.0);
        assert!(record.min_ns <= record.median_ns);
        assert_eq!(record.samples, 5);
        assert!(record.iters_per_sample >= 1);
        assert!(record.first_iter_ns > 0.0);
    }

    #[test]
    fn groups_record_full_ids() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("f", 7), &7u32, |b, &x| b.iter(|| x + 1));
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.finish();
        c.bench_function("top", |b| b.iter(|| 2 + 2));
        let ids: Vec<&str> = c.records().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["g/f/7", "g/plain", "top"]);
    }

    #[test]
    fn format_nanos_scales() {
        assert!(format_nanos(12.0).contains("ns"));
        assert!(format_nanos(12_000.0).contains("µs"));
        assert!(format_nanos(12_000_000.0).contains("ms"));
        assert!(format_nanos(12e9).contains('s'));
    }
}
