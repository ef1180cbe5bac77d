//! A dependency-free micro-benchmark harness exposing the small subset of
//! the `criterion` API the bench targets use.
//!
//! The build environment cannot fetch external crates, so `criterion` was
//! replaced by this shim: per benchmark it calibrates an iteration count
//! (so one sample costs ≳1 ms), collects `sample_size` samples, and prints
//! the median per-iteration time. The bench files keep their original
//! structure (`bench_function`, `benchmark_group`, `bench_with_input`,
//! `criterion_group!`, `criterion_main!`).

use std::time::Instant;

/// Benchmark driver configuration (shim for `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(name);
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: std::marker::PhantomData,
        }
    }
}

/// A named group of related benchmarks (shim for criterion's group).
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one benchmark in the group, parameterised by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.0));
    }

    /// Closes the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Builds an id from the benchmark's parameter value.
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    sample_size: usize,
    median_secs: f64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            median_secs: 0.0,
        }
    }

    /// Times the closure: calibrates an iteration count, then records
    /// `sample_size` samples of the mean per-iteration time.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Calibrate: grow the iteration count until a sample costs >= 1 ms
        // (cap the calibration phase at ~50 ms).
        let mut iters: u64 = 1;
        let calibration_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed().as_secs_f64();
            if elapsed >= 1e-3 || calibration_start.elapsed().as_secs_f64() > 0.05 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        self.median_secs = samples[samples.len() / 2];
    }

    fn report(&self, name: &str) {
        println!("{name:<44} median {}", crate::secs(self.median_secs).text());
        crate::report::record_bench(name, self.median_secs);
    }
}

/// Shim for `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Shim for `criterion::criterion_main!`. After the benches run, the
/// collected medians are written to `results/bench_<name>.json`.
#[macro_export]
macro_rules! criterion_main {
    ($name:ident) => {
        fn main() {
            $name();
            $crate::report::save_bench();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut ran = 0u64;
        c.bench_function("noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
        ran += 1;
        assert_eq!(ran, 1);
    }

    #[test]
    fn group_bench_with_input() {
        let mut c = Criterion::default().sample_size(3);
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::from_parameter("x"), &7u64, |b, &x| {
            b.iter(|| std::hint::black_box(x * 2))
        });
        g.finish();
    }
}
