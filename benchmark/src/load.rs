//! Load generation and its accounting: a closed loop of clients that
//! each wait for a reply, an open-loop paced sender timed from when
//! each send was due, measurement windows, and process CPU time.

use crate::stats::{highest_supported_percentile, median, percentile, window_spread};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Time since the process-wide epoch; spans and samples share it.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, at: Duration);
}

/// The real clock, counting from when the benchmark started.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Epoch {
        Epoch(Instant::now())
    }
}

impl Clock for Epoch {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One operation as its issuer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The instant latency counts from: the send for a closed loop,
    /// the due time for a paced sender.
    pub from: Duration,
    pub end: Duration,
    /// Answered, and answered correctly.
    pub ok: bool,
    /// Work the operation carried (1 query, 32 probes, 40k records…).
    pub units: u64,
}

/// Runs `clients` threads that each call `op` back to back until
/// `length` has passed since they were all connected. `connect(c)`
/// builds client `c`'s state before the clock starts; `op(state, c, i)`
/// performs its `i`-th operation and returns whether it succeeded and
/// how many units of work it carried. Returns the instant the loop
/// started and every sample taken.
pub fn closed_loop<S>(
    clock: &Epoch,
    clients: usize,
    length: Duration,
    connect: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, usize, u64) -> (bool, u64) + Sync,
) -> (Duration, Vec<Sample>) {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, connect, op) = (&barrier, &connect, &op);
                scope.spawn(move || {
                    let mut state = connect(c);
                    barrier.wait();
                    let started = clock.now();
                    let mut samples = Vec::new();
                    for i in 0u64.. {
                        let from = clock.now();
                        if from - started >= length {
                            break;
                        }
                        let (ok, units) = op(&mut state, c, i);
                        samples.push(Sample {
                            from,
                            end: clock.now(),
                            ok,
                            units,
                        });
                    }
                    samples
                })
            })
            .collect();
        barrier.wait();
        let started = clock.now();
        let samples = workers
            .into_iter()
            .flat_map(|w| w.join().expect("load client thread"))
            .collect();
        (started, samples)
    })
}

/// Sends `count` operations on a fixed schedule, one every `interval`
/// from `start`, never earlier than due. Each sample's latency counts
/// from its due time, so a stall is charged to every send it delays.
/// Returns the samples and, per send, how late the generator ran.
pub fn paced(
    clock: &impl Clock,
    start: Duration,
    interval: Duration,
    count: usize,
    mut op: impl FnMut(usize) -> (bool, u64),
) -> (Vec<Sample>, Vec<Duration>) {
    let mut samples = Vec::with_capacity(count);
    let mut lateness = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + interval * i as u32;
        clock.sleep_until(due);
        lateness.push(clock.now().saturating_sub(due));
        let (ok, units) = op(i);
        samples.push(Sample {
            from: due,
            end: clock.now(),
            ok,
            units,
        });
    }
    (samples, lateness)
}

/// How a run's measuring time is cut: a warm-up that is discarded,
/// then `measured` windows of equal `length`. The windows are short
/// and many, and a run reports the median window: on a shared machine
/// a neighbour's burst stalls everything for a few hundred ms, which
/// ruins the windows it lands in and leaves the median one alone.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub warm_up: Duration,
    pub measured: usize,
    pub length: Duration,
}

impl Windows {
    /// A sixth of `seconds` as warm-up, then as many whole windows of
    /// `length` as fit the rest (at least one).
    pub fn cut(seconds: f64, length: Duration) -> Windows {
        let warm_up = Duration::from_secs_f64(seconds / 6.0);
        let rest = Duration::from_secs_f64(seconds) - warm_up;
        Windows {
            warm_up,
            measured: ((rest.as_nanos() / length.as_nanos()) as usize).max(1),
            length,
        }
    }

    pub fn total(&self) -> Duration {
        self.warm_up + self.length * self.measured as u32
    }

    /// The measured window (0-based) that `at` falls into, if any.
    fn index(&self, started: Duration, at: Duration) -> Option<usize> {
        let offset = at.checked_sub(started + self.warm_up)?;
        let window = (offset.as_nanos() / self.length.as_nanos()) as usize;
        (window < self.measured).then_some(window)
    }
}

/// One stream of operations, summarised over the measured windows.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Units of work completed per second, per window.
    pub rate_windows: Vec<f64>,
    /// Median latency in ms, per window.
    pub p50_windows: Vec<f64>,
    /// Median of `rate_windows`.
    pub rate: f64,
    /// Median latency over every sample in the measured windows.
    pub p50_ms: f64,
    /// Latency samples in the measured windows.
    pub samples: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
    pub p99_ms: f64,
    /// Every operation issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed or were answered wrongly.
    pub failed: u64,
}

impl Summary {
    /// Attributes each sample to the window its reply arrived in. A
    /// failed operation adds no work and no latency sample.
    pub fn of(samples: &[Sample], started: Duration, windows: Windows) -> Summary {
        let mut units = vec![0u64; windows.measured];
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); windows.measured];
        for s in samples.iter().filter(|s| s.ok) {
            if let Some(w) = windows.index(started, s.end) {
                units[w] += s.units;
                latencies[w].push((s.end - s.from).as_secs_f64() * 1e3);
            }
        }
        let rate_windows: Vec<f64> = units
            .iter()
            .map(|&u| u as f64 / windows.length.as_secs_f64())
            .collect();
        let p50_windows: Vec<f64> = latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l))
            .collect();
        let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
        all.sort_by(f64::total_cmp);
        let at = |p: f64| {
            if all.is_empty() {
                0.0
            } else {
                percentile(&all, p)
            }
        };
        Summary {
            rate: median(&rate_windows),
            p50_ms: at(50.0),
            samples: all.len(),
            tail: highest_supported_percentile(all.len()).map(|p| (p, at(p))),
            p99_ms: at(99.0),
            attempted: samples.len() as u64,
            failed: samples.iter().filter(|s| !s.ok).count() as u64,
            rate_windows,
            p50_windows,
        }
    }

    pub fn rate_spread(&self) -> f64 {
        window_spread(&self.rate_windows)
    }

    pub fn p50_spread(&self) -> f64 {
        if self.p50_windows.is_empty() {
            0.0
        } else {
            window_spread(&self.p50_windows)
        }
    }
}

/// CPU time this process (servers and clients alike — they share it)
/// has used so far, in ms, from `/proc/self/stat`; 0 where that file
/// does not exist. Assumes the usual 100 clock ticks per second.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn paced_sender_charges_a_stall_to_the_sends_it_delays() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Every insert takes 10 ms, except the third, which stalls 350 ms.
        let (samples, lateness) = paced(&clock, 100 * MS, 100 * MS, 7, |i| {
            let cost = if i == 2 { 350 } else { 10 };
            clock.0.set(clock.0.get() + cost * MS);
            (true, 200)
        });
        let from_due: Vec<u64> = samples
            .iter()
            .map(|s| (s.end - s.from).as_millis() as u64)
            .collect();
        // Sends 3..5 were due at 400, 500, 600 ms but the stalled send
        // only returned at 650 ms: they leave 250, 160 and 70 ms late
        // and their latency from the due time includes that wait.
        assert_eq!(from_due, vec![10, 10, 350, 260, 170, 80, 10]);
        let late: Vec<u64> = lateness.iter().map(|d| d.as_millis() as u64).collect();
        assert_eq!(late, vec![0, 0, 0, 250, 160, 70, 0]);
        // A sender timed from the actual send would have hidden it.
        assert!(samples.iter().all(|s| s.units == 200 && s.ok));
    }

    #[test]
    fn summary_discards_warm_up_and_failures() {
        // 1 s warm-up, then two 1 s windows.
        let windows = Windows {
            warm_up: Duration::from_secs(1),
            measured: 2,
            length: Duration::from_secs(1),
        };
        let at = |ms: u64| Duration::from_millis(ms);
        let sample = |from: u64, end: u64, ok: bool| Sample {
            from: at(from),
            end: at(end),
            ok,
            units: 1,
        };
        let started = at(5_000);
        let samples = vec![
            sample(5_100, 5_200, true),  // warm-up: discarded
            sample(6_000, 6_100, true),  // window 0, 100 ms
            sample(6_200, 6_500, true),  // window 0, 300 ms
            sample(6_600, 6_700, false), // failed: no work, no latency
            sample(7_000, 7_040, true),  // window 1, 40 ms
            sample(7_900, 8_100, true),  // ends after the last window
        ];
        let summary = Summary::of(&samples, started, windows);
        assert_eq!(summary.rate_windows, vec![2.0, 1.0]);
        assert_eq!(summary.p50_windows, vec![200.0, 40.0]);
        assert_eq!(summary.rate, 1.5);
        assert_eq!(summary.p50_ms, 100.0);
        assert_eq!(summary.samples, 3);
        assert_eq!((summary.attempted, summary.failed), (6, 1));
        assert_eq!(summary.tail, None);
    }

    #[test]
    fn windows_fill_the_time_after_the_warm_up() {
        let windows = Windows::cut(12.0, Duration::from_millis(200));
        assert_eq!(windows.warm_up, Duration::from_secs(2));
        assert_eq!(windows.measured, 50);
        assert_eq!(windows.total(), Duration::from_secs(12));
        let at = Duration::from_millis;
        assert_eq!(windows.index(at(1_000), at(2_900)), None);
        assert_eq!(windows.index(at(1_000), at(3_000)), Some(0));
        assert_eq!(windows.index(at(1_000), at(12_999)), Some(49));
        assert_eq!(windows.index(at(1_000), at(13_000)), None);
        assert_eq!(Windows::cut(0.1, Duration::from_secs(1)).measured, 1);
    }

    #[test]
    fn closed_loop_runs_each_client_until_the_time_is_up() {
        let clock = Epoch::start();
        let (started, samples) = closed_loop(
            &clock,
            2,
            Duration::from_millis(60),
            |c| c as u64,
            |state, _, i| {
                std::thread::sleep(Duration::from_millis(5));
                (*state + i < u64::MAX, 1)
            },
        );
        assert!(samples.len() >= 8, "{} samples", samples.len());
        assert!(samples.iter().all(|s| s.ok && s.end > s.from));
        assert!(samples.iter().all(|s| s.end > started));
        assert!(process_cpu_ms() >= 0.0);
    }
}
