//! Shared measurement plumbing: host timing, the host-speed reference,
//! order statistics, the result digest, peak memory, and the per-run report
//! every workload returns.
//!
//! Host time is read only through `ssdhammer_bench::harness::wallclock`,
//! the workspace's single sanctioned wall-clock path; the values are
//! reported and never fed back into simulated state.

use std::hint::black_box;

use ssdhammer_bench::harness::wallclock;
use ssdhammer_simkit::json::Json;

/// Runs `f` once, returning its host seconds and its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let mut f = Some(f);
    let mut slot = None;
    let secs = wallclock::time_once(&mut || {
        if let Some(f) = f.take() {
            slot = Some(f());
        }
    });
    (secs, slot.expect("timed closure ran once"))
}

/// Steps of the host-speed reference kernel per reading.
const REF_STEPS: u64 = 45_000_000;

/// Usual seconds of one reading on the 2-core Xeon VM the bounds were set
/// on. Only a scale: it makes a normalized time read close to the raw one
/// on that VM.
const REF_NOMINAL_S: f64 = 0.1;

/// The reference kernel: a multiply-xorshift chain held in registers. It
/// touches no memory and calls nothing in the workspace, so no change to
/// the program can speed it up or slow it down.
fn reference_kernel(steps: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..steps {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (x >> 29);
    }
    x
}

/// How many times slower than nominal the host's cores run right now: the
/// reference kernel, run on `threads` threads at once, each timing itself,
/// mean time over [`REF_NOMINAL_S`]. A workload reads it on as many
/// threads as it runs; one of them is the calling thread, so a
/// single-threaded workload reads the core it runs on.
///
/// The host is shared, and its speed drifts by a tenth or more over
/// minutes as other tenants' load changes; the kernel sees much of that
/// drift, though not all of it. A workload takes a reading just before each timed repeat and
/// scales its end-to-end times by the run's fastest reading, so a slow
/// stretch on the host does not read as a slow program.
pub fn host_slowdown(threads: usize) -> f64 {
    let reading = || timed(|| black_box(reference_kernel(REF_STEPS))).0;
    let secs: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(reading)).collect();
        let own = reading();
        own + others
            .into_iter()
            .map(|w| w.join().expect("reference kernel does not panic"))
            .sum::<f64>()
    });
    secs / threads.max(1) as f64 / REF_NOMINAL_S
}

/// The `q`-quantile (`0.0..=1.0`) of `xs` by nearest rank; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a over simulated results. Timings never enter it, so the same seed
/// gives the same digest on every run, at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where the
/// kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (the workload defines its operation).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Checks that are not per-operation: determinism across repeats and
    /// traced-vs-untraced equivalence. Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Digest of the simulated results, identical across repeats.
    pub digest: Option<Digest>,
    /// Peak resident set in MiB after the workload's first unit of work.
    pub peak_rss_mb: Option<f64>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Sets `setup_s` and `units_per_s` from the run's raw host
    /// measurements: the median set-up time divided by the smallest of the
    /// [`host_slowdown`] readings taken before the run's repeats, and the
    /// median rate multiplied by it. Other tenants' bursts only ever slow a
    /// reading down, so the fastest one is the host's speed during the run.
    /// The raw medians go into the notes.
    pub fn normalized(&mut self, setups: &[f64], rates: &[f64], slowdowns: &[f64]) {
        let slow = slowdowns.iter().copied().fold(f64::INFINITY, f64::min);
        self.notes.push(format!(
            "raw: setup_s {:.6} s, units_per_s {:.4} 1/s; host slowdown {slow:.4}",
            median(setups),
            median(rates)
        ));
        self.metric("setup_s", median(setups) / slow, "s");
        self.metric("units_per_s", median(rates) * slow, "1/s");
    }

    /// Reads the peak resident set once, after the first unit of work.
    /// Later repeats of the same unit only add allocator fragmentation
    /// (the campaign's worker threads come and go every round), which
    /// grows with the number of repeats the host's speed allows.
    pub fn first_unit_done(&mut self) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Folds one repeat's digest in: the first sets it, any later one that
    /// differs is a determinism failure.
    pub fn repeat_digest(&mut self, what: &str, d: Digest) {
        match self.digest {
            None => self.digest = Some(d),
            Some(first) if first != d => self.problems.push(format!(
                "{what}: digest {} differs from the first repeat's {}",
                d.hex(),
                first.hex()
            )),
            Some(_) => {}
        }
    }

    /// Prints the notes, the digest and every metric, then the one-line
    /// JSON result as the last line of standard output.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        if let Some(d) = self.digest {
            println!("result digest {}", d.hex());
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac {fail_frac} ({} of {} operations)",
            self.failed, self.attempted
        );
        let correct = self.problems.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.digest.is_some();
        let metrics = Json::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::F64(*value)), ("unit", Json::str(*unit))]),
            )
        }));
        let line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
