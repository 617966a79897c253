//! Timing, memory and summary-statistics helpers shared by every
//! workload. Nothing here touches the program under test.

use std::fs;
use std::time::{Duration, Instant};

extern "C" {
    /// glibc: returns freed heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The fastest of a sample of durations: best-of-N timing.
///
/// On a shared host other tenants only ever slow a run, in phases that
/// can last minutes, so a run's median lands in the contended or the
/// free mode depending on how long contention lasted. The fastest run
/// tracks the program itself.
///
/// # Panics
/// Panics on an empty slice.
pub fn best_time(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "best of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The mean of `xs` without its lowest and highest tenth.
///
/// Query latency is bimodal across coordinator instances: std seeds
/// every hash map afresh, and some layouts probe longer than others. A
/// median flips between the two modes from run to run, and even the
/// middle-half mean swings with their mix; a lightly trimmed mean moves
/// least with the mix and still drops the spikes other tenants add.
///
/// # Panics
/// Panics on an empty slice.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "trimmed mean of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Per-call times of a µs- to ms-scale operation, taken in rounds of
/// `reps` calls (enough calls to fill `round_s`) so no sample is a
/// single clock reading. Results live until their round's clock stops,
/// so their drop is never timed.
pub struct RepeatTimer {
    reps: usize,
    pub samples: Vec<f64>,
}

impl RepeatTimer {
    /// Sizes the rounds from one untimed warm-up call of `f`.
    pub fn new<T>(round_s: f64, f: impl FnOnce() -> T) -> Self {
        let (_, one) = timed(f);
        let reps = (round_s / one.as_secs_f64().max(1e-9)).ceil() as usize;
        RepeatTimer {
            reps: reps.clamp(1, 1_000_000),
            samples: Vec::new(),
        }
    }

    /// Times one round and records its per-call time in seconds.
    pub fn round<T>(&mut self, mut f: impl FnMut() -> T) {
        let mut keep = Vec::with_capacity(self.reps);
        let t0 = Instant::now();
        for _ in 0..self.reps {
            keep.push(std::hint::black_box(f()));
        }
        self.samples
            .push(t0.elapsed().as_secs_f64() / self.reps as f64);
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak-RSS probe for one driver run: returns freed memory to the
/// kernel, resets the kernel's high-water mark (`5` to
/// `/proc/self/clear_refs`) and records the resident baseline.
pub struct RssProbe {
    baseline_kb: f64,
}

impl RssProbe {
    /// Starts a probe just before the run.
    pub fn start() -> Self {
        // SAFETY: `malloc_trim` takes a plain integer and only releases
        // free pages; it is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
        // Without the reset, VmHWM would carry an earlier run's peak.
        let _ = fs::write("/proc/self/clear_refs", "5");
        RssProbe {
            baseline_kb: status_kb("VmRSS:").unwrap_or(0.0),
        }
    }

    /// The high-water rise above the baseline since [`RssProbe::start`],
    /// in MB.
    pub fn rise_mb(&self) -> f64 {
        let hwm = status_kb("VmHWM:").unwrap_or(0.0);
        (hwm - self.baseline_kb).max(0.0) / 1024.0
    }
}
