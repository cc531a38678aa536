//! Skewed draws, pacing and summary statistics. Every percentile the
//! benchmark reports is computed here from its own raw samples, never
//! from the program's log-bucket histograms.

use mlake_tensor::Pcg64;
use std::path::Path;
use std::time::{Duration, Instant};

/// Zipf(`s`) over `n` items, hottest first, mapped through a seeded
/// permutation so the hot set is not simply the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Pcg64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut items: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut items);
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut Pcg64) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

/// A fixed-rate arrival schedule: request `i` is due at `start +
/// i/rate`. A pacer owns every `step`-th request from `first`, so
/// several senders can share one schedule. Latency is timed from the due
/// time, never from the send time, so a stall also counts against every
/// request scheduled behind it.
pub struct Pacer {
    start: Instant,
    rate: f64,
    next: usize,
    step: usize,
}

impl Pacer {
    pub fn new(start: Instant, rate: f64, first: usize, step: usize) -> Pacer {
        Pacer {
            start,
            rate,
            next: first,
            step,
        }
    }

    /// Offset from the schedule start of this pacer's next request.
    pub fn next_offset(&self) -> Duration {
        Duration::from_secs_f64(self.next as f64 / self.rate)
    }

    /// Sleeps until the next request is due and returns its due time.
    pub fn wait(&mut self) -> Instant {
        let due = self.start + self.next_offset();
        self.next += self.step;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// Raw latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in milliseconds (`q` in `[0, 1]`).
    pub fn pct_ms(&self, q: f64) -> f64 {
        percentile_ns(&self.0, q) / 1e6
    }

    pub fn mean_us(&self) -> f64 {
        mean(&self.0.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
    }
}

/// Nearest-rank percentile of raw samples; 0 for no samples.
pub fn percentile_ns(samples: &[u64], q: f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    percentile(&values, q)
}

/// Median (mean of the middle pair for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile of values; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Hands the heap pages freed so far back to the kernel, so memory a
/// dropped lake left behind is not counted as a later one's.
pub fn release_freed() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free heap pages to
        // the kernel; it has no preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Releases freed memory and resets the peak resident set to the
/// current one, so `VmHWM` covers only what runs after this call.
/// Without the kernel interface the peak covers the whole process.
pub fn reset_peak_rss() {
    release_freed();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&s, 0.5), 50.0);
        assert_eq!(percentile_ns(&s, 0.99), 99.0);
        assert_eq!(percentile_ns(&s, 1.0), 100.0);
        assert_eq!(percentile_ns(&[7], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(percentile(&[9.0, 1.0, 5.0, 3.0], 0.1), 1.0);
        assert_eq!(percentile(&[], 0.1), 0.0);
    }

    #[test]
    fn zipf_prefers_its_hot_items() {
        let mut rng = mlake_tensor::Seed::new(3).derive("zipf").rng();
        let z = Zipf::new(100, 1.1, &mut rng);
        let hot = z.items[0];
        let hits = (0..2000).filter(|_| z.sample(&mut rng) == hot).count();
        assert!(hits > 200, "hottest item drawn {hits} times");
    }
}
