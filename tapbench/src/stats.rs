//! Measurement helpers: percentiles, the open-loop due-time rule, and the
//! `/proc` readers for CPU time and resident memory.

use std::time::Duration;

/// Nearest-rank percentile of ascending `sorted` values: the smallest
/// value with at least `pct` percent of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = rank(sorted.len(), pct)?;
    sorted.get(rank - 1).copied()
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps e.g. 99.99 % of 100 000 at rank 99 990 despite
    // the inexact decimal.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank `pct` percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    rank(n, pct).map_or(0, |rank| n - rank)
}

/// The percentiles a tail is reported at, in increasing order.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it, with its value: the deepest tail the sample supports.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&pct| beyond(sorted.len(), pct) >= 10)
        .and_then(|&pct| Some((pct, percentile(sorted, pct)?)))
}

/// Median of unsorted values (upper median for even counts, the
/// nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The open-loop schedule: chunk `n` of the tap is due `n` chunk periods
/// after the start, at `speedup` times the tap's real sample rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    chunk_bus_s: f64,
    speedup: f64,
    chunk: u64,
}

impl Schedule {
    /// A schedule for chunks of `chunk` samples from a tap sampling at
    /// `sample_rate_hz`, replayed `speedup` times faster than real time.
    pub fn new(chunk: usize, sample_rate_hz: f64, speedup: f64) -> Self {
        Schedule {
            chunk_bus_s: chunk as f64 / sample_rate_hz,
            speedup,
            chunk: chunk as u64,
        }
    }

    /// Bus time carried by `chunks` chunks, s.
    pub fn bus_s(&self, chunks: u64) -> f64 {
        chunks as f64 * self.chunk_bus_s
    }

    /// Chunks due per second of wall time.
    pub fn chunks_per_s(&self) -> f64 {
        self.speedup / self.chunk_bus_s
    }

    /// When chunk `n` is due, from the start of the loop.
    pub fn due(&self, n: u64) -> Duration {
        Duration::from_secs_f64(self.bus_s(n) / self.speedup)
    }

    /// When the frame whose EOF sample is `eof_sample` became available:
    /// the due time of the chunk that holds that sample.
    pub fn frame_due(&self, eof_sample: u64) -> Duration {
        self.due(eof_sample / self.chunk)
    }
}

/// CPU time consumed so far, from a `/proc` `schedstat` file (the first
/// field, in nanoseconds).
pub fn schedstat_cpu(text: &str) -> Option<Duration> {
    let ns = text.split_whitespace().next()?.parse::<u64>().ok()?;
    Some(Duration::from_nanos(ns))
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Option<Duration> {
    schedstat_cpu(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// CPU time of every live thread of this process, summed. Threads that
/// have exited are not counted, so bracket a measured region with two
/// readings taken while the same threads are alive.
pub fn live_threads_cpu() -> Option<Duration> {
    let mut total = Duration::ZERO;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading; it no longer
        // counts on either side of the bracket.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += schedstat_cpu(&text)?;
        }
    }
    Some(total)
}

/// A `kB` field (e.g. `VmRSS`, `VmHWM`) of a `/proc/<pid>/status` text,
/// in bytes.
pub fn status_kb(text: &str, field: &str) -> Option<u64> {
    let line = text.lines().find(|line| {
        line.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb = line.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    Some(kb * 1024)
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> Option<u64> {
    status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values = ascending(10);
        assert_eq!(percentile(&values, 50.0), Some(5.0));
        assert_eq!(percentile(&values, 90.0), Some(9.0));
        assert_eq!(percentile(&values, 91.0), Some(10.0));
        assert_eq!(percentile(&values, 100.0), Some(10.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(&ascending(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&ascending(999)).map(|t| t.0), Some(90.0));
        assert_eq!(
            supported_tail(&ascending(100_000)).map(|t| t.0),
            Some(99.99)
        );
        assert_eq!(supported_tail(&ascending(20)).map(|t| t.0), Some(50.0));
        assert_eq!(supported_tail(&ascending(19)), None);
    }

    #[test]
    fn frames_are_due_with_the_chunk_holding_their_eof() {
        // 65 536 samples at 10 MS/s is 6.5536 ms of bus time; at 16×
        // real time a chunk is due every 409.6 µs.
        let schedule = Schedule::new(65_536, 10e6, 16.0);
        assert_eq!(schedule.due(0), Duration::ZERO);
        assert_eq!(schedule.due(10), Duration::from_nanos(4_096_000));
        assert_eq!(schedule.frame_due(65_535), Duration::ZERO);
        assert_eq!(schedule.frame_due(65_536), schedule.due(1));
        assert_eq!(schedule.frame_due(3 * 65_536 + 7), schedule.due(3));
    }

    #[test]
    fn proc_text_parsers() {
        assert_eq!(
            schedstat_cpu("531486515 11270432 48\n"),
            Some(Duration::from_nanos(531_486_515))
        );
        assert_eq!(schedstat_cpu(""), None);
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\nVmRSSx:\t 9 kB\n";
        assert_eq!(status_kb(status, "VmRSS"), Some(1024 * 1024));
        assert_eq!(status_kb(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let own = thread_cpu().expect("thread schedstat");
        let all = live_threads_cpu().expect("task schedstat");
        assert!(own >= Duration::from_millis(10), "{own:?}");
        assert!(all >= own);
        assert!(rss_bytes().expect("VmRSS") > 0);
    }
}
