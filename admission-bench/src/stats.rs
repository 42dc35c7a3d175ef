//! Small numeric helpers: quantiles over samples, a fixed-size latency
//! histogram, and the process's peak resident memory.

/// Nearest-rank quantile of `values` (sorted in place). 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[rank(q, values.len() as u64) as usize - 1]
}

/// Nearest rank (1-based) of quantile `q` among `n > 0` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sub-buckets per power of two: values below `2^SUB_BITS` are exact,
/// larger ones land in buckets under 1% wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram of nanosecond latencies. Its size is fixed, so
/// the benchmark's own memory does not grow with the program's
/// throughput.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) as usize - SUB;
        (shift as usize + 1) * SUB + sub
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < SUB {
            return i as f64;
        }
        let shift = (i / SUB - 1) as u32;
        let lower = ((SUB + i % SUB) as u64) << shift;
        lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
        self.sum += v as f64;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.n as f64)
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Index of the bucket holding the nearest-rank `q` quantile and
    /// the samples up to and including it.
    fn locate(&self, q: f64) -> (usize, u64) {
        let target = rank(q, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return (i, seen);
            }
        }
        unreachable!("the counts add up to n")
    }

    /// Nearest-rank `q` quantile (bucket midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        Self::value(self.locate(q).0)
    }

    /// Samples in buckets above the one holding the `q` quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        self.n - self.locate(q).1
    }
}

/// Fewest samples a window needs for its p99 to have ten beyond it.
pub const MIN_WINDOW_SAMPLES: u64 = 1000;

/// Median over `windows` of each window's `q` quantile. Windows with
/// fewer than [`MIN_WINDOW_SAMPLES`] samples are left out, unless none
/// has that many; then all samples form one window.
pub fn windowed_quantile(windows: &[Hist], q: f64) -> f64 {
    let mut per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.count() >= MIN_WINDOW_SAMPLES)
        .map(|w| w.quantile(q))
        .collect();
    if per_window.is_empty() {
        return merged(windows).quantile(q);
    }
    median_f64(&mut per_window)
}

/// All windows as one histogram.
pub fn merged(windows: &[Hist]) -> Hist {
    let mut all = Hist::default();
    for w in windows {
        all.merge(w);
    }
    all
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, every thread counted (those
/// that have ended too), in seconds. Time the hypervisor gives to other
/// guests is not in it.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![4, 1, 3, 2];
        assert_eq!(quantile(&mut v, 0.5), 2);
        assert_eq!(quantile(&mut v, 0.99), 4);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn histogram_is_exact_below_128_and_within_one_percent_above() {
        let mut h = Hist::default();
        for v in [4, 1, 3, 2] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.beyond(0.5), 2);
        assert_eq!(h.mean(), 2.5);
        for v in [129, 1_000, 77_777, 5_000_000_000] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() / (v as f64) < 0.01, "{v} → {got}");
        }
        assert_eq!(Hist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        let window = |v: u64| {
            let mut h = Hist::default();
            (0..MIN_WINDOW_SAMPLES).for_each(|_| h.record(v));
            h
        };
        let mut small = Hist::default();
        small.record(100);
        let windows = vec![window(1), window(5), window(3), small];
        assert_eq!(windowed_quantile(&windows, 0.99), 3.0);
        assert_eq!(merged(&windows).count(), 3 * MIN_WINDOW_SAMPLES + 1);
        let mut a = Hist::default();
        a.record(1);
        let mut b = Hist::default();
        b.record(3);
        assert_eq!(windowed_quantile(&[a, b], 1.0), 3.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        while thread_cpu_s() - thread < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0 && process_cpu_s() - process >= 0.01);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median_f64(&mut [5.0]), 5.0);
    }
}
