//! Latency summaries over [`LatencyHist`]: the median, the p99, and the
//! highest percentile the sample supports.
//!
//! `LatencyHist` reports a percentile as its bucket's upper bound, so a
//! percentile that stays inside one bucket reads the same on every run
//! and one that crosses a bound jumps by a whole bucket (up to 1/16).
//! [`quantile`] spreads the ranks that share the reported bucket evenly
//! over the bucket's width instead, as HDR histograms and Prometheus'
//! `histogram_quantile` do, using only the histogram's public queries.

use klinq_bench::hist::LatencyHist;

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read off fewer samples is one outlier, not a percentile.
pub const MIN_BEYOND: u64 = 10;

/// The percentile ladder a tail is chosen from.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples strictly beyond quantile `q` of `n` samples: the quantile is
/// the sample at rank `ceil(q·n)`, so `n - ceil(q·n)` samples follow it.
pub fn beyond(n: u64, q: f64) -> u64 {
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest ladder quantile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks that support.
pub fn tail_quantile(n: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Lowest possible lower edge of a bucket, relative to its reported upper
/// bound: a `LatencyHist` bucket is at most 1/16 of its lower edge wide.
const BUCKET_LOW: f64 = 16.0 / 17.0;

/// The value `hist` reports for its `rank`-th smallest sample (1-based).
fn at_rank(hist: &LatencyHist, rank: u64) -> u64 {
    hist.quantile((rank as f64 - 0.5) / hist.count() as f64)
}

/// First rank in `lo..=hi` for which `pred` is false (`hi + 1` if none),
/// for a `pred` that holds on a prefix of the range.
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    hi += 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Quantile `q` of `hist` in ns, interpolated within the reported bucket:
/// the ranks reporting the same bucket are spread evenly between the
/// bucket's lower edge (or the previous occupied bucket, if higher) and
/// its reported bound.
pub fn quantile(hist: &LatencyHist, q: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let high = at_rank(hist, rank);
    let first = partition(1, rank, |r| at_rank(hist, r) < high);
    let last = partition(rank, n, |r| at_rank(hist, r) <= high) - 1;
    let floor = if first > 1 {
        at_rank(hist, first - 1) as f64
    } else {
        0.0
    };
    let low = (high as f64 * BUCKET_LOW).max(floor);
    let share = (rank - first + 1) as f64 / (last - first + 1) as f64;
    low + (high as f64 - low) * share
}

/// A latency distribution reduced to the figures the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples recorded.
    pub n: u64,
    /// Median, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// The highest supported quantile (see [`tail_quantile`]).
    pub tail_q: Option<f64>,
    /// The latency at `tail_q`, µs.
    pub tail_us: f64,
    /// Share of samples above 100 ms.
    pub stall_share: f64,
}

/// Latency above which a request counts as stalled: far beyond any
/// compute or queueing time these workloads have, and below the wire
/// reactor's 250 ms fallback park.
pub const STALL_NS: u64 = 100_000_000;

/// A latency histogram plus the stall count it cannot answer exactly.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    hist: LatencyHist,
    stalls: u64,
}

impl Latencies {
    /// Records one sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.hist.record(ns);
        if ns > STALL_NS {
            self.stalls += 1;
        }
    }

    /// Merges another thread's samples.
    pub fn merge(&mut self, other: &Self) {
        self.hist.merge(&other.hist);
        self.stalls += other.stalls;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Samples above `us` microseconds, to bucket precision.
    pub fn above(&self, us: f64) -> u64 {
        let n = self.hist.count();
        if n == 0 {
            return 0;
        }
        let ns = us * 1e3;
        n + 1 - partition(1, n, |r| (at_rank(&self.hist, r) as f64) <= ns)
    }

    /// The reported figures.
    pub fn summary(&self) -> Summary {
        let n = self.hist.count();
        let us = |q: f64| quantile(&self.hist, q) / 1e3;
        let tail_q = tail_quantile(n);
        Summary {
            n,
            p50_us: us(0.5),
            p90_us: us(0.9),
            p99_us: us(0.99),
            tail_q,
            tail_us: tail_q.map_or(0.0, us),
            stall_share: if n == 0 {
                0.0
            } else {
                self.stalls as f64 / n as f64
            },
        }
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // n = 1000: p99 is rank 990, ten samples beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000), Some(0.99));
        // One short and the p99 is a nine-sample tail: fall back to p90.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999), Some(0.9));
    }

    #[test]
    fn tail_is_the_highest_supported_rung() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        // Too few samples for even a median with ten beyond it.
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn reported_tail_has_ten_samples_beyond_it() {
        let mut lat = Latencies::default();
        // 2000 fast samples, then 30 slow ones: the p99 (rank 2010 of
        // 2030) has 20 beyond it, the p99.9 (rank 2028) only 2.
        for _ in 0..2000 {
            lat.record(10_000);
        }
        for _ in 0..30 {
            lat.record(200_000_000);
        }
        let s = lat.summary();
        assert_eq!(s.n, 2030);
        assert_eq!(s.tail_q, Some(0.99));
        assert!(s.p50_us <= 11.0);
        assert!((s.stall_share - 30.0 / 2030.0).abs() < 1e-12);
    }

    #[test]
    fn interpolation_stays_inside_the_reported_bucket() {
        let mut hist = LatencyHist::new();
        for i in 0..10_000u64 {
            hist.record(100_000 + 7 * i);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = (100_000 + 7 * (((q * 10_000.0) as u64) - 1)) as f64;
            let got = quantile(&hist, q);
            assert!(
                got <= hist.quantile(q) as f64,
                "q{q}: above the bucket bound"
            );
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q{q}: {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn interpolation_moves_inside_one_bucket() {
        // Every sample lands in one bucket: the bucket bound cannot tell
        // the median from the p99, the interpolation can.
        let mut hist = LatencyHist::new();
        for i in 0..1000u64 {
            hist.record(250_000_000 + i);
        }
        assert_eq!(hist.quantile(0.5), hist.quantile(0.99));
        assert!(quantile(&hist, 0.5) < quantile(&hist, 0.99));
        assert_eq!(quantile(&hist, 1.0), hist.quantile(1.0) as f64);
    }

    #[test]
    fn above_counts_the_tail() {
        let mut lat = Latencies::default();
        for i in 1..=1000u64 {
            lat.record(i * 1_000);
        }
        assert_eq!(lat.above(0.0), 1000);
        assert_eq!(lat.above(2_000.0), 0);
        // Exactly 100 lie above 900 us; the samples sharing 900 us's
        // bucket (33 us wide here) report its upper bound and count too.
        let tail = lat.above(900.0);
        assert!((100..=133).contains(&tail), "{tail}");
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
