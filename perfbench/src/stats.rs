//! The benchmark's own arithmetic: percentiles and the tail rule, span
//! self time, metric-name validity and SLO accounting. Kept free of any
//! runtime types so the unit tests below pin it down exactly.

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the tail may be taken at, in basis points (p99 = 9900).
const TAIL_LADDER_BP: [u32; 9] = [5000, 9000, 9500, 9800, 9900, 9950, 9990, 9995, 9999];

/// Nearest-rank index (1-based) of the `bp` basis-point percentile of `n`
/// samples: the smallest rank covering at least that share of them.
fn rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// Samples strictly beyond the `bp` percentile of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, bp: u32) -> usize {
    n.saturating_sub(rank(n, bp))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| samples_beyond(n, bp) >= TAIL_MIN_BEYOND)
}

/// The tail percentile a workload reports: its fixed `preferred` one
/// while that keeps [`TAIL_MIN_BEYOND`] samples beyond it, else the
/// highest ladder percentile that does. A fixed percentile keeps the
/// tail comparable across runs whose sample counts differ.
#[must_use]
pub fn tail_for(n: usize, preferred_bp: u32) -> Option<u32> {
    if samples_beyond(n, preferred_bp) >= TAIL_MIN_BEYOND {
        Some(preferred_bp)
    } else {
        tail_percentile(n)
    }
}

/// Nearest-rank percentile of `sorted` (ascending) at `bp` basis points.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp) - 1]
}

/// Median of unsorted values (nearest rank).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 5000)
}

/// Percentile of unsorted values, or 0 when there are none.
#[must_use]
pub fn percentile_or_zero(values: &[f64], bp: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, bp)
}

/// Median and tail latency read as medians over windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub p50: f64,
    pub tail: f64,
    /// Percentile the tail was taken at, in basis points.
    pub tail_bp: u32,
    /// Latency samples in the smallest window.
    pub min_samples: usize,
}

/// Split `outcomes` (in arrival order; `None` = no latency) into
/// `windows` contiguous, near-equal chunks, take each chunk's median and
/// tail, and return the medians of both across chunks. One stalled
/// stretch then moves one window's tail instead of the whole run's, so
/// repeated runs agree. The tail percentile is [`tail_for`] the smallest
/// chunk, so every window keeps ten samples beyond it.
#[must_use]
pub fn windowed(outcomes: &[Option<f64>], windows: usize, preferred_bp: u32) -> Option<Windowed> {
    let n = outcomes.len();
    let windows = windows.clamp(1, n.max(1));
    let chunks: Vec<Vec<f64>> = (0..windows)
        .map(|w| {
            let mut v: Vec<f64> = outcomes[w * n / windows..(w + 1) * n / windows]
                .iter()
                .flatten()
                .copied()
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    let min_samples = chunks.iter().map(Vec::len).min()?;
    let tail_bp = tail_for(min_samples, preferred_bp)?;
    let across = |bp: u32| median(&chunks.iter().map(|c| percentile(c, bp)).collect::<Vec<_>>());
    Some(Windowed {
        p50: across(5000),
        tail: across(tail_bp),
        tail_bp,
        min_samples,
    })
}

/// Self time of the span `[start, end)`: its duration minus the part of
/// it that the union of `children` covers. Children may overlap one
/// another (parallel branches) and may stick out of the parent (clock
/// reads on other threads); only the covered part inside the parent
/// counts, and only once.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Share of `outcomes` that met the latency limit. `None` is an
/// operation that produced no correct result in time — shed, failed
/// or wrong — and always counts as a miss.
#[must_use]
pub fn slo_met_frac(outcomes: &[Option<f64>], limit_ms: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let met = outcomes
        .iter()
        .filter(|o| o.is_some_and(|ms| ms <= limit_ms))
        .count();
    met as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(samples_beyond(1000, 9900), 10);
        assert_eq!(samples_beyond(1000, 9950), 5);
        assert_eq!(tail_percentile(1000), Some(9900));
        // 999 samples: p99 rank is ceil(989.01) = 990, 9 beyond: too few.
        assert_eq!(samples_beyond(999, 9900), 9);
        assert_eq!(tail_percentile(999), Some(9800));
        assert_eq!(tail_percentile(200), Some(9500));
        assert_eq!(tail_percentile(20), Some(5000));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(10_000), Some(9990));
        assert_eq!(tail_percentile(100_000), Some(9999));
        for n in 0..5000 {
            if let Some(bp) = tail_percentile(n) {
                assert!(samples_beyond(n, bp) >= TAIL_MIN_BEYOND, "n={n} bp={bp}");
            }
        }
    }

    #[test]
    fn fixed_tail_falls_back_only_when_too_few_beyond() {
        assert_eq!(tail_for(5000, 9900), Some(9900));
        assert_eq!(tail_for(500, 9900), Some(9800));
        assert_eq!(tail_for(400, 9900), Some(9500));
        assert_eq!(tail_for(5, 9900), None);
    }

    #[test]
    fn windowed_tail_is_robust_to_one_stalled_window() {
        // Three windows of 100 samples 1..=100; the last one stalled.
        let mut outcomes: Vec<Option<f64>> = Vec::new();
        for w in 0..3 {
            for i in 1..=100 {
                let stall = if w == 2 { 1000.0 } else { 0.0 };
                outcomes.push(Some(f64::from(i) + stall));
            }
        }
        let got = windowed(&outcomes, 3, 9000).unwrap();
        assert_eq!(got.tail_bp, 9000);
        assert_eq!(got.min_samples, 100);
        assert_eq!(got.p50, 50.0);
        assert_eq!(got.tail, 90.0);
        // Shed requests (None) leave a window too few samples for p90.
        outcomes[..80].iter_mut().for_each(|o| *o = None);
        let got = windowed(&outcomes, 3, 9000).unwrap();
        assert_eq!((got.tail_bp, got.min_samples), (5000, 20));
        let one = windowed(&outcomes[100..200], 1, 9000).unwrap();
        assert_eq!((one.p50, one.tail), (50.0, 90.0));
        assert_eq!(windowed(&[None; 4], 2, 9000), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 5000), 50.0);
        assert_eq!(percentile(&v, 9900), 99.0);
        assert_eq!(percentile(&v, 10_000), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile_or_zero(&[], 5000), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel branches [10, 60) and [20, 80) inside [0, 100):
        // their union covers 70, so 30 is the parent's own.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 80)]), 30);
        // Nested and duplicate children add nothing extra.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30), (10, 60)]), 50);
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_time(50, 100, &[(40, 70), (90, 120)]), 20);
        // Disjoint children, none, and zero-length ones.
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 100)]), 80);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(30, 30)]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (5, 6)]), 0);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "latency_p50_ms",
            "serve.shed_frac.high",
            "rt.join_self_ns",
            "serve-burst",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "lat(ms)",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn slo_counts_shed_as_miss() {
        // One fast, one slow, one shed, one exactly at the limit.
        let outcomes = [Some(1.0), Some(30.0), None, Some(10.0)];
        assert_eq!(slo_met_frac(&outcomes, 10.0), 0.5);
        // All shed: nothing met, even though no latency ran over.
        assert_eq!(slo_met_frac(&[None, None], 10.0), 0.0);
        assert_eq!(slo_met_frac(&[], 10.0), 0.0);
    }
}
