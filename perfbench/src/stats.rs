//! Order statistics over timing samples.

/// Percentiles the tail rule may pick, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// A tail latency together with the percentile it was read at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0` for p90; `100.0` when too few samples
    /// exist for any ladder percentile and the maximum is reported.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, read by nearest rank. With
/// fewer than `2 * TAIL_MIN_BEYOND` samples no ladder step qualifies and
/// the maximum is reported as p100. `None` for an empty slice.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let mut best = Tail {
        pct: 100.0,
        value: s[n - 1],
        beyond: 0,
        samples: n,
    };
    for &pct in &TAIL_LADDER {
        let rank = nearest_rank(pct, n);
        let beyond = n - rank;
        if beyond >= TAIL_MIN_BEYOND {
            best = Tail {
                pct,
                value: s[rank - 1],
                beyond,
                samples: n,
            };
        }
    }
    Some(best)
}

/// 1-based nearest-rank index of percentile `pct` among `n` samples.
pub fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
