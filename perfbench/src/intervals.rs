//! Interval arithmetic over span times (nanoseconds): unions, peak
//! concurrency and the wall-time decomposition of one region.

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Sort and merge overlapping or touching intervals; empty ones vanish.
pub fn merge(intervals: &[Interval]) -> Vec<Interval> {
    let mut v: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Time covered by at least one interval.
pub fn union_len(intervals: &[Interval]) -> u64 {
    merge(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Intersect every interval with `window`, dropping those outside it.
pub fn clip(intervals: &[Interval], window: Interval) -> Vec<Interval> {
    intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| e > s)
        .collect()
}

/// Largest number of intervals open at one instant. An interval ending
/// exactly where another starts does not overlap it.
pub fn max_concurrency(intervals: &[Interval]) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals.iter().filter(|(s, e)| e > s) {
        edges.push((s, 1));
        edges.push((e, -1));
    }
    // Ends sort before starts at equal times.
    edges.sort_unstable();
    let (mut open, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        open += d;
        peak = peak.max(open);
    }
    peak as usize
}

/// How one region's wall time splits between the layers observed from
/// outside. `storage + kernels - overlap + self_ns == wall` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decomposition {
    /// Region wall time.
    pub wall: u64,
    /// Time covered by at least one store op.
    pub storage: u64,
    /// Time covered by at least one kernel body.
    pub kernels: u64,
    /// Time covered by both a store op and a kernel body.
    pub overlap: u64,
    /// Wall time covered by neither: the residual the core layer owns.
    pub self_ns: u64,
}

/// Decompose the region `window` given its store-op and kernel spans
/// (clipped to the window first).
pub fn decompose(window: Interval, storage: &[Interval], kernels: &[Interval]) -> Decomposition {
    let storage = clip(storage, window);
    let kernels = clip(kernels, window);
    let s = union_len(&storage);
    let k = union_len(&kernels);
    let both: Vec<Interval> = storage.iter().chain(&kernels).copied().collect();
    let covered = union_len(&both);
    let wall = window.1.saturating_sub(window.0);
    Decomposition {
        wall,
        storage: s,
        kernels: k,
        overlap: s + k - covered,
        self_ns: wall - covered,
    }
}
