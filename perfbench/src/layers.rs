//! The per-layer view built from spans: for each timed window (one
//! region, or one `drain` call), how its wall time splits between store
//! ops, kernel bodies and the core residual.

use crate::intervals::{decompose, max_concurrency, union_len, Interval};
use crate::phase::Phase;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Span;
use std::collections::HashMap;

/// A window whose children are decomposed: the span that encloses them.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Id of the enclosing span (children name it as `parent`).
    pub span_id: u64,
    /// Its `[start, end)` in tracer nanoseconds.
    pub interval: Interval,
}

/// Sums over every window.
#[derive(Debug, Clone, Default)]
pub struct LayerSums {
    /// Windows decomposed.
    pub windows: usize,
    /// Σ window wall time, ns.
    pub wall_ns: u64,
    /// Σ store-op union, ns.
    pub storage_ns: u64,
    /// Σ kernel-body union, ns.
    pub kernels_ns: u64,
    /// Σ store ∩ kernel time, ns.
    pub overlap_ns: u64,
    /// Σ residual (neither store nor kernel), ns.
    pub self_ns: u64,
    /// Σ store-op union per phase, ns.
    pub phase_ns: HashMap<Phase, u64>,
    /// Duration of every store op, ns.
    pub op_ns: Vec<u64>,
    /// Most store ops in flight at once in any window.
    pub max_inflight: usize,
    /// Kernel-body calls.
    pub iterations: u64,
    /// Σ kernel-body durations, ns.
    pub busy_ns: u64,
    /// Most kernel bodies running at once in any window.
    pub max_concurrency: usize,
}

impl LayerSums {
    /// `storage + kernels - overlap + self - wall`, which is zero by
    /// construction; reported so a reader can see the identity hold.
    pub fn identity_residual_ns(&self) -> i128 {
        self.storage_ns as i128 + self.kernels_ns as i128 - self.overlap_ns as i128
            + self.self_ns as i128
            - self.wall_ns as i128
    }

    /// Write the span-derived metrics as means over `regions` regions.
    pub fn report(&self, out: &mut Outcome, regions: f64) {
        let s = |ns: u64| ns as f64 / 1e9 / regions;
        out.set("region.samples", regions);
        out.set("region.wall_s", s(self.wall_ns));
        out.set("region.overlap_s", s(self.overlap_ns));
        out.set("core.self_s", s(self.self_ns));
        out.set(
            "region.identity_residual_s",
            self.identity_residual_ns() as f64 / 1e9 / regions,
        );
        out.set("storage.union_s", s(self.storage_ns));
        for phase in Phase::ALL {
            let name = match phase {
                Phase::HostUpload => "storage.host_upload_s",
                Phase::DriverFetch => "storage.driver_fetch_s",
                Phase::OutputWrite => "storage.output_write_s",
                Phase::HostDownload => "storage.host_download_s",
                Phase::Commit => "storage.commit_s",
                Phase::Other => "storage.other_s",
            };
            out.set(name, s(self.phase_ns.get(&phase).copied().unwrap_or(0)));
        }
        let op_s: Vec<f64> = self.op_ns.iter().map(|&x| x as f64 / 1e9).collect();
        out.set("storage.op_p50_s", median(&op_s).unwrap_or(0.0));
        out.set("storage.max_inflight", self.max_inflight as f64);
        out.set("kernels.union_s", s(self.kernels_ns));
        out.set("kernels.iterations", self.iterations as f64 / regions);
        out.set("kernels.busy_s", s(self.busy_ns));
        out.set("kernels.max_concurrency", self.max_concurrency as f64);
    }
}

/// Decompose every window from the spans that name it as parent.
pub fn sum_windows(spans: &[Span], windows: &[Window]) -> LayerSums {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut sums = LayerSums::default();
    for w in windows {
        let kids = children.get(&w.span_id).map(Vec::as_slice).unwrap_or(&[]);
        let store: Vec<&Span> = kids
            .iter()
            .copied()
            .filter(|s| s.layer == "storage")
            .collect();
        let kern: Vec<Interval> = kids
            .iter()
            .filter(|s| s.layer == "kernels")
            .map(|s| s.interval())
            .collect();
        let store_iv: Vec<Interval> = store.iter().map(|s| s.interval()).collect();
        let d = decompose(w.interval, &store_iv, &kern);
        sums.windows += 1;
        sums.wall_ns += d.wall;
        sums.storage_ns += d.storage;
        sums.kernels_ns += d.kernels;
        sums.overlap_ns += d.overlap;
        sums.self_ns += d.self_ns;
        for phase in Phase::ALL {
            let iv: Vec<Interval> = store
                .iter()
                .filter(|s| s.phase == phase.name())
                .map(|s| s.interval())
                .collect();
            *sums.phase_ns.entry(phase).or_default() += union_len(&iv);
        }
        sums.op_ns.extend(store.iter().map(|s| s.len_ns()));
        sums.max_inflight = sums.max_inflight.max(max_concurrency(&store_iv));
        sums.iterations += kern.len() as u64;
        sums.busy_ns += kern.iter().map(|(s, e)| e - s).sum::<u64>();
        sums.max_concurrency = sums.max_concurrency.max(max_concurrency(&kern));
    }
    sums
}
