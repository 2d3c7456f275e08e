//! Metric names, units, and the result line.

use crate::json::J;
use std::collections::HashMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("region_p50_s", "s"),
    ("region_tail_s", "s"),
    ("regions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// Per-region figures are means over the traced regions. A layer a
/// workload bypasses, or cannot be observed on it, reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("storage.ops_per_region", "count"),
    ("storage.bytes_per_region", "bytes"),
    ("storage.put_ops", "count"),
    ("storage.get_ops", "count"),
    ("storage.meta_ops", "count"),
    ("storage.failed_ops", "count"),
    ("storage.put_bytes", "bytes"),
    ("storage.get_bytes", "bytes"),
    ("storage.op_p50_s", "s"),
    ("storage.max_inflight", "count"),
    ("storage.union_s", "s"),
    ("storage.host_upload_s", "s"),
    ("storage.driver_fetch_s", "s"),
    ("storage.output_write_s", "s"),
    ("storage.host_download_s", "s"),
    ("storage.commit_s", "s"),
    ("storage.other_s", "s"),
    ("compress.ratio", "ratio"),
    ("compress.encode_mb_s", "MB/s"),
    ("compress.decode_mb_s", "MB/s"),
    ("compress.raw_share", "ratio"),
    ("kernels.iterations", "count"),
    ("kernels.busy_s", "s"),
    ("kernels.union_s", "s"),
    ("kernels.max_concurrency", "count"),
    ("kernels.host_seq_s", "s"),
    ("core.self_s", "s"),
    ("core.host_comm_s", "s"),
    ("core.overhead_s", "s"),
    ("core.compute_s", "s"),
    ("core.overlap_s", "s"),
    ("core.compress_busy_s", "s"),
    ("core.store_busy_s", "s"),
    ("core.wire_bytes_to", "bytes"),
    ("core.wire_bytes_from", "bytes"),
    ("core.attribution_gap_s", "s"),
    ("core.mapopt.planned_upload_bytes", "bytes"),
    ("core.mapopt.elided", "count"),
    ("core.mapopt.delta_rounds", "count"),
    ("core.mapopt.dirty_tiles", "count"),
    ("core.mapopt.bytes_saved_ratio", "ratio"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.service.queue_depth_max", "count"),
    ("core.service.drain_batch_mean", "count"),
    ("core.service.host_fallbacks", "count"),
    ("sparkle.tasks", "count"),
    ("sparkle.job_wall_s", "s"),
    ("sparkle.steals", "count"),
    ("sparkle.spec_launched", "count"),
    ("sparkle.spec_useful_ratio", "ratio"),
    ("sparkle.failed_attempts", "count"),
    ("omp.admission.submit_p50_s", "s"),
    ("omp.admission.rejected_queue_full", "count"),
    ("omp.admission.rejected_quota", "count"),
    ("omp.admission.rejected_degraded", "count"),
    ("generator.lag_tail_s", "s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("region.wall_s", "s"),
    ("region.overlap_s", "s"),
    ("region.identity_residual_s", "s"),
    ("region.samples", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Regions the measured phase attempted.
    pub attempted: u64,
    /// Of those: errors, host fallbacks and admission rejections.
    pub failed: u64,
    /// Metric values by name.
    pub values: HashMap<&'static str, f64>,
    /// Context printed on the line before the result: sample counts,
    /// tail percentiles, the environment fingerprint.
    pub detail: Vec<(String, J)>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a detail entry.
    pub fn note(&mut self, key: &str, value: J) {
        self.detail.push((key.to_string(), value));
    }

    /// The result line for `metrics` (every name must have a value).
    pub fn result_line(&self, metrics: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = Vec::with_capacity(metrics.len());
        for &(name, unit) in metrics {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((
                name,
                J::obj([("value", J::Num(value)), ("unit", J::Str(unit.into()))]),
            ));
        }
        Ok(J::obj([
            ("correct", J::Bool(true)),
            ("attempted", J::Int(self.attempted)),
            ("failed", J::Int(self.failed)),
            ("metrics", J::obj(out)),
        ])
        .line())
    }
}
