//! The four workloads. Each derives every input from its seed and
//! builds its configuration from INI text with every feature switch at
//! its default, except where the workload says otherwise.

pub mod fanin_wan;
pub mod gemm_dense;
pub mod iter_sparse;
pub mod tenant_mix;

use crate::json::J;
use cloudsim::SplitMix64;

/// Executors of the in-process cluster: one per CPU, capped so a large
/// machine does not spawn a large cluster.
pub fn workers() -> usize {
    crate::sys::nproc().clamp(1, 8)
}

/// The cluster shape every workload shares, plus `extra` INI sections.
/// Unknown keys are ignored by the parser, so a retired knob leaves the
/// text valid.
pub fn config_ini(extra: &str) -> String {
    format!(
        "[cloud]\nprovider = aws\nspark-driver = spark://localhost:7077\n\
         storage = s3://perfbench/jobs\n\n\
         [cluster]\nworkers = {}\nvcpus-per-worker = 2\ntask-cpus = 2\n\n{extra}",
        workers()
    )
}

/// Cluster-shape facts for the fingerprint.
pub fn shape_facts() -> Vec<(String, J)> {
    vec![
        ("workers".into(), J::Int(workers() as u64)),
        ("vcpus_per_worker".into(), J::Int(2)),
        ("task_cpus".into(), J::Int(2)),
    ]
}

/// An independent generator for `(seed, stream)`.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    SplitMix64::new(mix.next_u64())
}

/// Uniform integer in `lo..hi`.
pub fn below(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}
