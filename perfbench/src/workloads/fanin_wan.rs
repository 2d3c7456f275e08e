//! `fanin_wan`: a fan-in over many small compressible buffers on a
//! store with a WAN-like round trip per op. Store round trips dominate
//! and compute is nearly zero, so pipelining, store concurrency and op
//! count show here; kernel and scheduler changes should not.

use super::{below, config_ini, rng, shape_facts};
use crate::closed::Closed;
use crate::json::J;
use cloud_storage::{LatencyStore, S3Store, StoreHandle};
use omp_model::prelude::*;
use omp_model::TargetRegion;
use ompcloud::CloudRuntime;
use std::sync::Arc;
use std::time::Duration;

/// `map(to)` buffers per region.
const BUFFERS: usize = 48;
/// Elements per input buffer (64 KiB of f32).
const LEN: usize = 16 * 1024;
/// Loop trip count = elements of the `map(from)` output.
const ITERS: usize = 256;
/// Period of the input pattern.
const PERIOD: usize = 17;
/// Injected round trip per store op.
const LATENCY_MS: u64 = 20;

/// The workload.
pub struct FaninWan {
    seed: u64,
    names: Arc<Vec<String>>,
    region: TargetRegion,
    expected: Vec<f32>,
}

impl FaninWan {
    /// Workload with inputs drawn from `seed`.
    pub fn new(seed: u64) -> FaninWan {
        let names: Arc<Vec<String>> = Arc::new((0..BUFFERS).map(|k| format!("x{k}")).collect());
        let mut b = TargetRegion::builder("fanin_wan").device(CloudRuntime::cloud_selector());
        for name in names.iter() {
            b = b.map_to(name.clone());
        }
        let body_names = Arc::clone(&names);
        let region = b
            .map_from("y")
            .parallel_for(ITERS, move |l| {
                l.partition("y", PartitionSpec::rows(1))
                    .body(move |i, ins, outs| {
                        let mut acc = 0.0f32;
                        for name in body_names.iter() {
                            acc += ins.view::<f32>(name)[i];
                        }
                        outs.view_mut::<f32>("y")[i] = acc;
                    })
            })
            .build()
            .expect("fanin_wan region is valid");
        FaninWan {
            seed,
            names,
            region,
            expected: Vec::new(),
        }
    }
}

impl Closed for FaninWan {
    fn ini(&self) -> String {
        config_ini("")
    }

    fn backing_store(&self) -> StoreHandle {
        Arc::new(LatencyStore::new(
            Arc::new(S3Store::standalone("perfbench")),
            Duration::from_millis(LATENCY_MS),
        ))
    }

    fn region(&self) -> &TargetRegion {
        &self.region
    }

    fn fresh_env(&mut self) -> DataEnv {
        let mut env = DataEnv::new();
        env.insert("y", vec![0.0f32; ITERS]);
        env
    }

    fn prepare(&mut self, env: &mut DataEnv, round: u64) {
        // Fresh patterned data every region: the seeded phase and scale
        // make it new, the period keeps it compressible. Buffers `k` and
        // `k + PERIOD` are byte-identical, as in a fan-in over replicas.
        let mut r = rng(self.seed, round);
        let phase = below(&mut r, 0, 1 << 16) as usize;
        let scale = below(&mut r, 1, 9) as f32 * 0.25;
        let mut acc = vec![0.0f32; ITERS];
        for (k, name) in self.names.iter().enumerate() {
            let x: Vec<f32> = (0..LEN)
                .map(|i| ((i + k + phase) % PERIOD) as f32 * scale)
                .collect();
            for (a, v) in acc.iter_mut().zip(&x) {
                *a += v;
            }
            env.insert(name.clone(), x);
        }
        env.insert("y", vec![0.0f32; ITERS]);
        self.expected = acc;
    }

    fn check(&mut self, env: &DataEnv, round: u64) -> Result<(), String> {
        let y = env.get::<f32>("y").map_err(|e| e.to_string())?;
        if y.iter()
            .map(|v| v.to_bits())
            .ne(self.expected.iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "fanin_wan region {round}: y differs from the host reference"
            ));
        }
        Ok(())
    }

    fn codec_inputs(&self) -> Vec<String> {
        self.names.to_vec()
    }

    fn facts(&self) -> Vec<(String, J)> {
        let mut f = shape_facts();
        f.extend([
            ("seed".into(), J::Int(self.seed)),
            ("loop".into(), J::Str("closed, 1 client".into())),
            ("buffers".into(), J::Int(BUFFERS as u64)),
            ("buffer_bytes".into(), J::Int((LEN * 4) as u64)),
            ("store_latency_ms".into(), J::Int(LATENCY_MS)),
        ]);
        f
    }
}
