//! `gemm_dense`: PolyBench GEMM on the paper's dense input class over a
//! zero-latency store. Compute and the CPU side of the runtime dominate
//! (scatter/broadcast, tiling, codec work on incompressible data,
//! reconstruction); storage and pipelining changes should not move it.

use super::{config_ini, rng, shape_facts};
use crate::closed::Closed;
use crate::json::J;
use cloud_storage::{S3Store, StoreHandle};
use omp_model::{DataEnv, TargetRegion};
use ompcloud::CloudRuntime;
use ompcloud_kernels::{assert_close, gemm, DataKind};
use std::sync::Arc;

/// Matrix order.
const N: usize = 384;
/// Absolute tolerance against the handwritten sequential reference.
const TOLERANCE: f32 = 1e-3;

/// The workload.
pub struct GemmDense {
    seed: u64,
    region: TargetRegion,
    inputs: Option<(Vec<f32>, Vec<f32>, Vec<f32>)>,
}

impl GemmDense {
    /// Workload with inputs drawn from `seed`.
    pub fn new(seed: u64) -> GemmDense {
        GemmDense {
            seed,
            region: gemm::region(N, CloudRuntime::cloud_selector()),
            inputs: None,
        }
    }
}

impl Closed for GemmDense {
    fn ini(&self) -> String {
        config_ini("")
    }

    fn backing_store(&self) -> StoreHandle {
        Arc::new(S3Store::standalone("perfbench"))
    }

    fn region(&self) -> &TargetRegion {
        &self.region
    }

    fn fresh_env(&mut self) -> DataEnv {
        DataEnv::new()
    }

    fn prepare(&mut self, env: &mut DataEnv, round: u64) {
        *env = gemm::env(N, DataKind::Dense, rng(self.seed, round).next_u64());
        let get = |v: &str| env.get::<f32>(v).expect("gemm env holds A, B, C").to_vec();
        self.inputs = Some((get("A"), get("B"), get("C")));
    }

    fn check(&mut self, env: &DataEnv, round: u64) -> Result<(), String> {
        let (a, b, mut c) = self
            .inputs
            .take()
            .ok_or("gemm_dense: check without inputs")?;
        gemm::sequential(N, &a, &b, &mut c);
        let out = env.get::<f32>("C").map_err(|e| e.to_string())?;
        let what = format!("gemm_dense region {round}: C");
        std::panic::catch_unwind(|| assert_close(out, &c, TOLERANCE, &what)).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| format!("{what} differs from the host reference"))
        })
    }

    fn codec_inputs(&self) -> Vec<String> {
        ["A", "B", "C"].map(String::from).to_vec()
    }

    fn facts(&self) -> Vec<(String, J)> {
        let mut f = shape_facts();
        f.extend([
            ("seed".into(), J::Int(self.seed)),
            ("loop".into(), J::Str("closed, 1 client".into())),
            ("n".into(), J::Int(N as u64)),
            ("data".into(), J::Str("dense".into())),
            ("store_latency_ms".into(), J::Int(0)),
        ]);
        f
    }
}
