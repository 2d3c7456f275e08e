//! `iter_sparse`: one region re-run round after round on one host
//! environment, with about a tenth of the large input's tiles dirtied
//! between rounds, byte-identical weight twins, an `alloc`-only scratch
//! and a full-size `tofrom` output. The only workload where the map
//! optimizer (dedupe, elision, dirty-tile deltas) and the upload cache
//! have anything to reuse; upload-light and download-heavy.

use super::{below, config_ini, rng, shape_facts};
use crate::closed::Closed;
use crate::json::J;
use cloud_storage::{LatencyStore, S3Store, StoreHandle};
use omp_model::prelude::*;
use omp_model::TargetRegion;
use ompcloud::CloudRuntime;
use std::sync::Arc;
use std::time::Duration;

/// Elements of the large input `x` and the output `y` (4 MiB of f32).
const LEN: usize = 1024 * 1024;
/// Elements of each weight twin `a`, `b` (64 KiB of f32).
const W: usize = 16 * 1024;
/// Loop trip count; iteration `i` owns `BLOCK` elements of `x` and `y`.
const ITERS: usize = 256;
const BLOCK: usize = LEN / ITERS;
/// Delta-ledger tile size (the `delta-tile-bytes` default), in elements.
const TILE: usize = 64 * 1024 / 4;
const TILES: usize = LEN / TILE;
/// Tiles of `x` dirtied before each round after the first.
const DIRTY: usize = 6;
/// Elements bumped inside each dirtied tile.
const BUMPS: usize = 64;
/// Store round trip and bandwidth cap.
const LATENCY_MS: u64 = 20;
const BANDWIDTH_MB_S: f64 = 12.0;

/// The workload.
pub struct IterSparse {
    seed: u64,
    region: TargetRegion,
    expected: Vec<f32>,
}

/// The per-iteration bias, computed exactly as the kernel does.
fn bias(a: &[f32], b: &[f32], i: usize) -> f32 {
    a[i % W] + b[(i * 7) % W]
}

impl IterSparse {
    /// Workload with inputs drawn from `seed`.
    pub fn new(seed: u64) -> IterSparse {
        let region = TargetRegion::builder("iter_sparse")
            .device(CloudRuntime::cloud_selector())
            .map_to("x")
            .map_to("a")
            .map_to("b")
            .map_alloc("tmp")
            .map_tofrom("y")
            .parallel_for(ITERS, |l| {
                l.partition("x", PartitionSpec::rows(BLOCK))
                    .partition("y", PartitionSpec::rows(BLOCK))
                    .body(|i, ins, outs| {
                        let a = ins.view::<f32>("a");
                        let b = ins.view::<f32>("b");
                        {
                            let mut tmp = outs.view_mut::<f32>("tmp");
                            tmp[i] = bias(a.local(), b.local(), i);
                        }
                        let staged = outs.view_mut::<f32>("tmp")[i];
                        let x = ins.view::<f32>("x");
                        let y_in = ins.view::<f32>("y");
                        let mut y = outs.view_mut::<f32>("y");
                        for j in i * BLOCK..(i + 1) * BLOCK {
                            y[j] = y_in[j].max(x[j] + staged);
                        }
                    })
            })
            .build()
            .expect("iter_sparse region is valid");
        IterSparse {
            seed,
            region,
            expected: Vec::new(),
        }
    }
}

impl Closed for IterSparse {
    fn ini(&self) -> String {
        config_ini("[offload]\ndelta-transfers = yes\n")
    }

    fn backing_store(&self) -> StoreHandle {
        Arc::new(
            LatencyStore::new(
                Arc::new(S3Store::standalone("perfbench")),
                Duration::from_millis(LATENCY_MS),
            )
            .with_bandwidth(BANDWIDTH_MB_S * 1e6),
        )
    }

    fn region(&self) -> &TargetRegion {
        &self.region
    }

    fn fresh_env(&mut self) -> DataEnv {
        let mut r = rng(self.seed, u64::MAX);
        let phase = below(&mut r, 0, 251) as usize;
        let mut env = DataEnv::new();
        env.insert(
            "x",
            (0..LEN)
                .map(|i| ((i * 37 + phase) % 251) as f32 * 0.125)
                .collect::<Vec<f32>>(),
        );
        // Byte-identical twins: the optimizer ships one of them.
        let w: Vec<f32> = (0..W).map(|k| ((k + phase) % 13) as f32 * 0.5).collect();
        env.insert("a", w.clone());
        env.insert("b", w);
        env.insert("tmp", vec![0.0f32; ITERS]);
        env.insert("y", vec![0.0f32; LEN]);
        env
    }

    fn prepare(&mut self, env: &mut DataEnv, round: u64) {
        if round > 0 {
            let mut r = rng(self.seed, round);
            let x = env.get_mut::<f32>("x").expect("x is mapped");
            let mut tiles: Vec<usize> = Vec::with_capacity(DIRTY);
            while tiles.len() < DIRTY {
                let t = below(&mut r, 0, TILES as u64) as usize;
                if !tiles.contains(&t) {
                    tiles.push(t);
                }
            }
            for t in tiles {
                for _ in 0..BUMPS {
                    let e = t * TILE + below(&mut r, 0, TILE as u64) as usize;
                    x[e] += below(&mut r, 1, 5) as f32;
                }
            }
        }
        let get = |v: &str| env.get::<f32>(v).expect("iter_sparse env is complete");
        let (x, a, b, y) = (get("x"), get("a"), get("b"), get("y"));
        self.expected = (0..LEN)
            .map(|j| y[j].max(x[j] + bias(a, b, j / BLOCK)))
            .collect();
    }

    fn check(&mut self, env: &DataEnv, round: u64) -> Result<(), String> {
        let y = env.get::<f32>("y").map_err(|e| e.to_string())?;
        if y.iter()
            .map(|v| v.to_bits())
            .ne(self.expected.iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "iter_sparse round {round}: y differs from the host reference"
            ));
        }
        Ok(())
    }

    fn codec_inputs(&self) -> Vec<String> {
        ["x", "a", "b", "y"].map(String::from).to_vec()
    }

    fn facts(&self) -> Vec<(String, J)> {
        let mut f = shape_facts();
        f.extend([
            ("seed".into(), J::Int(self.seed)),
            (
                "loop".into(),
                J::Str("closed, 1 client, rounds on one env".into()),
            ),
            ("input_bytes".into(), J::Int((LEN * 4) as u64)),
            ("dirty_tiles_per_round".into(), J::Int(DIRTY as u64)),
            ("tiles".into(), J::Int(TILES as u64)),
            ("store_latency_ms".into(), J::Int(LATENCY_MS)),
            ("store_bandwidth_mb_s".into(), J::Num(BANDWIDTH_MB_S)),
        ]);
        f
    }
}
