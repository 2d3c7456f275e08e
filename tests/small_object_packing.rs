//! Small-object packing on the region input stage: small `map(to)`
//! buffers share packed store objects, so a fan-in pays one put and one
//! get per pack instead of one of each per buffer. The rule depends on
//! buffer sizes only — members of at most 256 KiB, grouped in request
//! order into packs of at most 256 KiB, a group of one sent plain — and
//! everything the region computes stays bitwise identical.

use ompcloud_suite::cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, ObjectStore, OpFilter, S3Store,
    StorageError, StoreHandle, Trigger,
};
use ompcloud_suite::kernels::{self, BenchId, DataKind};
use ompcloud_suite::omp_model::FallbackReason;
use ompcloud_suite::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// An in-memory store that records the key of every put and get.
struct Recording {
    inner: S3Store,
    puts: Mutex<Vec<String>>,
    gets: Mutex<Vec<String>>,
}

impl Recording {
    fn new(bucket: &str) -> Arc<Recording> {
        Arc::new(Recording {
            inner: S3Store::standalone(bucket),
            puts: Mutex::new(Vec::new()),
            gets: Mutex::new(Vec::new()),
        })
    }

    /// Drain the recorded `(puts, gets)` keys.
    fn take(&self) -> (Vec<String>, Vec<String>) {
        (
            std::mem::take(&mut *self.puts.lock().unwrap()),
            std::mem::take(&mut *self.gets.lock().unwrap()),
        )
    }
}

impl ObjectStore for Recording {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        self.puts.lock().unwrap().push(key.to_string());
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.gets.lock().unwrap().push(key.to_string());
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn size(&self, key: &str) -> Option<u64> {
        self.inner.size(key)
    }
    fn checksum(&self, key: &str) -> Option<u32> {
        self.inner.checksum(key)
    }
    fn kind(&self) -> &'static str {
        "recording"
    }
}

fn config() -> CloudConfig {
    CloudConfig {
        workers: 2,
        vcpus_per_worker: 2,
        task_cpus: 2,
        ..CloudConfig::default()
    }
}

/// `y[i] = sum_k x_k[i]` over the named `map(to)` inputs.
fn fan_in_region(inputs: &[String], n: usize) -> TargetRegion {
    let mut builder = TargetRegion::builder("packed_fan_in").device(CloudRuntime::cloud_selector());
    for name in inputs {
        builder = builder.map_to(name.clone());
    }
    let names = inputs.to_vec();
    builder
        .map_from("y")
        .parallel_for(n, move |l| {
            l.partition("y", PartitionSpec::rows(1))
                .body(move |i, ins, outs| {
                    let mut acc = 0.0f32;
                    for name in &names {
                        acc += ins.view::<f32>(name)[i];
                    }
                    outs.view_mut::<f32>("y")[i] = acc;
                })
        })
        .build()
        .unwrap()
}

/// Distinct, compressible inputs of `lens[k]` elements each (so the map
/// optimizer dedupes none of them), the host-computed expected `y`, and
/// the input names.
fn fan_in_env(lens: &[usize], n: usize, bump: f32) -> (DataEnv, Vec<f32>, Vec<String>) {
    let mut env = DataEnv::new();
    let mut expected = vec![0.0f32; n];
    let mut names = Vec::new();
    for (k, &len) in lens.iter().enumerate() {
        let x: Vec<f32> = (0..len)
            .map(|i| ((i * 7 + k * 13) % 29) as f32 + k as f32 * 0.5 + bump)
            .collect();
        for (e, v) in expected.iter_mut().zip(&x) {
            *e += v;
        }
        let name = format!("x{k:02}");
        env.insert(name.clone(), x);
        names.push(name);
    }
    env.insert("y", vec![0.0f32; n]);
    (env, expected, names)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn is_pack(key: &str) -> bool {
    key.rsplit('/')
        .next()
        .is_some_and(|leaf| leaf.contains(".pack"))
}

const KIB_F32: usize = 256; // f32 elements per KiB

#[test]
fn fan_in_over_twenty_small_inputs_costs_one_round_trip_per_pack() {
    // 20 x 64 KiB: five packs of four. Five input puts, five input gets,
    // plus the output's one of each.
    let store = Arc::new(LatencyStore::new(
        Arc::new(S3Store::standalone("packing-a")),
        Duration::from_millis(2),
    ));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(config(), store.clone()));
    let n = 128;
    let (mut env, expected, names) = fan_in_env(&[64 * KIB_F32; 20], n, 0.0);
    let profile = runtime
        .offload(&fan_in_region(&names, n), &mut env)
        .unwrap();
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    assert_eq!(bits(env.get::<f32>("y").unwrap()), bits(&expected));

    assert_eq!(store.put_count(), 5 + 1, "five packs plus the output");
    assert_eq!(store.get_count(), 5 + 1, "each pack fetched once");
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.upload.items.len(), 20, "one report item per buffer");
    assert_eq!(report.upload_objects, 5);
    assert_eq!(
        report.profile.bytes_to_device,
        report.map_plan.upload_bytes(),
        "packing changes objects, not the bytes the plan moves"
    );
    assert!(
        profile
            .notes
            .iter()
            .any(|n| n.contains("packed 20 inputs into 5 objects")),
        "{:?}",
        profile.notes
    );
    runtime.shutdown();
}

#[test]
fn large_input_goes_plain_and_small_ones_share_a_pack() {
    let store = Recording::new("packing-b");
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        config(),
        store.clone() as StoreHandle,
    ));
    let n = 64;
    // 300 KiB is above the 256 KiB member cap; two 4 KiB inputs around it.
    let (mut env, expected, names) = fan_in_env(&[4 * KIB_F32, 300 * KIB_F32, 4 * KIB_F32], n, 0.0);
    runtime
        .offload(&fan_in_region(&names, n), &mut env)
        .unwrap();
    assert_eq!(bits(env.get::<f32>("y").unwrap()), bits(&expected));

    let (puts, gets) = store.take();
    let input_puts: Vec<&String> = puts.iter().filter(|k| k.contains("/in/")).collect();
    assert_eq!(input_puts.len(), 2, "{puts:?}");
    assert!(
        input_puts.iter().any(|k| k.ends_with("/in/x01")),
        "the large input is its own object: {puts:?}"
    );
    let packs: Vec<&&String> = input_puts.iter().filter(|k| is_pack(k)).collect();
    assert_eq!(packs.len(), 1, "{puts:?}");
    assert!(
        !puts
            .iter()
            .any(|k| k.ends_with("/in/x00") || k.ends_with("/in/x02")),
        "the small inputs travel only inside the pack: {puts:?}"
    );
    assert_eq!(gets.iter().filter(|k| is_pack(k)).count(), 1, "{gets:?}");
    runtime.shutdown();
}

#[test]
fn mutating_one_packed_member_costs_exactly_one_extra_put() {
    let store = Recording::new("packing-c");
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        CloudConfig {
            data_caching: true,
            ..config()
        },
        store.clone() as StoreHandle,
    ));
    let n = 64;
    let lens = [2 * KIB_F32; 4];
    let (_, _, names) = fan_in_env(&lens, n, 0.0);
    let region = fan_in_region(&names, n);

    // Round 1 stages the four inputs as one pack.
    let (mut env, _, _) = fan_in_env(&lens, n, 0.0);
    runtime.offload(&region, &mut env).unwrap();
    let (puts, _) = store.take();
    let pack = puts
        .iter()
        .find(|k| is_pack(k))
        .expect("round 1 packs its inputs")
        .clone();

    // Round 2, unchanged: every input is a cache hit read from the pack.
    let (mut env, _, _) = fan_in_env(&lens, n, 0.0);
    runtime.offload(&region, &mut env).unwrap();
    let (unchanged_puts, gets) = store.take();
    assert_eq!(
        gets.iter().filter(|k| **k == pack).count(),
        1,
        "the pack is fetched once for all four hits: {gets:?}"
    );

    // Round 3: mutate x02 only. One more put (x02, as a plain object: a
    // pack of one), and the untouched members come from the old pack.
    let (mut env, _, _) = fan_in_env(&lens, n, 0.0);
    let x2: Vec<f32> = env
        .get::<f32>("x02")
        .unwrap()
        .iter()
        .map(|v| v + 3.0)
        .collect();
    env.insert("x02", x2);
    runtime.offload(&region, &mut env).unwrap();
    let (puts, gets) = store.take();
    assert_eq!(puts.len(), unchanged_puts.len() + 1, "{puts:?}");
    assert!(puts.iter().any(|k| k.ends_with("/in/x02")), "{puts:?}");
    assert_eq!(
        gets.iter().filter(|k| **k == pack).count(),
        1,
        "untouched members are served from their old pack: {gets:?}"
    );
    // The host reference, from the mutated environment.
    let y = env.get::<f32>("y").unwrap().to_vec();
    let mut reference = vec![0.0f32; n];
    for name in &names {
        for (r, v) in reference.iter_mut().zip(env.get::<f32>(name).unwrap()) {
            *r += v;
        }
    }
    assert_eq!(bits(&y), bits(&reference));
    runtime.shutdown();
}

#[test]
fn cached_twins_share_one_packed_member() {
    // `x01` is a byte-identical twin of `x00`: the map optimizer ships
    // `x00` once (packed with `x02`) and the upload cache records both
    // names against `x00`'s key. On the unchanged rerun both names hit
    // that one key; the pack is fetched once and both get their bytes.
    let store = Recording::new("packing-twins");
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        CloudConfig {
            data_caching: true,
            ..config()
        },
        store.clone() as StoreHandle,
    ));
    let n = 64;
    let (_, _, names) = fan_in_env(&[KIB_F32; 3], n, 0.0);
    let region = fan_in_region(&names, n);
    let twin_env = || {
        let (mut env, _, _) = fan_in_env(&[KIB_F32; 3], n, 0.0);
        let x0 = env.get::<f32>("x00").unwrap().to_vec();
        env.insert("x01", x0);
        env
    };
    for round in 0..2 {
        let mut env = twin_env();
        let profile = runtime.offload(&region, &mut env).unwrap();
        assert!(profile.fallback_from.is_none(), "round {round}");
        let mut reference = vec![0.0f32; n];
        for name in &names {
            for (r, v) in reference.iter_mut().zip(env.get::<f32>(name).unwrap()) {
                *r += v;
            }
        }
        assert_eq!(bits(env.get::<f32>("y").unwrap()), bits(&reference));
    }
    let (_, gets) = store.take();
    let pack_gets: Vec<&String> = gets.iter().filter(|k| is_pack(k)).collect();
    assert_eq!(pack_gets.len(), 2, "one pack get per round: {gets:?}");
    assert_eq!(pack_gets[0], pack_gets[1], "round 2 reads round 1's pack");
    runtime.shutdown();
}

#[test]
fn in_flight_pack_corruption_heals_by_refetch() {
    let plan = FaultPlan::new(13).rule(
        FaultRule::new(OpFilter::Get, Trigger::OpIndex(0), FaultKind::Corrupt).on_keys(".pack"),
    );
    let chaos = Arc::new(ChaosStore::new(
        Arc::new(S3Store::standalone("packing-d")),
        plan,
    ));
    let runtime = CloudRuntime::with_device(CloudDevice::with_store(
        CloudConfig {
            backoff_base_ms: 0,
            ..config()
        },
        chaos.clone() as StoreHandle,
    ));
    let n = 64;
    let (mut env, expected, names) = fan_in_env(&[8 * KIB_F32; 6], n, 1.0);
    let profile = runtime
        .offload(&fan_in_region(&names, n), &mut env)
        .unwrap();
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    assert_eq!(bits(env.get::<f32>("y").unwrap()), bits(&expected));
    assert_eq!(chaos.stats().corruptions, 1, "the fault really fired");
    let report = runtime.cloud().last_report().unwrap();
    assert_eq!(report.upload_objects, 1);
    assert_eq!(
        report.resilience.corruption_refetches, 1,
        "one re-get of the pack heals all six members"
    );
    runtime.shutdown();
}

#[test]
fn checkpointed_region_with_packed_inputs_resumes_on_the_same_journal() {
    const KILL_AFTER_MARKERS: u64 = 3;
    let checkpoint = CloudConfig {
        workers: 4,
        vcpus_per_worker: 4,
        task_cpus: 2,
        max_retries: 1,
        backoff_base_ms: 0,
        breaker_threshold: 5,
        checkpoint: true,
        checkpoint_max_resumes: 0,
        ..CloudConfig::default()
    };
    let offload = |runtime: &CloudRuntime| {
        let mut case = kernels::build(
            BenchId::Gemm,
            16,
            DataKind::Dense,
            3,
            CloudRuntime::cloud_selector(),
        );
        let profile = runtime.offload(&case.region, &mut case.env).unwrap();
        (profile, case.env.get::<f32>("C").unwrap().to_vec())
    };

    // Reference run: GEMM's small inputs go out as one pack.
    let reference = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint.clone(),
        Arc::new(S3Store::standalone("packing-e-ref")),
    ));
    let (_, expected) = offload(&reference);
    let report = reference.cloud().last_report().unwrap();
    assert!(report.upload.items.len() >= 2, "{report}");
    assert_eq!(report.upload_objects, 1, "{report}");
    let n_tiles = report.total_tiles() as u64;
    reference.shutdown();

    // Interrupted run: the endpoint dies after K journal markers.
    let base = Arc::new(S3Store::standalone("packing-e"));
    let plan = FaultPlan::new(42).rule(
        FaultRule::new(
            OpFilter::Put,
            Trigger::OpIndex(KILL_AFTER_MARKERS),
            FaultKind::Kill,
        )
        .on_keys("journal/"),
    );
    let killed = CloudRuntime::with_device(CloudDevice::with_store(
        checkpoint.clone(),
        Arc::new(ChaosStore::new(base.clone(), plan)),
    ));
    let (profile, _) = offload(&killed);
    assert_eq!(
        profile.fallback_reason,
        Some(FallbackReason::ResumeExhausted)
    );
    killed.shutdown();

    // Fresh device, same store: the packed inputs fingerprint the same
    // (per-member wire crcs), so the run lands on the same journal.
    let resumed = CloudRuntime::with_device(CloudDevice::with_store(checkpoint, base));
    let (profile, results) = offload(&resumed);
    assert!(profile.fallback_from.is_none(), "{:?}", profile.notes);
    assert_eq!(results, expected, "resumed outputs bitwise identical");
    let report = resumed.cloud().last_report().unwrap();
    assert_eq!(report.upload_objects, 1);
    assert_eq!(report.resilience.tiles_resumed as u64, KILL_AFTER_MARKERS);
    assert_eq!(
        report.resilience.tiles_replayed as u64,
        n_tiles - KILL_AFTER_MARKERS
    );
    resumed.shutdown();
}
