//! The closed-loop driver shared by `fanin_wan`, `gemm_dense` and
//! `iter_sparse`: one client calls `CloudRuntime::offload`, waits for the
//! outputs, checks them, and calls again.

use crate::codec::CodecProbe;
use crate::json::J;
use crate::layers::{sum_windows, Window};
use crate::probe::{timed_region, ProbeStore, StoreCounts};
use crate::report::Outcome;
use crate::reported::{self, ratio};
use crate::stats::{median, tail};
use crate::trace::{Span, Tracer, NONE};
use crate::Args;
use cloud_storage::StoreHandle;
use omp_model::{DataEnv, Device, ExecProfile, HostDevice, TargetRegion};
use ompcloud::{CloudConfig, CloudDevice, CloudRuntime};
use std::sync::Arc;
use std::time::Instant;

/// Runtimes built per run; `setup_s` is their median set-up time and the
/// last one serves the measured phase.
pub const SETUPS: usize = 9;

/// Codec probes per traced run (each encodes every mapped input).
const CODEC_SAMPLES: usize = 4;

/// Host-sequential baselines per traced run.
const HOST_SEQ_SAMPLES: usize = 3;

/// One closed-loop workload.
pub trait Closed {
    /// Configuration as INI text, parsed by `CloudConfig::from_str`.
    fn ini(&self) -> String;
    /// The store stack the probe wraps (a fresh one per runtime).
    fn backing_store(&self) -> StoreHandle;
    /// The offloaded region.
    fn region(&self) -> &TargetRegion;
    /// A fresh host environment; resets any per-environment state.
    fn fresh_env(&mut self) -> DataEnv;
    /// Write the inputs of region `round` (0 = the set-up region).
    fn prepare(&mut self, env: &mut DataEnv, round: u64);
    /// Compare the outputs of region `round` with the host reference.
    fn check(&mut self, env: &DataEnv, round: u64) -> Result<(), String>;
    /// Mapped input buffers the codec probe encodes.
    fn codec_inputs(&self) -> Vec<String>;
    /// Workload facts for the fingerprint.
    fn facts(&self) -> Vec<(String, J)>;
}

struct Runtime {
    rt: CloudRuntime,
    probe: Arc<ProbeStore>,
}

fn build(w: &dyn Closed, tracer: &Arc<Tracer>) -> Result<Runtime, String> {
    let config = CloudConfig::from_str(&w.ini()).map_err(|e| format!("config: {e}"))?;
    let probe = Arc::new(ProbeStore::new(w.backing_store(), Arc::clone(tracer)));
    let device = CloudDevice::with_store(config, Arc::clone(&probe) as StoreHandle);
    Ok(Runtime {
        rt: CloudRuntime::with_device(device),
        probe,
    })
}

/// What one measured region did.
struct Sample {
    wall_s: f64,
    traced: Option<Window>,
    failed: bool,
    store: StoreCounts,
    profile: Option<ExecProfile>,
    plan: Option<PlanFigures>,
}

struct PlanFigures {
    planned_upload: u64,
    elided: u32,
    delta_rounds: u32,
    dirty_tiles: u32,
    saved: u64,
}

/// Run `w` per `args`: set up, measure for `args.seconds` of region
/// time, and (traced) build the per-layer table.
pub fn run(w: &mut dyn Closed, args: &Args) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::default());
    let mut out = Outcome::default();

    // Set-up: construction plus the first region, which starts the lazy
    // in-process cluster. Input generation is not timed.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Runtime, DataEnv)> = None;
    for _ in 0..SETUPS {
        let mut env = w.fresh_env();
        w.prepare(&mut env, 0);
        let t0 = Instant::now();
        let r = build(w, &tracer)?;
        let first = r.rt.offload(w.region(), &mut env);
        setup_s.push(t0.elapsed().as_secs_f64());
        first.map_err(|err| format!("set-up region failed: {err}"))?;
        w.check(&env, 0)?;
        if let Some((old, _)) = kept.replace((r, env)) {
            old.rt.shutdown();
        }
    }
    let (Runtime { rt, probe }, mut env) = kept.expect("SETUPS > 0");
    let jobs_before = rt.cloud().job_metrics().len();
    let cache_before = rt.cloud().cache_stats();

    let mut samples: Vec<Sample> = Vec::new();
    let mut codec = CodecProbe::new(rt.cloud().config());
    let mut busy_s = 0.0;
    let mut round = 0u64;
    while busy_s < args.seconds {
        round += 1;
        w.prepare(&mut env, round);
        // Traced runs alternate traced and untraced regions, so the
        // overhead comparison sees the same drift on both sides.
        let traced = args.trace && round.is_multiple_of(2);
        let timed;
        let region = if traced {
            if codec.samples() < CODEC_SAMPLES {
                codec.measure(&env, &w.codec_inputs(), round, &tracer)?;
            }
            timed = timed_region(w.region(), round, &tracer);
            &timed
        } else {
            w.region()
        };
        let span_id = tracer.new_id();
        let before = probe.counts();
        if traced {
            tracer.enter(round, span_id);
            tracer.set_enabled(true);
        }
        let start = tracer.now_ns();
        let result = rt.offload(region, &mut env);
        let end = tracer.now_ns();
        if traced {
            tracer.set_enabled(false);
            tracer.enter(NONE, NONE);
            tracer.record(Span {
                id: span_id,
                name: "offload",
                layer: "core",
                region: round,
                parent: NONE,
                start_ns: start,
                end_ns: end,
                bytes: 0,
                phase: "",
            });
        }
        let wall_s = (end - start) as f64 / 1e9;
        busy_s += wall_s;
        let store = probe.counts().since(&before);
        let (failed, profile) = match result {
            Ok(p) => {
                w.check(&env, round)?;
                (p.fallback_from.is_some(), Some(p))
            }
            Err(e) => {
                eprintln!("region {round} failed: {e}");
                (true, None)
            }
        };
        let report = args.trace.then(|| rt.cloud().last_report()).flatten();
        let plan = report.map(|r| PlanFigures {
            planned_upload: r.map_plan.upload_bytes(),
            elided: r.map_plan.uploads_elided() + r.map_plan.downloads_elided(),
            delta_rounds: r.map_plan.delta_rounds(),
            dirty_tiles: r.map_plan.delta_dirty_tiles(),
            saved: r.map_plan.upload_bytes_saved(),
        });
        samples.push(Sample {
            wall_s,
            traced: traced.then_some(Window {
                span_id,
                interval: (start, end),
            }),
            failed,
            store,
            profile,
            plan,
        });
    }

    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| s.failed).count() as u64;
    let n = samples.len() as f64;
    let per_region = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>() / n;
    let ops = per_region(&|s| s.store.ops() as f64);
    let bytes = per_region(&|s| s.store.bytes() as f64);
    out.note("regions", J::Int(samples.len() as u64));
    out.note("store_ops_per_region", J::Num(ops));
    out.note("store_bytes_per_region", J::Num(bytes));

    if !args.trace {
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
        let t = tail(&walls).expect("at least one region");
        out.set("setup_s", median(&setup_s).expect("SETUPS > 0"));
        out.set("region_p50_s", median(&walls).expect("at least one region"));
        out.set("region_tail_s", t.value);
        out.set("regions_per_s", n / busy_s);
        out.set("peak_rss_mb", crate::sys::peak_rss_mb()?);
        out.note("setup_samples", J::Int(setup_s.len() as u64));
        out.note("region_samples", J::Int(walls.len() as u64));
        out.note("region_tail_pct", J::Num(t.pct));
        out.note("region_tail_beyond", J::Int(t.beyond as u64));
    } else {
        layer_metrics(&mut out, &samples, &tracer)?;
        codec.report(&mut out);
        let jobs = rt.cloud().job_metrics();
        reported::jobs(&mut out, &jobs[jobs_before.min(jobs.len())..], n);
        let (hits, misses) = rt.cloud().cache_stats();
        let (hits, misses) = (hits - cache_before.0, misses - cache_before.1);
        out.set(
            "core.cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        plan_metrics(&mut out, &samples);
        out.set("kernels.host_seq_s", host_seq(w.region(), &env, &tracer)?);
        let spans = tracer.spans();
        out.set("trace.spans", spans.len() as f64);
        crate::write_spans(args, &spans)?;
    }
    out.set("failed_ratio", out.failed as f64 / n);
    rt.shutdown();
    let mut facts = w.facts();
    facts.push(("setup_runs".into(), J::Int(SETUPS as u64)));
    out.note("workload", J::Obj(facts));
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, samples: &[Sample], tracer: &Tracer) -> Result<(), String> {
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced.is_some()).collect();
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced.is_none())
        .map(|s| s.wall_s)
        .collect();
    if traced.is_empty() || plain.is_empty() {
        return Err("traced run measured too few regions to compare".into());
    }
    let walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    let overhead = median(&walls).expect("non-empty") / median(&plain).expect("non-empty");
    out.set("trace.overhead_ratio", overhead);
    out.note("traced_regions", J::Int(traced.len() as u64));
    out.note("untraced_regions", J::Int(plain.len() as u64));

    let windows: Vec<Window> = traced.iter().filter_map(|s| s.traced).collect();
    let n = traced.len() as f64;
    sum_windows(&tracer.spans(), &windows).report(out, n);
    let per = |f: &dyn Fn(&StoreCounts) -> u64| {
        traced.iter().map(|t| f(&t.store)).sum::<u64>() as f64 / n
    };
    out.set("storage.ops_per_region", per(&|c| c.ops()));
    out.set("storage.bytes_per_region", per(&|c| c.bytes()));
    out.set("storage.put_ops", per(&|c| c.puts));
    out.set("storage.get_ops", per(&|c| c.gets));
    out.set("storage.meta_ops", per(&|c| c.meta));
    out.set("storage.failed_ops", per(&|c| c.failed));
    out.set("storage.put_bytes", per(&|c| c.put_bytes));
    out.set("storage.get_bytes", per(&|c| c.get_bytes));

    // The program's own view of the same regions.
    let (profiles, walls): (Vec<ExecProfile>, Vec<f64>) = traced
        .iter()
        .filter_map(|t| t.profile.clone().map(|p| (p, t.wall_s)))
        .unzip();
    reported::profiles(out, &profiles, walls.iter().sum());
    Ok(())
}

fn plan_metrics(out: &mut Outcome, samples: &[Sample]) {
    let plans: Vec<&PlanFigures> = samples.iter().filter_map(|s| s.plan.as_ref()).collect();
    let m = plans.len().max(1) as f64;
    let sum = |f: &dyn Fn(&PlanFigures) -> f64| plans.iter().map(|p| f(p)).sum::<f64>();
    let planned = sum(&|p| p.planned_upload as f64);
    let saved = sum(&|p| p.saved as f64);
    out.set("core.mapopt.planned_upload_bytes", planned / m);
    out.set("core.mapopt.elided", sum(&|p| p.elided as f64) / m);
    out.set(
        "core.mapopt.delta_rounds",
        sum(&|p| p.delta_rounds as f64) / m,
    );
    out.set(
        "core.mapopt.dirty_tiles",
        sum(&|p| p.dirty_tiles as f64) / m,
    );
    out.set(
        "core.mapopt.bytes_saved_ratio",
        ratio(saved, planned + saved),
    );
}

/// Median time of the region on the sequential host device: the plain
/// single-threaded baseline, run on copies of the last inputs.
pub fn host_seq(region: &TargetRegion, env: &DataEnv, tracer: &Tracer) -> Result<f64, String> {
    let host = HostDevice::sequential();
    let mut times = Vec::with_capacity(HOST_SEQ_SAMPLES);
    for _ in 0..HOST_SEQ_SAMPLES {
        let mut e = env.clone();
        let start = tracer.now_ns();
        host.execute(region, &mut e)
            .map_err(|err| format!("host-sequential baseline failed: {err}"))?;
        let end = tracer.now_ns();
        tracer.record(Span {
            id: tracer.new_id(),
            name: "host_seq",
            layer: "kernels",
            region: NONE,
            parent: NONE,
            start_ns: start,
            end_ns: end,
            bytes: 0,
            phase: "",
        });
        times.push((end - start) as f64 / 1e9);
    }
    Ok(median(&times).expect("HOST_SEQ_SAMPLES > 0"))
}
