//! `tenant_mix`: an open loop through `OffloadService`. Three steady
//! victim tenants and one bursting hog submit small regions: the victims
//! and the hog's base rate on a seeded `TrafficModel` schedule, the hog's
//! bursts as fixed-size batches. One generator thread submits on time,
//! one drainer thread calls `drain`. The only workload that passes through
//! `omp` admission, the `sparkle` fair queue and the per-tenant breakers.

use super::{below, config_ini, rng, shape_facts};
use crate::closed::{host_seq, SETUPS};
use crate::codec::CodecProbe;
use crate::json::J;
use crate::layers::{sum_windows, Window};
use crate::openloop::{parse_region_name, region_name, SojournBook};
use crate::probe::timed_region;
use crate::report::Outcome;
use crate::reported;
use crate::stats::{median, nearest_rank, tail};
use crate::trace::{Span, Tracer, NONE};
use crate::Args;
use cloudsim::{TenantLoad, TrafficModel};
use omp_model::prelude::*;
use omp_model::{ExecProfile, TargetRegion, TenantStats};
use ompcloud::{CloudConfig, CloudRuntime, OffloadService};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Victim tenants and their steady rate (regions per second each).
const VICTIMS: [&str; 3] = ["victim-a", "victim-b", "victim-c"];
const VICTIM_RATE: f64 = 5.0;
/// The hog: a steady base rate from the traffic model, plus a batch of
/// `HOG_BATCH` regions spread over `HOG_BURST_S`, once every
/// `HOG_BURST_EVERY_S` from `HOG_BURST_EVERY_S / 2` on. A batch arrives
/// far faster than the service drains it. Its size is fixed, so the
/// share of victims a burst delays does not swing with the seed.
const HOG: &str = "hog";
const HOG_RATE: f64 = 1.0;
const HOG_BURST_EVERY_S: f64 = 0.5;
const HOG_BURST_S: f64 = 0.02;
const HOG_BATCH: usize = 12;
/// Loop trip count and elements per iteration of every small region.
const ITERS: usize = 16;
const BLOCK: usize = 128;
const LEN: usize = ITERS * BLOCK;
/// Multiply-adds per element: the compute of one small region. The
/// hog's regions are batch work, twice a victim's.
const VICTIM_REPS: usize = 500;
const HOG_REPS: usize = 1000;
/// Codec probes per traced run.
const CODEC_SAMPLES: usize = 4;

/// Arrival times and tenants over `[0, horizon_s)`, sorted by time.
/// At the start of every hog batch one victim, in turn, also submits a
/// region: a periodic job on the hog's clock. It is queued just ahead of
/// the batch and waits for all of it, so the victims' tail reads the
/// whole delay a batch causes, not a Poisson draw of how early in the
/// batches victims happened to arrive.
fn schedule(seed: u64, horizon_s: f64) -> Vec<(f64, String)> {
    let mut tenants: Vec<TenantLoad> = VICTIMS
        .iter()
        .map(|v| TenantLoad::steady(v, VICTIM_RATE))
        .collect();
    tenants.push(TenantLoad::steady(HOG, HOG_RATE));
    let mut plan: Vec<(f64, String)> = TrafficModel::new(tenants, seed)
        .schedule(horizon_s)
        .into_iter()
        .map(|a| (a.at_s, a.tenant))
        .collect();
    let mut start = HOG_BURST_EVERY_S / 2.0;
    let mut turn = 0;
    while start < horizon_s {
        plan.push((start, VICTIMS[turn % VICTIMS.len()].to_string()));
        turn += 1;
        for j in 0..HOG_BATCH {
            let at = start + HOG_BURST_S * j as f64 / HOG_BATCH as f64;
            if at < horizon_s {
                plan.push((at, HOG.to_string()));
            }
        }
        start += HOG_BURST_EVERY_S;
    }
    // Stable: an aligned victim stays ahead of the batch entry due with it.
    plan.sort_by(|a, b| a.0.total_cmp(&b.0));
    plan
}

/// The per-element kernel; the host reference calls the same function.
fn relax(mut v: f32, scale: f32, offset: f32, reps: usize) -> f32 {
    for _ in 0..reps {
        v = v * scale + offset;
    }
    v
}

/// One arrival's region, inputs and expected outputs.
struct Arrival {
    tenant: String,
    region: TargetRegion,
    x: Vec<f32>,
    expected: Vec<f32>,
}

fn arrival(seed: u64, idx: usize, tenant: &str) -> Arrival {
    let mut r = rng(seed, idx as u64);
    let scale = below(&mut r, 1, 4) as f32 * 0.25;
    let offset = below(&mut r, 0, 100) as f32 * 0.5;
    let phase = below(&mut r, 0, 97) as usize;
    let x: Vec<f32> = (0..LEN).map(|j| ((j + phase) % 97) as f32 * 0.5).collect();
    let reps = if tenant == HOG { HOG_REPS } else { VICTIM_REPS };
    let expected = x.iter().map(|&v| relax(v, scale, offset, reps)).collect();
    let (xn, yn) = (format!("x{idx}"), format!("y{idx}"));
    let region = TargetRegion::builder(region_name(idx))
        .device(CloudRuntime::cloud_selector())
        .tenant(tenant)
        .map_to(xn.clone())
        .map_from(yn.clone())
        .parallel_for(ITERS, move |l| {
            l.partition(xn.clone(), PartitionSpec::rows(BLOCK))
                .partition(yn.clone(), PartitionSpec::rows(BLOCK))
                .body(move |i, ins, outs| {
                    let x = ins.view::<f32>(&xn);
                    let mut y = outs.view_mut::<f32>(&yn);
                    for j in i * BLOCK..(i + 1) * BLOCK {
                        y[j] = relax(x[j], scale, offset, reps);
                    }
                })
        })
        .build()
        .expect("tenant_mix region is valid");
    Arrival {
        tenant: tenant.to_string(),
        region,
        x,
        expected,
    }
}

fn service() -> Result<OffloadService, String> {
    let config = CloudConfig::from_str(&config_ini("[tenancy]\nenabled = yes\n"))
        .map_err(|e| format!("config: {e}"))?;
    Ok(OffloadService::new(config))
}

fn check(env: &DataEnv, idx: usize, expected: &[f32]) -> Result<(), String> {
    let y = env
        .get::<f32>(&format!("y{idx}"))
        .map_err(|e| e.to_string())?;
    if y.iter()
        .map(|v| v.to_bits())
        .ne(expected.iter().map(|v| v.to_bits()))
    {
        return Err(format!(
            "tenant_mix arrival {idx}: y differs from the host reference"
        ));
    }
    Ok(())
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    arrivals: usize,
    rejected: u64,
    victim_sojourn: Vec<f64>,
    lags: Vec<f64>,
    submit_s: Vec<f64>,
    depth_max: usize,
    log: DrainLog,
}

/// What the drainer saw.
#[derive(Default)]
struct DrainLog {
    /// One window per non-empty `drain` call.
    windows: Vec<Window>,
    batch_sizes: Vec<usize>,
    /// `(arrival, drain return time)` per completed region.
    completions: Vec<(usize, f64)>,
    profiles: Vec<ExecProfile>,
    errors: u64,
    fallbacks: u64,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.log.completions.len() as u64
    }

    fn failed(&self) -> u64 {
        self.rejected + self.log.errors + self.log.fallbacks
    }

    /// Seconds the drainer spent inside `drain`.
    fn drain_busy_s(&self) -> f64 {
        self.log
            .windows
            .iter()
            .map(|w| (w.interval.1 - w.interval.0) as f64 / 1e9)
            .sum()
    }
}

/// Run the schedule for `horizon_s` against `svc`; with `traced`, loop
/// bodies and drain calls record spans.
fn run_phase(
    svc: &OffloadService,
    seed: u64,
    horizon_s: f64,
    traced: bool,
    tracer: &Arc<Tracer>,
    codec: &mut CodecProbe,
) -> Result<Phase, String> {
    let plan = schedule(seed, horizon_s);
    let mut envs: HashMap<String, DataEnv> = HashMap::new();
    let mut regions = Vec::with_capacity(plan.len());
    let mut expected = Vec::with_capacity(plan.len());
    let mut victim = Vec::with_capacity(plan.len());
    for (idx, (_, tenant)) in plan.iter().enumerate() {
        let a = arrival(seed, idx, tenant);
        let env = envs.entry(a.tenant.clone()).or_default();
        env.insert(format!("x{idx}"), a.x);
        env.insert(format!("y{idx}"), vec![0.0f32; LEN]);
        if traced && codec.samples() < CODEC_SAMPLES {
            codec.measure(env, &[format!("x{idx}")], idx as u64, tracer)?;
        }
        regions.push(if traced {
            timed_region(&a.region, idx as u64, tracer)
        } else {
            a.region
        });
        expected.push(a.expected);
        victim.push(a.tenant != HOG);
    }
    let mut book = SojournBook::new(plan.iter().map(|(at, _)| *at).collect());
    let mut phase = Phase {
        arrivals: plan.len(),
        ..Phase::default()
    };

    let (tx, rx) = mpsc::channel::<bool>();
    let origin = Instant::now();
    let done: Result<(), String> = std::thread::scope(|scope| {
        let drainer = scope.spawn(move || -> Result<DrainLog, String> {
            let mut log = DrainLog::default();
            let mut envs = envs;
            let mut finished = false;
            while !finished || svc.queued() > 0 {
                // Wake on the generator's next submit or its last word.
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(more) => finished |= !more,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => finished = true,
                }
                while let Ok(more) = rx.try_recv() {
                    finished |= !more;
                }
                let id = tracer.new_id();
                tracer.enter(NONE, id);
                let start = tracer.now_ns();
                let outcomes = svc.drain(&mut envs);
                let end = tracer.now_ns();
                tracer.enter(NONE, NONE);
                let returned_s = origin.elapsed().as_secs_f64();
                if outcomes.is_empty() {
                    continue;
                }
                if traced {
                    tracer.record(Span {
                        id,
                        name: "drain",
                        layer: "core",
                        region: NONE,
                        parent: NONE,
                        start_ns: start,
                        end_ns: end,
                        bytes: 0,
                        phase: "",
                    });
                }
                log.windows.push(Window {
                    span_id: id,
                    interval: (start, end),
                });
                log.batch_sizes.push(outcomes.len());
                for o in outcomes {
                    let idx = parse_region_name(&o.region)
                        .ok_or_else(|| format!("unexpected region {}", o.region))?;
                    log.completions.push((idx, returned_s));
                    match o.result {
                        Ok(p) => {
                            let env = &envs[&o.tenant];
                            check(env, idx, &expected[idx])?;
                            log.fallbacks += u64::from(p.fallback_from.is_some());
                            log.profiles.push(p);
                        }
                        Err(e) => {
                            eprintln!("arrival {idx} failed: {e}");
                            log.errors += 1;
                        }
                    }
                }
            }
            Ok(log)
        });

        let generator = || -> Result<(), String> {
            for (idx, region) in regions.into_iter().enumerate() {
                let due = Duration::from_secs_f64(plan[idx].0);
                if let Some(wait) = due.checked_sub(origin.elapsed()) {
                    std::thread::sleep(wait);
                }
                let at = origin.elapsed().as_secs_f64();
                book.submitted(idx, at)?;
                let t0 = Instant::now();
                let admitted = svc.submit(region);
                phase.submit_s.push(t0.elapsed().as_secs_f64());
                match admitted {
                    Ok(()) => phase.depth_max = phase.depth_max.max(svc.queued()),
                    Err(OmpError::Rejected { .. }) => phase.rejected += 1,
                    Err(e) => return Err(format!("submit of arrival {idx}: {e}")),
                }
                // The drainer may already have exited on an error.
                let _ = tx.send(true);
            }
            Ok(())
        };
        let generated = generator();
        let _ = tx.send(false);
        let log = drainer
            .join()
            .map_err(|_| "drainer panicked".to_string())??;
        generated?;
        for &(idx, at) in &log.completions {
            book.completed(idx, at)?;
        }
        phase.log = log;
        Ok(())
    });
    done?;
    let lost = book.outstanding() as u64 - phase.rejected;
    if lost > 0 {
        return Err(format!("{lost} admitted arrivals never completed"));
    }
    phase.victim_sojourn = book.sojourns(|i| victim[i]);
    phase.lags = book.lags();
    Ok(phase)
}

fn rejections(svc: &OffloadService) -> TenantStats {
    svc.admission()
        .stats()
        .into_iter()
        .fold(TenantStats::default(), |mut acc, (_, s)| {
            acc.rejected_queue_full += s.rejected_queue_full;
            acc.rejected_quota += s.rejected_quota;
            acc.rejected_degraded += s.rejected_degraded;
            acc
        })
}

/// Run the workload per `args`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let tracer = Arc::new(Tracer::default());
    let mut out = Outcome::default();

    // Set-up: service construction plus one region through submit and
    // drain, which starts the lazy in-process cluster.
    let warm = arrival(seed, 0, "setup");
    let warm_env = || {
        let mut env = DataEnv::new();
        env.insert("x0", warm.x.clone());
        env.insert("y0", vec![0.0f32; LEN]);
        env
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<OffloadService> = None;
    for _ in 0..SETUPS {
        let mut envs = HashMap::from([("setup".to_string(), warm_env())]);
        let t0 = Instant::now();
        let svc = service()?;
        svc.submit(warm.region.clone())
            .map_err(|e| format!("set-up submit: {e}"))?;
        let outcomes = svc.drain(&mut envs);
        setup_s.push(t0.elapsed().as_secs_f64());
        for o in outcomes {
            o.result.map_err(|e| format!("set-up region failed: {e}"))?;
        }
        check(&envs["setup"], 0, &warm.expected)?;
        if let Some(old) = kept.replace(svc) {
            old.shutdown();
        }
    }
    let svc = kept.expect("SETUPS > 0");
    let mut codec = CodecProbe::new(svc.runtime().cloud().config());

    let horizon = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = if args.trace {
        // Same schedule twice: untraced, then traced.
        let plain = run_phase(&svc, seed, horizon, false, &tracer, &mut codec)?;
        let jobs_before = svc.runtime().cloud().job_metrics().len();
        let rej_before = rejections(&svc);
        let traced = run_phase(&svc, seed, horizon, true, &tracer, &mut codec)?;
        layer_metrics(&mut out, &svc, &traced, &tracer, jobs_before, rej_before);
        out.set(
            "trace.overhead_ratio",
            median(&traced.victim_sojourn).unwrap_or(0.0)
                / median(&plain.victim_sojourn).unwrap_or(f64::NAN),
        );
        codec.report(&mut out);
        out.set(
            "kernels.host_seq_s",
            host_seq(&warm.region, &warm_env(), &tracer)?,
        );
        let spans = tracer.spans();
        out.set("trace.spans", spans.len() as f64);
        crate::write_spans(args, &spans)?;
        traced
    } else {
        run_phase(&svc, seed, horizon, false, &tracer, &mut codec)?
    };

    out.attempted = phase.arrivals as u64;
    out.failed = phase.failed();
    out.set(
        "failed_ratio",
        out.failed as f64 / phase.arrivals.max(1) as f64,
    );
    out.note("arrivals", J::Int(phase.arrivals as u64));
    out.note("completed", J::Int(phase.completed()));
    out.note("rejected", J::Int(phase.rejected));
    if !args.trace {
        let t = tail(&phase.victim_sojourn).ok_or("no victim region completed")?;
        out.set("setup_s", median(&setup_s).expect("SETUPS > 0"));
        out.set(
            "region_p50_s",
            median(&phase.victim_sojourn).expect("non-empty"),
        );
        out.set("region_tail_s", t.value);
        out.set(
            "regions_per_s",
            phase.completed() as f64 / phase.drain_busy_s(),
        );
        out.set("peak_rss_mb", crate::sys::peak_rss_mb()?);
        out.note("setup_samples", J::Int(setup_s.len() as u64));
        out.note("sojourn_samples", J::Int(t.samples as u64));
        out.note("sojourn_tail_pct", J::Num(t.pct));
        out.note("sojourn_tail_beyond", J::Int(t.beyond as u64));
        out.note("drain_busy_s", J::Num(phase.drain_busy_s()));
        let mut sorted = phase.victim_sojourn.clone();
        sorted.sort_by(f64::total_cmp);
        let decile = |d: usize| sorted[nearest_rank(d as f64 * 10.0, sorted.len()) - 1];
        out.note(
            "sojourn_deciles_s",
            J::Arr((1..=10).map(|d| J::Num(decile(d))).collect()),
        );
    }
    svc.shutdown();

    let mut facts = shape_facts();
    facts.extend([
        ("seed".into(), J::Int(seed)),
        ("loop".into(), J::Str("open, TrafficModel arrivals".into())),
        ("horizon_s".into(), J::Num(horizon)),
        ("victims".into(), J::Int(VICTIMS.len() as u64)),
        ("victim_rate_per_s".into(), J::Num(VICTIM_RATE)),
        ("hog_rate_per_s".into(), J::Num(HOG_RATE)),
        ("hog_burst_every_s".into(), J::Num(HOG_BURST_EVERY_S)),
        ("hog_burst_s".into(), J::Num(HOG_BURST_S)),
        ("hog_batch".into(), J::Int(HOG_BATCH as u64)),
        ("aligned_victims_per_batch".into(), J::Int(1)),
        ("victim_reps".into(), J::Int(VICTIM_REPS as u64)),
        ("hog_reps".into(), J::Int(HOG_REPS as u64)),
        ("offered_mean_per_s".into(), J::Num(offered_mean())),
        ("setup_runs".into(), J::Int(SETUPS as u64)),
    ]);
    out.note("workload", J::Obj(facts));
    Ok(out)
}

/// Mean offered rate, batches and aligned victims included.
fn offered_mean() -> f64 {
    VICTIMS.len() as f64 * VICTIM_RATE + HOG_RATE + (1 + HOG_BATCH) as f64 / HOG_BURST_EVERY_S
}

fn layer_metrics(
    out: &mut Outcome,
    svc: &OffloadService,
    phase: &Phase,
    tracer: &Tracer,
    jobs_before: usize,
    rej_before: TenantStats,
) {
    let n = phase.completed().max(1) as f64;
    // A drain call is the finest window the service exposes; the store
    // inside it cannot be wrapped, so its time stays in `core.self_s`.
    let sums = sum_windows(&tracer.spans(), &phase.log.windows);
    sums.report(out, n);
    reported::profiles(out, &phase.log.profiles, sums.wall_ns as f64 / 1e9);
    let jobs = svc.runtime().cloud().job_metrics();
    reported::jobs(out, &jobs[jobs_before.min(jobs.len())..], n);

    let rej = rejections(svc);
    out.set(
        "omp.admission.submit_p50_s",
        median(&phase.submit_s).unwrap_or(0.0),
    );
    out.set(
        "omp.admission.rejected_queue_full",
        (rej.rejected_queue_full - rej_before.rejected_queue_full) as f64,
    );
    out.set(
        "omp.admission.rejected_quota",
        (rej.rejected_quota - rej_before.rejected_quota) as f64,
    );
    out.set(
        "omp.admission.rejected_degraded",
        (rej.rejected_degraded - rej_before.rejected_degraded) as f64,
    );
    out.set("core.service.queue_depth_max", phase.depth_max as f64);
    let batches: Vec<f64> = phase.log.batch_sizes.iter().map(|&b| b as f64).collect();
    out.set(
        "core.service.drain_batch_mean",
        crate::stats::mean(&batches).unwrap_or(0.0),
    );
    out.set("core.service.host_fallbacks", phase.log.fallbacks as f64);
    out.set(
        "generator.lag_tail_s",
        tail(&phase.lags).map(|t| t.value).unwrap_or(0.0),
    );
    out.note("traced_arrivals", J::Int(phase.arrivals as u64));
}
