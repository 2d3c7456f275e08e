//! `perfbench` — the end-to-end and per-layer benchmark of the OmpCloud-rs
//! offload path.
//!
//! Every figure is taken from outside the program: wall time around
//! `CloudRuntime::offload` and `OffloadService::submit`/`drain`, a
//! counting `ObjectStore` wrapped around the real store, a timing
//! closure around each region's loop body, and the `gzlite` wire API on
//! the workload's own buffers. The program's own reports are read as
//! self-reported counters and labelled as such. See `README.md`.

pub mod closed;
pub mod codec;
pub mod intervals;
pub mod json;
pub mod layers;
pub mod openloop;
pub mod phase;
pub mod probe;
pub mod report;
pub mod reported;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use json::J;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fanin_wan", "gemm_dense", "iter_sparse", "tenant_mix"];

/// A seed no tuning run used; later changes confirm a claim on it.
pub const HELD_OUT_SEED: u64 = 777;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of region time to measure.
    pub seconds: f64,
    /// Record spans and print per-layer metrics instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Where traced runs write their spans.
pub fn span_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Write the spans of a traced run as JSON Lines.
pub fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = span_path(args);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload and return its output lines; the last is the result.
pub fn run(args: &Args) -> Result<Vec<String>, String> {
    use workloads::*;
    let mut out: Outcome = match args.workload.as_str() {
        "fanin_wan" => closed::run(&mut fanin_wan::FaninWan::new(args.seed), args)?,
        "gemm_dense" => closed::run(&mut gemm_dense::GemmDense::new(args.seed), args)?,
        "iter_sparse" => closed::run(&mut iter_sparse::IterSparse::new(args.seed), args)?,
        "tenant_mix" => tenant_mix::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let mut lines = Vec::new();
    let metrics: &[(&str, &str)] = if args.trace {
        // A layer the workload bypasses, or that cannot be observed on
        // it, reads 0.
        for (name, _) in PER_LAYER {
            out.values.entry(name).or_insert(0.0);
        }
        lines.extend(layer_table(&out));
        out.note("spans", J::Str(span_path(args).display().to_string()));
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut env = sys::fingerprint();
    env.push(("seed".into(), J::Int(args.seed)));
    env.push(("held_out_seed".into(), J::Int(HELD_OUT_SEED)));
    env.push(("seconds".into(), J::Num(args.seconds)));
    env.push(("trace".into(), J::Bool(args.trace)));
    out.note("env", J::Obj(env));
    lines.push(
        J::obj([
            ("workload", J::Str(args.workload.clone())),
            ("detail", J::Obj(out.detail.clone())),
        ])
        .line(),
    );
    lines.push(out.result_line(metrics)?);
    Ok(lines)
}

/// The per-layer table: the outside view (store union, kernel union,
/// core residual) beside the program's self-reported `ExecProfile`
/// buckets. The gap between the two views is shown, not reconciled.
pub fn layer_table(out: &Outcome) -> Vec<String> {
    let v = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    vec![
        format!(
            "per-region means over {} traced regions (seconds)",
            v("region.samples")
        ),
        format!(
            "  measured   wall {:.6} = storage.union {:.6} + kernels.union {:.6} - overlap {:.6} + core.self {:.6}  (residual {:.3e})",
            v("region.wall_s"),
            v("storage.union_s"),
            v("kernels.union_s"),
            v("region.overlap_s"),
            v("core.self_s"),
            v("region.identity_residual_s"),
        ),
        format!(
            "  reported   total {:.6} = host_comm {:.6} + overhead {:.6} + compute {:.6}  (overlap {:.6})",
            v("core.host_comm_s") + v("core.overhead_s") + v("core.compute_s"),
            v("core.host_comm_s"),
            v("core.overhead_s"),
            v("core.compute_s"),
            v("core.overlap_s"),
        ),
        format!(
            "  gap        measured wall - reported total = {:.6}",
            v("core.attribution_gap_s")
        ),
        format!(
            "  tracing overhead: traced / untraced region p50 = {:.4}",
            v("trace.overhead_ratio")
        ),
    ]
}
