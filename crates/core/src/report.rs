//! Offload reports: everything observable about one cloud offload.

use crate::mapopt::MapPlan;
use crate::offload::LoopStats;
use cloud_storage::TransferReport;
use cloudsim::CostReport;
use omp_model::ExecProfile;

/// What the resilience layer did during one offload: retries, re-fetches,
/// deadline overruns, backoff sleep, and breaker state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceSummary {
    /// Transient-fault retries across upload + download.
    pub transient_retries: u32,
    /// Corruption-triggered re-fetches across upload + download.
    pub corruption_refetches: u32,
    /// Store ops that overran the op deadline.
    pub timeouts: u32,
    /// Total time slept in retry backoff.
    pub backoff_seconds: f64,
    /// Consecutive failed offloads on the device when this one finished.
    pub breaker_consecutive_failures: u64,
    /// Whether the device's circuit breaker is open (degraded).
    pub breaker_tripped: bool,
    /// Tiles restored from the region journal instead of re-executed.
    pub tiles_resumed: u32,
    /// Tiles executed by a run that found a non-empty journal (the
    /// replayed remainder of an interrupted region; 0 on fresh runs).
    pub tiles_replayed: u32,
    /// In-region resume attempts after infrastructure failures.
    pub resume_attempts: u32,
    /// Output manifests published (one per committed region).
    pub commits_published: u32,
    /// Orphaned `_tmp/` staging objects garbage-collected at region
    /// start (leftovers of crashed, never-committed runs).
    pub orphans_collected: u32,
    /// Executors the scheduler quarantined during the offload.
    pub quarantine_trips: u32,
    /// Heartbeat windows executors missed while holding running tasks.
    pub heartbeat_misses: u32,
}

impl ResilienceSummary {
    /// Total fault-handling events (retries + re-fetches + timeouts).
    pub fn total_events(&self) -> u32 {
        self.transient_retries + self.corruption_refetches + self.timeouts
    }

    /// Whether checkpoint/resume machinery did anything observable.
    pub fn recovered(&self) -> bool {
        self.tiles_resumed > 0 || self.resume_attempts > 0 || self.orphans_collected > 0
    }
}

/// What the inter-region dataflow runtime did during one offload of a
/// `depend`/`nowait` DAG member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowSummary {
    /// Inputs served from a device-resident producer output instead of
    /// being uploaded from the host (each hit elides one upload).
    pub resident_hits: u32,
    /// Inputs the scheduler hinted as resident that had no live entry —
    /// the producer fell back to the host, so the input was re-sourced
    /// from the (fresh) host environment.
    pub resident_misses: u32,
    /// Outputs kept device-resident for a later consumer instead of
    /// being downloaded to the host.
    pub elided_downloads: u32,
    /// Producing regions re-executed to regenerate a lost resident
    /// buffer (lineage recovery): 1 when this offload IS such a replay.
    pub lineage_recomputes: u32,
    /// Stages that failed individually and were contained (host re-run
    /// with outputs re-adopted resident) instead of collapsing the DAG.
    pub stage_fallbacks: u32,
    /// Resident inputs whose driver-side copy was damaged and repaired
    /// from the durable store copy.
    pub resident_repairs: u32,
}

impl DataflowSummary {
    /// Whether the dataflow runtime did anything observable.
    pub fn any(&self) -> bool {
        self.resident_hits > 0
            || self.resident_misses > 0
            || self.elided_downloads > 0
            || self.lineage_recomputes > 0
            || self.stage_fallbacks > 0
            || self.resident_repairs > 0
    }
}

/// Full record of one offloaded target region.
#[derive(Debug, Clone)]
pub struct OffloadReport {
    /// The tenant that submitted the region (`"default"` outside
    /// multi-tenant programs). Breaker state and recovery counters in
    /// this report are scoped to this tenant.
    pub tenant: String,
    /// The three-way timing decomposition plus byte/task counts.
    pub profile: ExecProfile,
    /// Per-loop (per map-reduce stage) statistics.
    pub loops: Vec<LoopStats>,
    /// Host → cloud transfer details (step 2), one item per buffer put.
    pub upload: TransferReport,
    /// Store objects the step-2 upload wrote. Fewer than
    /// `upload.items.len()` (the buffers it carried) when small inputs
    /// shared packed objects.
    pub upload_objects: usize,
    /// Cloud → host transfer details (step 8).
    pub download: TransferReport,
    /// Pay-as-you-go billing, when `ec2-autostart` is on.
    pub cost: Option<CostReport>,
    /// Fault-handling counters accumulated across the offload.
    pub resilience: ResilienceSummary,
    /// Inter-region dataflow counters (all zero outside a DAG).
    pub dataflow: DataflowSummary,
    /// The map-transfer optimizer's per-variable decision record: what
    /// was shipped, narrowed, delta-patched, deduped, or elided.
    pub map_plan: MapPlan,
}

impl OffloadReport {
    /// Total tiles across all loops.
    pub fn total_tiles(&self) -> usize {
        self.loops.iter().map(|l| l.tiles).sum()
    }

    /// Achieved host→cloud compression ratio.
    pub fn upload_ratio(&self) -> f64 {
        self.upload.ratio()
    }

    /// Total intra-cluster traffic (scatter + broadcast + collect), raw
    /// bytes.
    pub fn cluster_traffic_bytes(&self) -> u64 {
        self.loops
            .iter()
            .map(|l| l.scatter_bytes + l.broadcast.total_traffic() + l.collect_bytes)
            .sum()
    }
}

impl std::fmt::Display for OffloadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.profile)?;
        for (i, l) in self.loops.iter().enumerate() {
            writeln!(
                f,
                "  loop {i}: {} tiles, {} B scattered, {} B broadcast ({} rounds), {} B collected",
                l.tiles, l.scatter_bytes, l.broadcast.bytes, l.broadcast.rounds, l.collect_bytes
            )?;
        }
        write!(
            f,
            "  transfers: {} -> {} B up ({}, {} buffers in {} objects), {} B down",
            self.upload.raw_bytes(),
            self.upload.wire_bytes(),
            if self.upload.items.iter().any(|i| i.compressed) {
                "compressed"
            } else {
                "raw"
            },
            self.upload.items.len(),
            self.upload_objects,
            self.download.raw_bytes(),
        )?;
        if self.resilience.total_events() > 0 || self.resilience.breaker_tripped {
            write!(
                f,
                "\n  resilience: {} retries, {} re-fetches, {} timeouts, {:.3}s backoff{}",
                self.resilience.transient_retries,
                self.resilience.corruption_refetches,
                self.resilience.timeouts,
                self.resilience.backoff_seconds,
                if self.resilience.breaker_tripped {
                    ", breaker OPEN"
                } else {
                    ""
                }
            )?;
        }
        if self.resilience.recovered() || self.resilience.quarantine_trips > 0 {
            write!(
                f,
                "\n  recovery: {} tiles resumed, {} replayed, {} resume attempts, \
                 {} commits, {} orphans collected, {} quarantine trips, {} heartbeat misses",
                self.resilience.tiles_resumed,
                self.resilience.tiles_replayed,
                self.resilience.resume_attempts,
                self.resilience.commits_published,
                self.resilience.orphans_collected,
                self.resilience.quarantine_trips,
                self.resilience.heartbeat_misses,
            )?;
        }
        if self.dataflow.any() {
            write!(
                f,
                "\n  dataflow: {} resident hits, {} misses, {} downloads elided",
                self.dataflow.resident_hits,
                self.dataflow.resident_misses,
                self.dataflow.elided_downloads,
            )?;
            if self.dataflow.lineage_recomputes > 0
                || self.dataflow.stage_fallbacks > 0
                || self.dataflow.resident_repairs > 0
            {
                write!(
                    f,
                    ", {} lineage recomputes, {} stage fallbacks, {} repairs",
                    self.dataflow.lineage_recomputes,
                    self.dataflow.stage_fallbacks,
                    self.dataflow.resident_repairs,
                )?;
            }
        }
        if self.map_plan.any() {
            write!(f, "\n  map plan: {}", self.map_plan)?;
        }
        if self.tenant != "default" {
            write!(f, "\n  tenant: {}", self.tenant)?;
        }
        if let Some(cost) = &self.cost {
            write!(f, "\n  cost: {cost}")?;
        }
        Ok(())
    }
}
