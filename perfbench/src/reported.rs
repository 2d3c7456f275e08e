//! Self-reported counters: the program's own view of the regions the
//! benchmark timed, read from its public reports and labelled as such.

use crate::report::Outcome;
use omp_model::ExecProfile;
use sparkle::JobMetrics;

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean `ExecProfile` buckets, and the gap between `wall_s` (the
/// measured wall time of the same regions, summed) and the profiles'
/// summed totals.
pub fn profiles(out: &mut Outcome, profiles: &[ExecProfile], wall_s: f64) {
    let m = profiles.len().max(1) as f64;
    let mean = |f: &dyn Fn(&ExecProfile) -> f64| profiles.iter().map(f).sum::<f64>() / m;
    out.set("core.host_comm_s", mean(&|p| p.host_comm_s));
    out.set("core.overhead_s", mean(&|p| p.overhead_s));
    out.set("core.compute_s", mean(&|p| p.compute_s));
    out.set("core.overlap_s", mean(&|p| p.overlap_s));
    out.set("core.compress_busy_s", mean(&|p| p.compress_busy_s));
    out.set("core.store_busy_s", mean(&|p| p.store_busy_s));
    out.set("core.wire_bytes_to", mean(&|p| p.wire_bytes_to as f64));
    out.set("core.wire_bytes_from", mean(&|p| p.wire_bytes_from as f64));
    out.set(
        "core.attribution_gap_s",
        (wall_s - profiles.iter().map(ExecProfile::total_s).sum::<f64>()) / m,
    );
}

/// Scheduler counters of `jobs`, per region over `regions` regions.
pub fn jobs(out: &mut Outcome, jobs: &[JobMetrics], regions: f64) {
    let sum = |f: &dyn Fn(&JobMetrics) -> f64| jobs.iter().map(f).sum::<f64>();
    let launched = sum(&|j| j.spec_launched as f64);
    out.set("sparkle.tasks", sum(&|j| j.tasks.len() as f64) / regions);
    out.set(
        "sparkle.job_wall_s",
        sum(&|j| j.wall_seconds) / jobs.len().max(1) as f64,
    );
    out.set("sparkle.steals", sum(&|j| j.steals as f64) / regions);
    out.set("sparkle.spec_launched", launched / regions);
    out.set(
        "sparkle.spec_useful_ratio",
        ratio(sum(&|j| j.spec_wins as f64), launched),
    );
    out.set(
        "sparkle.failed_attempts",
        sum(&|j| j.failed_attempts as f64) / regions,
    );
}
