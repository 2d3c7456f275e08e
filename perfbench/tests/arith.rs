//! The benchmark's own arithmetic: percentiles, interval unions and the
//! self-time residual, the store-key classifier, the VmHWM parser, the
//! open-loop sojourn bookkeeping, and the probes' counting.

use cloud_storage::{ObjectStore, S3Store};
use perfbench::intervals::{clip, decompose, max_concurrency, merge, union_len};
use perfbench::json::J;
use perfbench::layers::{sum_windows, Window};
use perfbench::openloop::{parse_region_name, region_name, SojournBook};
use perfbench::phase::{classify, Op, Phase};
use perfbench::probe::ProbeStore;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::{median, nearest_rank, tail};
use perfbench::sys::parse_vm_hwm;
use perfbench::trace::{Span, Tracer, NONE};
use perfbench::{Args, WORKLOADS};
use std::sync::Arc;

fn one_to(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the statistics must sort.
    let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
    v.reverse();
    v
}

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_picks_the_highest_step_with_ten_samples_beyond() {
    let t = tail(&one_to(100)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    // One sample fewer and p90 has only 9 beyond it: fall back to p75.
    let t = tail(&one_to(99)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (75.0, 75.0, 24));
    let t = tail(&one_to(200)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    let t = tail(&one_to(20)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    let t = tail(&one_to(40)).unwrap();
    assert_eq!((t.pct, t.value), (75.0, 30.0));
}

#[test]
fn tail_reports_the_maximum_when_too_few_samples() {
    let t = tail(&one_to(19)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond, t.samples), (100.0, 19.0, 0, 19));
    assert!(tail(&[]).is_none());
}

#[test]
fn nearest_rank_is_one_based_and_clamped() {
    assert_eq!(nearest_rank(50.0, 10), 5);
    assert_eq!(nearest_rank(99.9, 10), 10);
    assert_eq!(nearest_rank(0.0, 10), 1);
}

#[test]
fn union_merges_overlapping_and_touching_intervals() {
    let iv = [(10, 20), (0, 5), (15, 30), (30, 35), (40, 40), (50, 60)];
    assert_eq!(merge(&iv), vec![(0, 5), (10, 35), (50, 60)]);
    assert_eq!(union_len(&iv), 5 + 25 + 10);
    assert_eq!(union_len(&[]), 0);
}

#[test]
fn clip_keeps_only_the_window() {
    assert_eq!(
        clip(&[(0, 10), (5, 15), (20, 30)], (5, 12)),
        vec![(5, 10), (5, 12)]
    );
}

#[test]
fn concurrency_counts_open_intervals_and_not_touching_ones() {
    assert_eq!(max_concurrency(&[(0, 10), (10, 20), (20, 30)]), 1);
    assert_eq!(max_concurrency(&[(0, 10), (5, 15), (8, 9), (20, 30)]), 3);
    assert_eq!(max_concurrency(&[]), 0);
}

#[test]
fn decomposition_counts_overlap_once_and_sums_to_wall() {
    // Window 0..100: store ops cover 10..40 and 60..70, kernels 30..50,
    // one store op leaks past the window end and is clipped.
    let d = decompose((0, 100), &[(10, 40), (60, 70), (95, 130)], &[(30, 50)]);
    assert_eq!(d.wall, 100);
    assert_eq!(d.storage, 30 + 10 + 5);
    assert_eq!(d.kernels, 20);
    assert_eq!(d.overlap, 10);
    // Covered: 10..50, 60..70, 95..100 = 55; residual 45.
    assert_eq!(d.self_ns, 45);
    assert_eq!(d.storage + d.kernels - d.overlap + d.self_ns, d.wall);
}

#[test]
fn window_sums_group_children_by_parent() {
    let span = |id, layer, parent, start, end, phase| Span {
        id,
        name: "x",
        layer,
        region: 1,
        parent,
        start_ns: start,
        end_ns: end,
        bytes: 0,
        phase,
    };
    let spans = vec![
        span(2, "storage", 1, 0, 10, "host_upload"),
        span(3, "storage", 1, 5, 20, "driver_fetch"),
        span(4, "kernels", 1, 15, 30, ""),
        span(5, "kernels", 9, 0, 100, ""), // another window's child
    ];
    let sums = sum_windows(
        &spans,
        &[Window {
            span_id: 1,
            interval: (0, 40),
        }],
    );
    assert_eq!(
        (sums.storage_ns, sums.kernels_ns, sums.overlap_ns),
        (20, 15, 5)
    );
    assert_eq!(sums.self_ns, 10);
    assert_eq!(sums.identity_residual_ns(), 0);
    assert_eq!(sums.phase_ns[&Phase::HostUpload], 10);
    assert_eq!(sums.phase_ns[&Phase::DriverFetch], 15);
    assert_eq!((sums.max_inflight, sums.max_concurrency), (2, 1));
    assert_eq!((sums.iterations, sums.busy_ns), (1, 15));
}

#[test]
fn store_keys_map_to_offload_phases() {
    let cases = [
        (Op::Put, "jobs/job-3/in/x", Phase::HostUpload),
        (Op::Get, "jobs/job-3/in/x", Phase::DriverFetch),
        (Op::Put, "jobs/job-3/out/y", Phase::OutputWrite),
        (Op::Get, "jobs/job-3/out/y", Phase::HostDownload),
        (Op::Put, "in/x", Phase::HostUpload),
        (Op::Put, "jobs/job-3/_tmp/out/y", Phase::Commit),
        (Op::Get, "jobs/region-ab12/manifest", Phase::Commit),
        (Op::Put, "journal/ab12/loop-0/tile-00001", Phase::Commit),
        (Op::Meta("list"), "jobs/journal/ab12/", Phase::Commit),
        (Op::Meta("delete"), "jobs/job-3/in/x", Phase::Other),
        (Op::Get, "jobs/dataflow/dag/v0/x", Phase::Other),
        (Op::Put, "jobs/job-3/input/x", Phase::Other),
    ];
    for (op, key, phase) in cases {
        assert_eq!(classify(op, key), phase, "{op:?} {key}");
    }
}

#[test]
fn vm_hwm_parses_kilobytes_only() {
    let status = "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10240 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(20480));
    assert_eq!(parse_vm_hwm("VmRSS:\t 10240 kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t 10 MB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
}

#[test]
fn sojourn_runs_from_due_time_to_drain_return() {
    let mut book = SojournBook::new(vec![0.0, 1.0, 2.0]);
    // The generator ran late on arrival 1.
    book.submitted(0, 0.0).unwrap();
    book.submitted(1, 1.5).unwrap();
    book.submitted(2, 2.0).unwrap();
    // One drain call completed 0 and 1 and returned at 2.5.
    book.completed(0, 2.5).unwrap();
    book.completed(1, 2.5).unwrap();
    assert_eq!(book.sojourns(|_| true), vec![2.5, 1.5]);
    assert_eq!(book.sojourns(|i| i != 0), vec![1.5]);
    assert_eq!(book.lags(), vec![0.0, 0.5, 0.0]);
    assert_eq!(book.outstanding(), 1);
    book.completed(2, 3.0).unwrap();
    assert_eq!(book.outstanding(), 0);
}

#[test]
fn sojourn_book_rejects_impossible_histories() {
    let mut book = SojournBook::new(vec![1.0, 2.0]);
    assert!(book.completed(0, 3.0).is_err(), "not submitted yet");
    book.submitted(0, 1.0).unwrap();
    assert!(book.submitted(0, 1.1).is_err(), "submitted twice");
    assert!(book.completed(0, 0.5).is_err(), "before it was due");
    book.completed(0, 1.5).unwrap();
    assert!(book.completed(0, 1.6).is_err(), "completed twice");
    assert!(book.submitted(7, 1.0).is_err(), "unknown arrival");
}

#[test]
fn region_names_round_trip() {
    assert_eq!(parse_region_name(&region_name(42)), Some(42));
    assert_eq!(parse_region_name("gemm"), None);
}

#[test]
fn probe_counts_every_op_and_traces_only_when_enabled() {
    let tracer = Arc::new(Tracer::default());
    let probe = ProbeStore::new(Arc::new(S3Store::standalone("t")), Arc::clone(&tracer));
    probe.put("jobs/job-1/in/x", vec![0u8; 100]).unwrap();
    assert_eq!(probe.get("jobs/job-1/in/x").unwrap().len(), 100);
    assert!(probe.get("jobs/job-1/in/missing").is_err());
    assert!(probe.exists("jobs/job-1/in/x"));
    let c = probe.counts();
    assert_eq!((c.puts, c.gets, c.meta, c.failed), (1, 2, 1, 1));
    assert_eq!(
        (c.put_bytes, c.get_bytes, c.ops(), c.bytes()),
        (100, 100, 4, 200)
    );
    assert!(tracer.spans().is_empty(), "tracing was off");

    tracer.set_enabled(true);
    tracer.enter(7, 99);
    probe.put("jobs/job-2/out/y", vec![1u8; 8]).unwrap();
    let spans = tracer.spans();
    assert_eq!(spans.len(), 1);
    let s = &spans[0];
    assert_eq!(
        (s.name, s.layer, s.phase),
        ("put", "storage", "output_write")
    );
    assert_eq!((s.region, s.parent, s.bytes), (7, 99, 8));
    assert!(s.end_ns >= s.start_ns);
    assert_eq!(probe.counts().since(&c).puts, 1);
    tracer.enter(NONE, NONE);
}

#[test]
fn args_parse_the_driver_command_line() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload gemm_dense --seed 3 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        a,
        Args {
            workload: "gemm_dense".into(),
            seed: 3,
            seconds: 10.0,
            trace: true
        }
    );
    assert!(Args::parse(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
    assert!(Args::parse(&argv(
        "--workload gemm_dense --seed 3 --seconds 0 --trace 0"
    ))
    .is_err());
    assert!(Args::parse(&argv(
        "--workload gemm_dense --seed 3 --seconds 1 --trace 2"
    ))
    .is_err());
    assert!(Args::parse(&argv("--workload gemm_dense --seconds 1")).is_err());
}

#[test]
fn json_lines_stay_on_one_line() {
    let j = J::obj([
        ("s", J::Str("a\"b\\c\nd".into())),
        ("n", J::Num(0.1)),
        ("i", J::Int(7)),
        ("x", J::Num(f64::NAN)),
        ("a", J::Arr(vec![J::Bool(true)])),
    ]);
    assert_eq!(
        j.line(),
        r#"{"s":"a\"b\\c\u000ad","n":0.1,"i":7,"x":null,"a":[true]}"#
    );
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = text.matches("\"name\":").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "metric {name} ({unit})"
        );
    }
}
