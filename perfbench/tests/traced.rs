//! The benchmark's own checks, on shrunken plans: tracing leaves every
//! simulated digest unchanged, and the layer passes see exactly the
//! instructions and branches the machine commits on the same stream.

use arvi_bench::TRACE_SLACK;
use arvi_sampling::SamplePlan;
use perfbench::layers::{layer_passes, traced_run};
use perfbench::spans::Spans;
use perfbench::work::{digest, drive, Kind, Plan, RunResult};

fn small(kind: Kind, threads: usize) -> Plan {
    let mut plan = Plan::new(kind, 7, threads);
    plan.streams.truncate(2);
    for g in &mut plan.grids {
        g.retain(|c| c.stream < 2);
    }
    plan.warmup = 5_000;
    if plan.sample.is_some() {
        plan.trace_len = 120_000;
        plan.sample = Some(SamplePlan::stratified(4, 10_000, 4_000));
    } else {
        plan.measure = 20_000;
        plan.trace_len = plan.warmup + plan.measure + TRACE_SLACK;
    }
    plan
}

fn digests(r: &RunResult) -> Vec<(String, u64)> {
    r.outcomes
        .iter()
        .map(|o| (o.label.clone(), digest(&o.stats)))
        .collect()
}

#[test]
fn spans_leave_digests_unchanged() {
    for kind in Kind::ALL {
        let plan = small(kind, 1);
        let off = drive(&plan, &mut Spans::new(false), || {});
        let mut spans = Spans::new(true);
        let on = drive(&plan, &mut spans, || {});
        assert!(!spans.all().is_empty());
        assert!(!off.outcomes.is_empty());
        assert_eq!(digests(&off), digests(&on), "{}", kind.name());
    }
}

#[test]
fn serial_spanned_drive_matches_the_parallel_executors() {
    for kind in Kind::ALL {
        let serial = drive(&small(kind, 1), &mut Spans::new(true), || {});
        let parallel = drive(&small(kind, 2), &mut Spans::new(false), || {});
        assert_eq!(digests(&serial), digests(&parallel), "{}", kind.name());
    }
}

#[test]
fn layer_counts_equal_machine_stats() {
    for kind in [Kind::ScenarioGskew, Kind::SampledLong] {
        let plan = small(kind, 1);
        let run = drive(&plan, &mut Spans::new(false), || {});
        let counts = layer_passes(&plan, &run.traces, &mut Spans::new(true));
        assert!(counts.insts > 0 && counts.cond_branches > 0);
        for m in &counts.machine {
            assert_eq!(m.committed, counts.insts, "{}", kind.name());
            assert_eq!(
                m.cond_branches.total(),
                counts.cond_branches,
                "{}",
                kind.name()
            );
        }
    }
}

#[test]
fn traced_run_reports_every_metric() {
    let t = traced_run(&small(Kind::PaperRegen, 2));
    assert_eq!(t.digests_on, t.digests_off);
    assert_eq!(t.metrics.len(), 32);
    for (name, value) in &t.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let header = r#"{"workload":"test"}"#;
    let text = t.spans.to_jsonl(header);
    assert_eq!(text.lines().next(), Some(header));
    assert_eq!(text.lines().count(), t.spans.all().len() + 1);
}
