//! Grid-scale telemetry contract tests:
//!
//! 1. **Thread determinism** — the merged `obs_grid.json` rollup is
//!    byte-identical across worker counts (cells merge in point order,
//!    not completion order).
//! 2. **Resume fidelity** — a grid killed mid-run and resumed from its
//!    `sweep.journal` renders byte-identically to an uninterrupted run
//!    (full-fidelity probe serialization, no run-shape fields in the
//!    JSON).
//! 3. **Conservation** — every group's merged counter sums equal the
//!    sums of its per-cell commit counts over the full benchmark suite,
//!    and the grid total equals the sum over groups.
//! 4. **Attribution** — on a data-dependent-branch scenario the
//!    ARVI-vs-baseline diff names at least one branch PC ARVI fixes
//!    (the paper's core claim, made falsifiable per site).
//! 5. **Structured events** — the resilient sweep's `--events-out`
//!    JSONL log parses line by line with the expected span events, one
//!    `cell_end` per cell.

use std::sync::Arc;

use arvi::sim::{Depth, PredictorConfig};
use arvi::workloads::Benchmark;
use arvi_bench::{
    attribution_diff, grid, obs_grid_json, run_grid, EventLog, FaultPlan, Jobs, Json, ObsGrid,
    Resilience, Spec, TraceSet, Workload,
};

fn tiny_spec() -> Spec {
    Spec {
        warmup: 500,
        measure: 1_500,
        seed: 3,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arvi-obsgrid-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_workloads() -> Vec<Workload> {
    vec![
        Workload::from(Benchmark::Compress),
        Workload::from(Benchmark::Li),
    ]
}

#[test]
fn rollup_is_byte_identical_across_thread_counts() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None, &Resilience::default());

    let render = |threads: usize| {
        let res = Resilience::default();
        let sweep = run_grid(
            &points,
            spec,
            Jobs::Probed,
            threads,
            false,
            Some(&traces),
            &res,
        );
        let g = ObsGrid::from_sweep(&sweep, spec, None);
        assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);
        obs_grid_json(&g, 5).render()
    };
    let one = render(1);
    assert_eq!(one, render(4), "1 vs 4 threads");
    assert_eq!(one, render(8), "1 vs 8 threads");
}

#[test]
fn killed_grid_resumes_byte_identical() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None, &Resilience::default());
    let dir = temp_dir("resume");
    let journal = dir.join("sweep.journal");

    // Reference: one uninterrupted, journal-free run.
    let res = Resilience::default();
    let sweep = run_grid(&points, spec, Jobs::Probed, 1, false, Some(&traces), &res);
    let direct = ObsGrid::from_sweep(&sweep, spec, None);
    let direct_json = obs_grid_json(&direct, 5).render();

    // First run dies after 3 completed cells; its sweep.journal keeps
    // the finished telemetry.
    let res = Resilience::default()
        .with_journal(&journal)
        .with_plan(FaultPlan::parse("kill-after 3").unwrap());
    let sweep = run_grid(&points, spec, Jobs::Probed, 1, false, Some(&traces), &res);
    let killed = ObsGrid::from_sweep(&sweep, spec, None);
    assert_eq!(killed.completed, 3, "killed after 3 cells");
    assert_eq!(killed.failed.len(), points.len() - 3);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.starts_with("# arvi sweep journal v1"), "{text}");
    assert_eq!(text.lines().count(), 1 + 3, "header + one line per cell");

    // Second run resumes: journaled telemetry restored, the rest
    // simulated — and the rollup is byte-identical to the direct run.
    let res = Resilience::default().with_journal(&journal).resuming();
    let sweep = run_grid(&points, spec, Jobs::Probed, 1, false, Some(&traces), &res);
    let resumed = ObsGrid::from_sweep(&sweep, spec, None);
    assert_eq!(resumed.completed, points.len());
    assert_eq!(resumed.resumed, 3, "every journaled cell restored");
    assert_eq!(
        obs_grid_json(&resumed, 5).render(),
        direct_json,
        "resumed rollup must be byte-identical to an uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_counter_sums_equal_per_cell_sums_over_the_suite() {
    let spec = tiny_spec();
    let workloads = Workload::suite();
    let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
    let traces = TraceSet::record(&workloads, spec, 4, None, &Resilience::default());
    let res = Resilience::default();
    let sweep = run_grid(&points, spec, Jobs::Probed, 4, false, Some(&traces), &res);
    let g = ObsGrid::from_sweep(&sweep, spec, None);
    assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);
    assert_eq!(
        g.groups.len(),
        workloads.len() * PredictorConfig::all().len()
    );

    // Per (workload, config) group: merged committed count == the sum
    // of that group's per-cell commit counts.
    let mut grand_total = 0u64;
    for group in &g.groups {
        let cell_sum: u64 = points
            .iter()
            .zip(&g.cells_committed)
            .filter(|(p, _)| p.workload.name() == group.workload && p.config == group.config)
            .filter_map(|(_, c)| *c)
            .sum();
        assert!(cell_sum > 0, "group {} ran nothing", group.workload);
        assert_eq!(
            group.counters.committed, cell_sum,
            "group ({}, {}) merged commits diverge from its cells",
            group.workload, group.config
        );
        grand_total += cell_sum;
    }
    assert_eq!(
        g.counters.committed, grand_total,
        "grid-wide merge diverges from the sum over groups"
    );

    // The same invariant holds for the rendered JSON's numbers.
    let json = obs_grid_json(&g, 5);
    assert_eq!(
        json.num("grid.counters.committed"),
        Some(grand_total as f64)
    );
    assert_eq!(json.num("completed"), Some(points.len() as f64));
}

#[test]
fn attribution_names_sites_arvi_fixes_on_datadep() {
    // A data-dependent-branch scenario: the two-level baseline hovers
    // near chance while ARVI reads the operands — per-site attribution
    // must surface concrete PCs that ARVI fixes.
    let spec = Spec {
        warmup: 2_000,
        measure: 8_000,
        seed: 3,
    };
    let workloads = vec![Workload::scenario(
        arvi::synth::find("datadep-deep").expect("curated scenario"),
    )];
    let points = grid(
        &workloads,
        &[Depth::D20],
        &[PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent],
    );
    let res = Resilience::default();
    let sweep = run_grid(&points, spec, Jobs::Probed, 1, false, None, &res);
    let g = ObsGrid::from_sweep(&sweep, spec, None);
    assert_eq!(g.completed, points.len(), "failed cells: {:?}", g.failed);

    let json = obs_grid_json(&g, 10);
    let attribution = attribution_diff(&json, 10).expect("both configs present");
    assert_eq!(attribution.workloads.len(), 1);
    let w = &attribution.workloads[0];
    assert_eq!(w.workload, "datadep-deep");
    assert_eq!(w.arvi_config, "arvi current value");
    assert_eq!(w.baseline_config, "2-level 2Bc-gskew");
    assert!(
        w.arvi_accuracy > w.baseline_accuracy,
        "ARVI must beat the baseline on datadep ({:.4} vs {:.4})",
        w.arvi_accuracy,
        w.baseline_accuracy
    );
    assert!(
        !w.fixed.is_empty(),
        "at least one fixed site expected on datadep"
    );
    let top = &w.fixed[0];
    assert!(top.delta > 0);
    assert!(top.baseline_mispredicts > top.arvi_mispredicts);
    assert!(top.executed >= top.baseline_mispredicts);

    // Renderings carry the same story.
    let md = attribution.to_markdown();
    assert!(md.contains("datadep-deep"), "{md}");
    assert!(md.contains("sites ARVI fixes"), "{md}");
    let back = attribution.to_json();
    let Some(Json::Arr(ws)) = back.get("workloads") else {
        panic!("workloads array missing");
    };
    assert!(ws[0].num("arvi_accuracy").unwrap() > ws[0].num("baseline_accuracy").unwrap());
}

#[test]
fn events_jsonl_from_a_resilient_sweep() {
    let spec = tiny_spec();
    let workloads = small_workloads();
    let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
    let dir = temp_dir("events");
    let events_path = dir.join("logs/events.jsonl");

    let res = Resilience {
        events: Some(Arc::new(EventLog::create(&events_path).unwrap())),
        ..Resilience::default()
    };
    let traces = TraceSet::record(&workloads, spec, 2, None, &Resilience::default());
    let outcomes = run_grid(&points, spec, Jobs::Cells, 2, false, Some(&traces), &res).outcomes;
    assert!(outcomes.iter().all(|o| o.success().is_some()));

    // Every line is a JSON object with a monotonic-origin timestamp and
    // an event name; the span events cover the sweep lifecycle.
    let text = std::fs::read_to_string(&events_path).unwrap();
    let mut seen = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert!(
            j.num("t_us").is_some(),
            "line {} has no t_us: {line}",
            i + 1
        );
        match j.get("event") {
            Some(Json::Str(name)) => seen.push(name.clone()),
            _ => panic!("line {} has no event name: {line}", i + 1),
        }
    }
    for expected in ["sweep_start", "cell_start", "cell_end", "sweep_end"] {
        assert!(
            seen.iter().any(|e| e == expected),
            "event `{expected}` missing from {seen:?}"
        );
    }
    assert_eq!(
        seen.iter().filter(|e| *e == "cell_end").count(),
        points.len(),
        "one cell_end per cell"
    );
    std::fs::remove_dir_all(&dir).ok();
}
