//! Sampled sweeps: the `--sample` execution mode of the experiment
//! binaries.
//!
//! A sampled sweep replaces each cell's full detailed run with a
//! [`SamplePlan`] over the cell's recorded trace: `k`-periodic units of
//! functional warm-up + detailed measurement (see `arvi_sampling`). It is
//! one more kind of job on the one grid runner
//! ([`crate::resilience::run_grid`] with
//! [`crate::resilience::Jobs::Sampled`]): the job list
//! is the *flattened* `(cell, unit)` grid, so even a single long-window
//! cell saturates every core — intra-run parallelism the serial full run
//! cannot have. This module holds the unit job, the per-cell
//! aggregation, the grid's result type ([`SampledSweep`]) and its CI
//! table.
//!
//! Sampled sweeps therefore compose with the whole resilience stack:
//!
//! * every finished unit is journaled individually (keyed by
//!   [`unit_fingerprint`]), so a killed run resumes per *unit*, not per
//!   cell;
//! * unit panics and trace errors are isolated per cell;
//! * a cell whose workload has no usable recording cannot be sampled
//!   (sampling seeks; live emulation cannot) and runs as a whole-cell
//!   job, falling back to a full live run reported as
//!   [`Degradation::LiveEmulation`] with `sampled_units == 0` (or, in a
//!   sweep with no trace set at all, as an undegraded live run).
//!
//! Determinism: unit results are committed in flattened-grid order and
//! merged with integer-exact counter sums, so a sampled sweep's results
//! — including every CI — are bit-identical across thread counts and
//! across kill + `--resume`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arvi_sampling::{aggregate, run_unit, SamplePlan, SampleReport, SampleUnit};
use arvi_sim::{intern_name, MachineStats, SimParams, SimResult};
use arvi_stats::Table;
use arvi_trace::{Trace, REPLAY_PANIC_PREFIX};

use crate::harness::Spec;
use crate::resilience::{
    cell_fingerprint, panic_message, CellOutcome, CellSuccess, Degradation, Journal,
    SweepIncomplete,
};
use crate::sweep::SweepPoint;
use crate::workload::fnv1a;

/// Parses a `--sample PLAN` argument pair out of `args`
/// (`k:warmup:detail` or `stratified:k:warmup:detail`; see
/// [`SamplePlan::parse`]). `Ok(None)` when the flag is absent.
pub fn sample_plan_from_args(args: &[String]) -> Result<Option<SamplePlan>, String> {
    crate::flag_value(args, "--sample")?
        .map(|v| SamplePlan::parse(v))
        .transpose()
}

/// A completed grid run, sampled or not: its points, one [`CellOutcome`]
/// per point, plus the per-cell [`SampleReport`] — the CI-carrying
/// aggregate — for every cell that actually sampled (`None` for
/// unsampled runs, live-fallback cells and failures). Figure tables are
/// views over it ([`crate::fig5_tables`], [`crate::Fig6Data::collect`],
/// [`sample_ci_table`]).
#[derive(Debug)]
pub struct SampledSweep {
    /// The grid points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// One outcome per grid point, in grid order.
    pub outcomes: Vec<CellOutcome>,
    /// One report per grid point, in grid order; `None` where the cell
    /// did not produce sampled estimates.
    pub reports: Vec<Option<SampleReport>>,
}

impl SampledSweep {
    /// Where `point` sits in this sweep.
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not run `point`.
    fn index(&self, point: &SweepPoint) -> usize {
        self.points
            .iter()
            .position(|p| p == point)
            .unwrap_or_else(|| panic!("{point} is not a cell of this sweep"))
    }

    /// The results of `points` (cells of this sweep) in `points` order,
    /// or every one of them that did not complete, named by its index
    /// in the sweep. `sweep.results(&sweep.points)` is the whole grid.
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not run one of `points`.
    pub fn results(&self, points: &[SweepPoint]) -> Result<Vec<&SimResult>, SweepIncomplete> {
        let mut results = Vec::with_capacity(points.len());
        let mut failed = Vec::new();
        for point in points {
            let i = self.index(point);
            match &self.outcomes[i] {
                CellOutcome::Ok(s) => results.push(&s.result),
                other => failed.push((
                    i,
                    point.to_string(),
                    other.failure().expect("non-ok outcome has a reason"),
                )),
            }
        }
        if failed.is_empty() {
            Ok(results)
        } else {
            Err(SweepIncomplete {
                total: points.len(),
                failed,
            })
        }
    }
}

/// Identity hash of one sampling unit of one cell: the cell fingerprint
/// extended with the plan (whose placement determines the unit's trace
/// positions) and the unit index. Journal entries written under a
/// different plan or unit can never satisfy a resume lookup.
pub fn unit_fingerprint(point: &SweepPoint, spec: Spec, plan: &SamplePlan, unit: u64) -> u64 {
    let mut h = fnv1a(cell_fingerprint(point, spec), b"arvi-sampled-unit-v1");
    h = fnv1a(h, plan.to_string().as_bytes());
    h = fnv1a(h, &unit.to_le_bytes());
    h
}

/// One finished sampling unit.
pub(crate) enum UnitDone {
    Ok {
        stats: MachineStats,
        duration: Duration,
        resumed: bool,
    },
    Failed {
        message: String,
        trace_error: bool,
    },
}

/// Runs (or restores) one sampling unit of `point`, keyed `fp` in the
/// journal, and journals a fresh result.
pub(crate) fn run_unit_job(
    point: &SweepPoint,
    fp: u64,
    trace: &Arc<Trace>,
    unit: &SampleUnit,
    prior: &HashMap<u64, CellSuccess>,
    journal: Option<&Journal>,
) -> UnitDone {
    if let Some(s) = prior.get(&fp) {
        return UnitDone::Ok {
            stats: s.result.window.clone(),
            duration: s.duration,
            resumed: true,
        };
    }
    let params = SimParams::for_depth(point.depth);
    let start = Instant::now();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_unit(trace, &params, point.config, unit)
    }));
    let duration = start.elapsed();
    match attempt {
        Ok(Ok(stats)) => {
            if let Some(journal) = journal {
                // One journal entry per unit, in the cell entry format:
                // the unit's counter block rides in the `window` field.
                let entry = CellSuccess {
                    result: SimResult {
                        name: intern_name(point.workload.name()),
                        config: point.config,
                        depth_stages: point.depth.stages(),
                        window: stats.clone(),
                    },
                    degradation: Degradation::None,
                    resumed: false,
                    duration,
                    sampled_units: 0,
                    probes: None,
                };
                journal.append(fp, &entry);
            }
            UnitDone::Ok {
                stats,
                duration,
                resumed: false,
            }
        }
        Ok(Err(e)) => UnitDone::Failed {
            message: e.to_string(),
            trace_error: true,
        },
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let trace_error = message.contains(REPLAY_PANIC_PREFIX);
            UnitDone::Failed {
                message,
                trace_error,
            }
        }
    }
}

/// Folds one sampled cell's unit slots (in unit order; `None` for a
/// unit that was never dispatched) into its outcome and report.
pub(crate) fn assemble_cell(
    point: &SweepPoint,
    spec: Spec,
    cell: usize,
    slots: Vec<Option<UnitDone>>,
    degradation: Degradation,
) -> (CellOutcome, Option<SampleReport>) {
    let mut stats = Vec::with_capacity(slots.len());
    let mut duration = Duration::ZERO;
    let mut all_resumed = true;
    let mut missing = false;
    for slot in slots {
        match slot {
            Some(UnitDone::Ok {
                stats: s,
                duration: d,
                resumed,
            }) => {
                stats.push(s);
                duration += d;
                all_resumed &= resumed;
            }
            Some(UnitDone::Failed {
                message,
                trace_error,
            }) => {
                let message = format!("cell {cell} ({point}): {message}");
                let outcome = if trace_error {
                    CellOutcome::TraceError { message }
                } else {
                    CellOutcome::Panicked { message }
                };
                return (outcome, None);
            }
            None => missing = true,
        }
    }
    if missing {
        // Some units were never dispatched (simulated kill); journaled
        // ones will be restored by a --resume re-run.
        return (CellOutcome::Skipped, None);
    }
    let report = aggregate(&stats, spec.measure);
    let result = SimResult {
        name: intern_name(point.workload.name()),
        config: point.config,
        depth_stages: point.depth.stages(),
        window: report.totals.clone(),
    };
    let units = report.ipc.units.max(stats.len());
    (
        CellOutcome::Ok(CellSuccess {
            result,
            degradation,
            resumed: all_resumed,
            duration,
            sampled_units: units,
            probes: None,
        }),
        Some(report),
    )
}

/// The confidence-interval table of a sampled sweep over `points` (cells
/// of `sweep`), one row per point in `points` order: IPC and accuracy
/// estimates with 95% half-widths, unit counts and coverage. Cells
/// without a report (live fallback, failures) show a dash.
///
/// # Panics
///
/// Panics if `sweep` lacks one of `points`.
pub fn sample_ci_table(points: &[SweepPoint], sweep: &SampledSweep) -> Table {
    let mut t = Table::new(vec![
        "workload".into(),
        "depth".into(),
        "config".into(),
        "IPC".into(),
        "±95%".into(),
        "accuracy".into(),
        "±95%".into(),
        "units".into(),
        "coverage".into(),
    ]);
    for point in points {
        let mut row = vec![
            point.workload.name().to_string(),
            point.depth.to_string(),
            point.config.label().to_string(),
        ];
        match &sweep.reports[sweep.index(point)] {
            Some(r) => row.extend([
                format!("{:.4}", r.ipc.mean),
                format!("{:.4}", r.ipc.ci_half_width()),
                format!("{:.4}", r.accuracy.mean),
                format!("{:.4}", r.accuracy.ci_half_width()),
                format!("{}", r.units()),
                format!("{:.1}%", r.coverage() * 100.0),
            ]),
            None => row.extend(std::iter::repeat_n("-".to_string(), 6)),
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_grid, Jobs, Resilience};
    use crate::sweep::{grid, TraceSet};
    use crate::workload::Workload;
    use arvi_sim::{Depth, PredictorConfig};
    use arvi_workloads::Benchmark;

    fn tiny_spec() -> Spec {
        Spec {
            warmup: 2_000,
            measure: 8_000,
            seed: 3,
        }
    }

    #[test]
    fn sample_flag_parses() {
        let args = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(sample_plan_from_args(&args(&["--quick"])).unwrap(), None);
        let plan = sample_plan_from_args(&args(&["--sample", "4:1000:500"]))
            .unwrap()
            .unwrap();
        assert_eq!(plan, SamplePlan::systematic(4, 1000, 500));
        assert!(sample_plan_from_args(&args(&["--sample"])).is_err());
        assert!(sample_plan_from_args(&args(&["--sample", "--quick"])).is_err());
        assert!(sample_plan_from_args(&args(&["--sample", "nope"])).is_err());
    }

    #[test]
    fn unit_fingerprints_separate_plan_and_unit() {
        let spec = tiny_spec();
        let point = SweepPoint {
            workload: Benchmark::Li.into(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        };
        let a = SamplePlan::systematic(4, 1000, 500);
        let b = SamplePlan::systematic(2, 1000, 500);
        let fp = unit_fingerprint(&point, spec, &a, 0);
        assert_eq!(fp, unit_fingerprint(&point, spec, &a, 0));
        assert_ne!(fp, unit_fingerprint(&point, spec, &a, 1));
        assert_ne!(fp, unit_fingerprint(&point, spec, &b, 0));
        assert_ne!(fp, cell_fingerprint(&point, spec), "unit keys are distinct");
    }

    #[test]
    fn sampled_sweep_is_thread_invariant_and_reports_cis() {
        let spec = tiny_spec();
        let workloads = [Workload::from(Benchmark::Compress)];
        let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
        let traces = TraceSet::record(&workloads, spec, 1, None, &Resilience::default());
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let res = Resilience::default();
        let jobs = Jobs::Sampled(&plan);
        let one = run_grid(&points, spec, jobs, 1, false, Some(&traces), &res);
        let four = run_grid(&points, spec, jobs, 4, false, Some(&traces), &res);
        for sweep in [&one, &four] {
            let s = sweep.outcomes[0].success().expect("cell sampled");
            assert_eq!(s.sampled_units, 4, "8k measure / (2*1k) stride");
            let r = sweep.reports[0].as_ref().expect("report present");
            assert_eq!(r.units(), 4);
            assert!((r.coverage() - 0.5).abs() < 0.01);
            assert!(r.ipc.mean > 0.0);
        }
        let (a, b) = (
            &one.outcomes[0].success().unwrap().result.window,
            &four.outcomes[0].success().unwrap().result.window,
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.cond_branches, b.cond_branches);
        let (ra, rb) = (
            one.reports[0].as_ref().unwrap(),
            four.reports[0].as_ref().unwrap(),
        );
        assert_eq!(ra.ipc.mean.to_bits(), rb.ipc.mean.to_bits());
        assert_eq!(ra.ipc.stderr.to_bits(), rb.ipc.stderr.to_bits());
        let table = sample_ci_table(&points, &one);
        assert!(table.to_text().contains("coverage"));
    }

    #[test]
    fn cell_without_trace_falls_back_to_live_full_run() {
        let spec = tiny_spec();
        let recorded = [Workload::from(Benchmark::Compress)];
        // Grid includes a workload the trace set never recorded.
        let points = grid(
            &[Workload::from(Benchmark::Li)],
            &[Depth::D20],
            &[PredictorConfig::TwoLevelGskew],
        );
        let traces = TraceSet::record(&recorded, spec, 1, None, &Resilience::default());
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let sweep = run_grid(
            &points,
            spec,
            Jobs::Sampled(&plan),
            2,
            false,
            Some(&traces),
            &Resilience::default(),
        );
        let s = sweep.outcomes[0].success().expect("fallback ran");
        assert_eq!(s.degradation, Degradation::LiveEmulation);
        assert_eq!(s.sampled_units, 0);
        assert!(sweep.reports[0].is_none());
    }

    #[test]
    fn sampled_jobs_without_traces_run_every_cell_whole_and_live() {
        let spec = tiny_spec();
        let points = grid(
            &[Workload::from(Benchmark::Compress), Benchmark::Li.into()],
            &[Depth::D20],
            &[PredictorConfig::TwoLevelGskew, PredictorConfig::ArviCurrent],
        );
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let res = Resilience::default();
        let sampled = run_grid(&points, spec, Jobs::Sampled(&plan), 2, false, None, &res);
        let whole = run_grid(&points, spec, Jobs::Cells, 2, false, None, &res);
        for (i, point) in points.iter().enumerate() {
            let s = sampled.outcomes[i].success().expect("cell ran");
            assert_eq!(s.degradation, Degradation::None, "{point}: no trace set");
            assert_eq!(s.sampled_units, 0, "{point}: a whole run");
            assert!(sampled.reports[i].is_none(), "{point}: no estimate");
            let w = &whole.outcomes[i].success().unwrap().result.window;
            assert_eq!(
                format!("{:?}", s.result.window),
                format!("{w:?}"),
                "{point}"
            );
        }
    }

    #[test]
    fn sampled_sweep_journals_and_resumes_per_unit() {
        let spec = tiny_spec();
        let workloads = [Workload::from(Benchmark::Go)];
        let points = grid(&workloads, &[Depth::D20], &[PredictorConfig::ArviCurrent]);
        let traces = TraceSet::record(&workloads, spec, 1, None, &Resilience::default());
        let plan = SamplePlan::systematic(2, 500, 1_000);
        let dir = std::env::temp_dir().join(format!("arvi-sampled-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = dir.join("sweep.journal");

        // First run: killed after 2 of the cell's 4 units.
        let events = dir.join("events.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let mut res = Resilience::default()
            .with_journal(&journal)
            .with_plan(crate::resilience::FaultPlan::parse("kill-after 2").unwrap());
        res.events = Some(std::sync::Arc::new(
            crate::events::EventLog::create(&events).unwrap(),
        ));
        let jobs = Jobs::Sampled(&plan);
        let partial = run_grid(&points, spec, jobs, 1, false, Some(&traces), &res);
        assert!(matches!(partial.outcomes[0], CellOutcome::Skipped));
        // The cell that started still closes: one cell_start, one
        // skipped cell_end.
        let log = std::fs::read_to_string(&events).unwrap();
        let lines = |name: &str| {
            log.lines()
                .filter(|l| l.contains(&format!("\"event\":\"{name}\"")))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines("cell_start").len(), 1, "{log}");
        let ends = lines("cell_end");
        assert_eq!(ends.len(), 1, "{log}");
        assert!(ends[0].contains("\"outcome\":\"skipped\""), "{log}");

        // Resumed run completes and matches an uninterrupted run.
        let res = Resilience::default().with_journal(&journal).resuming();
        let resumed = run_grid(&points, spec, jobs, 2, false, Some(&traces), &res);
        let res = Resilience::default();
        let clean = run_grid(&points, spec, jobs, 2, false, Some(&traces), &res);
        let (r, c) = (
            &resumed.outcomes[0].success().expect("completed").result,
            &clean.outcomes[0].success().unwrap().result,
        );
        assert_eq!(r.window.cycles, c.window.cycles);
        assert_eq!(r.window.committed, c.window.committed);
        assert_eq!(r.window.cond_branches, c.window.cond_branches);
        let (rr, cr) = (
            resumed.reports[0].as_ref().unwrap(),
            clean.reports[0].as_ref().unwrap(),
        );
        assert_eq!(rr.ipc.mean.to_bits(), cr.ipc.mean.to_bits());
        assert_eq!(rr.ipc.stderr.to_bits(), cr.ipc.stderr.to_bits());
        assert_eq!(rr.accuracy.mean.to_bits(), cr.accuracy.mean.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }
}
