//! Experiment driver: one function per paper artifact.
//!
//! A figure binary sweeps its grid once ([`Run::sweep`]: the
//! fault-isolated grid runner, sampled when the run has a plan, probed
//! under `--obs-grid`). Figure 5 ([`fig5_tables`]) and each Figure 6
//! depth ([`Fig6Data::collect`]) are views over that one sweep: each
//! looks up its own cells by point, in its own order, so a view over the
//! full evaluation grid renders exactly as it does over its own grid.

use std::sync::Arc;

use arvi_sim::{intern_name, simulate_source, Depth, PredictorConfig, SimParams, SimResult};
use arvi_stats::{amean, Table};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::Benchmark;

use crate::resilience::SweepIncomplete;
use crate::sampling::{sample_ci_table, SampledSweep};
use crate::sweep::grid;
use crate::workload::Workload;
use crate::Run;

/// Sweep parameters: instruction windows and the workload input seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Warmup instructions (excluded from measurement).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Workload input seed.
    pub seed: u64,
}

impl Default for Spec {
    /// The default experiment window: 100k warmup + 500k measured.
    fn default() -> Spec {
        Spec {
            warmup: 100_000,
            measure: 500_000,
            seed: 42,
        }
    }
}

impl Spec {
    /// A fast window for smoke tests and `cargo bench` figure replays.
    pub fn quick() -> Spec {
        Spec {
            warmup: 20_000,
            measure: 80_000,
            seed: 42,
        }
    }
}

/// Runs one cell by replaying a shared recording instead of emulating;
/// bit-identical to live emulation of the trace's workload (the timing
/// model sees the same committed stream either way).
///
/// # Panics
///
/// Panics if the recording is too short for `spec`'s window — a short
/// trace would otherwise end the run early and silently report a
/// truncated measurement window as if it were the full one.
pub fn run_one_traced(
    trace: &Arc<Trace>,
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
) -> SimResult {
    let needed = crate::sweep::trace_len(spec);
    assert!(
        trace.len() >= needed,
        "trace {} holds {} instructions but the {}+{} window (plus fetch-ahead slack) needs {needed} \
         — it was recorded under a smaller spec",
        trace.name(),
        trace.len(),
        spec.warmup,
        spec.measure,
    );
    simulate_source(
        intern_name(trace.name()),
        TraceReplayer::new(Arc::clone(trace)),
        SimParams::for_depth(depth),
        config,
        spec.warmup,
        spec.measure,
    )
}

/// Figure 5 over `run`'s workloads, read from `sweep` (which must hold
/// every workload at every depth under ARVI current value): (a) the
/// fraction of load branches per workload at each pipeline depth, and
/// (b) prediction accuracy of calculated versus load branches (20-stage,
/// ARVI current value). Returns the two tables plus, when `run` samples,
/// the confidence-interval table over the figure's cells; a failed cell
/// of the figure yields a [`SweepIncomplete`] naming it.
///
/// # Panics
///
/// Panics if `sweep` lacks one of the figure's cells.
pub fn fig5_tables(
    run: &Run,
    sweep: &SampledSweep,
) -> Result<(Table, Table, Option<Table>), SweepIncomplete> {
    let depths = Depth::all();
    let points = grid(&run.workloads, &depths, &[PredictorConfig::ArviCurrent]);
    let results = sweep.results(&points)?;
    let mut fig5a = Table::new(vec![
        "workload".into(),
        "20-cycle".into(),
        "40-cycle".into(),
        "60-cycle".into(),
    ]);
    let mut fig5b = Table::new(vec![
        "workload".into(),
        "calc branch".into(),
        "load branch".into(),
    ]);
    for (workload, per_depth) in run.workloads.iter().zip(results.chunks(depths.len())) {
        let mut row = vec![workload.name().to_string()];
        row.extend(
            per_depth
                .iter()
                .map(|r| format!("{:.3}", r.load_branch_fraction())),
        );
        fig5a.row(row);
        let d20 = &per_depth[0];
        fig5b.row(vec![
            workload.name().to_string(),
            format!("{:.4}", d20.window.calc_class.rate()),
            format!("{:.4}", d20.window.load_class.rate()),
        ]);
    }
    let ci = run.plan.is_some().then(|| sample_ci_table(&points, sweep));
    Ok((fig5a, fig5b, ci))
}

/// The full Figure 6 dataset for one pipeline depth.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Pipeline depth simulated.
    pub depth: Depth,
    /// Workloads swept, one per results row.
    pub workloads: Vec<Workload>,
    /// Per-workload, per-configuration results, `results[workload][config]`
    /// in `workloads` x `PredictorConfig::all()` order.
    pub results: Vec<Vec<SimResult>>,
}

impl Fig6Data {
    /// The Figure 6 dataset at `depth` (`run`'s workloads x every
    /// configuration), read from `sweep`. Returns the dataset plus, when
    /// `run` samples, the confidence-interval table over its cells; a
    /// failed cell of the figure yields a [`SweepIncomplete`] naming it.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` lacks one of the figure's cells.
    pub fn collect(
        run: &Run,
        sweep: &SampledSweep,
        depth: Depth,
    ) -> Result<(Fig6Data, Option<Table>), SweepIncomplete> {
        let configs = PredictorConfig::all();
        let points = grid(&run.workloads, &[depth], &configs);
        let flat = sweep.results(&points)?;
        let data = Fig6Data {
            depth,
            workloads: run.workloads.clone(),
            results: flat
                .chunks(configs.len())
                .map(|row| row.iter().copied().cloned().collect())
                .collect(),
        };
        let ci = run.plan.is_some().then(|| sample_ci_table(&points, sweep));
        Ok((data, ci))
    }

    /// The prediction-accuracy table (Figure 6 a/c/e).
    pub fn accuracy_table(&self) -> Table {
        let mut headers = vec!["workload".to_string()];
        headers.extend(PredictorConfig::all().iter().map(|c| c.label().to_string()));
        let mut t = Table::new(headers);
        for (wi, workload) in self.workloads.iter().enumerate() {
            let mut row = vec![workload.name().to_string()];
            for r in &self.results[wi] {
                row.push(format!("{:.4}", r.accuracy()));
            }
            t.row(row);
        }
        t
    }

    /// The normalized-IPC table with the paper's `average` row (Figure 6
    /// b/d/f); IPC is normalized to the two-level 2Bc-gskew baseline.
    pub fn normalized_ipc_table(&self) -> Table {
        let mut headers = vec!["workload".to_string()];
        headers.extend(PredictorConfig::all().iter().map(|c| c.label().to_string()));
        let mut t = Table::new(headers);
        let mut sums = vec![Vec::new(); PredictorConfig::all().len()];
        for (wi, workload) in self.workloads.iter().enumerate() {
            let base = self.results[wi][0].ipc();
            let mut row = vec![workload.name().to_string()];
            for (ci, r) in self.results[wi].iter().enumerate() {
                let norm = r.ipc() / base;
                sums[ci].push(norm);
                row.push(format!("{norm:.3}"));
            }
            t.row(row);
        }
        let mut avg_row = vec!["average".to_string()];
        for s in &sums {
            avg_row.push(format!("{:.3}", amean(s)));
        }
        t.row(avg_row);
        t
    }

    /// Mean normalized IPC for a configuration (the paper's headline
    /// statistic; e.g. "+12.6%" = 1.126 for ARVI current value at 20
    /// stages).
    pub fn mean_normalized_ipc(&self, config: PredictorConfig) -> f64 {
        let ci = PredictorConfig::all()
            .iter()
            .position(|&c| c == config)
            .expect("known config");
        let norms: Vec<f64> = self
            .results
            .iter()
            .map(|per| per[ci].ipc() / per[0].ipc())
            .collect();
        amean(&norms)
    }
}

/// Renders the paper's configuration tables (1, 2, 3 and 4) from the
/// actual structures in this codebase, so the printed numbers are the
/// ones the simulator really uses.
pub fn paper_tables() -> Vec<(String, Table)> {
    let mut out = Vec::new();

    // Table 1: ARVI access steps.
    let mut t1 = Table::new(vec!["step".into(), "action".into()]);
    for (i, action) in [
        "Read the data dependence chain from the DDT for the branch",
        "Generate the register set from the dependence chain (RSE)",
        "In parallel, generate the index (XOR of register values) and the ID-sum tag",
        "Index the BVIT, compare the ID and depth tags, return a prediction",
    ]
    .iter()
    .enumerate()
    {
        t1.row(vec![format!("{}", i + 1), action.to_string()]);
    }
    out.push(("Table 1: ARVI access details".into(), t1));

    // Table 2: architectural parameters (rendered from SimParams).
    let p20 = SimParams::for_depth(Depth::D20);
    let p40 = SimParams::for_depth(Depth::D40);
    let p60 = SimParams::for_depth(Depth::D60);
    let mut t2 = Table::new(vec!["parameter".into(), "value".into()]);
    t2.row(vec![
        "fetch, decode width".into(),
        format!("{} instructions", p20.fetch_width),
    ]);
    t2.row(vec!["ROB entries".into(), format!("{}", p20.rob_entries)]);
    t2.row(vec![
        "load/store queue entries".into(),
        format!("{}", p20.lsq_entries),
    ]);
    t2.row(vec![
        "integer units".into(),
        format!("{} ALUs, {} mult/div", p20.int_alus, p20.int_muldiv),
    ]);
    t2.row(vec![
        "instruction TLB".into(),
        format!(
            "{} entries ({}-way), {} B pages, {} cycle miss",
            p20.itlb.entries, p20.itlb.ways, p20.itlb.page_bytes, p20.tlb_miss_penalty
        ),
    ]);
    t2.row(vec![
        "data TLB".into(),
        format!(
            "{} entries ({}-way), {} B pages, {} cycle miss",
            p20.dtlb.entries, p20.dtlb.ways, p20.dtlb.page_bytes, p20.tlb_miss_penalty
        ),
    ]);
    t2.row(vec![
        "L1 I-cache".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l1i.size_bytes / 1024,
            p20.l1i.ways,
            p20.l1i.line_bytes,
            p20.l1_latency,
            p40.l1_latency,
            p60.l1_latency
        ),
    ]);
    t2.row(vec![
        "L1 D-cache".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l1d.size_bytes / 1024,
            p20.l1d.ways,
            p20.l1d.line_bytes,
            p20.l1_latency,
            p40.l1_latency,
            p60.l1_latency
        ),
    ]);
    t2.row(vec![
        "L2 unified".into(),
        format!(
            "{} KB, {}-way, {} B line, {{{}, {}, {}}} cycles",
            p20.l2.size_bytes / 1024,
            p20.l2.ways,
            p20.l2.line_bytes,
            p20.l2_latency,
            p40.l2_latency,
            p60.l2_latency
        ),
    ]);
    t2.row(vec![
        "memory latency".into(),
        format!(
            "{{{}, {}, {}}} cycles initial",
            p20.mem_latency, p40.mem_latency, p60.mem_latency
        ),
    ]);
    out.push((
        "Table 2: architectural parameters (latencies for 20/40/60-stage pipelines)".into(),
        t2,
    ));

    // Table 3: benchmark suite.
    let mut t3 = Table::new(vec![
        "benchmark".into(),
        "paper window (M instr)".into(),
        "this repro (warmup+measured)".into(),
    ]);
    for b in Benchmark::all() {
        let (lo, hi) = b.paper_window_m();
        let (w, m) = b.default_window();
        t3.row(vec![
            b.name().into(),
            format!("{lo}M-{hi}M"),
            format!("{}k + {}k", w / 1000, m / 1000),
        ]);
    }
    out.push(("Table 3: SPEC95 integer benchmarks".into(), t3));

    // Table 4: predictor access latencies.
    let mut t4 = Table::new(vec![
        "predictor".into(),
        "size".into(),
        "20-cycle".into(),
        "40-cycle".into(),
        "60-cycle".into(),
    ]);
    t4.row(vec![
        "Level-1 hybrid".into(),
        "4 KB".into(),
        "1".into(),
        "1".into(),
        "1".into(),
    ]);
    t4.row(vec![
        "Level-2 hybrid".into(),
        "32 KB".into(),
        format!("{}", p20.l2_pred_latency),
        format!("{}", p40.l2_pred_latency),
        format!("{}", p60.l2_pred_latency),
    ]);
    t4.row(vec![
        "Level-2 ARVI".into(),
        "32 KB".into(),
        format!("{}", p20.arvi_latency),
        format!("{}", p40.arvi_latency),
        format!("{}", p60.arvi_latency),
    ]);
    out.push(("Table 4: predictor access latencies (cycles)".into(), t4));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults() {
        let s = Spec::default();
        assert_eq!(s.warmup, 100_000);
        assert!(Spec::quick().measure < s.measure);
    }

    #[test]
    fn paper_tables_render() {
        let tables = paper_tables();
        assert_eq!(tables.len(), 4);
        assert!(tables[1].1.to_text().contains("ROB entries"));
        assert!(tables[3].1.to_text().contains("Level-2 ARVI"));
        // Table 4 carries the paper's latency scaling.
        assert!(tables[3].1.to_csv().contains("Level-2 ARVI,32 KB,6,12,18"));
    }

    #[test]
    fn live_cell_produces_window() {
        let spec = Spec {
            warmup: 5_000,
            measure: 20_000,
            seed: 1,
        };
        let point = crate::SweepPoint {
            workload: Benchmark::Vortex.into(),
            depth: Depth::D20,
            config: PredictorConfig::TwoLevelGskew,
        };
        let (r, degradation, _) =
            crate::resilience::simulate_cell(&point, spec, None, arvi_obs::NullProbe);
        assert_eq!(
            degradation,
            crate::Degradation::None,
            "no trace set: live is normal"
        );
        // Commit width allows up to 3 instructions of slack at each
        // window boundary.
        assert!(r.window.committed >= 20_000 - 6);
        assert!(r.ipc() > 0.1);
    }
}
