//! The three workloads and the driver that runs their cells.
//!
//! A [`Plan`] names a workload's instruction streams, how long each is
//! recorded, and the cells (full-detail simulations) or sampling units
//! run over the recordings. [`drive`] runs a plan in process: program
//! build and trace recording first (the set-up), then every cell or
//! unit. Untraced, the cells go through the executor the figure
//! binaries use (`arvi_bench::par_map` over `run_one_traced`) and the
//! units through `arvi_sampling::run_units`, at any thread count. Traced
//! (one thread only), they run in order with a span around each layer
//! call.

use std::sync::Arc;
use std::time::Instant;

use arvi_bench::{grid, par_map, run_one_traced, trace_len, Spec, SweepPoint, Workload};
use arvi_isa::Emulator;
use arvi_sampling::{aggregate, run_units, SamplePlan, SampleReport, SampleUnit, DETAIL_RAMP};
use arvi_sim::{Depth, MachineStats, PredictorConfig, RebasedSource, SimParams, WarmupMachine};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::WorkloadSource;

use crate::spans::{SpanId, Spans};

/// The seed every pinned reference is made for.
pub const DEFAULT_SEED: u64 = 42;
/// A seed never used while tuning: a claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 1_000_003;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `experiments` cells: 8 benchmarks, 100k + 500k, four grids.
    PaperRegen,
    /// 9 curated scenarios x 3 depths, 2Bc-gskew only, 100k + 1M.
    ScenarioGskew,
    /// 8 benchmarks recorded to 4M, ARVI current value at 20 stages,
    /// stratified 8:100000:20000 over `[100k, end)`.
    SampledLong,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperRegen, Kind::ScenarioGskew, Kind::SampledLong];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRegen => "paper-regen",
            Kind::ScenarioGskew => "scenario-gskew",
            Kind::SampledLong => "sampled-long",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One full-detail simulation over a stream's recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub stream: usize,
    pub depth: Depth,
    pub config: PredictorConfig,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub threads: usize,
    pub streams: Vec<Workload>,
    /// Instructions recorded per stream.
    pub trace_len: u64,
    /// Per-cell warm-up, and the start of the sampled region.
    pub warmup: u64,
    /// Per-cell measured instructions.
    pub measure: u64,
    /// Cell grids, run one after another with a barrier between them.
    pub grids: Vec<Vec<Cell>>,
    /// Sampling plan over `[warmup, trace_len)` of every stream.
    pub sample: Option<SamplePlan>,
}

/// The program's own grid (`arvi_bench::grid`, as the figure
/// binaries build it), with each workload named by its stream index.
fn cells(streams: &[Workload], depths: &[Depth], configs: &[PredictorConfig]) -> Vec<Cell> {
    grid(streams, depths, configs)
        .into_iter()
        .map(|p: SweepPoint| Cell {
            stream: streams
                .iter()
                .position(|w| *w == p.workload)
                .expect("the grid spans the plan's streams"),
            depth: p.depth,
            config: p.config,
        })
        .collect()
}

impl Plan {
    /// The full-size plan of a workload. `paper-regen` ignores `seed`:
    /// the `experiments` binary has no seed flag and always uses 42.
    pub fn new(kind: Kind, seed: u64, threads: usize) -> Plan {
        match kind {
            Kind::PaperRegen => {
                let spec = Spec::default();
                let streams = Workload::suite();
                // The grids `experiments` sweeps, in its order: Figure 5
                // (24 cells), then Figure 6 at each depth (32).
                let mut grids = vec![cells(
                    &streams,
                    &Depth::all(),
                    &[PredictorConfig::ArviCurrent],
                )];
                for depth in Depth::all() {
                    grids.push(cells(&streams, &[depth], &PredictorConfig::all()));
                }
                Plan {
                    kind,
                    seed: spec.seed,
                    threads,
                    streams,
                    trace_len: trace_len(spec),
                    warmup: spec.warmup,
                    measure: spec.measure,
                    grids,
                    sample: None,
                }
            }
            Kind::ScenarioGskew => {
                let spec = Spec {
                    warmup: 100_000,
                    measure: 1_000_000,
                    seed,
                };
                let streams = Workload::curated_scenarios();
                let grids = vec![cells(
                    &streams,
                    &Depth::all(),
                    &[PredictorConfig::TwoLevelGskew],
                )];
                Plan {
                    kind,
                    seed,
                    threads,
                    streams,
                    trace_len: trace_len(spec),
                    warmup: spec.warmup,
                    measure: spec.measure,
                    grids,
                    sample: None,
                }
            }
            Kind::SampledLong => Plan {
                kind,
                seed,
                threads,
                streams: Workload::suite(),
                trace_len: 4_000_000,
                warmup: 100_000,
                measure: 0,
                grids: Vec::new(),
                sample: Some(Plan::unit_plan()),
            },
        }
    }

    /// The window every cell simulates.
    pub fn spec(&self) -> Spec {
        Spec {
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed,
        }
    }

    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.grids.iter().flatten()
    }

    /// Cells that repeat an earlier one are counted once here.
    pub fn distinct_cells(&self) -> usize {
        let mut seen: Vec<&Cell> = Vec::new();
        for c in self.cells() {
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen.len()
    }

    /// The sampling units of one stream.
    pub fn units(&self) -> Vec<SampleUnit> {
        match &self.sample {
            Some(plan) => plan.units(self.warmup, self.trace_len - self.warmup, self.seed),
            None => Vec::new(),
        }
    }

    pub fn cell_label(&self, c: &Cell) -> String {
        format!(
            "{} @{} / {}",
            self.streams[c.stream].name(),
            c.depth,
            c.config
        )
    }

    /// The sampling plan of `sampled-long`: 1-in-8 units of 100k
    /// functional warm-up and 20k detail, stratified.
    pub fn unit_plan() -> SamplePlan {
        SamplePlan::stratified(8, 100_000, 20_000)
    }

    pub fn sample_params() -> SimParams {
        SimParams::for_depth(Depth::D20)
    }

    pub const SAMPLE_CONFIG: PredictorConfig = PredictorConfig::ArviCurrent;
}

/// The simulated outcome of one cell or unit.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub label: String,
    pub stats: MachineStats,
}

/// Everything one run of a plan produced.
#[derive(Debug)]
pub struct RunResult {
    pub traces: Vec<Arc<Trace>>,
    /// Host seconds for the cells or units.
    pub sim_s: f64,
    /// Cells in plan order, then units stream by stream.
    pub outcomes: Vec<Outcome>,
    /// Per-stream sampled estimates (sampled workloads only).
    pub reports: Vec<SampleReport>,
}

impl RunResult {
    /// Instructions whose statistics the run reports: every cell's
    /// measurement window, or the whole sampled region.
    pub fn reported_insts(&self, plan: &Plan) -> u64 {
        match plan.sample {
            Some(_) => plan.streams.len() as u64 * (plan.trace_len - plan.warmup),
            None => plan.cells().count() as u64 * plan.measure,
        }
    }

    /// Counter totals over every cell or unit.
    pub fn totals(&self) -> MachineStats {
        self.outcomes
            .iter()
            .fold(MachineStats::default(), |acc, o| {
                arvi_sampling::merge_stats(&acc, &o.stats)
            })
    }
}

/// FNV-1a over every counter of a block: two runs agree on a cell iff
/// their digests agree.
pub fn digest(s: &MachineStats) -> u64 {
    let fields = [
        s.committed,
        s.cycles,
        s.cond_branches.correct(),
        s.cond_branches.total(),
        s.l1_only.correct(),
        s.l1_only.total(),
        s.calc_class.correct(),
        s.calc_class.total(),
        s.load_class.correct(),
        s.load_class.total(),
        s.overrides,
        s.overrides_correcting,
        s.bvit_hits,
        s.full_mispredicts,
        s.override_restarts,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fields {
        for b in f.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Builds the stream's program and records it.
fn record_stream(plan: &Plan, i: usize, spans: &mut Spans, parent: SpanId) -> Trace {
    let w = &plan.streams[i];
    let s = spans.open("workloads.build", parent, i as u32);
    let program = w.program(plan.seed);
    spans.close(s);
    let s = spans.open("trace.record", parent, i as u32);
    let trace = Trace::record(Emulator::new(program), plan.trace_len, w.name(), plan.seed);
    spans.close(s);
    trace
}

fn run_cell(plan: &Plan, trace: &Arc<Trace>, cell: &Cell) -> MachineStats {
    run_one_traced(trace, cell.depth, cell.config, plan.spec()).window
}

/// `arvi_sampling::run_unit`, step by step, with a span around each
/// step: seek, functional warm-up, hand-over to the detailed machine,
/// and the detailed ramp plus measured window. Only traced drives use
/// it; the tests pin it to `run_units`.
pub fn run_unit_spanned(
    trace: &Arc<Trace>,
    params: &SimParams,
    config: PredictorConfig,
    unit: &SampleUnit,
    spans: &mut Spans,
    id: u32,
) -> MachineStats {
    let top = spans.open("sampling.unit", None, id);
    let ramp = unit.warmup_len().min(DETAIL_RAMP);
    let s = spans.open("trace.seek", top, id);
    let mut replayer = TraceReplayer::new(Arc::clone(trace));
    replayer
        .seek_to_inst(unit.warmup_start)
        .expect("plan units lie inside the recording");
    spans.close(s);
    let s = spans.open("sim.warm", top, id);
    let mut warm = WarmupMachine::new(params.clone(), config);
    warm.warm(&mut replayer, unit.warmup_len() - ramp);
    spans.close(s);
    let s = spans.open("sim.into_machine", top, id);
    let mut machine = warm.into_machine(RebasedSource::new(replayer, unit.detail_start - ramp));
    spans.close(s);
    let s = spans.open("sim.detail", top, id);
    let fill = machine.stats().clone();
    machine.run_until_committed_exact(fill.committed + ramp);
    let start = machine.stats().clone();
    machine.run_until_committed_exact(start.committed + unit.detail_len);
    spans.close(s);
    spans.close(top);
    machine.stats().since(&start)
}

/// Runs `plan` once. `on_setup` is called between set-up and the first
/// cell. Spans need `plan.threads == 1`.
pub fn drive(plan: &Plan, spans: &mut Spans, on_setup: impl FnOnce()) -> RunResult {
    let traced = spans.enabled();
    assert!(
        plan.threads == 1 || !traced,
        "spans are recorded at one thread only"
    );
    let indices: Vec<usize> = (0..plan.streams.len()).collect();
    let traces = if traced {
        let mut out = Vec::new();
        for &i in &indices {
            let s = spans.open("setup.stream", None, i as u32);
            out.push(Arc::new(record_stream(plan, i, spans, s)));
            spans.close(s);
        }
        out
    } else {
        par_map(&indices, plan.threads, |&i| {
            Arc::new(record_stream(plan, i, &mut Spans::new(false), None))
        })
    };
    on_setup();

    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    for cells in &plan.grids {
        let done: Vec<MachineStats> = if traced {
            let first = outcomes.len() as u32;
            (first..)
                .zip(cells)
                .map(|(id, c)| {
                    let s = spans.open("sim.machine", None, id);
                    let stats = run_cell(plan, &traces[c.stream], c);
                    spans.close(s);
                    stats
                })
                .collect()
        } else {
            par_map(cells, plan.threads, |c| {
                run_cell(plan, &traces[c.stream], c)
            })
        };
        for (c, stats) in cells.iter().zip(done) {
            outcomes.push(Outcome {
                label: plan.cell_label(c),
                stats,
            });
        }
    }

    let mut reports = Vec::new();
    if plan.sample.is_some() {
        let units = plan.units();
        let params = Plan::sample_params();
        for (si, trace) in traces.iter().enumerate() {
            let blocks: Vec<MachineStats> = if traced {
                let first = outcomes.len() as u32;
                (first..)
                    .zip(&units)
                    .map(|(id, u)| {
                        run_unit_spanned(trace, &params, Plan::SAMPLE_CONFIG, u, spans, id)
                    })
                    .collect()
            } else {
                run_units(trace, &params, Plan::SAMPLE_CONFIG, &units, plan.threads)
                    .expect("plan units lie inside the recording")
            };
            reports.push(aggregate(&blocks, plan.trace_len - plan.warmup));
            for (u, stats) in units.iter().zip(blocks) {
                outcomes.push(Outcome {
                    label: format!("{}#{}", plan.streams[si].name(), u.index),
                    stats,
                });
            }
        }
    }
    let sim_s = t0.elapsed().as_secs_f64();
    RunResult {
        traces,
        sim_s,
        outcomes,
        reports,
    }
}
