//! The traced run: the workload's own cells with spans on and off, and
//! one pass per layer over every stream, each timed from outside.
//!
//! Most layer calls take tens of nanoseconds, no longer than a clock
//! read, so no call gets a span of its own. Instead the layer passes
//! are batched: a stream is decoded in blocks of [`BLOCK`] records and
//! each layer runs over the whole block inside one span. Calls that
//! take microseconds or more (a trace seek, a sampling unit, a cell)
//! get one span each.
//!
//! Layer passes replay the warm-up model's loop
//! (`arvi_sim::WarmupMachine`) one layer at a time:
//!
//! * `trace.decode`: draining a `TraceReplayer` into the block;
//! * `sim.hierarchy`: `Hierarchy::fetch_inst` once per new fetch line
//!   and `access_data` per load or store;
//! * `sim.rename`: `RenameState` lookup, allocate and release;
//! * `core.ddt_pass`: rename plus the DDT calls `rename_op`,
//!   `writeback` and `commit_inst` under ARVI;
//! * `predict.gskew`: `BranchUnit::decide` and `commit_branch` under
//!   2Bc-gskew;
//! * `core.arvi_pass`: rename, DDT and `decide`/`commit_branch` under
//!   ARVI current value.
//!
//! A layer's cost is a pass's time or the difference of two passes;
//! `layers.warm_unattributed_pct` is what the functional ARVI warm-up
//! costs beyond decode, hierarchy and the ARVI pass together.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use arvi_core::{CurrentValues, PhysReg, RenamedOp};
use arvi_isa::{DynInst, Emulator};
use arvi_sim::{
    BranchDecision, BranchUnit, Depth, Hierarchy, InstSource, Machine, MachineStats,
    PredictorConfig, RenameState, SimParams, WarmupMachine,
};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::WorkloadSource;

use crate::spans::Spans;
use crate::work::{digest, drive, run_unit_spanned, Plan, RunResult};

/// Instructions per stream that the layer passes cover.
pub const LAYER_INSTS: u64 = 1_000_000;
/// Records per batched span.
pub const BLOCK: usize = 16_384;

/// One functional model assembled from a chosen subset of layers. Like
/// the warm-up model, it retires an instruction (and trains its branch)
/// once `rob_entries` younger ones have been seen. Passes without rename
/// or DDT keep no per-instruction window: their branches retire when a
/// later branch is predicted, so the pass costs nothing per non-branch.
struct Functional {
    rename: Option<RenameState>,
    bu: Option<BranchUnit>,
    ddt: bool,
    predict: bool,
    rob: u64,
    seen: u64,
    window: VecDeque<Option<PhysReg>>,
    decisions: VecDeque<(u64, u64, BranchDecision, bool)>,
}

impl Functional {
    fn new(
        params: &SimParams,
        config: PredictorConfig,
        rename: bool,
        ddt: bool,
        predict: bool,
    ) -> Self {
        Functional {
            rename: rename.then(|| RenameState::new(params.phys_regs)),
            bu: (ddt || predict).then(|| BranchUnit::new(params, config)),
            ddt,
            predict,
            rob: params.rob_entries as u64,
            seen: 0,
            window: VecDeque::with_capacity(params.rob_entries + 1),
            decisions: VecDeque::new(),
        }
    }

    fn tracks_window(&self) -> bool {
        self.rename.is_some() || self.ddt
    }

    fn retire_inst(&mut self) {
        let Some(prev) = self.window.pop_front() else {
            return;
        };
        if let (Some(r), Some(p)) = (self.rename.as_mut(), prev) {
            r.release(p);
        }
        if self.ddt {
            self.bu
                .as_mut()
                .expect("ddt pass has a branch unit")
                .commit_inst();
        }
    }

    fn retire_branches(&mut self, upto: u64) {
        while let Some(&(idx, pc, ref dec, actual)) = self.decisions.front() {
            if idx + self.rob > upto {
                break;
            }
            let bu = self.bu.as_mut().expect("predict pass has a branch unit");
            bu.commit_branch(pc, dec, actual);
            self.decisions.pop_front();
        }
    }

    fn step(&mut self, d: &DynInst) {
        if self.tracks_window() && self.window.len() as u64 >= self.rob {
            self.retire_inst();
        }
        let src_phys = match &self.rename {
            Some(r) => [
                d.srcs[0].map(|s| r.lookup(s)),
                d.srcs[1].map(|s| r.lookup(s)),
            ],
            None => [None, None],
        };
        if self.predict && d.is_branch() {
            self.retire_branches(self.seen);
            let actual = d.branch.expect("is_branch").taken;
            let bu = self.bu.as_mut().expect("predict pass has a branch unit");
            let dec = bu.decide(d.byte_pc(), src_phys, &CurrentValues, actual);
            self.decisions
                .push_back((self.seen, d.byte_pc(), dec, actual));
        }
        let (dest_phys, prev) = match (self.rename.as_mut(), d.dest) {
            (Some(r), Some(logical)) => {
                let (new, prev) = r.allocate(logical, d.seq, d.result, d.is_load(), d.hoist);
                (Some(new), Some(prev))
            }
            _ => (None, None),
        };
        if self.ddt {
            let bu = self.bu.as_mut().expect("ddt pass has a branch unit");
            let op = RenamedOp {
                dest: dest_phys,
                srcs: src_phys,
                is_load: d.is_load(),
            };
            bu.rename_op(&op, d.dest);
            if let Some(p) = dest_phys {
                bu.writeback(p, d.result);
            }
        }
        if self.tracks_window() {
            self.window.push_back(prev);
        }
        self.seen += 1;
    }

    fn drain(&mut self) {
        while !self.window.is_empty() {
            self.retire_inst();
        }
        self.retire_branches(u64::MAX - self.rob);
    }
}

/// Counts and simulated statistics the layer passes gather.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub insts: u64,
    pub cond_branches: u64,
    pub hier_accesses: u64,
    pub trace_bytes: u64,
    pub trace_insts: u64,
    /// Machine passes over the same instructions: 2Bc-gskew, ARVI.
    pub machine: [MachineStats; 2],
    /// (hits, misses) of L1I, L1D and L2 in the ARVI machine pass.
    pub caches: [(u64, u64); 3],
}

const PASS_CONFIGS: [(PredictorConfig, &str, &str); 2] = [
    (
        PredictorConfig::TwoLevelGskew,
        "sim.warm.gskew",
        "sim.machine.gskew",
    ),
    (
        PredictorConfig::ArviCurrent,
        "sim.warm.arvi",
        "sim.machine.arvi",
    ),
];

/// Runs every layer pass over the first [`LAYER_INSTS`] records of each
/// stream (fewer when a recording is shorter than that plus its
/// fetch-ahead slack).
pub fn layer_passes(plan: &Plan, traces: &[Arc<Trace>], spans: &mut Spans) -> LayerCounts {
    let params = SimParams::for_depth(Depth::D20);
    let mut counts = LayerCounts::default();
    for (i, trace) in traces.iter().enumerate() {
        let id = i as u32;
        let top = spans.open("layers.stream", None, id);
        let len = if plan.sample.is_some() {
            trace.len()
        } else {
            trace.len() - arvi_bench::TRACE_SLACK
        }
        .min(LAYER_INSTS);
        counts.trace_bytes += trace.encoded_bytes() as u64;
        counts.trace_insts += trace.len();

        let program = plan.streams[i].program(plan.seed);
        let s = spans.open("isa.emulate", top, id);
        for d in Emulator::new(program.clone()).take(len as usize) {
            black_box(d);
        }
        spans.close(s);
        let s = spans.open("trace.record_pass", top, id);
        black_box(Trace::record(
            Emulator::new(program),
            len,
            trace.name(),
            plan.seed,
        ));
        spans.close(s);

        let mut hier = Hierarchy::new(&params);
        let line_shift = (params.l1i.line_bytes as u64).trailing_zeros();
        let mut fetch_line = u64::MAX;
        let mut rename = Functional::new(&params, PredictorConfig::ArviCurrent, true, false, false);
        let mut ddt = Functional::new(&params, PredictorConfig::ArviCurrent, true, true, false);
        let mut gskew =
            Functional::new(&params, PredictorConfig::TwoLevelGskew, false, false, true);
        let mut arvi = Functional::new(&params, PredictorConfig::ArviCurrent, true, true, true);
        let mut replayer = TraceReplayer::new(Arc::clone(trace));
        let mut block: Vec<DynInst> = Vec::with_capacity(BLOCK);
        let mut left = len;
        while left > 0 {
            let n = left.min(BLOCK as u64);
            left -= n;
            let s = spans.open("trace.decode", top, id);
            block.clear();
            for _ in 0..n {
                block.push(
                    replayer
                        .next_inst()
                        .expect("pass stays inside the recording"),
                );
            }
            spans.close(s);

            let s = spans.open("sim.hierarchy", top, id);
            for d in &block {
                let line = d.byte_pc() >> line_shift;
                if line != fetch_line {
                    hier.fetch_inst(d.byte_pc());
                    fetch_line = line;
                    counts.hier_accesses += 1;
                }
                if d.is_load() || d.is_store() {
                    hier.access_data(d.mem_addr);
                    counts.hier_accesses += 1;
                }
            }
            spans.close(s);

            for (name, model) in [
                ("sim.rename", &mut rename),
                ("core.ddt_pass", &mut ddt),
                ("predict.gskew", &mut gskew),
                ("core.arvi_pass", &mut arvi),
            ] {
                let s = spans.open(name, top, id);
                for d in &block {
                    model.step(d);
                }
                spans.close(s);
            }
            counts.insts += n;
            counts.cond_branches += block.iter().filter(|d| d.is_branch()).count() as u64;
        }
        for (name, model) in [("predict.gskew", &mut gskew), ("core.arvi_pass", &mut arvi)] {
            let s = spans.open(name, top, id);
            model.drain();
            spans.close(s);
        }

        for (k, (config, warm_name, machine_name)) in PASS_CONFIGS.into_iter().enumerate() {
            let s = spans.open(warm_name, top, id);
            let mut warm = WarmupMachine::new(params.clone(), config);
            let mut src = TraceReplayer::new(Arc::clone(trace));
            assert_eq!(warm.warm(&mut src, len), len, "warm-up covers the pass");
            spans.close(s);

            let s = spans.open(machine_name, top, id);
            let mut machine = Machine::new(
                TraceReplayer::new(Arc::clone(trace)),
                params.clone(),
                config,
            );
            machine.run_until_committed_exact(len);
            spans.close(s);
            counts.machine[k] = arvi_sampling::merge_stats(&counts.machine[k], machine.stats());
            if config.is_arvi() {
                let h = machine.hierarchy();
                for (acc, (hits, misses)) in
                    counts
                        .caches
                        .iter_mut()
                        .zip([h.l1i_stats(), h.l1d_stats(), h.l2_stats()])
                {
                    acc.0 += hits;
                    acc.1 += misses;
                }
            }
        }
        spans.close(top);
    }
    counts
}

/// Every per-layer metric of the traced run, by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// What a traced run produced.
#[derive(Debug)]
pub struct Traced {
    pub metrics: Metrics,
    /// Simulated digests of the untraced and the traced drive.
    pub digests_off: Vec<(String, u64)>,
    pub digests_on: Vec<(String, u64)>,
    pub counts: LayerCounts,
    pub spans: Spans,
    /// Host seconds of the untraced and the traced drive.
    pub drive_s: [f64; 2],
}

fn digests(r: &RunResult) -> Vec<(String, u64)> {
    r.outcomes
        .iter()
        .map(|o| (o.label.clone(), digest(&o.stats)))
        .collect()
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run of `plan` (whose `threads` is the workload's own
/// thread count; the drives themselves run at one thread).
pub fn traced_run(plan: &Plan) -> Traced {
    let serial = Plan {
        threads: 1,
        ..plan.clone()
    };
    // The workload's cells, untraced then traced.
    let t0 = Instant::now();
    let off = drive(&serial, &mut Spans::new(false), || {});
    let off_s = t0.elapsed().as_secs_f64();
    let off_sim_s = off.sim_s;
    let digests_off = digests(&off);
    drop(off);
    let mut spans = Spans::new(true);
    let t0 = Instant::now();
    let on = drive(&serial, &mut spans, || {});
    let on_s = t0.elapsed().as_secs_f64();

    // Parallel efficiency at the workload's own thread count: serial
    // busy time over threads x wall of the same cells.
    let efficiency = if plan.threads > 1 {
        let par = drive(plan, &mut Spans::new(false), || {});
        ratio(off_sim_s, plan.threads as f64 * par.sim_s)
    } else {
        let busy: u64 = spans.total("sim.machine") + spans.total("sampling.unit");
        ratio(busy as f64 / 1e9, on.sim_s)
    };

    // Sampling units: the workload's own, or a probe with the same unit
    // shape over each stream of a full-detail workload.
    if plan.sample.is_none() {
        let probe = Plan {
            sample: Some(Plan::unit_plan()),
            ..serial.clone()
        };
        let units = probe.units();
        let params = Plan::sample_params();
        for (i, trace) in on.traces.iter().enumerate() {
            for u in &units {
                let id = (i * units.len()) as u32 + u.index as u32;
                black_box(run_unit_spanned(
                    trace,
                    &params,
                    Plan::SAMPLE_CONFIG,
                    u,
                    &mut spans,
                    id,
                ));
            }
        }
    }
    let counts = layer_passes(plan, &on.traces, &mut spans);
    let digests_on = digests(&on);
    let totals = on.totals();

    let per = |name: &str, n: u64| ratio(spans.total(name) as f64, n as f64);
    let insts = counts.insts;
    let branches = counts.cond_branches;
    let emulate = per("isa.emulate", insts);
    let decode = per("trace.decode", insts);
    let hierarchy = per("sim.hierarchy", insts);
    let rename = per("sim.rename", insts);
    let ddt_pass = per("core.ddt_pass", insts);
    let arvi_pass = per("core.arvi_pass", insts);
    let gskew_per_branch = per("predict.gskew", branches);
    let warm = [per("sim.warm.gskew", insts), per("sim.warm.arvi", insts)];
    let machine = [
        per("sim.machine.gskew", insts),
        per("sim.machine.arvi", insts),
    ];
    let arvi_machine = &counts.machine[1];
    let miss_rate = |(hits, misses): (u64, u64)| ratio(misses as f64, (hits + misses) as f64);
    let mut unit_ns = spans.durations("sampling.unit");
    unit_ns.sort_unstable();
    let mut seek_ns = spans.durations("trace.seek");
    seek_ns.sort_unstable();
    let builds = spans.durations("workloads.build");

    let metrics: Metrics = vec![
        (
            "workloads.build_ms",
            ratio(builds.iter().sum::<u64>() as f64, builds.len() as f64) / 1e6,
        ),
        ("isa.emulate_ns_per_inst", emulate),
        (
            "trace.encode_ns_per_inst",
            per("trace.record_pass", insts) - emulate,
        ),
        (
            "trace.bytes_per_inst",
            ratio(counts.trace_bytes as f64, counts.trace_insts as f64),
        ),
        ("trace.decode_ns_per_inst", decode),
        ("trace.seek_us", percentile(&seek_ns, 0.5) / 1e3),
        (
            "sim.hierarchy_ns_per_access",
            per("sim.hierarchy", counts.hier_accesses),
        ),
        ("sim.l1i_miss_rate", miss_rate(counts.caches[0])),
        ("sim.l1d_miss_rate", miss_rate(counts.caches[1])),
        ("sim.l2_miss_rate", miss_rate(counts.caches[2])),
        ("sim.rename_ns_per_inst", rename),
        ("predict.gskew_ns_per_branch", gskew_per_branch),
        ("core.ddt_ns_per_inst", ddt_pass - rename),
        (
            "core.arvi_ns_per_branch",
            ratio((arvi_pass - ddt_pass) * insts as f64, branches as f64) - gskew_per_branch,
        ),
        (
            "core.bvit_hit_rate",
            ratio(
                arvi_machine.bvit_hits as f64,
                arvi_machine.cond_branches.total() as f64,
            ),
        ),
        ("core.load_branch_frac", arvi_machine.load_branch_fraction()),
        ("sim.warm_ns_per_inst.gskew", warm[0]),
        ("sim.warm_ns_per_inst.arvi", warm[1]),
        ("sim.machine_ns_per_inst.gskew", machine[0]),
        ("sim.machine_ns_per_inst.arvi", machine[1]),
        ("sim.timing_ns_per_inst.gskew", machine[0] - warm[0]),
        ("sim.timing_ns_per_inst.arvi", machine[1] - warm[1]),
        (
            "sim.mispredicts_per_kinst",
            ratio(
                totals.full_mispredicts as f64 * 1e3,
                totals.committed as f64,
            ),
        ),
        (
            "sim.override_rate",
            ratio(totals.overrides as f64, totals.cond_branches.total() as f64),
        ),
        ("sampling.unit_ms_p50", percentile(&unit_ns, 0.5) / 1e6),
        ("sampling.unit_ms_p95", percentile(&unit_ns, 0.95) / 1e6),
        (
            "sampling.warm_share",
            ratio(
                spans.total("sim.warm") as f64,
                spans.total("sampling.unit") as f64,
            ),
        ),
        ("bench.parallel_efficiency", efficiency),
        (
            "bench.cells",
            (plan.cells().count() + plan.units().len() * plan.streams.len()) as f64,
        ),
        (
            "bench.distinct_cells",
            (plan.distinct_cells() + plan.units().len() * plan.streams.len()) as f64,
        ),
        ("bench.trace_overhead_pct", (on_s - off_s) / off_s * 100.0),
        (
            "layers.warm_unattributed_pct",
            (warm[1] - decode - hierarchy - arvi_pass) / warm[1] * 100.0,
        ),
    ];
    Traced {
        metrics,
        digests_off,
        digests_on,
        counts,
        spans,
        drive_s: [off_s, on_s],
    }
}
