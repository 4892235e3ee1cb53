//! # arvi-obs
//!
//! The observability layer of the ARVI reproduction: a **zero-cost probe
//! seam** plus the telemetry consumers that ride on it.
//!
//! The timing machine (`arvi-sim`) is generic over a [`Probe`] whose
//! hook methods fire at every pipeline event — fetch, rename/DDT insert,
//! dependence-chain read, issue, memory access, writeback, commit,
//! branch resolution, mispredict recovery. Every hook has an empty
//! `#[inline]` default, and the machine is *monomorphized* over the
//! probe type, so the default [`NullProbe`] compiles to literally
//! nothing: the probed and unprobed machines are the same machine
//! (bit-identity is asserted by `tests/probe_equivalence.rs`, perf
//! neutrality by the `perf_guard` CI gate).
//!
//! Consumers shipped here:
//!
//! * [`CounterProbe`] — fixed log2-bucket histograms (ROB occupancy,
//!   issue-width utilization, mispredict recovery, DDT chain length,
//!   memory latency) plus cache/TLB hit-miss counters per level. Zero
//!   steady-state allocation (pinned by `tests/alloc_steady_state.rs`).
//! * [`SiteProbe`] — per-static-branch attribution: top-N mispredicting
//!   sites, per-site ARVI-vs-L1 accuracy, confident-wrong rates — the
//!   paper's Figure-5-style analysis made queryable.
//! * [`ChromeTracer`] — a bounded-window event tracer emitting Chrome
//!   `about:tracing` JSON for a cycle range, so a pipeline bubble can be
//!   inspected visually (`chrome://tracing`, Perfetto).
//!
//! Probes compose structurally: `(A, B)` is a probe that forwards every
//! hook to both halves, still monomorphized.
//!
//! The crate also owns the workspace's one JSON implementation,
//! [`Json`] (value tree, printers, parser), and the probes' JSON forms
//! beside it in [`codec`]: lossless snapshots that obs journals and the
//! grid rollup round-trip exactly, and the report views (counter
//! summary, top-N sites) that `--obs-out` writes. No probe renders JSON
//! text by hand.

pub mod codec;
pub mod counters;
pub mod hist;
pub mod json;
pub mod sites;
pub mod trace;

pub use counters::CounterProbe;
pub use hist::Log2Hist;
pub use json::Json;
pub use sites::{SiteProbe, SiteStats};
pub use trace::ChromeTracer;

/// Everything a probe learns when one conditional branch resolves at
/// commit. Plain scalars so hook calls stay register-passed.
#[derive(Debug, Clone, Copy)]
pub struct BranchResolution {
    /// The architectural outcome.
    pub actual: bool,
    /// The direction the machine followed (post-override).
    pub final_taken: bool,
    /// The level-1 direction (pre-override).
    pub l1_taken: bool,
    /// Whether the confidence estimator rated the branch
    /// high-confidence.
    pub confident: bool,
    /// Whether the level-2 result overrode the level-1 direction.
    pub override_fired: bool,
    /// Whether the ARVI BVIT hit (always `false` for the hybrid L2).
    pub bvit_hit: bool,
    /// ARVI classification: `Some(true)` load-class, `Some(false)`
    /// calculated, `None` for non-ARVI configurations.
    pub load_class: Option<bool>,
}

impl BranchResolution {
    /// Whether the followed direction was correct.
    #[inline]
    pub fn final_correct(&self) -> bool {
        self.final_taken == self.actual
    }

    /// Whether the level-1 direction alone would have been correct.
    #[inline]
    pub fn l1_correct(&self) -> bool {
        self.l1_taken == self.actual
    }
}

/// End-of-run hit/miss totals of the memory hierarchy, per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// L1 instruction cache (hits, misses).
    pub l1i: (u64, u64),
    /// L1 data cache (hits, misses).
    pub l1d: (u64, u64),
    /// Unified L2 (hits, misses).
    pub l2: (u64, u64),
    /// Instruction TLB (hits, misses).
    pub itlb: (u64, u64),
    /// Data TLB (hits, misses).
    pub dtlb: (u64, u64),
}

impl CacheSnapshot {
    /// Element-wise sum (for merging per-workload snapshots).
    pub fn merge(&mut self, other: &CacheSnapshot) {
        let add = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        add(&mut self.l1i, other.l1i);
        add(&mut self.l1d, other.l1d);
        add(&mut self.l2, other.l2);
        add(&mut self.itlb, other.itlb);
        add(&mut self.dtlb, other.dtlb);
    }

    /// `(name, hits, misses)` rows in report order.
    pub fn rows(&self) -> [(&'static str, u64, u64); 5] {
        [
            ("l1i", self.l1i.0, self.l1i.1),
            ("l1d", self.l1d.0, self.l1d.1),
            ("l2", self.l2.0, self.l2.1),
            ("itlb", self.itlb.0, self.itlb.1),
            ("dtlb", self.dtlb.0, self.dtlb.1),
        ]
    }
}

/// The probe seam: pipeline hook points with empty inlined defaults.
///
/// The machine calls every hook unconditionally — an implementation
/// that ignores a hook costs nothing after monomorphization. Hook sites
/// whose *arguments* are expensive to compute (DDT occupancy, chain
/// telemetry) are additionally gated on [`Probe::ENABLED`] in the
/// machine, so [`NullProbe`] pays for neither the call nor the
/// argument.
///
/// `cycle` arguments are machine cycles since construction. Quiet
/// cycles skipped by the calendar queue fire no hooks (they execute
/// nothing), so per-cycle samples cover *active* cycles.
pub trait Probe {
    /// Whether this probe observes anything at all. Gates
    /// argument-construction work at expensive hook sites; the
    /// [`NullProbe`] sets it `false`.
    const ENABLED: bool = true;

    /// Start of an active machine cycle, with the ROB occupancy
    /// (instructions in flight).
    #[inline]
    fn on_cycle(&mut self, cycle: u64, rob_occupancy: u32) {
        let _ = (cycle, rob_occupancy);
    }

    /// An instruction was fetched and renamed.
    #[inline]
    fn on_fetch(&mut self, cycle: u64, seq: u64, pc: u64, is_branch: bool, is_load: bool) {
        let _ = (cycle, seq, pc, is_branch, is_load);
    }

    /// An instruction was inserted into the DDT (ARVI configurations),
    /// with the tracker occupancy after insertion.
    #[inline]
    fn on_ddt_insert(&mut self, cycle: u64, seq: u64, occupancy: u32) {
        let _ = (cycle, seq, occupancy);
    }

    /// A branch's dependence chain was read out of the DDT/RSE at
    /// prediction time: chain length, leaf-register-set size, and how
    /// many leaves had available values.
    #[inline]
    fn on_chain_read(
        &mut self,
        cycle: u64,
        pc: u64,
        chain_len: u32,
        leaf_regs: u32,
        available: u32,
    ) {
        let _ = (cycle, pc, chain_len, leaf_regs, available);
    }

    /// The issue stage selected `issued` instructions (of `width`
    /// possible) this cycle. Fires only on cycles with issue
    /// candidates.
    #[inline]
    fn on_issue(&mut self, cycle: u64, issued: u32, width: u32) {
        let _ = (cycle, issued, width);
    }

    /// A load or store accessed the data memory hierarchy with the
    /// given total latency.
    #[inline]
    fn on_mem_access(&mut self, cycle: u64, seq: u64, latency: u64) {
        let _ = (cycle, seq, latency);
    }

    /// An instruction's result wrote back.
    #[inline]
    fn on_writeback(&mut self, cycle: u64, seq: u64) {
        let _ = (cycle, seq);
    }

    /// An instruction committed (in order).
    #[inline]
    fn on_commit(&mut self, cycle: u64, seq: u64) {
        let _ = (cycle, seq);
    }

    /// A conditional branch resolved at commit.
    #[inline]
    fn on_branch_resolve(&mut self, cycle: u64, pc: u64, res: &BranchResolution) {
        let _ = (cycle, pc, res);
    }

    /// A full mispredict blocked fetch, with the in-flight instruction
    /// count at that moment.
    #[inline]
    fn on_mispredict(&mut self, cycle: u64, seq: u64, pc: u64, inflight: u32) {
        let _ = (cycle, seq, pc, inflight);
    }

    /// A mispredicted branch resolved and released fetch after
    /// `blocked_cycles` cycles — the mispredict recovery depth.
    #[inline]
    fn on_recovery(&mut self, cycle: u64, blocked_cycles: u64) {
        let _ = (cycle, blocked_cycles);
    }

    /// End-of-run cache/TLB totals (fired once by the run harness).
    #[inline]
    fn on_cache_stats(&mut self, snap: &CacheSnapshot) {
        let _ = snap;
    }
}

/// The default probe: observes nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// Structural composition: a pair of probes is a probe forwarding every
/// hook to both halves (monomorphized — no dispatch).
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_cycle(&mut self, cycle: u64, rob_occupancy: u32) {
        self.0.on_cycle(cycle, rob_occupancy);
        self.1.on_cycle(cycle, rob_occupancy);
    }

    #[inline]
    fn on_fetch(&mut self, cycle: u64, seq: u64, pc: u64, is_branch: bool, is_load: bool) {
        self.0.on_fetch(cycle, seq, pc, is_branch, is_load);
        self.1.on_fetch(cycle, seq, pc, is_branch, is_load);
    }

    #[inline]
    fn on_ddt_insert(&mut self, cycle: u64, seq: u64, occupancy: u32) {
        self.0.on_ddt_insert(cycle, seq, occupancy);
        self.1.on_ddt_insert(cycle, seq, occupancy);
    }

    #[inline]
    fn on_chain_read(
        &mut self,
        cycle: u64,
        pc: u64,
        chain_len: u32,
        leaf_regs: u32,
        available: u32,
    ) {
        self.0
            .on_chain_read(cycle, pc, chain_len, leaf_regs, available);
        self.1
            .on_chain_read(cycle, pc, chain_len, leaf_regs, available);
    }

    #[inline]
    fn on_issue(&mut self, cycle: u64, issued: u32, width: u32) {
        self.0.on_issue(cycle, issued, width);
        self.1.on_issue(cycle, issued, width);
    }

    #[inline]
    fn on_mem_access(&mut self, cycle: u64, seq: u64, latency: u64) {
        self.0.on_mem_access(cycle, seq, latency);
        self.1.on_mem_access(cycle, seq, latency);
    }

    #[inline]
    fn on_writeback(&mut self, cycle: u64, seq: u64) {
        self.0.on_writeback(cycle, seq);
        self.1.on_writeback(cycle, seq);
    }

    #[inline]
    fn on_commit(&mut self, cycle: u64, seq: u64) {
        self.0.on_commit(cycle, seq);
        self.1.on_commit(cycle, seq);
    }

    #[inline]
    fn on_branch_resolve(&mut self, cycle: u64, pc: u64, res: &BranchResolution) {
        self.0.on_branch_resolve(cycle, pc, res);
        self.1.on_branch_resolve(cycle, pc, res);
    }

    #[inline]
    fn on_mispredict(&mut self, cycle: u64, seq: u64, pc: u64, inflight: u32) {
        self.0.on_mispredict(cycle, seq, pc, inflight);
        self.1.on_mispredict(cycle, seq, pc, inflight);
    }

    #[inline]
    fn on_recovery(&mut self, cycle: u64, blocked_cycles: u64) {
        self.0.on_recovery(cycle, blocked_cycles);
        self.1.on_recovery(cycle, blocked_cycles);
    }

    #[inline]
    fn on_cache_stats(&mut self, snap: &CacheSnapshot) {
        self.0.on_cache_stats(snap);
        self.1.on_cache_stats(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        cycles: u64,
        commits: u64,
    }

    impl Probe for Counting {
        fn on_cycle(&mut self, _c: u64, _r: u32) {
            self.cycles += 1;
        }
        fn on_commit(&mut self, _c: u64, _s: u64) {
            self.commits += 1;
        }
    }

    #[test]
    fn null_probe_is_disabled() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(Counting::ENABLED) };
    }

    #[test]
    fn pair_forwards_to_both_halves() {
        let mut pair = (Counting::default(), Counting::default());
        pair.on_cycle(0, 3);
        pair.on_cycle(1, 4);
        pair.on_commit(1, 0);
        assert_eq!(pair.0.cycles, 2);
        assert_eq!(pair.1.cycles, 2);
        assert_eq!(pair.0.commits, 1);
        assert_eq!(pair.1.commits, 1);
        const { assert!(<(Counting, NullProbe) as Probe>::ENABLED) };
        const { assert!(!<(NullProbe, NullProbe) as Probe>::ENABLED) };
    }

    #[test]
    fn cache_snapshot_merges_elementwise() {
        let mut a = CacheSnapshot {
            l1i: (1, 2),
            l1d: (3, 4),
            l2: (5, 6),
            itlb: (7, 8),
            dtlb: (9, 10),
        };
        a.merge(&a.clone());
        assert_eq!(a.l1i, (2, 4));
        assert_eq!(a.dtlb, (18, 20));
        assert_eq!(a.rows()[2], ("l2", 10, 12));
    }

    #[test]
    fn resolution_accessors() {
        let r = BranchResolution {
            actual: true,
            final_taken: true,
            l1_taken: false,
            confident: false,
            override_fired: true,
            bvit_hit: true,
            load_class: Some(false),
        };
        assert!(r.final_correct());
        assert!(!r.l1_correct());
    }
}
