//! Branch anatomy: per-static-branch profile of a workload under the ARVI
//! configuration — which branches ARVI wins, how often the BVIT hits, and
//! their class mix. Counts come from a [`SiteProbe`] and cover the
//! measurement window only (taken against a clone made after warm-up).
//!
//! Run with: `cargo run --release --example branch_anatomy [benchmark]`

use arvi::isa::Emulator;
use arvi::obs::SiteProbe;
use arvi::sim::{Depth, Machine, PredictorConfig, SimParams};
use arvi::workloads::Benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".into());
    let bench = Benchmark::from_name(&name).expect("unknown benchmark");
    let mut m = Machine::with_probe(
        Emulator::new(bench.program(42)),
        SimParams::for_depth(Depth::D20),
        PredictorConfig::ArviCurrent,
        SiteProbe::new(),
    );
    m.run_until_committed(50_000); // warm
    let warm = m.probe().clone();
    m.run_until_committed(450_000);

    let mut rows = m.probe().since(&warm);
    rows.sort_by_key(|s| (std::cmp::Reverse(s.mispredicts()), s.pc));
    println!(
        "{:>8} {:>8} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "pc", "execs", "final%", "l1%", "hit%", "load%", "ovr"
    );
    for s in rows.iter().take(15) {
        println!(
            "{:>8x} {:>8} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>6}",
            s.pc,
            s.total,
            100.0 * s.final_accuracy(),
            100.0 * s.l1_accuracy(),
            100.0 * s.bvit_hits as f64 / s.total as f64,
            100.0 * s.load_class as f64 / s.total as f64,
            s.overrides
        );
    }
}
