//! Regenerates Figure 6 for one pipeline depth: prediction accuracy
//! (a/c/e) and normalized IPC (b/d/f) for the four configurations.
//!
//! Usage: `fig6 [20|40|60] [--quick] [--threads N] [--trace-dir DIR]
//!              [--sample K:WARMUP:DETAIL]
//!              [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!              [--journal FILE] [--resume] [--fault-plan FILE]
//!              [--deadline-ms N] [--events-out FILE]
//!              [--probe counters,sites,trace] [--obs-out FILE]
//!              [--obs-grid FILE] [--trace-cycles START:END] [--top-sites N]
//!              [--list-scenarios] [--list-benchmarks]`
//!
//! `--obs-grid FILE` probes the sweep's own cells (workloads × all four
//! configurations at the chosen depth) with the counter and site probes
//! and writes their merged per-`(workload, config)` rollup — the input
//! for `obs_report`'s ARVI-vs-baseline attribution diff; no cell is
//! simulated twice. It does not combine with `--sample` (exit 2).
//!
//! Runs the benchmark suite by default; any `--scenario`/
//! `--scenario-file` flag switches the grid to the named synthetic
//! scenarios instead. Every run is fault-isolated: a failed cell is
//! reported (exit code 3) instead of aborting the run, `--journal` keeps
//! completed cells, and `--resume` completes an interrupted run from its
//! journal. A depth other than 20, 40 or 60, an unknown flag or a
//! malformed value exits 2.
//!
//! `--sample K:WARMUP:DETAIL` (or `stratified:K:WARMUP:DETAIL`) switches
//! every cell to SMARTS-style interval sampling over the shared
//! recording (per-unit parallelism, journaled units, and an extra
//! per-cell 95%-confidence-interval table) — see the `fig5` docs.

use arvi_bench::{handle_list_flags, maybe_obs_grid, maybe_obs_pass, Fig6Data, Run};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if handle_list_flags(&args) {
        return;
    }
    let run = Run::from_args(&args, &["20", "40", "60"]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let depth = match run.positional.as_deref() {
        Some("40") => Depth::D40,
        Some("60") => Depth::D60,
        _ => Depth::D20,
    };
    let sweep = run.sweep(&[depth], &PredictorConfig::all());
    let (data, ci) = Fig6Data::collect(&run, &sweep, depth).unwrap_or_else(|incomplete| {
        eprintln!("{incomplete}");
        std::process::exit(3);
    });
    if let (Some(plan), Some(ci)) = (&run.plan, ci) {
        println!(
            "== Sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
            ci.to_text()
        );
    }
    println!(
        "== Figure 6: prediction accuracy, {depth} pipeline ==\n{}",
        data.accuracy_table().to_text()
    );
    println!(
        "== Figure 6: normalized IPC, {depth} pipeline ==\n{}",
        data.normalized_ipc_table().to_text()
    );
    println!(
        "headline: ARVI current value mean normalized IPC = {:.3} (paper: 1.126 at 20 stages, 1.156 at 60)",
        data.mean_normalized_ipc(PredictorConfig::ArviCurrent)
    );
    println!(
        "          ARVI perfect value mean normalized IPC = {:.3} (paper: 1.251 at 20 stages)",
        data.mean_normalized_ipc(PredictorConfig::ArviPerfect)
    );
    // The figure's headline cell at the chosen depth.
    maybe_obs_pass(
        run.obs.as_ref(),
        &run.workloads,
        depth,
        PredictorConfig::ArviCurrent,
        run.spec,
        Some(&run.traces),
    );
    // The figure's probed cells, merged (`--obs-grid`).
    maybe_obs_grid(&run, &sweep);
}
