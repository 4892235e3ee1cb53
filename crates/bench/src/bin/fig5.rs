//! Regenerates Figure 5: (a) load-branch fraction per workload across
//! pipeline depths; (b) prediction accuracy of calculated vs load
//! branches (20-stage, ARVI current value).
//!
//! Usage: `fig5 [--quick] [--threads N] [--trace-dir DIR]
//!              [--sample K:WARMUP:DETAIL]
//!              [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!              [--journal FILE] [--resume] [--fault-plan FILE]
//!              [--deadline-ms N] [--events-out FILE] [--metrics-out FILE]
//!              [--probe counters,sites,trace] [--obs-out FILE]
//!              [--obs-grid FILE] [--trace-cycles START:END] [--top-sites N]
//!              [--list-scenarios] [--list-benchmarks]`
//!
//! `--obs-grid FILE` probes the sweep's own cells (workloads × all
//! pipeline depths, ARVI current value) with the counter and site probes
//! and writes their merged per-`(workload, config)` rollup; no cell is
//! simulated twice. It does not combine with `--sample` (exit 2).
//!
//! Runs the benchmark suite by default; any `--scenario`/
//! `--scenario-file` flag switches the grid to the named synthetic
//! scenarios instead. Every run is fault-isolated: a failed cell is
//! reported (exit code 3) instead of aborting the run, `--journal` keeps
//! completed cells, and `--resume` completes an interrupted run from its
//! journal. An unknown flag or a malformed value exits 2.
//!
//! `--sample K:WARMUP:DETAIL` (or `stratified:K:WARMUP:DETAIL`) switches
//! every cell to SMARTS-style interval sampling over the shared
//! recording: 1-in-`K` detail windows of `DETAIL` instructions, each
//! preceded by `WARMUP` instructions of functional warm-up, fanned out
//! per unit across all workers. An extra per-cell table reports the
//! 95% confidence intervals. Composes with the fault-tolerance flags
//! (units are journaled and resumed individually).

use arvi_bench::{fig5_tables, handle_list_flags, maybe_obs_grid, maybe_obs_pass, Run};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if handle_list_flags(&args) {
        return;
    }
    let run = Run::from_args(&args, &[]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let sweep = run.sweep(&Depth::all(), &[PredictorConfig::ArviCurrent]);
    let (fig5a, fig5b, ci) = fig5_tables(&run, &sweep).unwrap_or_else(|incomplete| {
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
        "== Figure 5(a): fraction of load branches ==\n{}",
        fig5a.to_text()
    );
    println!(
        "== Figure 5(b): prediction accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
        fig5b.to_text()
    );
    // Figure 5(b)'s anchor cell: 20-stage, ARVI current value.
    maybe_obs_pass(
        run.obs.as_ref(),
        &run.workloads,
        Depth::D20,
        PredictorConfig::ArviCurrent,
        run.spec,
        Some(&run.traces),
    );
    // The depth sweep's probed cells, merged (`--obs-grid`).
    maybe_obs_grid(&run, &sweep);
}
