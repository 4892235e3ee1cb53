//! Runs the complete evaluation: Tables 1-4, Figure 5, and Figure 6 at
//! all three pipeline depths, printing every artifact the paper reports.
//!
//! Usage: `experiments [--quick] [--threads N] [--trace-dir DIR]
//!                     [--sample K:WARMUP:DETAIL]
//!                     [--scenario NAME_OR_SPEC]... [--scenario-file FILE]
//!                     [--journal FILE] [--resume] [--fault-plan FILE]
//!                     [--deadline-ms N] [--events-out FILE] [--metrics-out FILE]
//!                     [--probe counters,sites,trace] [--obs-out FILE]
//!                     [--obs-grid FILE] [--trace-cycles START:END] [--top-sites N]
//!                     [--list-scenarios] [--list-benchmarks]`
//!
//! The evaluation grid (workloads × all depths × all configurations) is
//! swept once; Figure 5 and Figure 6 at each depth are views over its
//! cells. `--obs-grid FILE` probes the sweep's own cells with the counter
//! and site probes and writes their merged per-`(workload, config)`
//! rollup — the input for `obs_report`'s attribution diff; no cell is
//! simulated twice, and it does not combine with `--sample` (exit 2).
//! `--events-out` / `--metrics-out` stream structured sweep events
//! (JSONL) and a Prometheus-style metrics snapshot from the sweep.
//!
//! Each workload is functionally emulated exactly once (per run — or
//! once ever with `--trace-dir`), then every cell replays the shared
//! recording. Runs the benchmark suite by default; any
//! `--scenario`/`--scenario-file` flag switches the grid to the named
//! synthetic scenarios instead.
//!
//! Every run is fault-isolated: cell failures are reported at the end
//! (exit code 3, after every table whose cells completed) instead of
//! aborting the run, `--journal` keeps completed cells as they finish,
//! and `--resume` completes an interrupted run from its journal. An
//! unknown flag or a malformed value exits 2.
//!
//! `--sample K:WARMUP:DETAIL` (or `stratified:K:WARMUP:DETAIL`) switches
//! the sweep to SMARTS-style interval sampling over the shared
//! recordings (per-unit parallelism, journaled units, per-cell
//! 95%-confidence-interval tables) — see the `fig5` docs.

use arvi_bench::{
    fig5_tables, handle_list_flags, maybe_obs_grid, maybe_obs_pass, paper_tables, Fig6Data, Run,
    Workload,
};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if handle_list_flags(&args) {
        return;
    }
    // One recording per workload feeds fig5 and all three fig6 depths.
    let run = Run::from_args(&args, &[]).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    // The paper's configuration tables describe the benchmark-suite
    // evaluation; skip them when a scenario grid replaces the suite
    // (the `tables` binary prints them on demand).
    if run.workloads == Workload::suite() {
        for (title, table) in paper_tables() {
            println!("== {title} ==\n{}\n", table.to_text());
        }
    }

    // One sweep of the whole grid; every figure below is a view over it.
    // A failed cell drops only the tables that need it and exits 3 at
    // the end — every other cell has run (and journaled), so one bad
    // cell costs one re-run with --resume, not the whole evaluation.
    let sweep = run.sweep(&Depth::all(), &PredictorConfig::all());

    if let Ok((fig5a, fig5b, ci)) = fig5_tables(&run, &sweep) {
        if let (Some(plan), Some(ci)) = (&run.plan, ci) {
            println!(
                "== Figure 5 sampled estimates (plan {plan}): 95% confidence intervals ==\n{}",
                ci.to_text()
            );
        }
        println!(
            "== Figure 5(a): fraction of load branches ==\n{}",
            fig5a.to_text()
        );
        println!(
            "== Figure 5(b): accuracy, calculated vs load branches (20-stage, ARVI current value) ==\n{}",
            fig5b.to_text()
        );
    }

    let mut headlines = Vec::new();
    for depth in Depth::all() {
        let Ok((data, ci)) = Fig6Data::collect(&run, &sweep, depth) else {
            continue;
        };
        if let (Some(plan), Some(ci)) = (&run.plan, ci) {
            println!(
                "== Figure 6 sampled estimates, {depth} pipeline (plan {plan}): 95% confidence intervals ==\n{}",
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
        headlines.push((
            depth,
            data.mean_normalized_ipc(PredictorConfig::ArviCurrent),
            data.mean_normalized_ipc(PredictorConfig::ArviLoadBack),
            data.mean_normalized_ipc(PredictorConfig::ArviPerfect),
        ));
    }

    println!("== Headline: mean normalized IPC over the suite ==");
    println!("depth      current  load-back  perfect   (paper: current 1.126@20, 1.156@60; perfect 1.251@20)");
    for (depth, cur, lb, perf) in headlines {
        println!("{depth:<10} {cur:<8.3} {lb:<10.3} {perf:<8.3}");
    }

    // The evaluation's anchor cell: 20-stage, ARVI current value.
    maybe_obs_pass(
        run.obs.as_ref(),
        &run.workloads,
        Depth::D20,
        PredictorConfig::ArviCurrent,
        run.spec,
        Some(&run.traces),
    );
    // The evaluation grid's probed cells, merged (`--obs-grid`).
    maybe_obs_grid(&run, &sweep);

    if let Err(incomplete) = sweep.results(&sweep.points) {
        eprintln!("{incomplete}");
        std::process::exit(3);
    }
}
