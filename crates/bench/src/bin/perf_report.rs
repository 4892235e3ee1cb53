//! Performance report: quantifies the hot paths against their preserved
//! baselines, in the same process, and writes the machine-readable
//! `--out` report. Named `BENCH_PR<N>.json` at the repo root, the
//! report is a ledger entry: its `"pr"` field is taken from that name,
//! and `bench_history` trends the whole `BENCH_PR*.json` trail with
//! noise-band regression flags.
//!
//! Every timed comparison runs through one interleaved loop (each side
//! once per pass, for a fixed number of passes) that keeps each side's
//! min and max. A printed overhead stands beside its spread (the wider
//! side's max − min, as a percent of its min) and reads `unresolved`
//! when it is smaller than that spread.
//!
//! 1. **Branch-path micro** — ns per branch of the packed-counter,
//!    index-carrying 2Bc-gskew vs the preserved scalar
//!    `arvi_bench::baseline::ScalarTwoBcGskew` over the same recorded
//!    m88ksim branch stream (delayed-update protocol, warm tables, with
//!    a stream-identity assertion) and over a table-pressure stream.
//! 2. **Machine micro** — ns per committed instruction of the wheel
//!    machine vs `arvi_bench::baseline::HeapMachine` replaying the same
//!    m88ksim recording, for the pure timing path (2-level gskew) and
//!    the ARVI path. The ARVI loop also times the wheel machine with
//!    the zero-alloc `CounterProbe` and with the full obs stack
//!    (counters + per-site attribution) attached: what turning
//!    telemetry on costs. Every side's figures are asserted identical.
//! 3. **DDT micro** — steady-state insert+commit of `arvi_core::Ddt`
//!    vs the preserved `NaiveDdt` (paper shape).
//! 4. **Sweep** — the quick Figure-6 grid replayed over shared traces,
//!    with the whole-sweep ns/inst.
//! 5. **Sampled simulation** — an error study: the 8-benchmark suite
//!    plus the 9 curated synthetic scenarios (20-stage, ARVI current
//!    value), each cell estimated by SMARTS-style systematic sampling at
//!    1-in-{2,4,8} rates and compared against its full-run ground truth
//!    (per-cell IPC/accuracy relative error and 95%-CI coverage). Then
//!    one long single-cell window (the stationary history-3 scenario)
//!    run full-length serially vs sampled at 1-in-8 with per-unit
//!    fan-out over all cores: the wall-clock speedup and the IPC error
//!    it costs.
//!
//! The `guardrail` section of the JSON is the flat metric set
//! `perf_guard` compares against the checked-in `BENCH_BASELINE.json`
//! in CI.
//!
//! Usage: `perf_report --out PATH [--quick] [--threads N] [--trace-dir DIR]`
//! (`--out` is required; a missing or flag-like value exits 2).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arvi_bench::baseline::ScalarTwoBcGskew;
use arvi_bench::{
    baseline, bench_file_pr, flag_value, grid, record_trace, run_grid, run_one_traced,
    threads_from_args, trace_dir_from_args, trace_len, write_report, Jobs, Json, Resilience, Spec,
    TraceSet, Workload,
};
use arvi_bench::{conditional_branches, run_delayed, run_delayed_scalar};
use arvi_core::{Ddt, DdtConfig, PhysReg};
use arvi_obs::{CounterProbe, NullProbe, Probe, SiteProbe};
use arvi_predict::{GskewConfig, TwoBcGskew};
use arvi_sampling::{sample_region, SamplePlan};
use arvi_sim::{intern_name, simulate_source_probed, Depth, PredictorConfig, SimParams, SimResult};
use arvi_trace::{Trace, TraceReplayer};
use arvi_workloads::Benchmark;

/// One side's wall-clock range, in seconds, over the passes of
/// [`interleaved`].
#[derive(Clone, Copy, Debug)]
struct Span {
    min: f64,
    max: f64,
}

/// The first `N` sides' mins as ns per unit of work, over `units` units.
fn ns_per<const N: usize>(spans: &[Span], units: usize) -> [f64; N] {
    std::array::from_fn(|i| spans[i].min * 1e9 / units as f64)
}

/// The one timing loop: runs every side once per pass, in order, for
/// `reps` passes — strict alternation, so host drift hits every side
/// alike — and returns each side's min and max wall time.
fn interleaved(reps: u32, sides: &mut [&mut dyn FnMut()]) -> Vec<Span> {
    let mut spans = vec![
        Span {
            min: f64::INFINITY,
            max: 0.0,
        };
        sides.len()
    ];
    for _ in 0..reps {
        for (side, span) in sides.iter_mut().zip(&mut spans) {
            let t0 = Instant::now();
            side();
            let s = t0.elapsed().as_secs_f64();
            span.min = span.min.min(s);
            span.max = span.max.max(s);
        }
    }
    spans
}

/// `side`'s change against `reference` in percent of the reference's
/// min, and the spread it must beat: the wider of the two sides'
/// max − min, each as a percent of its own min.
fn change_and_spread(side: Span, reference: Span) -> (f64, f64) {
    let spread = |s: Span| (s.max - s.min) / s.min * 100.0;
    (
        (side.min / reference.min - 1.0) * 100.0,
        spread(side).max(spread(reference)),
    )
}

/// [`change_and_spread`] as printed: the change beside its spread, or
/// `unresolved` when the change is smaller than the spread.
fn versus(side: Span, reference: Span) -> String {
    let (change, spread) = change_and_spread(side, reference);
    if change.abs() < spread {
        format!("unresolved, spread {spread:.1}%")
    } else {
        format!("{change:+.1}%, spread {spread:.1}%")
    }
}

/// Times the packed vs scalar 2Bc-gskew (level-2 size) through the
/// machine-shaped delayed-update protocol ([`arvi_bench::run_delayed`])
/// over the same branch stream: both sides are trained over the stream
/// once (warm, steady-state tables), then timed over `reps` alternating
/// whole-stream passes. The warm pass asserts the two sides' predicted
/// direction *streams* identical (order-sensitive hash, not just the
/// aggregate accuracy count). Returns `[packed, scalar]`.
fn branch_micro(stream: &[(u64, bool)], window: usize, reps: u32) -> Vec<Span> {
    // Warm pass doubles as the stream-identity assertion.
    let mut packed = TwoBcGskew::new(GskewConfig::level2());
    let mut scalar = ScalarTwoBcGskew::new(GskewConfig::level2());
    let p0 = run_delayed(&mut packed, stream, window);
    let s0 = run_delayed_scalar(&mut scalar, stream, window);
    assert_eq!(
        p0, s0,
        "packed gskew diverged from the scalar baseline on the branch stream"
    );
    interleaved(
        reps,
        &mut [
            &mut || {
                std::hint::black_box(run_delayed(&mut packed, stream, window));
            },
            &mut || {
                std::hint::black_box(run_delayed_scalar(&mut scalar, stream, window));
            },
        ],
    )
}

/// A synthetic table-pressure stream: `sites` distinct branch PCs in
/// seeded-random order with value-dependent outcomes. A site count in
/// the tens of thousands makes the working set span the whole level-2
/// table — the scalar layout streams 256 KB of counters through the
/// cache where the packed layout touches 32 KB; the recorded benchmark
/// streams concentrate on far fewer sites and fit either way.
fn pressure_stream(sites: u64, len: usize) -> Vec<(u64, bool)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = ((x >> 24) % sites) << 2;
            let taken = (x >> 60) & 0b11 != 0;
            (pc, taken)
        })
        .collect()
}

/// The figures two machine runs must agree on.
type Figures = (u64, u64, u64, u64);

fn figures(r: &SimResult) -> Figures {
    let w = &r.window;
    (
        w.cycles,
        w.committed,
        w.cond_branches.correct(),
        w.overrides,
    )
}

/// One wheel-machine run of `config` over `trace` with `probe` attached
/// (`NullProbe` is the probe-off machine every sweep runs).
fn wheel_run<P: Probe>(
    trace: &Arc<Trace>,
    config: PredictorConfig,
    spec: Spec,
    probe: P,
) -> Figures {
    let (r, probe) = simulate_source_probed(
        intern_name(trace.name()),
        TraceReplayer::new(Arc::clone(trace)),
        SimParams::for_depth(Depth::D20),
        config,
        spec.warmup,
        spec.measure,
        probe,
    );
    std::hint::black_box(probe);
    figures(&r)
}

/// Times one predictor configuration over a shared recording: the
/// wheel machine and the preserved heap baseline, plus — when `probed`
/// — the wheel machine with the `CounterProbe` and with counters +
/// sites attached, all in one interleaved loop. Asserts every side's
/// figures identical. Returns `[wheel, heap]`, then `[counters, full]`
/// when probed.
fn machine_micro(
    trace: &Arc<Trace>,
    config: PredictorConfig,
    spec: Spec,
    reps: u32,
    probed: bool,
) -> Vec<Span> {
    let (mut wheel, mut heap, mut counters, mut full) = (None, None, None, None);
    let mut run_wheel = || wheel = Some(wheel_run(trace, config, spec, NullProbe));
    let mut run_heap = || {
        heap = Some(figures(&baseline::simulate_source_heap(
            trace.name(),
            TraceReplayer::new(Arc::clone(trace)),
            SimParams::for_depth(Depth::D20),
            config,
            spec.warmup,
            spec.measure,
        )));
    };
    let mut run_counters = || counters = Some(wheel_run(trace, config, spec, CounterProbe::new()));
    let mut run_full = || {
        full = Some(wheel_run(
            trace,
            config,
            spec,
            (CounterProbe::new(), SiteProbe::new()),
        ));
    };
    let mut sides: Vec<&mut dyn FnMut()> = vec![&mut run_wheel, &mut run_heap];
    if probed {
        sides.push(&mut run_counters);
        sides.push(&mut run_full);
    }
    let spans = interleaved(reps, &mut sides);
    let name = trace.name();
    assert_eq!(
        wheel, heap,
        "wheel machine diverged from heap baseline on {name} / {config}"
    );
    if probed {
        assert_eq!(
            (wheel, wheel),
            (counters, full),
            "probed machine diverged from the probe-off machine on {name} / {config}"
        );
    }
    spans
}

/// Steady-state insert+commit cost of the optimized DDT vs the preserved
/// allocating baseline (paper shape: 256 slots x 320 registers), over
/// `reps` alternating passes of `iters` inserts. Returns `[fast, naive]`.
fn ddt_micro(iters: u32, reps: u32) -> Vec<Span> {
    let cfg = DdtConfig {
        slots: 256,
        phys_regs: 320,
    };
    let dest = |i: u32| PhysReg(32 + (i % 280) as u16);
    let mut fast = Ddt::new(cfg);
    let mut naive = baseline::NaiveDdt::new(cfg);
    interleaved(
        reps,
        &mut [
            &mut || {
                for i in 0..iters {
                    if fast.is_full() {
                        fast.commit_oldest();
                    }
                    std::hint::black_box(fast.insert(Some(dest(i)), [Some(dest(i + 1)), None]));
                }
            },
            &mut || {
                for i in 0..iters {
                    if naive.is_full() {
                        naive.commit_oldest();
                    }
                    std::hint::black_box(naive.insert(Some(dest(i)), [Some(dest(i + 1)), None]));
                }
            },
        ],
    )
}

/// The report's leading fields: the PR number when `out` is named
/// `BENCH_PR<N>.json` (a ledger entry), then the host and mode.
fn report_header(out: &Path, quick: bool) -> Vec<(&'static str, Json)> {
    let cores = arvi_bench::default_threads() as f64;
    let mut header = vec![
        ("host_cores", Json::Num(cores)),
        ("quick", Json::Bool(quick)),
    ];
    if let Some(pr) = out
        .file_name()
        .and_then(|n| bench_file_pr(&n.to_string_lossy()))
    {
        header.insert(0, ("pr", Json::Num(pr as f64)));
    }
    header
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (threads, trace_dir, out_path) = threads_from_args(&args)
        .and_then(|threads| {
            let out = flag_value(&args, "--out")?
                .ok_or("--out PATH is required (the ledger name is BENCH_PR<N>.json)")?;
            Ok((threads, trace_dir_from_args(&args)?, PathBuf::from(out)))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });

    let window = |warmup, measure| Spec {
        warmup,
        measure,
        seed: 42,
    };
    let (spec, micro_spec, ddt_iters) = if quick {
        (window(5_000, 15_000), window(10_000, 90_000), 400_000)
    } else {
        (Spec::quick(), window(20_000, 280_000), 2_000_000)
    };
    let reps = if quick { 7 } else { 15 };

    // 1. Branch-path micro: packed vs preserved scalar predictor, over
    // the recorded m88ksim stream and a table-pressure stream.
    let trace = Arc::new(record_trace(
        &Workload::from(Benchmark::M88ksim),
        micro_spec,
    ));
    eprintln!(
        "perf_report: branch-path micro (packed vs scalar 2Bc-gskew, warm tables, {reps} interleaved passes)..."
    );
    let stream = conditional_branches(&trace);
    let branch = branch_micro(&stream, 8, reps);
    let [packed_ns, scalar_ns] = ns_per(&branch, stream.len());
    eprintln!(
        "  m88ksim stream: packed {packed_ns:.1} ns/branch vs scalar {scalar_ns:.1} ns/branch \
         (scalar {}); streams identical",
        versus(branch[1], branch[0]),
    );
    let stream = pressure_stream(60_000, 200_000);
    let pressure = branch_micro(&stream, 8, reps);
    let [pressure_packed_ns, pressure_scalar_ns] = ns_per(&pressure, stream.len());
    eprintln!(
        "  pressure stream (60k sites): packed {pressure_packed_ns:.1} ns/branch vs scalar \
         {pressure_scalar_ns:.1} ns/branch (scalar {})",
        versus(pressure[1], pressure[0]),
    );

    // 2. Machine micro: wheel vs preserved heap baseline; the ARVI loop
    // also times the probed machine.
    let insts = (micro_spec.warmup + micro_spec.measure) as usize;
    eprintln!(
        "perf_report: machine micro (m88ksim, {} insts, wheel vs heap, ARVI also probed, {reps} interleaved passes)...",
        trace_len(micro_spec)
    );
    let gskew = machine_micro(
        &trace,
        PredictorConfig::TwoLevelGskew,
        micro_spec,
        reps,
        false,
    );
    let arvi = machine_micro(&trace, PredictorConfig::ArviCurrent, micro_spec, reps, true);
    let gskew_ns: [f64; 2] = ns_per(&gskew, insts);
    let arvi_ns: [f64; 4] = ns_per(&arvi, insts);
    eprintln!(
        "  gskew: wheel {:.0} ns/inst vs heap {:.0} ns/inst (heap {}) | \
         arvi: wheel {:.0} vs heap {:.0} (heap {}); figures identical",
        gskew_ns[0],
        gskew_ns[1],
        versus(gskew[1], gskew[0]),
        arvi_ns[0],
        arvi_ns[1],
        versus(arvi[1], arvi[0]),
    );
    let (counters_overhead_pct, counters_spread_pct) = change_and_spread(arvi[2], arvi[0]);
    let (full_overhead_pct, full_spread_pct) = change_and_spread(arvi[3], arvi[0]);
    eprintln!(
        "  arvi probes: counters {:.0} ns/inst ({}) | counters+sites {:.0} ns/inst ({}); \
         figures identical to probe-off",
        arvi_ns[2],
        versus(arvi[2], arvi[0]),
        arvi_ns[3],
        versus(arvi[3], arvi[0]),
    );

    // 3. DDT micro: optimized vs preserved naive baseline.
    eprintln!(
        "perf_report: DDT micro ({ddt_iters} steady-state insert+commit iters, {reps} interleaved passes)..."
    );
    let ddt = ddt_micro(ddt_iters, reps);
    let [ddt_fast_ns, ddt_naive_ns] = ns_per(&ddt, ddt_iters as usize);
    eprintln!(
        "  insert+commit: fast {ddt_fast_ns:.1} ns vs naive {ddt_naive_ns:.1} ns (naive {})",
        versus(ddt[1], ddt[0]),
    );

    // 4. The quick Figure-6 grid (every benchmark x configuration at 20
    // stages), replayed over shared traces.
    let points = grid(&Workload::suite(), &[Depth::D20], &PredictorConfig::all());
    eprintln!(
        "perf_report: quick fig6 grid ({} cells, {} threads), replayed...",
        points.len(),
        threads
    );
    let res = Resilience::default();
    let traces = TraceSet::record(
        &Workload::suite(),
        spec,
        threads,
        trace_dir.as_deref(),
        &res,
    );
    let t0 = Instant::now();
    run_grid(
        &points,
        spec,
        Jobs::Cells,
        threads,
        false,
        Some(&traces),
        &res,
    )
    .results(&points)
    .unwrap_or_else(|e| panic!("{e}"));
    let replay_s = t0.elapsed().as_secs_f64();
    let sweep_insts = (points.len() as u64 * (spec.warmup + spec.measure)) as f64;
    let sweep_ns = replay_s * 1e9 / sweep_insts;
    eprintln!("  replayed sweep {replay_s:.2} s ({sweep_ns:.0} ns/inst overall)");

    // 5a. Sampled-vs-full error study: every suite benchmark and every
    // curated scenario (20-stage, ARVI current value) estimated at
    // 1-in-{2,4,8} sampling rates against its full-run ground truth.
    let err_workloads: Vec<Workload> = Workload::suite()
        .into_iter()
        .chain(Workload::curated_scenarios())
        .collect();
    let err_points = grid(
        &err_workloads,
        &[Depth::D20],
        &[PredictorConfig::ArviCurrent],
    );
    eprintln!(
        "perf_report: sampled-vs-full error study ({} cells: suite + curated scenarios)...",
        err_points.len()
    );
    let err_traces = TraceSet::record(&err_workloads, spec, threads, trace_dir.as_deref(), &res);
    let full = run_grid(
        &err_points,
        spec,
        Jobs::Cells,
        threads,
        false,
        Some(&err_traces),
        &res,
    );
    let full = full.results(&err_points).unwrap_or_else(|e| panic!("{e}"));
    let detail = (spec.measure / 40).max(1);
    // The study windows are short, so units get *full* functional
    // warming: a unit warm-up at least as long as the region means
    // every unit trains on its entire trace prefix, leaving only the
    // warm-model approximation and sampling variance in the error.
    let full_warm = spec.warmup + spec.measure;
    let mut rate_json = Vec::new();
    for k in [2u64, 4, 8] {
        let plan = SamplePlan::systematic(k, full_warm, detail);
        let t0 = Instant::now();
        let jobs = Jobs::Sampled(&plan);
        let sweep = run_grid(
            &err_points,
            spec,
            jobs,
            threads,
            false,
            Some(&err_traces),
            &res,
        );
        let sampled_s = t0.elapsed().as_secs_f64();
        let mut rows = Vec::new();
        let mut covered = 0usize;
        let mut max_err = 0.0f64;
        let mut sum_err = 0.0f64;
        let mut units = 0usize;
        for (i, point) in err_points.iter().enumerate() {
            let report = sweep.reports[i]
                .as_ref()
                .expect("every error-study cell has a recording, so every cell samples");
            let full_ipc = full[i].window.ipc();
            let full_acc = full[i].window.cond_branches.rate();
            let rel_err = (report.ipc.mean - full_ipc).abs() / full_ipc * 100.0;
            let within = report.ipc.ci_contains(full_ipc);
            covered += within as usize;
            max_err = max_err.max(rel_err);
            sum_err += rel_err;
            units = report.units();
            rows.push(Json::obj([
                ("workload", Json::str(point.workload.name())),
                ("full_ipc", Json::Num(full_ipc)),
                ("sampled_ipc", Json::Num(report.ipc.mean)),
                ("ipc_rel_err_pct", Json::Num(rel_err)),
                ("ipc_ci_lo", Json::Num(report.ipc.ci_lo())),
                ("ipc_ci_hi", Json::Num(report.ipc.ci_hi())),
                ("within_ci", Json::Bool(within)),
                ("full_accuracy", Json::Num(full_acc)),
                ("sampled_accuracy", Json::Num(report.accuracy.mean)),
                (
                    "accuracy_abs_err",
                    Json::Num((report.accuracy.mean - full_acc).abs()),
                ),
            ]));
        }
        let cover = covered as f64 / err_points.len() as f64;
        eprintln!(
            "  1-in-{k} ({units} units/cell): mean |IPC err| {:.2}%, max {:.2}%, CI covers {}/{} cells, {:.2} s",
            sum_err / err_points.len() as f64,
            max_err,
            covered,
            err_points.len(),
            sampled_s,
        );
        rate_json.push(Json::obj([
            ("k", Json::Num(k as f64)),
            ("plan", Json::str(plan.to_string())),
            ("units_per_cell", Json::Num(units as f64)),
            ("coverage", Json::Num(1.0 / k as f64)),
            (
                "mean_abs_rel_err_pct",
                Json::Num(sum_err / err_points.len() as f64),
            ),
            ("max_abs_rel_err_pct", Json::Num(max_err)),
            ("ci_cover_fraction", Json::Num(cover)),
            ("sampled_s", Json::Num(sampled_s)),
            ("cells", Json::Arr(rows)),
        ]));
    }

    // 5b. The long-window speedup guardrail: one cell, run full-length
    // serially vs sampled at 1-in-8 with per-unit fan-out. This is the
    // case interval sampling exists for — a window too long to wait on
    // serially, turned into embarrassingly parallel units. The cell is
    // the stationary history-3 scenario: the ratio estimator's
    // assumptions hold there, so the measured error is the sampling
    // machinery's own bias, not program phase structure (the suite
    // benchmarks' phase behaviour is quantified honestly in 5a). The
    // plan's 200k-instruction warm-up covers the slowest-filling
    // microarchitectural state and its 200k detail windows amortize
    // the warm cost at 1-in-8 coverage, which is what pushes the
    // serial work reduction past 4x even on a single core. Same window
    // in quick and full mode — a guardrail metric must not change
    // meaning with the mode.
    let long_spec = window(20_000, 8_000_000);
    let long_workload =
        Workload::scenario(arvi_synth::find("history-3").expect("curated scenario exists"));
    eprintln!(
        "perf_report: long-window cell (history-3, {} measured insts): full serial vs sampled 1-in-8 on {} threads...",
        long_spec.measure, threads
    );
    let long_trace = Arc::new(record_trace(&long_workload, long_spec));
    let long_params = SimParams::for_depth(Depth::D20);
    let long_plan = SamplePlan::systematic(8, 200_000, 200_000);
    let mut full_long_ipc = 0.0;
    let mut long_report = None;
    let long = interleaved(
        2,
        &mut [
            &mut || {
                let r = run_one_traced(
                    &long_trace,
                    Depth::D20,
                    PredictorConfig::ArviCurrent,
                    long_spec,
                );
                full_long_ipc = r.window.ipc();
            },
            &mut || {
                let report = sample_region(
                    &long_trace,
                    &long_params,
                    PredictorConfig::ArviCurrent,
                    &long_plan,
                    long_spec.warmup,
                    long_spec.measure,
                    long_spec.seed,
                    threads,
                )
                .expect("sampling the long window");
                long_report = Some(report);
            },
        ],
    );
    let long_report = long_report.unwrap();
    let (full_long_s, sampled_long_s) = (long[0].min, long[1].min);
    let sampled_speedup = full_long_s / sampled_long_s;
    let sampled_ipc_abs_error =
        (long_report.ipc.mean - full_long_ipc).abs() / full_long_ipc * 100.0;
    let long_within = long_report.ipc.ci_contains(full_long_ipc);
    eprintln!(
        "  full serial {full_long_s:.2} s (IPC {full_long_ipc:.4}) vs sampled {sampled_long_s:.2} s \
         (IPC {:.4} ± {:.4}, {} units): {sampled_speedup:.1}x speedup (sampled {}), \
         |IPC err| {sampled_ipc_abs_error:.2}%, true value {} the 95% CI",
        long_report.ipc.mean,
        long_report.ipc.ci_half_width(),
        long_report.units(),
        versus(long[1], long[0]),
        if long_within { "inside" } else { "OUTSIDE" },
    );

    let machine = |ns: &[f64]| {
        Json::obj([
            ("wheel_ns_per_inst", Json::Num(ns[0])),
            ("heap_baseline_ns_per_inst", Json::Num(ns[1])),
            ("speedup_vs_heap", Json::Num(ns[1] / ns[0])),
            ("cycle_identical", Json::Bool(true)),
        ])
    };
    let mut report = report_header(&out_path, quick);
    report.extend([
        (
            "branch_path",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                ("update_window_branches", Json::Num(8.0)),
                ("packed_ns_per_branch", Json::Num(packed_ns)),
                ("scalar_baseline_ns_per_branch", Json::Num(scalar_ns)),
                ("speedup_vs_scalar", Json::Num(scalar_ns / packed_ns)),
                ("stream_identical", Json::Bool(true)),
                (
                    "pressure",
                    Json::obj([
                        ("sites", Json::Num(60_000.0)),
                        ("packed_ns_per_branch", Json::Num(pressure_packed_ns)),
                        (
                            "scalar_baseline_ns_per_branch",
                            Json::Num(pressure_scalar_ns),
                        ),
                        (
                            "speedup_vs_scalar",
                            Json::Num(pressure_scalar_ns / pressure_packed_ns),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "machine",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                ("insts", Json::Num(insts as f64)),
                ("depth_stages", Json::Num(20.0)),
                ("gskew", machine(&gskew_ns)),
                ("arvi_current", machine(&arvi_ns)),
            ]),
        ),
        (
            "ddt",
            Json::obj([
                ("iters", Json::Num(ddt_iters as f64)),
                ("fast_ns_per_insert", Json::Num(ddt_fast_ns)),
                ("naive_ns_per_insert", Json::Num(ddt_naive_ns)),
                ("speedup_vs_naive", Json::Num(ddt_naive_ns / ddt_fast_ns)),
            ]),
        ),
        (
            "sweep",
            Json::obj([
                (
                    "grid",
                    Json::str("fig6 quick (8 benchmarks x 4 configs, 20-stage)"),
                ),
                ("points", Json::Num(points.len() as f64)),
                ("threads", Json::Num(threads as f64)),
                ("replayed_s", Json::Num(replay_s)),
                ("ns_per_inst", Json::Num(sweep_ns)),
            ]),
        ),
        (
            "probe",
            Json::obj([
                ("workload", Json::str("m88ksim")),
                ("config", Json::str("arvi_current")),
                ("insts", Json::Num(insts as f64)),
                ("off_ns_per_inst", Json::Num(arvi_ns[0])),
                ("counters_ns_per_inst", Json::Num(arvi_ns[2])),
                ("counters_overhead_pct", Json::Num(counters_overhead_pct)),
                ("counters_spread_pct", Json::Num(counters_spread_pct)),
                ("full_ns_per_inst", Json::Num(arvi_ns[3])),
                ("full_overhead_pct", Json::Num(full_overhead_pct)),
                ("full_spread_pct", Json::Num(full_spread_pct)),
                ("bit_identical", Json::Bool(true)),
            ]),
        ),
        (
            "sampled",
            Json::obj([
                (
                    "error_study",
                    Json::obj([
                        (
                            "grid",
                            Json::str("suite + curated scenarios (20-stage, arvi current value)"),
                        ),
                        ("cells", Json::Num(err_points.len() as f64)),
                        ("detail_insts", Json::Num(detail as f64)),
                        ("rates", Json::Arr(rate_json)),
                    ]),
                ),
                (
                    "long_window",
                    Json::obj([
                        ("workload", Json::str("history-3")),
                        ("measure_insts", Json::Num(long_spec.measure as f64)),
                        ("plan", Json::str(long_plan.to_string())),
                        ("threads", Json::Num(threads as f64)),
                        ("full_serial_s", Json::Num(full_long_s)),
                        ("sampled_s", Json::Num(sampled_long_s)),
                        ("speedup", Json::Num(sampled_speedup)),
                        ("full_ipc", Json::Num(full_long_ipc)),
                        ("sampled_ipc", Json::Num(long_report.ipc.mean)),
                        (
                            "ipc_ci_half_width",
                            Json::Num(long_report.ipc.ci_half_width()),
                        ),
                        ("ipc_abs_err_pct", Json::Num(sampled_ipc_abs_error)),
                        ("within_ci", Json::Bool(long_within)),
                        ("units", Json::Num(long_report.units() as f64)),
                    ]),
                ),
            ]),
        ),
        // Flat metrics for the CI perf guardrail (perf_guard).
        (
            "guardrail",
            Json::obj([
                ("branch_gskew_ns_per_branch", Json::Num(packed_ns)),
                (
                    "branch_gskew_speedup_vs_scalar",
                    Json::Num(scalar_ns / packed_ns),
                ),
                (
                    "branch_pressure_speedup_vs_scalar",
                    Json::Num(pressure_scalar_ns / pressure_packed_ns),
                ),
                ("machine_gskew_ns_per_inst", Json::Num(gskew_ns[0])),
                ("machine_arvi_ns_per_inst", Json::Num(arvi_ns[0])),
                (
                    "machine_gskew_speedup_vs_heap",
                    Json::Num(gskew_ns[1] / gskew_ns[0]),
                ),
                (
                    "machine_arvi_speedup_vs_heap",
                    Json::Num(arvi_ns[1] / arvi_ns[0]),
                ),
                ("ddt_insert_ns", Json::Num(ddt_fast_ns)),
                (
                    "ddt_insert_speedup_vs_naive",
                    Json::Num(ddt_naive_ns / ddt_fast_ns),
                ),
                ("sweep_ns_per_inst", Json::Num(sweep_ns)),
                ("sampled_speedup_vs_full", Json::Num(sampled_speedup)),
                ("sampled_ipc_abs_error", Json::Num(sampled_ipc_abs_error)),
            ]),
        ),
    ]);
    let report = Json::obj(report);
    write_report(&out_path, &report).expect("write the report");
    eprintln!("perf_report: wrote {}", out_path.display());
    println!("{}", report.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_runs_each_side_reps_times_in_strict_alternation() {
        let order = std::cell::RefCell::new(String::new());
        let spans = interleaved(
            4,
            &mut [
                &mut || order.borrow_mut().push('a'),
                &mut || order.borrow_mut().push('b'),
                &mut || order.borrow_mut().push('c'),
            ],
        );
        assert_eq!(order.into_inner(), "abcabcabcabc");
        assert_eq!(spans.len(), 3);
        for s in spans {
            assert!(s.min.is_finite() && s.min <= s.max, "{s:?}");
        }
    }

    #[test]
    fn an_overhead_inside_its_spread_is_unresolved() {
        let span = |min, max| Span { min, max };
        // +5% against a 2% spread resolves; +5% against a 10% spread
        // (either side's) does not.
        assert_eq!(
            versus(span(1.05, 1.06), span(1.0, 1.02)),
            "+5.0%, spread 2.0%"
        );
        assert_eq!(
            versus(span(1.05, 1.06), span(1.0, 1.1)),
            "unresolved, spread 10.0%"
        );
        assert_eq!(
            versus(span(1.05, 1.155), span(1.0, 1.0)),
            "unresolved, spread 10.0%"
        );
    }

    #[test]
    fn a_ledger_report_is_labelled_from_its_file_name() {
        let dir = std::env::temp_dir().join(format!("arvi-perf-report-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_PR42.json");
        write_report(&path, &Json::obj(report_header(&path, true))).unwrap();
        let files = arvi_bench::load_bench_history(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files.len(), 1);
        // The `pr` field agrees with the name: no mislabel warning.
        assert_eq!(files[0].pr, 42);
        assert_eq!(files[0].json.num("pr"), Some(42.0));
        // A scratch report (not a ledger name) carries no `pr` at all.
        let scratch = report_header(Path::new("out/bench-smoke.json"), true);
        assert!(scratch.iter().all(|(k, _)| *k != "pr"));
    }
}
