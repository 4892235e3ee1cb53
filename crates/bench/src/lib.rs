//! # arvi-bench
//!
//! The experiment harness of the ARVI reproduction: regenerates every
//! table and figure of the paper's evaluation. `tables` prints Tables
//! 1–4, `fig5` Figure 5, `fig6` Figure 6, and `experiments` all of them.
//!
//! Binaries:
//!
//! * `tables` — Tables 1–4 (design/configuration tables).
//! * `fig5` — Figure 5(a) load-branch fractions and 5(b) per-class
//!   accuracy.
//! * `fig6` — Figure 6 prediction accuracy and normalized IPC for all
//!   four configurations at a given pipeline depth.
//! * `experiments` — the full sweep, emitting every figure and the
//!   headline averages.
//! * `perf_report` — quantifies the hot paths (calendar-queue machine
//!   vs the preserved heap baseline, DDT vs the naive baseline, the
//!   replayed sweep), emitting a machine-readable `BENCH_*.json` whose
//!   `guardrail` section feeds the CI perf gate.
//! * `perf_guard` — the CI perf-regression gate: compares a fresh
//!   `perf_report` JSON against the checked-in `BENCH_BASELINE.json`
//!   with per-metric tolerance bands and prints a markdown delta
//!   table.
//! * `synth_report` — characterizes every predictor (standalone
//!   baselines + machine configurations) across the curated
//!   synthetic-scenario grid, emitting `BENCH_PR3.json` and a markdown
//!   table with the paper-style separation summary.
//!
//! Every experiment grid runs through one call, [`run_grid`]: it fans
//! the grid's jobs ([`Jobs`]: whole cells, probed cells or sampling
//! units) out over the workspace's one worker pool
//! ([`arvi_sim::execute`]), isolates each cell's faults, and returns one
//! outcome per cell in grid order ([`SampledSweep`]), so parallel sweeps
//! are bit-identical to sequential ones. [`SampledSweep::results`]
//! unwraps it, or names every failed cell. All binaries accept
//! `--threads N` (default: all cores; `1` = sequential).
//!
//! The figure binaries (`fig5`, `fig6`, `experiments`) parse their
//! command line once into a [`Run`] against one flag table (an unknown
//! flag or a malformed value exits 2) and sweep their grid once
//! ([`Run::sweep`]); each figure is a view over that sweep
//! ([`fig5_tables`], [`Fig6Data::collect`]). Every run is
//! fault-isolated ([`resilience`]): a failed cell is reported and the
//! binary exits 3 once its tables are printed, and `--sample` and
//! `--obs-grid` only change the kind of job the grid runs.
//!
//! Grids are record-once / replay-many (PR 2): each distinct
//! `(benchmark, seed, window)` workload is emulated exactly once into a
//! shared `arvi_trace::Trace` ([`sweep::TraceSet`]) and every cell
//! replays it — bit-identically to live emulation. The experiment
//! binaries (`fig5`, `fig6`, `experiments`, `perf_report`) also accept
//! `--trace-dir DIR` to persist recordings and reload them on later
//! runs instead of re-emulating.
//!
//! Grids sweep [`Workload`]s — suite benchmarks or `arvi-synth`
//! scenarios. The experiment binaries select scenarios with
//! `--scenario NAME_OR_SPEC` / `--scenario-file FILE` and enumerate
//! the registries with `--list-scenarios` / `--list-benchmarks`.
//!
//! The experiment binaries also accept the observability flags
//! (`--probe counters,sites,trace`, `--obs-out FILE`,
//! `--trace-cycles START:END`, `--top-sites N`): when present, an extra
//! probed pass runs after the tables and emits counter histograms,
//! per-branch-site attribution and/or a Chrome trace — see [`obs`].
//! `--obs-grid FILE` instead probes the sweep's own cells and writes
//! their merged rollup — see [`obs_grid`].
//!
//! Criterion microbenchmarks (under `benches/`) measure the hardware
//! structures themselves (DDT insert/chain-read, RSE extraction, BVIT
//! lookup, predictor throughput, emulator and whole-machine speed).

pub mod baseline;
mod baseline_machine;
mod baseline_predict;
pub mod branch_stream;
pub mod events;
pub mod guard;
pub mod harness;
pub mod history;
pub mod obs;
pub mod obs_grid;
pub mod report;
pub mod resilience;
pub mod sampling;
pub mod sweep;
pub mod workload;

pub use arvi_obs::codec::{counters_from_json, counters_to_json, sites_from_json, sites_to_json};
pub use branch_stream::{conditional_branches, run_delayed, run_delayed_scalar, StreamRun};
pub use events::{EventLog, SweepTelemetry};
pub use guard::{evaluate_guardrail, trend_flags, GuardOutcome, MetricRow, MetricStatus};
pub use harness::{fig5_tables, paper_tables, run_one_traced, Fig6Data, Spec};
pub use history::{bench_history, load_bench_history, BenchFile, HistoryReport, MetricTrend};
pub use obs::{maybe_obs_pass, obs_from_args, run_obs_pass, ObsConfig, ObsReport, WorkloadObs};
pub use obs_grid::{
    attribution_diff, maybe_obs_grid, obs_grid_json, Attribution, ObsGrid, ObsGroup, SiteDelta,
    WorkloadAttribution,
};
pub use report::{write_report, write_text, Json};
pub use resilience::{
    cell_fingerprint, run_grid, CellOutcome, CellSuccess, Degradation, FaultKind, FaultPlan,
    FaultyIo, Jobs, Resilience, SweepIncomplete,
};
pub use sampling::{sample_ci_table, sample_plan_from_args, unit_fingerprint, SampledSweep};
pub use sweep::{
    default_threads, grid, par_map, record_trace, trace_file_name, trace_len, try_record_trace,
    SweepPoint, TraceProvenance, TraceSet, TRACE_SLACK,
};
pub use workload::Workload;

use std::path::PathBuf;

use arvi_sampling::SamplePlan;
use arvi_sim::{Depth, PredictorConfig};
use arvi_synth::ScenarioSpec;
use arvi_workloads::Benchmark;

/// Every flag the figure binaries accept, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--trace-dir", true),
    ("--sample", true),
    ("--scenario", true),
    ("--scenario-file", true),
    ("--journal", true),
    ("--resume", false),
    ("--fault-plan", true),
    ("--deadline-ms", true),
    ("--events-out", true),
    ("--metrics-out", true),
    ("--probe", true),
    ("--obs-out", true),
    ("--obs-grid", true),
    ("--trace-cycles", true),
    ("--top-sites", true),
    ("--list-scenarios", false),
    ("--list-benchmarks", false),
];

/// One invocation of a figure binary (`fig5`, `fig6`, `experiments`):
/// everything its sweep runs under, parsed once by [`Run::from_args`],
/// with every workload already recorded.
#[derive(Debug)]
pub struct Run {
    /// The workloads the sweep covers: the benchmark suite, or the
    /// synthetic scenarios a scenario flag selects.
    pub workloads: Vec<Workload>,
    /// The instruction window (`--quick` selects [`Spec::quick`]).
    pub spec: Spec,
    /// Worker threads (`--threads N`; default all cores).
    pub threads: usize,
    /// One shared recording per workload (`--trace-dir` persists them).
    pub traces: TraceSet,
    /// The fault-tolerance policy the sweep runs under.
    pub res: Resilience,
    /// The interval-sampling plan (`--sample`), if any.
    pub plan: Option<SamplePlan>,
    /// The observability flags, if any.
    pub obs: Option<ObsConfig>,
    /// Print a `sweep: <point>` line on stderr as each cell starts.
    pub progress: bool,
    /// The positional argument, when the binary accepts one (`fig6`'s
    /// pipeline depth).
    pub positional: Option<String>,
}

impl Run {
    /// Parses a figure binary's command line against the one flag table
    /// (`positionals` lists the positional values the binary accepts),
    /// then records every workload's trace under the parsed policy.
    /// Errors name the malformed argument (or the conflicting pair:
    /// `--obs-grid` probes whole cells, so it does not combine with
    /// `--sample`); the binaries print them and exit 2.
    pub fn from_args(args: &[String], positionals: &[&str]) -> Result<Run, String> {
        let positional = positional_from_args(args, positionals)?;
        let spec = if args.iter().any(|a| a == "--quick") {
            Spec::quick()
        } else {
            Spec::default()
        };
        let threads = threads_from_args(args)?;
        let trace_dir = trace_dir_from_args(args)?;
        let workloads = workloads_from_args(args)?;
        let plan = sample_plan_from_args(args)?;
        let obs = obs_from_args(args)?;
        if plan.is_some() && obs.as_ref().is_some_and(|o| o.grid.is_some()) {
            return Err(
                "--obs-grid probes whole cells; it cannot be combined with --sample".into(),
            );
        }
        let res = resilience_from_args(args)?;
        let traces = TraceSet::record(&workloads, spec, threads, trace_dir.as_deref(), &res);
        Ok(Run {
            workloads,
            spec,
            threads,
            traces,
            res,
            plan,
            obs,
            progress: true,
            positional,
        })
    }

    /// Sweeps `grid(&self.workloads, depths, configs)` once through the
    /// grid runner under this run's policy — sampled when the run has a
    /// plan, probed under `--obs-grid` — and reports the degradation and
    /// timing summaries on stderr. The figures are views over the result
    /// ([`fig5_tables`], [`Fig6Data::collect`], [`maybe_obs_grid`]).
    pub fn sweep(&self, depths: &[Depth], configs: &[PredictorConfig]) -> SampledSweep {
        let jobs = match (&self.plan, &self.obs) {
            (Some(plan), _) => Jobs::Sampled(plan),
            (None, Some(ObsConfig { grid: Some(_), .. })) => Jobs::Probed,
            (None, _) => Jobs::Cells,
        };
        let sweep = run_grid(
            &grid(&self.workloads, depths, configs),
            self.spec,
            jobs,
            self.threads,
            self.progress,
            Some(&self.traces),
            &self.res,
        );
        if let Some(summary) = resilience::outcome_summary(&sweep.outcomes) {
            eprintln!("{summary}");
        }
        let record = Some(self.traces.record_elapsed());
        if let Some(timing) = resilience::timing_summary(&sweep.outcomes, record) {
            eprintln!("{timing}");
        }
        sweep
    }
}

/// Checks `args` against [`FLAGS`] and returns the positional argument.
/// An unknown flag, a second positional, or a positional not listed in
/// `positionals` is an error. A value flag consumes the next argument
/// unless that looks like a flag (the flag's own parser then reports the
/// missing value).
fn positional_from_args(args: &[String], positionals: &[&str]) -> Result<Option<String>, String> {
    let mut positional = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        if arg.starts_with('-') {
            let (_, takes_value) = FLAGS
                .iter()
                .find(|(flag, _)| flag == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if *takes_value && args.get(i).is_some_and(|v| !v.starts_with('-')) {
                i += 1;
            }
        } else if positional.is_none() && positionals.contains(&arg.as_str()) {
            positional = Some(arg.clone());
        } else if positionals.is_empty() {
            return Err(format!("unexpected argument `{arg}`"));
        } else {
            return Err(format!(
                "unexpected argument `{arg}` (expected one of {})",
                positionals.join(", ")
            ));
        }
    }
    Ok(positional)
}

/// The value of `flag` in `args`: `Ok(None)` when the flag is absent, an
/// error when it is the last argument or followed by another flag.
pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with('-'))
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Parses a `--threads N` argument pair out of `args`, defaulting to all
/// cores. `N` must be a positive number.
pub fn threads_from_args(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads")? {
        None => Ok(default_threads()),
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| format!("--threads: not a positive number: `{n}`")),
    }
}

/// Parses a `--trace-dir DIR` argument pair out of `args`: the directory
/// experiment binaries persist workload recordings to (and reload them
/// from) instead of re-emulating on every run.
pub fn trace_dir_from_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    Ok(flag_value(args, "--trace-dir")?.map(PathBuf::from))
}

/// Parses the fault-tolerance flags out of `args` into the policy every
/// sweep runs under: [`Resilience::default`] (graceful degradation, no
/// journal, no injected faults) adjusted by
///
/// * `--journal FILE` — append completed sweep cells to `FILE` (the
///   sweep journal) as they finish.
/// * `--resume` — restore completed cells from the journal instead of
///   re-running them. Implies a journal; without `--journal` it
///   defaults to `sweep.journal` inside `--trace-dir` (or the current
///   directory without one).
/// * `--fault-plan FILE` — inject the deterministic faults listed in
///   `FILE` (see [`FaultPlan::parse`] for the line syntax).
/// * `--deadline-ms N` — soft per-cell deadline; slower cells are
///   reported as timed out and their results discarded.
/// * `--events-out FILE` — write a JSONL span log of sweep execution
///   events (cell start/end, record/replay/live phase, quarantines,
///   resume hits) to `FILE`.
/// * `--metrics-out FILE` — write cumulative sweep counters to `FILE`
///   in Prometheus text exposition format after every sweep.
///
/// Errors name the malformed flag.
pub fn resilience_from_args(args: &[String]) -> Result<Resilience, String> {
    let mut res = Resilience::default();
    res.resume = args.iter().any(|a| a == "--resume");
    res.journal = match flag_value(args, "--journal")? {
        Some(path) => Some(PathBuf::from(path)),
        // --resume without --journal: the conventional location.
        None if res.resume => Some(
            trace_dir_from_args(args)?
                .unwrap_or_default()
                .join("sweep.journal"),
        ),
        None => None,
    };
    res.deadline = flag_value(args, "--deadline-ms")?
        .map(|v| {
            v.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|_| format!("--deadline-ms: not a number: `{v}`"))
        })
        .transpose()?;
    if let Some(path) = flag_value(args, "--fault-plan")? {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        res.plan = Some(std::sync::Arc::new(FaultPlan::parse(&text)?));
    }
    let events_out = flag_value(args, "--events-out")?;
    let metrics_out = flag_value(args, "--metrics-out")?;
    if events_out.is_some() || metrics_out.is_some() {
        let telemetry = SweepTelemetry::from_paths(
            events_out.map(std::path::Path::new),
            metrics_out.map(std::path::Path::new),
        )
        .map_err(|e| format!("cannot open telemetry sink: {e}"))?;
        res.telemetry = Some(std::sync::Arc::new(telemetry));
    }
    Ok(res)
}

/// Parses the scenario-selection flags out of `args`:
///
/// * `--scenario X` (repeatable) — `X` is a curated scenario name
///   (`--list-scenarios`), or a full quoted spec line
///   (`"name branch=datadep:64 chain=8"`; recognized by containing
///   whitespace or `=`). A bare name that is not curated runs as a
///   knobless spec line (all defaults), with a note on stderr.
/// * `--scenario-file FILE` — a scenario file, one spec line each
///   (`arvi_synth::parse_scenarios` syntax: `#` comments, blank lines).
///
/// Returns `Ok(None)` when no scenario flag is present (callers fall
/// back to the benchmark suite), `Ok(Some(workloads))` otherwise.
pub fn scenario_workloads_from_args(args: &[String]) -> Result<Option<Vec<Workload>>, String> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut any = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                any = true;
                let v = args
                    .get(i + 1)
                    // A following flag means the value was forgotten —
                    // without this, `--scenario --quick` would run a
                    // default-knob scenario literally named `--quick`.
                    .filter(|v| !v.starts_with('-'))
                    .ok_or("--scenario needs a name or spec line")?;
                let spec = if v.contains(|c: char| c.is_whitespace() || c == '=') {
                    v.parse::<ScenarioSpec>().map_err(|e| e.to_string())?
                } else {
                    match arvi_synth::find(v) {
                        Some(spec) => spec,
                        // A bare name that is not curated is still a
                        // valid knobless spec line — accept it (with a
                        // note, in case it was a curated-name typo).
                        None => {
                            let spec = v.parse::<ScenarioSpec>().map_err(|_| {
                                format!(
                                    "unknown scenario `{v}` — not a curated name \
                                     (see --list-scenarios) nor a valid spec line"
                                )
                            })?;
                            eprintln!(
                                "note: `{v}` is not a curated scenario; \
                                 running it as a spec line with default knobs"
                            );
                            spec
                        }
                    }
                };
                specs.push(spec);
                i += 2;
            }
            "--scenario-file" => {
                any = true;
                let path = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with('-'))
                    .ok_or("--scenario-file needs a path")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                specs.extend(arvi_synth::parse_scenarios(&text).map_err(|e| e.to_string())?);
                i += 2;
            }
            _ => i += 1,
        }
    }
    if !any {
        return Ok(None);
    }
    for (i, a) in specs.iter().enumerate() {
        if specs[..i].iter().any(|b| b.name == a.name) {
            return Err(format!("duplicate scenario name `{}`", a.name));
        }
    }
    Ok(Some(specs.into_iter().map(Workload::scenario).collect()))
}

/// The workload set selected by `args`: the named scenarios when any
/// scenario flag is present, the benchmark suite otherwise.
fn workloads_from_args(args: &[String]) -> Result<Vec<Workload>, String> {
    Ok(scenario_workloads_from_args(args)?.unwrap_or_else(Workload::suite))
}

/// Handles the discoverability flags `--list-scenarios` /
/// `--list-benchmarks`: prints the requested registries and returns
/// `true` if either was present (the caller should exit).
pub fn handle_list_flags(args: &[String]) -> bool {
    let scenarios = args.iter().any(|a| a == "--list-scenarios");
    let benchmarks = args.iter().any(|a| a == "--list-benchmarks");
    if benchmarks {
        println!("suite benchmarks:");
        for b in Benchmark::all() {
            println!("  {}", b.name());
        }
    }
    if scenarios {
        println!("curated scenarios (pass a name to --scenario; the full line form works too):");
        for line in arvi_synth::CURATED {
            println!("  {line}");
        }
    }
    scenarios || benchmarks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_scenario_flags_means_suite() {
        assert_eq!(
            scenario_workloads_from_args(&args(&["--quick", "--threads", "2"])).unwrap(),
            None
        );
        assert_eq!(
            workloads_from_args(&args(&["--quick"])).unwrap(),
            Workload::suite()
        );
    }

    #[test]
    fn curated_names_and_spec_lines_mix() {
        let w = scenario_workloads_from_args(&args(&[
            "--scenario",
            "datadep-deep",
            "--scenario",
            "mine branch=periodic:6 chain=3",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].name(), "datadep-deep");
        assert_eq!(w[1].name(), "mine");
        assert!(matches!(
            w[1].as_scenario().unwrap().branch,
            arvi_synth::BranchClass::Periodic { period: 6 }
        ));
    }

    #[test]
    fn bare_uncurated_name_becomes_a_knobless_spec() {
        let w = scenario_workloads_from_args(&args(&["--scenario", "mine"]))
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].name(), "mine");
        assert_eq!(w[0].as_scenario().unwrap().chain_depth, 2, "default knobs");
    }

    #[test]
    fn scenario_errors_are_reported() {
        // Neither a curated name nor a valid spec line (unsafe name).
        assert!(
            scenario_workloads_from_args(&args(&["--scenario", "no/pe"]))
                .unwrap_err()
                .contains("unknown scenario")
        );
        assert!(scenario_workloads_from_args(&args(&["--scenario"]))
            .unwrap_err()
            .contains("needs a name"));
        // A forgotten value followed by another flag must not become a
        // scenario named after the flag.
        assert!(
            scenario_workloads_from_args(&args(&["--scenario", "--quick"]))
                .unwrap_err()
                .contains("needs a name")
        );
        assert!(
            scenario_workloads_from_args(&args(&["--scenario-file", "--quick"]))
                .unwrap_err()
                .contains("needs a path")
        );
        assert!(scenario_workloads_from_args(&args(&[
            "--scenario",
            "a branch=bias:100",
            "--scenario",
            "a branch=bias:50",
        ]))
        .unwrap_err()
        .contains("duplicate"));
    }

    #[test]
    fn resilience_flags_parse() {
        let r = resilience_from_args(&args(&["--quick", "--threads", "2"])).unwrap();
        assert!(r.journal.is_none() && !r.resume && r.plan.is_none() && r.telemetry.is_none());
        let r = resilience_from_args(&args(&["--journal", "j.log"])).unwrap();
        assert_eq!(r.journal.as_deref(), Some(std::path::Path::new("j.log")));
        assert!(!r.resume);
        // --resume defaults the journal into the trace dir.
        let r = resilience_from_args(&args(&["--resume", "--trace-dir", "traces"])).unwrap();
        assert!(r.resume);
        assert_eq!(
            r.journal.as_deref(),
            Some(std::path::Path::new("traces/sweep.journal"))
        );
        let r = resilience_from_args(&args(&["--deadline-ms", "1500"])).unwrap();
        assert_eq!(r.deadline, Some(std::time::Duration::from_millis(1500)));
        assert!(resilience_from_args(&args(&["--journal"])).is_err());
        assert!(resilience_from_args(&args(&["--deadline-ms", "soon"])).is_err());
        assert!(resilience_from_args(&args(&["--fault-plan", "/nonexistent/plan"])).is_err());
    }

    #[test]
    fn telemetry_flags_open_their_sinks() {
        let dir = std::env::temp_dir().join(format!("arvi-telflag-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = dir.join("events.jsonl");
        let r = resilience_from_args(&args(&["--events-out", events.to_str().unwrap()])).unwrap();
        let t = r.telemetry.as_ref().expect("telemetry configured");
        assert_eq!(t.events().unwrap().path(), events);
        assert!(events.exists(), "log created eagerly, with parents");
        // Metrics alone also counts; no event log in that case.
        let metrics = dir.join("metrics.prom");
        let r = resilience_from_args(&args(&["--metrics-out", metrics.to_str().unwrap()])).unwrap();
        assert!(r.telemetry.as_ref().unwrap().events().is_none());
        assert!(resilience_from_args(&args(&["--events-out"])).is_err());
        // An unopenable sink is a flag error, and it names the path.
        std::fs::write(dir.join("blocker"), "x").unwrap();
        let err = resilience_from_args(&args(&[
            "--events-out",
            dir.join("blocker/e.jsonl").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("blocker"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flag_table_rejects_malformed_input() {
        let depths = ["20", "40", "60"];
        assert_eq!(
            positional_from_args(&args(&["40", "--quick", "--threads", "2"]), &depths).unwrap(),
            Some("40".to_string())
        );
        // Flag values are not positionals, even when they look like one.
        assert_eq!(
            positional_from_args(&args(&["--threads", "20", "--scenario", "a b=c"]), &[]).unwrap(),
            None
        );
        for bad in [
            &["30", "--quick"][..],                          // not a fig6 depth
            &["20", "40"],                                   // two depths
            &["--quick", "--threads", "2", "--threds", "9"], // unknown flag
            &["-q"],                                         // unknown short flag
        ] {
            assert!(
                positional_from_args(&args(bad), &depths).is_err(),
                "{bad:?}"
            );
        }
        assert!(
            positional_from_args(&args(&["20"]), &[])
                .unwrap_err()
                .contains("unexpected argument `20`"),
            "fig5 and experiments take no positional"
        );
        assert_eq!(threads_from_args(&args(&["--threads", "3"])).unwrap(), 3);
        assert!(threads_from_args(&args(&["--quick"])).unwrap() >= 1);
        for bad in [
            &["--threads", "abc"][..],
            &["--threads", "0"],
            &["--threads"],
        ] {
            assert!(threads_from_args(&args(bad)).is_err(), "{bad:?}");
        }
        // Run::from_args reports them all before recording anything.
        let err = Run::from_args(
            &args(&["30", "--quick", "--threads", "2", "--threds", "9"]),
            &depths,
        )
        .unwrap_err();
        assert!(err.contains("30"), "{err}");
        let err = Run::from_args(&args(&["--quick", "--threads", "abc"]), &[]).unwrap_err();
        assert!(err.contains("abc"), "{err}");
        let err = Run::from_args(&args(&["--sample", "2:10:5", "--obs-grid", "g.json"]), &[])
            .unwrap_err();
        assert!(
            err.contains("--obs-grid") && err.contains("--sample"),
            "{err}"
        );
    }

    #[test]
    fn journaled_figure_run_prints_the_same_tables() {
        let dir = std::env::temp_dir().join(format!("arvi-runjournal-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = dir.join("sweep.journal");
        let base = ["--quick", "--threads", "2", "--scenario", "datadep-deep"];
        let mut with_journal = args(&base);
        with_journal.extend(["--journal".to_string(), journal.display().to_string()]);
        let render = |argv: &[String]| {
            let mut run = Run::from_args(argv, &[]).unwrap();
            run.progress = false;
            let sweep = run.sweep(&Depth::all(), &[PredictorConfig::ArviCurrent]);
            let (fig5a, fig5b, ci) = fig5_tables(&run, &sweep).unwrap();
            assert!(ci.is_none(), "no plan, no CI table");
            fig5a.to_text() + &fig5b.to_text()
        };
        assert_eq!(render(&args(&base)), render(&with_journal));
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with("# arvi sweep journal v1"), "{text}");
        assert_eq!(text.lines().count(), 1 + 3, "header + one line per depth");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A two-scenario `--quick` run, optionally sampled and with extra
    /// flags.
    fn two_scenario_run(extra: &[&str]) -> Run {
        let mut argv = args(&[
            "--quick",
            "--threads",
            "2",
            "--scenario",
            "datadep-deep",
            "--scenario",
            "bias-always",
        ]);
        argv.extend(args(extra));
        let mut run = Run::from_args(&argv, &[]).unwrap();
        run.progress = false;
        run
    }

    #[test]
    fn figure_views_over_the_full_sweep_match_their_own_grids() {
        for extra in [&[][..], &["--sample", "2:10000:2000"]] {
            let run = two_scenario_run(extra);
            let render_ci = |ci: Option<arvi_stats::Table>| {
                assert_eq!(ci.is_some(), run.plan.is_some(), "a CI table iff sampled");
                ci.map(|t| t.to_text()).unwrap_or_default()
            };
            let fig5 = |sweep: &SampledSweep| {
                let (a, b, ci) = fig5_tables(&run, sweep).unwrap();
                a.to_text() + &b.to_text() + &render_ci(ci)
            };
            let fig6 = |sweep: &SampledSweep, depth| {
                let (data, ci) = Fig6Data::collect(&run, sweep, depth).unwrap();
                data.accuracy_table().to_text()
                    + &data.normalized_ipc_table().to_text()
                    + &render_ci(ci)
            };
            let full = run.sweep(&Depth::all(), &PredictorConfig::all());
            let own = run.sweep(&Depth::all(), &[PredictorConfig::ArviCurrent]);
            assert_eq!(fig5(&full), fig5(&own), "{extra:?}");
            for depth in Depth::all() {
                let own = run.sweep(&[depth], &PredictorConfig::all());
                assert_eq!(fig6(&full, depth), fig6(&own, depth), "{extra:?} {depth}");
            }
        }
    }

    #[test]
    fn obs_grid_run_simulates_each_cell_once() {
        let dir = std::env::temp_dir().join(format!("arvi-onepass-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (events, rollup) = (dir.join("events.jsonl"), dir.join("grid.json"));
        let run = two_scenario_run(&[
            "--obs-grid",
            rollup.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ]);
        let sweep = run.sweep(&[Depth::D20], &PredictorConfig::all());
        assert!(sweep.outcomes.iter().all(|o| o.success().is_some()));
        maybe_obs_grid(&run, &sweep);
        let text = std::fs::read_to_string(&events).unwrap();
        let count = |name: &str| {
            text.lines()
                .filter(|l| Json::parse(l).unwrap().get("event") == Some(&Json::str(name)))
                .count()
        };
        assert_eq!(count("sweep_start"), 1);
        assert_eq!(count("cell_end"), sweep.points.len());
        assert_eq!(count("obs_grid_end"), 1);
        let grid = Json::parse(&std::fs::read_to_string(&rollup).unwrap()).unwrap();
        assert_eq!(grid.num("completed"), Some(sweep.points.len() as f64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_flag_loads_and_validates() {
        let dir = std::env::temp_dir().join(format!("arvi-resflag-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.faults");
        std::fs::write(&path, "panic-cell 0\nkill-after 2\n").unwrap();
        let r = resilience_from_args(&args(&["--fault-plan", path.to_str().unwrap()])).unwrap();
        assert_eq!(r.plan.as_ref().unwrap().len(), 2);
        std::fs::write(&path, "warp-core-breach 1\n").unwrap();
        assert!(
            resilience_from_args(&args(&["--fault-plan", path.to_str().unwrap()]))
                .unwrap_err()
                .contains("unknown fault kind")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_file_flag_loads_specs() {
        let dir = std::env::temp_dir().join(format!("arvi-lib-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.scenarios");
        std::fs::write(
            &path,
            "# two
one branch=datadep:8
two branch=bias:75
",
        )
        .unwrap();
        let w = scenario_workloads_from_args(&args(&["--scenario-file", path.to_str().unwrap()]))
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].name(), "two");
        std::fs::remove_dir_all(&dir).ok();
    }
}
