//! The experiment binaries' observability pass: `--probe`, `--obs-out`,
//! `--trace-cycles`, `--top-sites`.
//!
//! The figure sweeps themselves always run unprobed (the [`NullProbe`]
//! machine — bit-identical and perf-guarded). When any probe flag is
//! present, the binary runs one *extra* probed pass per workload after
//! the tables — at the figure's anchor depth/configuration, replaying
//! the shared recordings when available — and renders the telemetry as
//! markdown (stdout) or compact JSON (`--obs-out`).
//!
//! [`NullProbe`]: arvi_obs::NullProbe

use std::path::PathBuf;

use arvi_obs::codec::{counters_summary_json, top_sites_json};
use arvi_obs::{ChromeTracer, CounterProbe, Probe, SiteProbe};
use arvi_sim::{intern_name, simulate_source_probed, Depth, PredictorConfig, SimParams, SimResult};
use arvi_workloads::WorkloadSource;

use crate::harness::Spec;
use crate::report::{write_text, Json};
use crate::sweep::{trace_len, TraceSet};
use crate::workload::Workload;

/// Which probes an observability pass runs and where output goes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// `--probe counters`: merged counter/histogram telemetry.
    pub counters: bool,
    /// `--probe sites`: per-branch-PC attribution tables.
    pub sites: bool,
    /// `--trace-cycles START:END` (or `--probe trace` with it): the
    /// traced cycle window.
    pub trace: Option<(u64, u64)>,
    /// `--obs-out PATH`: write compact JSON here (and the Chrome trace
    /// beside it as `<PATH minus extension>.trace.json`) instead of
    /// printing markdown.
    pub out: Option<PathBuf>,
    /// `--top-sites N` rows in site tables (default 10).
    pub top_sites: usize,
    /// `--obs-grid PATH`: probe *every* cell of the sweep (not just the
    /// anchor pass) and write the merged grid rollup here — see
    /// [`crate::obs_grid`].
    pub grid: Option<PathBuf>,
}

impl ObsConfig {
    /// Where the Chrome trace document goes (requires `out`).
    pub fn trace_path(&self) -> Option<PathBuf> {
        match (&self.trace, &self.out) {
            (Some(_), Some(out)) => Some(out.with_extension("trace.json")),
            _ => None,
        }
    }
}

/// Parses the observability flags out of `args`:
///
/// * `--probe LIST` — comma-separated probe set: `counters`, `sites`,
///   `trace` (e.g. `--probe counters,sites`).
/// * `--obs-out PATH` — write compact JSON to `PATH` (and the Chrome
///   trace to `<PATH minus extension>.trace.json`) instead of markdown
///   on stdout.
/// * `--trace-cycles START:END` — the traced cycle window; implies
///   `--probe trace`. Required when `trace` is requested, and requires
///   `--obs-out` (a trace only exists as a file).
/// * `--top-sites N` — rows in per-site tables (default 10).
/// * `--obs-grid PATH` — run counter+site probes over every cell of
///   the sweep and write the merged `obs_grid.json` rollup to `PATH`
///   (works with or without the anchor-pass flags above).
///
/// Returns `Ok(None)` when no observability flag is present.
pub fn obs_from_args(args: &[String]) -> Result<Option<ObsConfig>, String> {
    let probe = crate::flag_value(args, "--probe")?;
    let trace_cycles = crate::flag_value(args, "--trace-cycles")?;
    let out = crate::flag_value(args, "--obs-out")?;
    let top_sites = crate::flag_value(args, "--top-sites")?;
    let grid = crate::flag_value(args, "--obs-grid")?;
    if probe.is_none() && trace_cycles.is_none() && grid.is_none() {
        if out.is_some() || top_sites.is_some() {
            return Err("--obs-out/--top-sites need --probe, --trace-cycles or --obs-grid".into());
        }
        return Ok(None);
    }
    if out.is_some() && probe.is_none() && trace_cycles.is_none() {
        return Err(
            "--obs-out needs --probe or --trace-cycles (the grid rollup goes to --obs-grid)".into(),
        );
    }
    let mut cfg = ObsConfig {
        top_sites: 10,
        ..ObsConfig::default()
    };
    if let Some(list) = probe {
        for p in list.split(',') {
            match p.trim() {
                "counters" => cfg.counters = true,
                "sites" => cfg.sites = true,
                "trace" => cfg.trace = Some((0, 0)), // window filled below
                "" => {}
                other => {
                    return Err(format!(
                        "--probe: unknown probe `{other}` (expected counters, sites, trace)"
                    ))
                }
            }
        }
    }
    match trace_cycles {
        Some(win) => {
            let (a, b) = win
                .split_once(':')
                .ok_or_else(|| format!("--trace-cycles: expected START:END, got `{win}`"))?;
            let start: u64 = a
                .parse()
                .map_err(|_| format!("--trace-cycles: bad start `{a}`"))?;
            let end: u64 = b
                .parse()
                .map_err(|_| format!("--trace-cycles: bad end `{b}`"))?;
            if end <= start {
                return Err(format!("--trace-cycles: empty window {start}:{end}"));
            }
            cfg.trace = Some((start, end));
        }
        None if cfg.trace.is_some() => {
            return Err("--probe trace needs --trace-cycles START:END".into())
        }
        None => {}
    }
    if cfg.trace.is_some() && out.is_none() {
        return Err("--trace-cycles needs --obs-out (the trace is written beside it)".into());
    }
    cfg.out = out.map(PathBuf::from);
    cfg.grid = grid.map(PathBuf::from);
    if let Some(n) = top_sites {
        cfg.top_sites = n
            .parse()
            .map_err(|_| format!("--top-sites: not a number: `{n}`"))?;
    }
    Ok(Some(cfg))
}

/// Telemetry gathered from one workload's probed run.
#[derive(Debug)]
pub struct WorkloadObs {
    /// The workload's name.
    pub name: String,
    /// The run the probes observed (IPC/accuracy context for reports).
    pub result: SimResult,
    /// Counter/histogram telemetry.
    pub counters: CounterProbe,
    /// Per-branch-site attribution.
    pub sites: SiteProbe,
    /// Windowed event trace (empty when tracing was off).
    pub tracer: ChromeTracer,
}

/// The output of [`run_obs_pass`]: per-workload telemetry plus the
/// cross-workload counter merge.
#[derive(Debug)]
pub struct ObsReport {
    /// Depth the pass ran at.
    pub depth: Depth,
    /// Configuration the pass ran under.
    pub config: PredictorConfig,
    /// Counters summed over every workload.
    pub merged: CounterProbe,
    /// Per-workload telemetry, in workload order.
    pub workloads: Vec<WorkloadObs>,
}

/// Runs the probed pass: one simulation per workload at
/// (`depth`, `config`) with all three probes attached, replaying shared
/// recordings when `traces` has them (live emulation otherwise).
pub fn run_obs_pass(
    workloads: &[Workload],
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
    cfg: &ObsConfig,
    traces: Option<&TraceSet>,
) -> ObsReport {
    let mut report = ObsReport {
        depth,
        config,
        merged: CounterProbe::new(),
        workloads: Vec::with_capacity(workloads.len()),
    };
    for (wi, workload) in workloads.iter().enumerate() {
        let (start, end) = cfg.trace.unwrap_or((0, 0));
        let mut tracer = if cfg.trace.is_some() {
            ChromeTracer::new(start, end)
        } else {
            // No window: records nothing, costs a range check per hook.
            ChromeTracer::with_capacity(0, 0, 0)
        };
        tracer.pid = wi as u32 + 1;
        let probe = ((CounterProbe::new(), SiteProbe::new()), tracer);
        let (result, ((counters, sites), tracer)) =
            simulate_probed(workload, depth, config, spec, traces, probe);
        report.merged.merge(&counters);
        report.workloads.push(WorkloadObs {
            name: workload.name().to_string(),
            result,
            counters,
            sites,
            tracer,
        });
    }
    report
}

/// One probed simulation of `workload` at (`depth`, `config`) under
/// `spec`: replays the shared recording when `traces` holds one covering
/// [`trace_len`]`(spec)`, and emulates live otherwise. Both the anchor
/// pass and the grid pass ([`crate::obs_grid`]) run their cells here.
pub(crate) fn simulate_probed<P: Probe>(
    workload: &Workload,
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
    traces: Option<&TraceSet>,
    probe: P,
) -> (SimResult, P) {
    let name = intern_name(workload.name());
    let params = SimParams::for_depth(depth);
    let replayer = traces.and_then(|t| {
        t.get(workload)
            .filter(|tr| tr.len() >= trace_len(spec))
            .and_then(|_| t.replayer(workload))
    });
    match replayer {
        Some(replayer) => simulate_source_probed(
            name,
            replayer,
            params,
            config,
            spec.warmup,
            spec.measure,
            probe,
        ),
        None => simulate_source_probed(
            name,
            arvi_isa::Emulator::new(workload.program(spec.seed)),
            params,
            config,
            spec.warmup,
            spec.measure,
            probe,
        ),
    }
}

impl ObsReport {
    /// The markdown rendering selected by `cfg` (counters and/or site
    /// tables).
    pub fn to_markdown(&self, cfg: &ObsConfig) -> String {
        let mut out = format!(
            "## Observability ({} depth {}, {} workloads)\n",
            self.config.label(),
            self.depth.stages(),
            self.workloads.len()
        );
        if cfg.counters {
            out.push_str("\n### Counters (merged over workloads)\n\n");
            out.push_str(&self.merged.to_markdown());
        }
        if cfg.sites {
            for w in &self.workloads {
                out.push_str(&format!(
                    "\n### Top mispredicting sites: {} (final accuracy {:.2}%)\n\n",
                    w.name,
                    w.result.accuracy() * 100.0
                ));
                out.push_str(&w.sites.to_markdown(cfg.top_sites));
            }
        }
        if let Some((start, end)) = cfg.trace {
            let events: usize = self.workloads.iter().map(|w| w.tracer.len()).sum();
            let dropped: u64 = self.workloads.iter().map(|w| w.tracer.dropped).sum();
            out.push_str(&format!(
                "\ntrace window [{start}, {end}): {events} events ({dropped} dropped)\n"
            ));
        }
        out
    }

    /// The compact-JSON rendering selected by `cfg` (everything except
    /// the Chrome trace, which is its own document — see
    /// [`ObsReport::render_trace`]).
    pub fn to_json(&self, cfg: &ObsConfig) -> Json {
        let mut fields = vec![
            ("config", Json::str(self.config.label())),
            ("depth", Json::Num(self.depth.stages() as f64)),
        ];
        if cfg.counters {
            fields.push(("counters", counters_summary_json(&self.merged)));
        }
        let mut per = Vec::new();
        for w in &self.workloads {
            let mut wf = vec![
                ("name", Json::str(&w.name)),
                ("ipc", Json::Num(w.result.ipc())),
                ("accuracy", Json::Num(w.result.accuracy())),
            ];
            if cfg.counters {
                wf.push(("counters", counters_summary_json(&w.counters)));
            }
            if cfg.sites {
                wf.push(("sites", top_sites_json(&w.sites, cfg.top_sites)));
            }
            per.push(Json::obj(wf));
        }
        fields.push(("workloads", Json::Arr(per)));
        if let Some((start, end)) = cfg.trace {
            fields.push((
                "trace",
                Json::obj([
                    ("start", Json::Num(start as f64)),
                    ("end", Json::Num(end as f64)),
                    (
                        "events",
                        Json::Num(
                            self.workloads.iter().map(|w| w.tracer.len()).sum::<usize>() as f64
                        ),
                    ),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// The merged Chrome trace document over every workload.
    pub fn render_trace(&self) -> String {
        ChromeTracer::render_merged(self.workloads.iter().map(|w| (w.name.as_str(), &w.tracer)))
    }

    /// Emits the pass per `cfg`: markdown to stdout without `--obs-out`,
    /// JSON files with it (plus the Chrome trace beside, when traced).
    pub fn emit(&self, cfg: &ObsConfig) -> std::io::Result<()> {
        match &cfg.out {
            None => println!("{}", self.to_markdown(cfg)),
            Some(path) => {
                write_text(path, &(self.to_json(cfg).render_compact() + "\n"))?;
                eprintln!("observability JSON written to {}", path.display());
                if let Some(trace_path) = cfg.trace_path() {
                    write_text(&trace_path, &self.render_trace())?;
                    eprintln!("chrome trace written to {}", trace_path.display());
                }
            }
        }
        Ok(())
    }
}

/// Runs and emits the observability pass when `cfg` (the parsed probe
/// flags, [`obs_from_args`]) asks for one; exits with code 1 when the
/// output cannot be written. The experiment binaries call this once
/// after their tables, at their figure's anchor depth/configuration. An
/// `--obs-grid`-only invocation selects no anchor pass — the grid rollup
/// is emitted by [`crate::obs_grid::maybe_obs_grid`] instead.
pub fn maybe_obs_pass(
    cfg: Option<&ObsConfig>,
    workloads: &[Workload],
    depth: Depth,
    config: PredictorConfig,
    spec: Spec,
    traces: Option<&TraceSet>,
) {
    let Some(cfg) = cfg.filter(|c| c.counters || c.sites || c.trace.is_some()) else {
        return;
    };
    let report = run_obs_pass(workloads, depth, config, spec, cfg, traces);
    if let Err(e) = report.emit(cfg) {
        eprintln!("error: cannot write observability output: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_workloads::Benchmark;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(obs_from_args(&args(&["--quick"])).unwrap(), None);
        let cfg = obs_from_args(&args(&["--probe", "counters,sites", "--top-sites", "5"]))
            .unwrap()
            .unwrap();
        assert!(cfg.counters && cfg.sites);
        assert_eq!(cfg.trace, None);
        assert_eq!(cfg.top_sites, 5);
        let cfg = obs_from_args(&args(&[
            "--probe",
            "trace",
            "--trace-cycles",
            "100:900",
            "--obs-out",
            "obs.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(cfg.trace, Some((100, 900)));
        assert_eq!(cfg.trace_path().unwrap(), PathBuf::from("obs.trace.json"));
        // --trace-cycles alone implies the trace probe.
        let cfg = obs_from_args(&args(&["--trace-cycles", "0:10", "--obs-out", "o.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.trace, Some((0, 10)));
        // --obs-grid works alone (no anchor-pass probes selected) and
        // alongside the anchor-pass flags.
        let cfg = obs_from_args(&args(&["--obs-grid", "grid.json"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.grid, Some(PathBuf::from("grid.json")));
        assert!(!cfg.counters && !cfg.sites && cfg.trace.is_none());
        let cfg = obs_from_args(&args(&[
            "--probe",
            "counters",
            "--obs-grid",
            "grid.json",
            "--top-sites",
            "7",
        ]))
        .unwrap()
        .unwrap();
        assert!(cfg.counters);
        assert_eq!(cfg.grid, Some(PathBuf::from("grid.json")));
        assert_eq!(cfg.top_sites, 7);
    }

    #[test]
    fn flag_errors() {
        for bad in [
            vec!["--probe", "bogus"],
            vec!["--probe"],
            vec!["--probe", "trace"],                        // no window
            vec!["--trace-cycles", "5:5", "--obs-out", "o"], // empty window
            vec!["--trace-cycles", "10"],                    // malformed
            vec!["--trace-cycles", "0:10"],                  // no --obs-out
            vec!["--obs-out", "x.json"],                     // no probe selected
            vec!["--top-sites", "3"],                        // no probe selected
            vec!["--probe", "counters", "--top-sites", "many"],
            vec!["--obs-grid"], // missing value
            // --obs-out is the anchor pass's sink; grid-only runs have
            // no anchor pass to write.
            vec!["--obs-grid", "g.json", "--obs-out", "x.json"],
        ] {
            assert!(obs_from_args(&args(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn pass_collects_and_renders() {
        let spec = Spec {
            warmup: 2_000,
            measure: 8_000,
            seed: 42,
        };
        let cfg = ObsConfig {
            counters: true,
            sites: true,
            trace: Some((1_000, 2_000)),
            out: None,
            top_sites: 3,
            grid: None,
        };
        let workloads = [Workload::from(Benchmark::Li)];
        let report = run_obs_pass(
            &workloads,
            Depth::D20,
            PredictorConfig::ArviCurrent,
            spec,
            &cfg,
            None,
        );
        assert_eq!(report.workloads.len(), 1);
        let w = &report.workloads[0];
        assert!(w.counters.committed >= 10_000, "{}", w.counters.committed);
        assert!(w.counters.branches > 0);
        assert!(w.sites.sites > 0);
        assert!(!w.tracer.is_empty(), "trace window saw no events");
        assert_eq!(report.merged.committed, w.counters.committed);

        let md = report.to_markdown(&cfg);
        assert!(md.contains("### Counters"), "{md}");
        assert!(md.contains("Top mispredicting sites: li"), "{md}");

        let json = report.to_json(&cfg).render_compact();
        let parsed = Json::parse(&json).expect("obs JSON parses");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("workloads").is_some());
        assert_eq!(parsed.num("trace.start"), Some(1_000.0));

        let trace = report.render_trace();
        Json::parse(&trace).expect("chrome trace JSON parses");
        assert!(trace.contains("process_name"));
    }
}
