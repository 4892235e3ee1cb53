//! Grid-scale telemetry: probe every cell of a sweep and merge.
//!
//! The anchor pass ([`crate::obs`]) observes one `(depth, config)`
//! point per workload. This module promotes the probe seam to the whole
//! grid: under `--obs-grid` the sweep's own whole-cell jobs run with the
//! counter+site probes attached (the one grid runner,
//! [`crate::resilience::run_grid`] with
//! [`crate::resilience::Jobs::Probed`], so probed cells get the same
//! panic isolation, deadline, fault plan, degradation, journal and
//! resume as every other cell), and [`ObsGrid::from_sweep`] folds the
//! probed cells per `(workload, config)` group and grid-wide into one
//! rollup without simulating anything; [`obs_grid_json`] renders it as
//! `obs_grid.json`. No grid is simulated twice. [`maybe_obs_grid`] is
//! that fold and write for a figure binary's own sweep.
//!
//! A probed cell's sweep-journal entry carries its probes in the lossless
//! codec of [`arvi_obs::codec`] ([`counters_to_json`], [`sites_to_json`]
//! and their inverses), which is what makes a resumed grid
//! byte-identical to an uninterrupted one; each group's `top` list is
//! the report view [`top_sites_json`]. Site tables render sorted by PC
//! and groups merge in point order, so the rollup is also
//! byte-identical across worker counts.
//!
//! [`attribution_diff`] is the differential pass over the merged site
//! tables: per workload, the branch PCs the ARVI configuration *fixes*
//! and *breaks* versus the best baseline config — the falsifiable
//! "where does ARVI win" table, consumed by the `obs_report` binary.

use std::collections::HashMap;
use std::time::Instant;

use arvi_obs::codec::{counters_to_json, sites_from_json, sites_to_json, top_sites_json};
use arvi_obs::{CounterProbe, SiteProbe};
use arvi_sim::PredictorConfig;

use crate::events::EventLog;
use crate::harness::Spec;
use crate::report::{write_text, Json};
use crate::resilience::CellOutcome;
use crate::sampling::SampledSweep;
use crate::Run;

/// Merged telemetry for one `(workload, config)` group of the grid
/// (summed over every depth/cell of that pair, in point order).
#[derive(Debug)]
pub struct ObsGroup {
    /// The workload's name.
    pub workload: String,
    /// The predictor configuration.
    pub config: PredictorConfig,
    /// Cells merged into this group.
    pub cells: usize,
    /// Counter/histogram telemetry summed over the group.
    pub counters: CounterProbe,
    /// Site tables unioned over the group.
    pub sites: SiteProbe,
}

/// A probed sweep's telemetry rollup ([`ObsGrid::from_sweep`]):
/// per-group and grid-wide merges plus per-cell accounting.
#[derive(Debug)]
pub struct ObsGrid {
    /// The window every cell ran under.
    pub spec: Spec,
    /// Cells in the grid.
    pub total: usize,
    /// Cells that produced telemetry (simulated or restored).
    pub completed: usize,
    /// Cells restored from the sweep journal instead of re-simulated.
    pub resumed: usize,
    /// Failed/skipped cells: `(index, point, reason)`.
    pub failed: Vec<(usize, String, String)>,
    /// Per-`(workload, config)` merges, in first-appearance order over
    /// the point list.
    pub groups: Vec<ObsGroup>,
    /// Counters summed over the whole grid.
    pub counters: CounterProbe,
    /// Site tables unioned over the whole grid.
    pub sites: SiteProbe,
    /// Per-cell committed-instruction counts (`None` for failed cells)
    /// — the ground truth the merged sums are checked against.
    pub cells_committed: Vec<Option<u64>>,
}

impl ObsGrid {
    /// Folds a probed sweep's cells (run with
    /// [`crate::resilience::Jobs::Probed`] under `spec`) into per-group
    /// and grid-wide merges, sequentially in point order: the rollup is
    /// deterministic regardless of which worker finished which cell
    /// first, and restored telemetry is byte-identical to re-simulated
    /// telemetry (the journal codec is full-fidelity). Simulates nothing.
    /// Emits `obs_grid_end` on `events` (`dur_us` is the fold's own
    /// time).
    ///
    /// # Panics
    ///
    /// Panics if a completed cell of `sweep` carries no probes.
    pub fn from_sweep(sweep: &SampledSweep, spec: Spec, events: Option<&EventLog>) -> ObsGrid {
        let start = Instant::now();
        let points = &sweep.points;
        let mut grid = ObsGrid {
            spec,
            total: points.len(),
            completed: 0,
            resumed: 0,
            failed: Vec::new(),
            groups: Vec::new(),
            counters: CounterProbe::new(),
            sites: SiteProbe::new(),
            cells_committed: vec![None; points.len()],
        };
        for (i, (point, outcome)) in points.iter().zip(&sweep.outcomes).enumerate() {
            let CellOutcome::Ok(s) = outcome else {
                let reason = outcome.failure().expect("non-ok outcome has a reason");
                grid.failed.push((i, point.to_string(), reason));
                continue;
            };
            let (counters, sites) = s.probes.as_deref().expect("probed cells carry probes");
            grid.completed += 1;
            grid.resumed += s.resumed as usize;
            grid.cells_committed[i] = Some(counters.committed);
            grid.counters.merge(counters);
            grid.sites.merge(sites);
            let name = point.workload.name();
            match grid
                .groups
                .iter_mut()
                .find(|g| g.workload == name && g.config == point.config)
            {
                Some(g) => {
                    g.cells += 1;
                    g.counters.merge(counters);
                    g.sites.merge(sites);
                }
                None => grid.groups.push(ObsGroup {
                    workload: name.to_string(),
                    config: point.config,
                    cells: 1,
                    counters: counters.clone(),
                    sites: sites.clone(),
                }),
            }
        }
        if let Some(log) = events {
            log.emit(
                "obs_grid_end",
                vec![
                    ("cells", Json::Num(grid.total as f64)),
                    ("completed", Json::Num(grid.completed as f64)),
                    ("dur_us", Json::Num(start.elapsed().as_micros() as f64)),
                ],
            );
        }
        grid
    }
}

fn n(v: u64) -> Json {
    Json::Num(v as f64)
}

/// The merged-grid rollup document. Canonical: groups in point order,
/// site tables sorted by PC, no timing or thread-count fields — so the
/// same grid renders byte-identically across worker counts and across
/// resume.
pub fn obs_grid_json(grid: &ObsGrid, top_sites: usize) -> Json {
    let configs = PredictorConfig::all();
    Json::obj([
        (
            "spec",
            Json::obj([
                ("seed", n(grid.spec.seed)),
                ("warmup", n(grid.spec.warmup)),
                ("measure", n(grid.spec.measure)),
            ]),
        ),
        ("cells", n(grid.total as u64)),
        ("completed", n(grid.completed as u64)),
        (
            "failed",
            Json::Arr(
                grid.failed
                    .iter()
                    .map(|(i, point, reason)| {
                        Json::obj([
                            ("cell", n(*i as u64)),
                            ("point", Json::str(point.as_str())),
                            ("reason", Json::str(reason.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "groups",
            Json::Arr(
                grid.groups
                    .iter()
                    .map(|g| {
                        Json::obj([
                            ("workload", Json::str(g.workload.as_str())),
                            ("config", Json::str(g.config.label())),
                            (
                                "config_index",
                                n(configs.iter().position(|c| *c == g.config).unwrap_or(0) as u64),
                            ),
                            ("cells", n(g.cells as u64)),
                            ("counters", counters_to_json(&g.counters)),
                            ("sites", sites_to_json(&g.sites)),
                            ("top", top_sites_json(&g.sites, top_sites)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "grid",
            Json::obj([
                ("counters", counters_to_json(&grid.counters)),
                (
                    "sites",
                    Json::obj([
                        ("sites", n(grid.sites.sites as u64)),
                        ("dropped", n(grid.sites.dropped)),
                    ]),
                ),
                ("top", top_sites_json(&grid.sites, top_sites)),
            ]),
        ),
    ])
}

/// One branch PC whose outcome differs between the ARVI and baseline
/// configurations of a workload.
#[derive(Debug, Clone)]
pub struct SiteDelta {
    /// The branch PC.
    pub pc: u64,
    /// Dynamic executions (baseline group; execution counts are
    /// config-independent at the same window).
    pub executed: u64,
    /// Mispredicts under the baseline config.
    pub baseline_mispredicts: u64,
    /// Mispredicts under the ARVI config.
    pub arvi_mispredicts: u64,
    /// `|baseline - arvi|` — fixed when ARVI has fewer, broken when
    /// ARVI has more.
    pub delta: u64,
}

/// The ARVI-vs-baseline diff for one workload.
#[derive(Debug)]
pub struct WorkloadAttribution {
    /// The workload's name.
    pub workload: String,
    /// Label of the ARVI group diffed.
    pub arvi_config: String,
    /// Label of the best (highest site accuracy) baseline group.
    pub baseline_config: String,
    /// Site-table accuracy of the ARVI group.
    pub arvi_accuracy: f64,
    /// Site-table accuracy of the baseline group.
    pub baseline_accuracy: f64,
    /// Sites ARVI fixes (fewer mispredicts), worst-baseline-delta first.
    pub fixed: Vec<SiteDelta>,
    /// Sites ARVI breaks (more mispredicts), worst delta first.
    pub broken: Vec<SiteDelta>,
}

/// The differential attribution report over a merged grid rollup.
#[derive(Debug)]
pub struct Attribution {
    /// Per-workload diffs, in rollup group order.
    pub workloads: Vec<WorkloadAttribution>,
}

struct GroupSites {
    config_label: String,
    is_arvi: bool,
    is_arvi_current: bool,
    correct: u64,
    total: u64,
    table: HashMap<u64, (u64, u64)>, // pc -> (total, mispredicts)
}

fn group_sites(group: &Json) -> Option<GroupSites> {
    let configs = PredictorConfig::all();
    let idx = group.num("config_index")? as usize;
    let config = *configs.get(idx)?;
    let label = match group.get("config")? {
        Json::Str(s) => s.clone(),
        _ => return None,
    };
    let sites = sites_from_json(group.get("sites")?)?;
    let mut table = HashMap::with_capacity(sites.sites);
    let (mut correct, mut total) = (0u64, 0u64);
    for s in sites.iter() {
        table.insert(s.pc, (s.total, s.total.saturating_sub(s.final_correct)));
        correct += s.final_correct;
        total += s.total;
    }
    Some(GroupSites {
        config_label: label,
        is_arvi: config.is_arvi(),
        is_arvi_current: config == PredictorConfig::ArviCurrent,
        correct,
        total,
        table,
    })
}

/// Diffs the merged site tables of a grid rollup ([`obs_grid_json`]
/// output): per workload, picks the ARVI group (preferring the current-
/// value configuration) and the best baseline (non-ARVI group with the
/// highest site accuracy), joins their tables by PC, and reports the
/// top `top` sites ARVI fixes and breaks. Workloads without both an
/// ARVI and a baseline group are skipped; an empty result is an error
/// (the rollup had nothing to diff).
pub fn attribution_diff(grid: &Json, top: usize) -> Result<Attribution, String> {
    let Some(Json::Arr(groups)) = grid.get("groups") else {
        return Err("rollup has no `groups` array (not an obs_grid.json?)".to_string());
    };
    // Workloads in first-appearance order, each with its parsed groups.
    let mut order: Vec<String> = Vec::new();
    let mut by_workload: HashMap<String, Vec<GroupSites>> = HashMap::new();
    for group in groups {
        let name = match group.get("workload") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("group without a `workload` name".to_string()),
        };
        let parsed = group_sites(group)
            .ok_or_else(|| format!("malformed site table in workload `{name}`"))?;
        if !order.contains(&name) {
            order.push(name.clone());
        }
        by_workload.entry(name).or_default().push(parsed);
    }
    let mut out = Attribution {
        workloads: Vec::new(),
    };
    for name in order {
        let groups = &by_workload[&name];
        let arvi = groups
            .iter()
            .find(|g| g.is_arvi_current)
            .or_else(|| groups.iter().find(|g| g.is_arvi));
        let baseline = groups.iter().filter(|g| !g.is_arvi).max_by(|a, b| {
            let ra = a.correct as f64 / a.total.max(1) as f64;
            let rb = b.correct as f64 / b.total.max(1) as f64;
            ra.partial_cmp(&rb).expect("accuracies are finite")
        });
        let (Some(arvi), Some(baseline)) = (arvi, baseline) else {
            continue;
        };
        let mut fixed = Vec::new();
        let mut broken = Vec::new();
        for (&pc, &(executed, base_misp)) in &baseline.table {
            let Some(&(_, arvi_misp)) = arvi.table.get(&pc) else {
                continue;
            };
            if base_misp > arvi_misp {
                fixed.push(SiteDelta {
                    pc,
                    executed,
                    baseline_mispredicts: base_misp,
                    arvi_mispredicts: arvi_misp,
                    delta: base_misp - arvi_misp,
                });
            } else if arvi_misp > base_misp {
                broken.push(SiteDelta {
                    pc,
                    executed,
                    baseline_mispredicts: base_misp,
                    arvi_mispredicts: arvi_misp,
                    delta: arvi_misp - base_misp,
                });
            }
        }
        for list in [&mut fixed, &mut broken] {
            list.sort_by(|a, b| b.delta.cmp(&a.delta).then(a.pc.cmp(&b.pc)));
            list.truncate(top);
        }
        out.workloads.push(WorkloadAttribution {
            workload: name,
            arvi_config: arvi.config_label.clone(),
            baseline_config: baseline.config_label.clone(),
            arvi_accuracy: arvi.correct as f64 / arvi.total.max(1) as f64,
            baseline_accuracy: baseline.correct as f64 / baseline.total.max(1) as f64,
            fixed,
            broken,
        });
    }
    if out.workloads.is_empty() {
        return Err(
            "no workload has both an ARVI and a baseline group — sweep all configurations \
             (e.g. the fig6 grid) to diff them"
                .to_string(),
        );
    }
    Ok(out)
}

fn delta_rows(out: &mut String, rows: &[SiteDelta]) {
    out.push_str("| pc | executed | baseline misp | arvi misp | delta |\n|---|---|---|---|---|\n");
    for d in rows {
        out.push_str(&format!(
            "| 0x{:x} | {} | {} | {} | {} |\n",
            d.pc, d.executed, d.baseline_mispredicts, d.arvi_mispredicts, d.delta
        ));
    }
}

impl Attribution {
    /// Markdown rendering: per workload, the fixed and broken tables.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## ARVI vs baseline: differential site attribution\n");
        for w in &self.workloads {
            out.push_str(&format!(
                "\n### {} — {} {:.2}% vs {} {:.2}%\n",
                w.workload,
                w.arvi_config,
                w.arvi_accuracy * 100.0,
                w.baseline_config,
                w.baseline_accuracy * 100.0
            ));
            if w.fixed.is_empty() {
                out.push_str("\nARVI fixes no sites.\n");
            } else {
                out.push_str(&format!("\nTop {} sites ARVI fixes:\n\n", w.fixed.len()));
                delta_rows(&mut out, &w.fixed);
            }
            if w.broken.is_empty() {
                out.push_str("\nARVI breaks no sites.\n");
            } else {
                out.push_str(&format!("\nTop {} sites ARVI breaks:\n\n", w.broken.len()));
                delta_rows(&mut out, &w.broken);
            }
        }
        out
    }

    /// JSON rendering, mirroring the markdown.
    pub fn to_json(&self) -> Json {
        let delta = |d: &SiteDelta| {
            Json::obj([
                ("pc", n(d.pc)),
                ("executed", n(d.executed)),
                ("baseline_mispredicts", n(d.baseline_mispredicts)),
                ("arvi_mispredicts", n(d.arvi_mispredicts)),
                ("delta", n(d.delta)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::Arr(
                self.workloads
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("workload", Json::str(w.workload.as_str())),
                            ("arvi_config", Json::str(w.arvi_config.as_str())),
                            ("baseline_config", Json::str(w.baseline_config.as_str())),
                            ("arvi_accuracy", Json::Num(w.arvi_accuracy)),
                            ("baseline_accuracy", Json::Num(w.baseline_accuracy)),
                            ("fixed", Json::Arr(w.fixed.iter().map(delta).collect())),
                            ("broken", Json::Arr(w.broken.iter().map(delta).collect())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Folds `sweep` — the run's own sweep, whose cells carry probes under
/// `--obs-grid` — into the rollup and writes it when `run` has
/// `--obs-grid`; exits 1 when the rollup cannot be written. Simulates
/// nothing. The figure binaries call this after their tables.
///
/// # Panics
///
/// Panics if a completed cell of `sweep` carries no probes (a sweep
/// `run` did not make).
pub fn maybe_obs_grid(run: &Run, sweep: &SampledSweep) {
    let Some(cfg) = run.obs.as_ref() else { return };
    let Some(out) = &cfg.grid else { return };
    let grid = ObsGrid::from_sweep(sweep, run.spec, run.res.events.as_deref());
    let json = obs_grid_json(&grid, cfg.top_sites);
    if let Err(e) = write_text(out, &(json.render_compact() + "\n")) {
        eprintln!("error: cannot write obs grid rollup: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "obs grid rollup written to {} ({} of {} cells, {} groups)",
        out.display(),
        grid.completed,
        grid.total,
        grid.groups.len()
    );
    if !grid.failed.is_empty() {
        eprintln!(
            "warning: obs grid incomplete: {} cells failed or were skipped \
             (re-run with --resume to finish them)",
            grid.failed.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_grid, FaultPlan, Jobs, Resilience};
    use crate::sweep::grid;
    use crate::workload::Workload;
    use arvi_sim::Depth;
    use arvi_workloads::Benchmark;

    #[test]
    fn probed_cells_get_the_same_fault_handling() {
        let spec = Spec {
            warmup: 500,
            measure: 1_500,
            seed: 3,
        };
        let workloads = [Workload::from(Benchmark::Compress)];
        let points = grid(&workloads, &[Depth::D20], &PredictorConfig::all());
        let res = Resilience::default().with_plan(FaultPlan::parse("panic-cell 1").unwrap());
        let sweep = run_grid(&points, spec, Jobs::Probed, 2, false, None, &res);
        let g = ObsGrid::from_sweep(&sweep, spec, res.events.as_deref());
        assert_eq!(g.completed, points.len() - 1);
        let [(cell, point, reason)] = &g.failed[..] else {
            panic!("expected exactly cell 1 to fail: {:?}", g.failed);
        };
        assert_eq!((*cell, point), (1, &points[1].to_string()));
        assert!(reason.starts_with("panicked: injected fault"), "{reason}");
        assert_eq!(g.cells_committed[1], None);
    }
}
