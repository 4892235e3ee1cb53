//! The grid and its recordings: [`SweepPoint`]s, [`grid`], and the
//! shared traces ([`TraceSet`]) every cell replays.
//!
//! The Figure-5/6 grids are embarrassingly parallel: every
//! `(benchmark, depth, configuration)` cell is an independent,
//! deterministic simulation. The fault-isolated grid runner
//! ([`crate::resilience::run_grid`]) fans cells out on the workspace's
//! one worker pool ([`arvi_sim::execute`]) and returns results in *item
//! order* regardless of which worker finished first — so a parallel
//! sweep is bit-identical to the sequential one, just faster. [`par_map`]
//! is the same pool for plain closures.
//!
//! Since PR 2 the grids are also **record-once / replay-many**: each
//! distinct `(benchmark, seed, window)` workload is functionally
//! emulated exactly once into an `arvi_trace::Trace` (a [`TraceSet`]),
//! then every grid cell replays the shared recording through its own
//! timing machine. Replay is bit-identical to live emulation (asserted
//! by `tests/trace_replay.rs`), so this changes no results — it only
//! removes the redundant functional execution, and lets sweeps load
//! pre-recorded traces from disk (`--trace-dir`).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arvi_isa::Emulator;
use arvi_sim::{execute, Depth, PredictorConfig};
use arvi_trace::{StdIo, Trace, TraceIo, TraceReplayer};
use arvi_workloads::WorkloadSource;

use crate::events::EventLog;
use crate::harness::Spec;
use crate::report::Json;
use crate::resilience::Resilience;
use crate::workload::Workload;

/// Instructions recorded beyond `warmup + measure`: the machine fetches
/// ahead of commit by at most the ROB size (256) plus the commit-width
/// overshoot, so this slack guarantees a replayed cell never observes
/// end-of-trace where the live emulator would have kept producing.
pub const TRACE_SLACK: u64 = 4096;

/// The recording length that covers a simulation under `spec`.
pub fn trace_len(spec: Spec) -> u64 {
    spec.warmup + spec.measure + TRACE_SLACK
}

/// Records `workload` under `spec` into an in-memory trace (one
/// functional execution of `trace_len(spec)` instructions).
pub fn record_trace(workload: &Workload, spec: Spec) -> Trace {
    let emu = Emulator::new(workload.program(spec.seed));
    Trace::record(emu, trace_len(spec), workload.name(), spec.seed)
}

/// [`record_trace`] with failures contained: a source that ends early
/// returns [`arvi_trace::TraceError::SourceEnded`] and a panicking workload builder
/// is caught and reported as an error string — the resilient recording
/// path degrades the workload instead of taking the sweep down.
pub fn try_record_trace(workload: &Workload, spec: Spec) -> Result<Trace, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let emu = Emulator::new(workload.program(spec.seed));
        Trace::try_record(emu, trace_len(spec), workload.name(), spec.seed)
    }))
    .map_err(|payload| {
        format!(
            "recording {} panicked: {}",
            workload.name(),
            crate::resilience::panic_message(payload.as_ref())
        )
    })?
    .map_err(|e| e.to_string())
}

/// Canonical file name for a persisted trace: keyed by everything that
/// determines the recorded stream (workload, seed) plus the window it
/// must cover. Scenario workloads additionally carry the spec
/// fingerprint, so two scenarios sharing a name but differing in knobs
/// never collide in a trace cache (benchmark file names are unchanged
/// from PR 2, keeping existing caches valid).
pub fn trace_file_name(workload: &Workload, spec: Spec) -> String {
    let knobs = match workload.as_scenario() {
        Some(s) => format!("-f{:016x}", s.fingerprint()),
        None => String::new(),
    };
    format!(
        "{}{knobs}-s{}-w{}-m{}.arvitrace",
        workload.name(),
        spec.seed,
        spec.warmup,
        spec.measure
    )
}

/// How a [`TraceSet`] obtained (or failed to obtain) one workload's
/// recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceProvenance {
    /// Freshly recorded (no usable cached file existed).
    Recorded,
    /// Loaded from a healthy cached file.
    Loaded,
    /// A cached file existed but was unusable and the workload was
    /// re-recorded; `corrupt` says whether the old file failed
    /// verification (and was quarantined) as opposed to being merely
    /// stale (wrong window, silently overwritten).
    Rerecorded {
        /// The replaced file was corrupt (quarantined), not just stale.
        corrupt: bool,
    },
    /// No recording could be obtained (recording itself failed); cells
    /// over this workload degrade to live emulation.
    Unavailable {
        /// Why the workload has no recording.
        reason: String,
    },
}

/// One shared recording per distinct workload of a sweep.
///
/// Traces are wrapped in [`Arc`] and handed read-only to every grid
/// cell and worker thread; each cell constructs a private
/// [`TraceReplayer`] cursor over the shared bytes. Each entry also
/// carries a [`TraceProvenance`] so the resilient sweep can report
/// *how* a cell's stream was obtained (cache hit, quarantine +
/// re-record, unavailable).
#[derive(Debug, Clone)]
pub struct TraceSet {
    spec: Spec,
    traces: Vec<(Workload, Option<Arc<Trace>>, TraceProvenance)>,
    record_elapsed: Duration,
}

impl TraceSet {
    /// Records (in parallel, one worker per workload) every workload in
    /// `workloads` under `spec`.
    ///
    /// With `dir` set, recordings are persisted there under
    /// [`trace_file_name`] and valid existing files are loaded instead of
    /// re-recorded — so a second sweep over the same spec does no
    /// functional execution at all. A corrupt cached file is quarantined
    /// (renamed `*.quarantined`, logged to `quarantine.log` in `dir`)
    /// and the workload re-recorded; a stale file (wrong window) is
    /// silently re-recorded and overwritten. Writes are atomic
    /// (temp file + fsync + rename) and persistence failures only warn
    /// (the in-memory recording still serves the sweep). `res`'s fault
    /// plan, if any, is injected into trace reads, and its event log
    /// gets the record phase and every quarantine.
    pub fn record(
        workloads: &[Workload],
        spec: Spec,
        threads: usize,
        dir: Option<&Path>,
        res: &Resilience,
    ) -> TraceSet {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
            }
        }
        let faulty = res.plan.as_deref().map(crate::resilience::FaultyIo::new);
        let io: &dyn TraceIo = match &faulty {
            Some(faulty) => faulty,
            None => &StdIo,
        };
        let events = res.events.as_deref();
        if let Some(log) = events {
            log.emit(
                "record_start",
                vec![("workloads", Json::Num(workloads.len() as f64))],
            );
        }
        let start = Instant::now();
        let traces = par_map(workloads, threads, |workload| {
            Self::obtain(workload, spec, dir, io, events)
        });
        if let Some(log) = events {
            log.record_phase(workloads.len(), start.elapsed());
        }
        TraceSet {
            spec,
            traces: workloads
                .iter()
                .cloned()
                .zip(traces)
                .map(|(w, (t, p))| (w, t.map(Arc::new), p))
                .collect(),
            record_elapsed: start.elapsed(),
        }
    }

    fn obtain(
        workload: &Workload,
        spec: Spec,
        dir: Option<&Path>,
        io: &dyn TraceIo,
        events: Option<&EventLog>,
    ) -> (Option<Trace>, TraceProvenance) {
        let need = trace_len(spec);
        let path = dir.map(|d| d.join(trace_file_name(workload, spec)));
        let mut prior_corrupt = false;
        let mut prior_stale = false;
        if let Some(path) = &path {
            match Trace::read_from_with(path, io) {
                Ok(t)
                    if t.len() >= need && t.seed() == spec.seed && t.name() == workload.name() =>
                {
                    return (Some(t), TraceProvenance::Loaded);
                }
                Ok(_) => {
                    eprintln!(
                        "trace {}: stale (wrong workload or window), re-recording",
                        path.display()
                    );
                    prior_stale = true;
                }
                Err(e) if e.is_corruption() => {
                    // Preserve the evidence, then recover: the corrupt
                    // file moves aside so it cannot poison later runs.
                    prior_corrupt = true;
                    match io.quarantine(path) {
                        Ok(moved) => {
                            eprintln!(
                                "trace {}: {e}; quarantined to {}",
                                path.display(),
                                moved.display()
                            );
                            log_quarantine(dir, path, &e);
                            if let Some(log) = events {
                                log.quarantine(&path.display().to_string(), &e.to_string());
                            }
                        }
                        Err(qe) => eprintln!(
                            "trace {}: {e}; quarantine failed ({qe}), re-recording in place",
                            path.display()
                        ),
                    }
                }
                Err(e) if path.exists() => {
                    eprintln!("trace {}: {e}, re-recording", path.display());
                    prior_stale = true;
                }
                Err(_) => {}
            }
        }
        let t = match try_record_trace(workload, spec) {
            Ok(t) => t,
            Err(reason) => {
                eprintln!("warning: cannot record {}: {reason}", workload.name());
                return (None, TraceProvenance::Unavailable { reason });
            }
        };
        if let Some(path) = &path {
            if let Err(e) = t.write_to_with(path, io) {
                eprintln!("warning: cannot persist trace {}: {e}", path.display());
            }
        }
        let provenance = if prior_corrupt {
            TraceProvenance::Rerecorded { corrupt: true }
        } else if prior_stale {
            TraceProvenance::Rerecorded { corrupt: false }
        } else {
            TraceProvenance::Recorded
        };
        (Some(t), provenance)
    }

    /// The spec the recordings cover.
    pub fn spec(&self) -> Spec {
        self.spec
    }

    /// Wall-clock time the record phase took (functional emulation
    /// and/or disk loads, across all workloads). Feeds the
    /// record-vs-replay phase breakdown [`crate::Run::sweep`] prints.
    pub fn record_elapsed(&self) -> Duration {
        self.record_elapsed
    }

    /// The shared recording for `workload`, if one was obtained.
    pub fn get(&self, workload: &Workload) -> Option<&Arc<Trace>> {
        self.traces
            .iter()
            .find(|(w, _, _)| w == workload)
            .and_then(|(_, t, _)| t.as_ref())
    }

    /// How `workload`'s recording was obtained (or why it is missing);
    /// `None` for a workload this set never covered.
    pub fn provenance(&self, workload: &Workload) -> Option<&TraceProvenance> {
        self.traces
            .iter()
            .find(|(w, _, _)| w == workload)
            .map(|(_, _, p)| p)
    }

    /// A fresh replay cursor over `workload`'s shared recording.
    pub fn replayer(&self, workload: &Workload) -> Option<TraceReplayer> {
        self.get(workload)
            .map(|t| TraceReplayer::new(Arc::clone(t)))
    }
}

/// Appends one line to `quarantine.log` in the trace directory
/// describing a quarantined file (which the sweep then re-records). Best
/// effort: logging failures only warn.
fn log_quarantine(dir: Option<&Path>, path: &Path, err: &arvi_trace::TraceError) {
    let Some(dir) = dir else { return };
    let log = dir.join("quarantine.log");
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let line = format!("{name}: {err}; re-recording\n");
    let res = std::fs::create_dir_all(dir)
        .map_err(|e| crate::report::io_error_at(dir, e))
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log)
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
                .map_err(|e| crate::report::io_error_at(&log, e))
        });
    if let Err(e) = res {
        eprintln!("warning: cannot append to quarantine log: {e}");
    }
}

/// Worker count to use when the caller does not care: the host's
/// available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` workers of
/// [`arvi_sim::execute`] and returns the results in item order
/// (deterministic regardless of scheduling). `threads <= 1` degenerates
/// to a plain sequential map.
///
/// # Panics
///
/// If `f` panics for any item, the *original* panic payload is
/// propagated (after all items have been attempted) — not a secondary
/// "slot poisoned" panic that would mask what actually went wrong.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut first_panic = None;
    let caught = execute(
        items,
        threads,
        |_| false,
        |_, item| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))),
    );
    for slot in caught {
        match slot.expect("no stop condition, so every item ran") {
            Ok(v) => out.push(v),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

/// One cell of an experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload (suite benchmark or synthetic scenario).
    pub workload: Workload,
    /// Pipeline depth.
    pub depth: Depth,
    /// Predictor configuration.
    pub config: PredictorConfig,
}

impl std::fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @{} / {}", self.workload, self.depth, self.config)
    }
}

/// Every workload x depth x configuration cell over the given axes.
pub fn grid(
    workloads: &[Workload],
    depths: &[Depth],
    configs: &[PredictorConfig],
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for workload in workloads {
        for &depth in depths {
            for &config in configs {
                points.push(SweepPoint {
                    workload: workload.clone(),
                    depth,
                    config,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{run_grid, Jobs};
    use arvi_sim::SimResult;
    use arvi_workloads::Benchmark;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                par_map(&items, threads, |&x| x * 3),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_map_sequential_degeneration() {
        let items = vec![1u32, 2, 3];
        assert_eq!(par_map(&items, 0, |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_map_handles_empty_and_oversubscribed() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        let one = vec![7u8];
        assert_eq!(par_map(&one, 16, |&x| x), vec![7]);
    }

    #[test]
    fn par_map_propagates_the_original_panic_payload() {
        let items: Vec<u32> = (0..16).collect();
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, 4, |&x| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if x == 5 {
                    panic!("item {x} exploded");
                }
                x
            })
        }))
        .expect_err("must propagate the panic");
        let message = crate::resilience::panic_message(caught.as_ref());
        assert_eq!(message, "item 5 exploded");
        // The panicking item did not stop the others.
        assert_eq!(ran.into_inner(), items.len());
    }

    #[test]
    fn par_map_executor_isolates_a_panicking_item_per_slot() {
        let items: Vec<u32> = (0..8).collect();
        for threads in [1, 3] {
            let slots = execute(
                &items,
                threads,
                |_| false,
                |_, &x| {
                    std::panic::catch_unwind(|| {
                        if x % 3 == 0 {
                            panic!("bad {x}");
                        }
                        x * 2
                    })
                },
            );
            for (i, slot) in slots.into_iter().enumerate() {
                let r = slot.expect("every item dispatched");
                if i % 3 == 0 {
                    assert!(r.is_err(), "item {i}");
                } else {
                    assert_eq!(r.unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn par_map_executor_stop_leaves_exactly_the_undispatched_slots_empty() {
        let items: Vec<u32> = (0..10).collect();
        let slots = execute(&items, 1, |done| done >= 4, |i, &x| (i, x * 2));
        let expected: Vec<Option<(usize, u32)>> = (0..10)
            .map(|i| (i < 4).then_some((i as usize, i * 2)))
            .collect();
        assert_eq!(slots, expected);
        // With workers racing, at least N complete, dispatch is still a
        // prefix, and every filled slot holds its own item's result.
        let slots = execute(&items, 4, |done| done >= 4, |i, &x| (i, x * 2));
        let filled = slots.iter().flatten().count();
        assert!(filled >= 4);
        assert!(slots[..filled].iter().all(Option::is_some));
        for (i, slot) in slots.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, (i, items[i] * 2));
            }
        }
    }

    #[test]
    fn corrupt_cached_trace_is_quarantined_and_rerecorded() {
        let spec = Spec {
            warmup: 500,
            measure: 1_000,
            seed: 5,
        };
        let dir = std::env::temp_dir().join(format!("arvi-quarantine-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let workloads = [Workload::from(Benchmark::Go)];
        let clean = TraceSet::record(&workloads, spec, 1, Some(&dir), &Resilience::default());
        assert_eq!(
            clean.provenance(&workloads[0]),
            Some(&TraceProvenance::Recorded)
        );
        let path = dir.join(trace_file_name(&workloads[0], spec));
        // Corrupt a payload byte on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = TraceSet::record(&workloads, spec, 1, Some(&dir), &Resilience::default());
        assert_eq!(
            recovered.provenance(&workloads[0]),
            Some(&TraceProvenance::Rerecorded { corrupt: true })
        );
        // Evidence preserved, replacement healthy, incident logged.
        assert!(arvi_trace::quarantine_path(&path).exists());
        assert!(path.exists());
        let log = std::fs::read_to_string(dir.join("quarantine.log")).unwrap();
        assert!(log.contains("go-"), "{log}");
        // The re-recorded trace replays identically to the original.
        let a: Vec<_> = clean.replayer(&workloads[0]).unwrap().collect();
        let b: Vec<_> = recovered.replayer(&workloads[0]).unwrap().collect();
        assert_eq!(a, b);
        // Third run loads the healthy replacement from cache.
        let reloaded = TraceSet::record(&workloads, spec, 1, Some(&dir), &Resilience::default());
        assert_eq!(
            reloaded.provenance(&workloads[0]),
            Some(&TraceProvenance::Loaded)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_grid_covers_every_cell() {
        let grid = grid(&Workload::suite(), &Depth::all(), &PredictorConfig::all());
        assert_eq!(
            grid.len(),
            Benchmark::all().len() * Depth::all().len() * PredictorConfig::all().len()
        );
    }

    fn small_points() -> [SweepPoint; 3] {
        [
            SweepPoint {
                workload: Benchmark::Compress.into(),
                depth: Depth::D20,
                config: PredictorConfig::TwoLevelGskew,
            },
            SweepPoint {
                workload: Benchmark::Li.into(),
                depth: Depth::D20,
                config: PredictorConfig::ArviCurrent,
            },
            SweepPoint {
                workload: Benchmark::Compress.into(),
                depth: Depth::D40,
                config: PredictorConfig::ArviCurrent,
            },
        ]
    }

    fn assert_same_results(a: &[&SimResult], b: &[&SimResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.window.committed, y.window.committed);
            assert_eq!(x.window.cycles, y.window.cycles);
            assert_eq!(
                x.window.cond_branches.correct(),
                y.window.cond_branches.correct()
            );
            assert_eq!(x.window.full_mispredicts, y.window.full_mispredicts);
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let spec = Spec {
            warmup: 2_000,
            measure: 6_000,
            seed: 42,
        };
        let points = small_points();
        let res = Resilience::default();
        let workloads = [Benchmark::Compress.into(), Benchmark::Li.into()];
        let traces = TraceSet::record(&workloads, spec, 3, None, &res);
        let seq = run_grid(&points, spec, Jobs::Cells, 1, false, Some(&traces), &res);
        let par = run_grid(&points, spec, Jobs::Cells, 3, false, Some(&traces), &res);
        assert_same_results(
            &seq.results(&points).unwrap(),
            &par.results(&points).unwrap(),
        );
    }

    #[test]
    fn traced_sweep_is_bit_identical_to_emulated() {
        let spec = Spec {
            warmup: 2_000,
            measure: 6_000,
            seed: 7,
        };
        let points = small_points();
        let res = Resilience::default();
        let workloads = [Benchmark::Compress.into(), Benchmark::Li.into()];
        let traces = TraceSet::record(&workloads, spec, 2, None, &res);
        let live = run_grid(&points, spec, Jobs::Cells, 2, false, None, &res);
        let traced = run_grid(&points, spec, Jobs::Cells, 2, false, Some(&traces), &res);
        assert_same_results(
            &live.results(&points).unwrap(),
            &traced.results(&points).unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "recorded under a smaller spec")]
    fn short_trace_rejected_instead_of_truncating_the_window() {
        let small = Spec {
            warmup: 500,
            measure: 1_000,
            seed: 3,
        };
        let big = Spec {
            warmup: 500,
            measure: 50_000,
            seed: 3,
        };
        let traces = TraceSet::record(
            &[Benchmark::Li.into()],
            small,
            1,
            None,
            &Resilience::default(),
        );
        let trace = traces.get(&Benchmark::Li.into()).unwrap();
        let _ =
            crate::harness::run_one_traced(trace, Depth::D20, PredictorConfig::ArviCurrent, big);
    }

    #[test]
    fn trace_set_records_persists_and_reloads() {
        let spec = Spec {
            warmup: 500,
            measure: 1_000,
            seed: 3,
        };
        let dir = std::env::temp_dir().join(format!("arvi-sweep-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let workloads = [Workload::from(Benchmark::M88ksim)];
        let recorded = TraceSet::record(&workloads, spec, 1, Some(&dir), &Resilience::default());
        let path = dir.join(trace_file_name(&workloads[0], spec));
        assert!(path.exists());
        // Second record() round-trips through the persisted file.
        let reloaded = TraceSet::record(&workloads, spec, 1, Some(&dir), &Resilience::default());
        let a = recorded.get(&workloads[0]).unwrap();
        let b = reloaded.get(&workloads[0]).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), trace_len(spec));
        let insts_a: Vec<_> = recorded.replayer(&workloads[0]).unwrap().collect();
        let insts_b: Vec<_> = reloaded.replayer(&workloads[0]).unwrap().collect();
        assert_eq!(insts_a, insts_b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
