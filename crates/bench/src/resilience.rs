//! Fault-tolerant sweeps: panic isolation, resumable runs, and a
//! deterministic fault-injection harness.
//!
//! A full-spec grid is hours of compute; one corrupt cached trace or one
//! panicking cell must not take the whole run down. Every sweep — whole
//! cells, probed cells or sampling units ([`Jobs`]) — runs through the
//! one grid runner here, [`run_grid`], under a [`Resilience`] policy
//! ([`Resilience::default`] when no flag asks for more):
//!
//! * **Per-cell fault isolation** — every grid cell runs under
//!   `catch_unwind` with an optional soft deadline and reports a
//!   structured [`CellOutcome`] instead of aborting the grid. Panics
//!   whose message carries [`arvi_trace::REPLAY_PANIC_PREFIX`] are
//!   classified as trace failures, everything else as a generic cell
//!   panic.
//! * **Graceful degradation** — a corrupt on-disk trace is quarantined
//!   (renamed `*.quarantined`, logged to `quarantine.log`) and
//!   re-recorded once by [`TraceSet::record`]; a cell whose workload has
//!   no usable recording (recording failed, or the trace set does not
//!   cover it) falls back to live emulation through the `InstSource`
//!   seam. Replay is bit-identical to live
//!   emulation, so a degraded sweep still reports the same numbers —
//!   the degradation is recorded in the outcome, not in the data.
//! * **Durability** — finished jobs (whole cells or sampling units) are
//!   journaled (fingerprint + result, one line per job, appended as jobs
//!   finish) so an interrupted sweep resumes by skipping finished work
//!   ([`Resilience::resume`]). Trace files themselves are written
//!   atomically by `arvi-trace` (temp file + fsync + rename).
//! * **Deterministic fault injection** — a [`FaultPlan`] (parsed from
//!   `--fault-plan` text) flips bytes, truncates files, panics or
//!   stalls chosen cells, and simulates a mid-grid kill, all
//!   deterministically, so `tests/fault_injection.rs` and the CI fault
//!   job exercise every failure path on demand.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arvi_obs::codec::{counters_from_json, counters_to_json, sites_from_json, sites_to_json};
use arvi_obs::{CounterProbe, NullProbe, Probe, SiteProbe};
use arvi_sampling::SamplePlan;
use arvi_sim::{
    execute, intern_name, simulate_source_probed, PredictorConfig, SimParams, SimResult,
};
use arvi_stats::Accuracy;
use arvi_trace::{StdIo, Trace, TraceError, TraceIo, TraceReplayer, REPLAY_PANIC_PREFIX};
use arvi_workloads::WorkloadSource;

use crate::events::EventLog;
use crate::harness::Spec;
use crate::report::{io_error_at, Json};
use crate::sampling::{assemble_cell, run_unit_job, unit_fingerprint, SampledSweep, UnitDone};
use crate::sweep::{trace_len, SweepPoint, TraceProvenance, TraceSet};
use crate::workload::{fnv1a, Workload, FNV_OFFSET};

/// How a successful cell got its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The normal path: replayed a healthy (or freshly recorded) trace,
    /// or ran live because the sweep had no trace set at all.
    None,
    /// The cell's cached trace was corrupt; it was quarantined and the
    /// workload re-recorded, and the cell replayed the re-recording.
    Requarantined,
    /// No usable trace existed (recording failed, the trace set did not
    /// cover the workload, or the recording was too short); the cell fell
    /// back to live emulation.
    LiveEmulation,
}

impl Degradation {
    /// Short journal/report tag.
    pub fn tag(self) -> &'static str {
        match self {
            Degradation::None => "none",
            Degradation::Requarantined => "requarantined",
            Degradation::LiveEmulation => "live-emulation",
        }
    }

    fn from_tag(tag: &str) -> Option<Degradation> {
        match tag {
            "none" => Some(Degradation::None),
            "requarantined" => Some(Degradation::Requarantined),
            "live-emulation" => Some(Degradation::LiveEmulation),
            _ => None,
        }
    }
}

/// A completed cell: the result plus how it was obtained.
#[derive(Debug, Clone)]
pub struct CellSuccess {
    /// The simulation result (bit-identical regardless of degradation —
    /// replay and live emulation see the same committed stream).
    pub result: SimResult,
    /// How the result was obtained.
    pub degradation: Degradation,
    /// Whether the result was restored from a journal instead of
    /// simulated in this run.
    pub resumed: bool,
    /// Wall-clock time the cell took. For resumed cells this is the
    /// journaled duration of the original run (zero for entries written
    /// by journals that predate duration tracking).
    pub duration: Duration,
    /// How many sampling units produced this result under
    /// [`Jobs::Sampled`]; `0` for a whole run.
    pub sampled_units: usize,
    /// The counter and site probes the cell ran with, when its grid ran
    /// [`Jobs::Probed`] (`--obs-grid`).
    pub(crate) probes: Option<Box<(CounterProbe, SiteProbe)>>,
}

/// The structured outcome of one grid cell under [`run_grid`]: no cell
/// failure aborts the grid.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell produced a result.
    Ok(CellSuccess),
    /// The cell panicked (payload message attached). Trace-replay
    /// panics are reported as [`CellOutcome::TraceError`] instead.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The cell completed but exceeded the soft deadline; its result is
    /// discarded (and not journaled) so a wedged configuration cannot
    /// silently dominate a sweep.
    TimedOut {
        /// How long the cell actually ran.
        elapsed: Duration,
        /// The configured deadline it exceeded.
        deadline: Duration,
    },
    /// The cell's instruction stream failed: a replay hit corrupt trace
    /// data, or a sampling unit reported a trace error.
    TraceError {
        /// What went wrong.
        message: String,
    },
    /// The cell was never dispatched (a simulated [`FaultKind::KillAfter`]
    /// stopped the run first). Re-run with resume to complete it.
    Skipped,
}

impl CellOutcome {
    /// The success payload, if any.
    pub fn success(&self) -> Option<&CellSuccess> {
        match self {
            CellOutcome::Ok(s) => Some(s),
            _ => None,
        }
    }

    /// The failure reason, for everything except `Ok`.
    pub fn failure(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { message } => Some(format!("panicked: {message}")),
            CellOutcome::TimedOut { elapsed, deadline } => Some(format!(
                "timed out: ran {:.1}s past the {:.1}s deadline",
                elapsed.as_secs_f64(),
                deadline.as_secs_f64()
            )),
            CellOutcome::TraceError { message } => Some(format!("trace error: {message}")),
            CellOutcome::Skipped => Some("skipped (run stopped before dispatch)".into()),
        }
    }
}

/// Fault-tolerance policy for a sweep. Every sweep runs under one;
/// [`Resilience::default`] journals nothing and injects nothing. Every
/// policy degrades gracefully: a quarantined trace is re-recorded, and a
/// cell without a usable recording falls back to live emulation.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Where to journal completed cells (appended as cells finish).
    pub journal: Option<PathBuf>,
    /// Restore completed cells from the journal instead of re-running
    /// them.
    pub resume: bool,
    /// Soft per-cell deadline: a cell that runs longer is reported as
    /// [`CellOutcome::TimedOut`] and its result discarded. (Soft: the
    /// check is post-hoc — safe Rust cannot preempt a running cell.)
    pub deadline: Option<Duration>,
    /// Deterministic fault plan (testing/CI only).
    pub plan: Option<Arc<FaultPlan>>,
    /// The `--events-out` log of sweep execution events. Shared with
    /// the trace recorder, hence the `Arc`.
    pub events: Option<Arc<EventLog>>,
}

impl Resilience {
    /// Whether the fault plan's simulated kill stops dispatch now that
    /// `completed` jobs have finished.
    pub(crate) fn stop_after(&self, completed: usize) -> bool {
        self.plan.as_deref().is_some_and(|p| p.kill_now(completed))
    }

    /// Sets the journal path (builder style).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Resilience {
        self.journal = Some(path.into());
        self
    }

    /// Enables resume-from-journal (builder style).
    pub fn resuming(mut self) -> Resilience {
        self.resume = true;
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_plan(mut self, plan: FaultPlan) -> Resilience {
        self.plan = Some(Arc::new(plan));
        self
    }
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR byte `offset` of the named workload's trace file with 0xFF
    /// at read time.
    FlipByte {
        /// Workload whose trace file to corrupt.
        workload: String,
        /// Absolute byte offset into the container.
        offset: u64,
    },
    /// Flip byte `byte` within the payload of chunk `chunk` (addressed
    /// through the container index, so the fault lands in encoded
    /// instruction data, not framing).
    FlipChunkByte {
        /// Workload whose trace file to corrupt.
        workload: String,
        /// Chunk index.
        chunk: u32,
        /// Byte offset within that chunk's payload.
        byte: u32,
    },
    /// Truncate the named workload's trace file to `len` bytes at read
    /// time.
    Truncate {
        /// Workload whose trace file to truncate.
        workload: String,
        /// Length to keep.
        len: u64,
    },
    /// Panic inside grid cell `cell` (by dispatch index).
    PanicCell {
        /// Cell index into the sweep's point list.
        cell: u32,
    },
    /// Sleep `millis` before running grid cell `cell` (drives the
    /// deadline path deterministically).
    StallCell {
        /// Cell index into the sweep's point list.
        cell: u32,
        /// Milliseconds to stall.
        millis: u64,
    },
    /// Stop dispatching new cells once `cells` cells have completed —
    /// a deterministic stand-in for kill -9 mid-sweep.
    KillAfter {
        /// Completed-cell threshold.
        cells: u32,
    },
}

/// A deterministic, seed-free fault schedule, parsed from text
/// (`--fault-plan FILE`). One fault per line, `#` comments and blank
/// lines ignored:
///
/// ```text
/// flip <workload> <offset>          # XOR one container byte at read
/// flip-chunk <workload> <chunk> <byte>  # flip inside a chunk payload
/// truncate <workload> <len>         # short read of the container
/// panic-cell <index>                # panic inside grid cell <index>
/// stall-cell <index> <millis>       # sleep before cell <index>
/// kill-after <count>                # stop dispatch after <count> cells
/// ```
///
/// Read faults fire **once** (the first read of a matching file), so a
/// quarantine + re-record cycle observes the corruption exactly once
/// and the re-recorded file reads back clean — the same once-ness a
/// real corrupted file has.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(FaultKind, AtomicBool)>,
}

impl FaultPlan {
    /// Parses a plan from its text form. Errors name the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| format!("fault plan line {}: {what}: `{line}`", ln + 1);
            let mut tok = line.split_whitespace();
            let kind = tok.next().expect("non-empty line has a first token");
            let fault = match kind {
                "flip" | "truncate" => {
                    let workload = tok.next().ok_or_else(|| bad("missing workload"))?;
                    let n: u64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad number"))?;
                    let workload = workload.to_string();
                    if kind == "flip" {
                        FaultKind::FlipByte {
                            workload,
                            offset: n,
                        }
                    } else {
                        FaultKind::Truncate { workload, len: n }
                    }
                }
                "flip-chunk" => {
                    let workload = tok.next().ok_or_else(|| bad("missing workload"))?;
                    let chunk: u32 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad chunk index"))?;
                    let byte: u32 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad byte offset"))?;
                    FaultKind::FlipChunkByte {
                        workload: workload.to_string(),
                        chunk,
                        byte,
                    }
                }
                "panic-cell" => FaultKind::PanicCell {
                    cell: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad cell index"))?,
                },
                "stall-cell" => FaultKind::StallCell {
                    cell: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad cell index"))?,
                    millis: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad millis"))?,
                },
                "kill-after" => FaultKind::KillAfter {
                    cells: tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("missing or bad cell count"))?,
                },
                _ => return Err(bad("unknown fault kind")),
            };
            if tok.next().is_some() {
                return Err(bad("trailing tokens"));
            }
            faults.push((fault, AtomicBool::new(false)));
        }
        Ok(FaultPlan { faults })
    }

    /// Builds a plan from already-constructed faults (tests).
    pub fn from_faults(kinds: impl IntoIterator<Item = FaultKind>) -> FaultPlan {
        FaultPlan {
            faults: kinds
                .into_iter()
                .map(|k| (k, AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Atomically claims the first unfired fault `select` matches.
    fn take(&self, select: impl Fn(&FaultKind) -> bool) -> Option<&FaultKind> {
        for (kind, fired) in &self.faults {
            if select(kind) && !fired.swap(true, Ordering::AcqRel) {
                return Some(kind);
            }
        }
        None
    }

    /// Claims a pending panic fault for cell `i`.
    pub fn take_panic(&self, i: usize) -> bool {
        self.take(|k| matches!(k, FaultKind::PanicCell { cell } if *cell as usize == i))
            .is_some()
    }

    /// Claims a pending stall fault for cell `i`, returning the stall.
    pub fn take_stall(&self, i: usize) -> Option<Duration> {
        match self.take(|k| matches!(k, FaultKind::StallCell { cell, .. } if *cell as usize == i)) {
            Some(FaultKind::StallCell { millis, .. }) => Some(Duration::from_millis(*millis)),
            _ => None,
        }
    }

    /// Whether a kill fault says to stop dispatching: `completed` cells
    /// have finished and some `kill-after` threshold is reached. Sticky
    /// (not consumed) — once tripped, every dispatcher sees it.
    pub fn kill_now(&self, completed: usize) -> bool {
        self.faults.iter().any(
            |(k, _)| matches!(k, FaultKind::KillAfter { cells } if completed >= *cells as usize),
        )
    }

    /// Applies pending read faults to `bytes` just read from `path`.
    /// A fault matches when the file name starts with `<workload>-`
    /// (how [`crate::sweep::trace_file_name`] keys files).
    pub fn apply_read(&self, path: &Path, bytes: &mut Vec<u8>) {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let matches = |workload: &str| name.starts_with(&format!("{workload}-"));
        while let Some(kind) = self.take(|k| match k {
            FaultKind::FlipByte { workload, .. }
            | FaultKind::FlipChunkByte { workload, .. }
            | FaultKind::Truncate { workload, .. } => matches(workload),
            _ => false,
        }) {
            match kind {
                FaultKind::FlipByte { offset, .. } => {
                    let off = *offset as usize;
                    if let Some(b) = bytes.get_mut(off) {
                        *b ^= 0xFF;
                    }
                }
                FaultKind::FlipChunkByte { chunk, byte, .. } => {
                    // Address through the container index so the flip
                    // lands in encoded payload; fall back to an absolute
                    // offset if the container cannot be parsed.
                    let off = arvi_trace::file::chunk_payload_span(bytes, *chunk as usize)
                        .map(|(start, len)| start + (*byte as usize).min(len.saturating_sub(1)))
                        .unwrap_or(*byte as usize);
                    if let Some(b) = bytes.get_mut(off) {
                        *b ^= 0xFF;
                    }
                }
                FaultKind::Truncate { len, .. } => bytes.truncate(*len as usize),
                _ => unreachable!("take matched a read fault"),
            }
        }
    }
}

/// An [`arvi_trace::TraceIo`] that injects a [`FaultPlan`]'s read
/// faults — the seam [`TraceSet::record`] reads traces
/// through, so fault-injection tests corrupt bytes between disk and
/// verification without touching real files.
#[derive(Debug)]
pub struct FaultyIo<'a> {
    plan: &'a FaultPlan,
}

impl<'a> FaultyIo<'a> {
    /// Wraps standard I/O with `plan`'s read faults.
    pub fn new(plan: &'a FaultPlan) -> FaultyIo<'a> {
        FaultyIo { plan }
    }
}

impl TraceIo for FaultyIo<'_> {
    fn read(&self, path: &Path) -> Result<Vec<u8>, TraceError> {
        let mut bytes = StdIo.read(path)?;
        self.plan.apply_read(path, &mut bytes);
        Ok(bytes)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), TraceError> {
        StdIo.write_atomic(path, bytes)
    }
}

/// Identity hash of one grid cell under one spec: everything that
/// determines the cell's result. Journal entries are keyed by this, so
/// a journal recorded under a different spec, workload knob set, depth
/// or configuration can never satisfy a resume lookup.
pub fn cell_fingerprint(point: &SweepPoint, spec: Spec) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"arvi-sweep-cell-v1");
    h = fnv1a(h, &point.workload.fingerprint().to_le_bytes());
    h = fnv1a(h, &spec.seed.to_le_bytes());
    h = fnv1a(h, &spec.warmup.to_le_bytes());
    h = fnv1a(h, &spec.measure.to_le_bytes());
    h = fnv1a(h, &point.depth.stages().to_le_bytes());
    h = fnv1a(h, &(config_index(point.config) as u64).to_le_bytes());
    h
}

fn config_index(config: PredictorConfig) -> usize {
    PredictorConfig::all()
        .iter()
        .position(|&c| c == config)
        .expect("known config")
}

fn accuracy_json(a: Accuracy) -> Json {
    Json::Arr(vec![
        Json::Num(a.correct() as f64),
        Json::Num(a.total() as f64),
    ])
}

fn accuracy_from(json: &Json, path: &str) -> Option<Accuracy> {
    match json.get(path)? {
        Json::Arr(v) if v.len() == 2 => match (&v[0], &v[1]) {
            (Json::Num(c), Json::Num(t)) if *c >= 0.0 && c <= t => {
                Some(Accuracy::from_counts(*c as u64, *t as u64))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Serializes one finished job for the journal: a whole cell or a
/// sampling unit (whose counter block rides in `window`), how it was
/// obtained, how long it took and, for a probed cell, its probes in the
/// lossless [`arvi_obs::codec`] form. All counters fit f64 exactly (they
/// are bounded by the instruction window, far below 2^53).
fn entry_json(s: &CellSuccess) -> Json {
    let w = &s.result.window;
    let probes = s.probes.iter().flat_map(|p| {
        [
            ("counters", counters_to_json(&p.0)),
            ("sites", sites_to_json(&p.1)),
        ]
    });
    Json::obj(
        [
            ("name", Json::str(s.result.name)),
            ("config", Json::Num(config_index(s.result.config) as f64)),
            ("depth", Json::Num(s.result.depth_stages as f64)),
            ("degraded", Json::str(s.degradation.tag())),
            ("dur_us", Json::Num(s.duration.as_micros() as f64)),
            (
                "window",
                Json::obj([
                    ("committed", Json::Num(w.committed as f64)),
                    ("cycles", Json::Num(w.cycles as f64)),
                    ("cond", accuracy_json(w.cond_branches)),
                    ("l1", accuracy_json(w.l1_only)),
                    ("calc", accuracy_json(w.calc_class)),
                    ("load", accuracy_json(w.load_class)),
                    ("overrides", Json::Num(w.overrides as f64)),
                    ("correcting", Json::Num(w.overrides_correcting as f64)),
                    ("bvit", Json::Num(w.bvit_hits as f64)),
                    ("full_misp", Json::Num(w.full_mispredicts as f64)),
                    ("restarts", Json::Num(w.override_restarts as f64)),
                ]),
            ),
        ]
        .into_iter()
        .chain(probes),
    )
}

/// Decodes one journal entry as a restored job. Identity fields and
/// counters must be non-negative integers; anything else is malformed.
fn entry_from_json(json: &Json) -> Option<CellSuccess> {
    let name = match json.get("name")? {
        Json::Str(s) => intern_name(s),
        _ => return None,
    };
    let count = |path: &str| {
        json.num(path)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    };
    let config = *PredictorConfig::all().get(count("config")? as usize)?;
    let degradation = match json.get("degraded")? {
        Json::Str(s) => Degradation::from_tag(s)?,
        _ => return None,
    };
    // Optional: journals written before duration tracking lack it.
    let duration = json
        .num("dur_us")
        .filter(|n| *n >= 0.0)
        .map(|n| Duration::from_micros(n as u64))
        .unwrap_or_default();
    let probes = match (json.get("counters"), json.get("sites")) {
        (None, None) => None,
        (Some(c), Some(s)) => Some(Box::new((counters_from_json(c)?, sites_from_json(s)?))),
        _ => return None,
    };
    let window = arvi_sim::MachineStats {
        committed: count("window.committed")?,
        cycles: count("window.cycles")?,
        cond_branches: accuracy_from(json, "window.cond")?,
        l1_only: accuracy_from(json, "window.l1")?,
        calc_class: accuracy_from(json, "window.calc")?,
        load_class: accuracy_from(json, "window.load")?,
        overrides: count("window.overrides")?,
        overrides_correcting: count("window.correcting")?,
        bvit_hits: count("window.bvit")?,
        full_mispredicts: count("window.full_misp")?,
        override_restarts: count("window.restarts")?,
    };
    Some(CellSuccess {
        result: SimResult {
            name,
            config,
            depth_stages: count("depth")?,
            window,
        },
        degradation,
        resumed: true,
        duration,
        sampled_units: 0,
        probes,
    })
}

/// The append-only sweep journal of finished jobs: a
/// `# arvi sweep journal v1` header line, then one
/// `<fingerprint-hex16> <compact-json>` line per job, appended (and
/// flushed) as each job finishes. Whole cells, sampling units and probed
/// cells share the one entry format ([`CellSuccess`] round-trips through
/// it); a probed cell's entry adds its `counters` and `sites`.
/// Crash-tolerant on both ends: a torn final line from an interrupted
/// writer is skipped (with a warning) by the loader, and everything
/// before it still resumes.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// The journal a run appends to and the jobs it resumes from: with
    /// `path` set, loads its well-formed entries when `resume` is on,
    /// then opens it for appending (warning and continuing without a
    /// journal when that fails).
    pub(crate) fn open(
        path: Option<&Path>,
        spec: Spec,
        resume: bool,
    ) -> (Option<Journal>, HashMap<u64, CellSuccess>) {
        let Some(path) = path else {
            return (None, HashMap::new());
        };
        let prior = if resume {
            Journal::load(path)
        } else {
            HashMap::new()
        };
        let journal = Journal::open_append(path, spec)
            .map_err(|e| {
                eprintln!(
                    "warning: cannot open sweep journal {}: {e} (continuing without)",
                    path.display()
                )
            })
            .ok();
        (journal, prior)
    }

    /// Opens `path` for appending, writing the header line when the file
    /// is new or empty.
    fn open_append(path: &Path, spec: Spec) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error_at(path, e))?;
        if file.metadata().map_err(|e| io_error_at(path, e))?.len() == 0 {
            writeln!(
                file,
                "# arvi sweep journal v1 seed={} warmup={} measure={}",
                spec.seed, spec.warmup, spec.measure
            )
            .map_err(|e| io_error_at(path, e))?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Appends one finished job. Persistence failures only warn — a full
    /// disk must not fail the sweep itself.
    pub(crate) fn append(&self, fingerprint: u64, job: &CellSuccess) {
        let line = format!("{fingerprint:016x} {}", entry_json(job).render_compact());
        let mut file = self.file.lock().expect("journal writer panicked");
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!(
                "warning: cannot append to sweep journal {}: {e}",
                self.path.display()
            );
        }
    }

    /// Loads every well-formed entry of the journal at `path`. A missing
    /// file is an empty journal; malformed lines (e.g. a torn final line
    /// from a crashed writer) are skipped with a warning.
    fn load(path: &Path) -> HashMap<u64, CellSuccess> {
        let mut entries = HashMap::new();
        let Ok(text) = std::fs::read_to_string(path) else {
            return entries;
        };
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line.split_once(' ').and_then(|(fp, json)| {
                let fp = u64::from_str_radix(fp, 16).ok()?;
                Some((fp, entry_from_json(&Json::parse(json).ok()?)?))
            });
            match parsed {
                Some((fp, entry)) => {
                    entries.insert(fp, entry);
                }
                None => eprintln!(
                    "warning: sweep journal {}: skipping malformed line {} \
                     (torn write from an interrupted run?)",
                    path.display(),
                    ln + 1
                ),
            }
        }
        entries
    }
}

/// One schedulable job of a grid run: a whole cell, or one sampling
/// unit of a sampled cell.
#[derive(Debug, Clone, Copy)]
enum Job {
    Cell(usize),
    Unit { cell: usize, unit: usize },
}

/// What a finished job produced.
enum Done {
    Cell(CellOutcome),
    Unit(UnitDone),
}

/// What the grid runner makes of each cell.
#[derive(Debug, Clone, Copy)]
pub enum Jobs<'a> {
    /// One whole, unprobed run per cell.
    Cells,
    /// One whole run per cell with `(CounterProbe, SiteProbe)` attached;
    /// each [`CellSuccess`] carries its probes.
    Probed,
    /// One job per sampling unit of the plan, for every cell whose
    /// workload has a usable recording.
    Sampled(&'a SamplePlan),
}

/// Runs every grid point with per-cell fault isolation on up to
/// `threads` workers of [`arvi_sim::execute`] — the one way to run a
/// grid. Returns one [`CellOutcome`] per point in point order, whichever
/// worker finished first; no cell failure aborts the grid, and the fault
/// plan's simulated kill stops dispatch.
///
/// With `traces` set, cells replay shared recordings; a cell whose
/// workload has no usable recording runs live as a
/// [`Degradation::LiveEmulation`]. With `traces` `None` every cell runs
/// live, undegraded. Under [`Jobs::Sampled`], each cell whose workload
/// has a usable recording becomes one job per sampling unit (journaled
/// and resumed per unit, then aggregated in unit order); a cell without
/// one cannot be sampled — sampling seeks, live emulation cannot — and
/// stays a whole-run job. With a journal configured, finished jobs are
/// appended as they finish; with [`Resilience::resume`], journaled jobs
/// are restored without re-running — restored results are
/// bit-identical to simulated ones, they are the simulated ones.
pub fn run_grid(
    points: &[SweepPoint],
    spec: Spec,
    jobs: Jobs,
    threads: usize,
    progress: bool,
    traces: Option<&TraceSet>,
    res: &Resilience,
) -> SampledSweep {
    let (journal, prior) = Journal::open(res.journal.as_deref(), spec, res.resume);
    let plan = match jobs {
        Jobs::Sampled(plan) => Some(plan),
        Jobs::Cells | Jobs::Probed => None,
    };
    let probed = matches!(jobs, Jobs::Probed);
    // Detail windows live inside the measurement window; unit warm-up
    // may reach back into the spec warm-up prefix (recorded too).
    let units = plan.map_or_else(Vec::new, |p| p.units(spec.warmup, spec.measure, spec.seed));
    let sampled: Vec<Option<Degradation>> = points
        .iter()
        .map(|p| {
            let traces = traces.filter(|_| plan.is_some())?;
            usable_trace(traces, &p.workload, spec).map(|(_, degradation)| degradation)
        })
        .collect();
    let mut jobs = Vec::new();
    for (cell, mode) in sampled.iter().enumerate() {
        match mode {
            Some(_) => jobs.extend((0..units.len()).map(|unit| Job::Unit { cell, unit })),
            None => jobs.push(Job::Cell(cell)),
        }
    }

    let threads = threads.clamp(1, jobs.len().max(1));
    if let (Some(plan), true) = (plan, progress) {
        eprintln!(
            "sampled sweep: {} cells x {} units (plan {plan}), {} work items on {threads} threads",
            points.len(),
            units.len(),
            jobs.len(),
        );
    }
    let events = res.events.as_deref();
    let sweep_start = Instant::now();
    if let Some(log) = events {
        log.emit(
            "sweep_start",
            vec![
                ("cells", Json::Num(points.len() as f64)),
                ("threads", Json::Num(threads as f64)),
            ],
        );
    }
    let cell_start = |i: usize, point: &SweepPoint| {
        if progress {
            eprintln!("sweep: {point}");
        }
        if let Some(log) = events {
            log.emit(
                "cell_start",
                vec![
                    ("cell", Json::Num(i as f64)),
                    ("point", Json::str(point.to_string())),
                ],
            );
        }
    };
    let done = execute(
        &jobs,
        threads,
        |n| res.stop_after(n),
        |_, &job| match job {
            Job::Cell(i) => {
                let point = &points[i];
                cell_start(i, point);
                let outcome = run_cell(i, point, spec, traces, res, &prior, probed);
                if let (CellOutcome::Ok(s), Some(journal)) = (&outcome, &journal) {
                    if !s.resumed {
                        journal.append(cell_fingerprint(point, spec), s);
                    }
                }
                if let Some(log) = events {
                    emit_cell_events(log, i, point, &outcome, traces.is_some());
                }
                Done::Cell(outcome)
            }
            Job::Unit { cell, unit } => {
                let point = &points[cell];
                if unit == 0 {
                    cell_start(cell, point);
                }
                let plan = plan.expect("units exist only under a plan");
                let trace = traces
                    .and_then(|t| t.get(&point.workload))
                    .expect("sampled cells have a recording");
                let fp = unit_fingerprint(point, spec, plan, unit as u64);
                Done::Unit(run_unit_job(
                    point,
                    fp,
                    trace,
                    &units[unit],
                    &prior,
                    journal.as_ref(),
                ))
            }
        },
    );

    // Assemble per cell, in point order: the job list holds each
    // sampled cell's units contiguously.
    let mut done = done.into_iter();
    let mut sweep = SampledSweep {
        points: points.to_vec(),
        outcomes: Vec::with_capacity(points.len()),
        reports: Vec::with_capacity(points.len()),
    };
    for (i, (point, mode)) in points.iter().zip(&sampled).enumerate() {
        // Whether this cell sent a `cell_start` (whole-cell jobs close
        // theirs as they finish).
        let (outcome, report, started) = match mode {
            None => match done.next().flatten() {
                Some(Done::Cell(outcome)) => (outcome, None, false),
                _ => (CellOutcome::Skipped, None, false),
            },
            Some(degradation) => {
                let slots: Vec<_> = done
                    .by_ref()
                    .take(units.len())
                    .map(|d| match d {
                        Some(Done::Unit(u)) => Some(u),
                        _ => None,
                    })
                    .collect();
                let started = slots.first().is_some_and(Option::is_some);
                let (outcome, report) = assemble_cell(point, spec, i, slots, *degradation);
                (outcome, report, started)
            }
        };
        // A cell a kill stopped mid-way still closes with a `skipped`
        // cell_end; one never started logs nothing.
        if let (Some(log), true) = (events, started) {
            emit_cell_events(log, i, point, &outcome, true);
        }
        sweep.outcomes.push(outcome);
        sweep.reports.push(report);
    }
    if let Some(log) = events {
        log.emit(
            "sweep_end",
            vec![
                ("cells", Json::Num(points.len() as f64)),
                (
                    "completed",
                    Json::Num(
                        sweep
                            .outcomes
                            .iter()
                            .filter(|o| o.success().is_some())
                            .count() as f64,
                    ),
                ),
                (
                    "dur_us",
                    Json::Num(sweep_start.elapsed().as_micros() as f64),
                ),
            ],
        );
    }
    sweep
}

/// `workload`'s recording in `traces` when it covers
/// [`trace_len`]`(spec)`, and how a cell replaying it obtained it: a
/// recording that replaced a quarantined corrupt file is a degradation.
fn usable_trace<'t>(
    traces: &'t TraceSet,
    workload: &Workload,
    spec: Spec,
) -> Option<(&'t Arc<Trace>, Degradation)> {
    let trace = traces
        .get(workload)
        .filter(|t| t.len() >= trace_len(spec))?;
    let degradation = match traces.provenance(workload) {
        Some(TraceProvenance::Rerecorded { corrupt: true }) => Degradation::Requarantined,
        _ => Degradation::None,
    };
    Some((trace, degradation))
}

/// The normalized outcome key used in `cell_end` events.
fn outcome_key(outcome: &CellOutcome) -> &'static str {
    match outcome {
        CellOutcome::Ok(_) => "ok",
        CellOutcome::Panicked { .. } => "panicked",
        CellOutcome::TimedOut { .. } => "timed-out",
        CellOutcome::TraceError { .. } => "trace-error",
        CellOutcome::Skipped => "skipped",
    }
}

/// Emits the `cell_end` event (plus `resume_hit` for journal hits) for
/// one dispatched cell.
fn emit_cell_events(
    log: &EventLog,
    i: usize,
    point: &SweepPoint,
    outcome: &CellOutcome,
    traced: bool,
) {
    let mut fields = vec![
        ("cell", Json::Num(i as f64)),
        ("point", Json::str(point.to_string())),
        ("outcome", Json::str(outcome_key(outcome))),
    ];
    if let CellOutcome::Ok(s) = outcome {
        if s.resumed {
            log.emit(
                "resume_hit",
                vec![
                    ("cell", Json::Num(i as f64)),
                    ("point", Json::str(point.to_string())),
                ],
            );
        }
        let phase = if s.resumed {
            "resumed"
        } else if s.degradation == Degradation::LiveEmulation || !traced {
            "live"
        } else {
            "replay"
        };
        fields.push(("phase", Json::str(phase)));
        if s.degradation != Degradation::None {
            fields.push(("degraded", Json::str(s.degradation.tag())));
        }
        fields.push(("dur_us", Json::Num(s.duration.as_micros() as f64)));
    } else if let Some(reason) = outcome.failure() {
        fields.push(("reason", Json::str(reason)));
    }
    log.emit("cell_end", fields);
}

/// Runs (or restores) one whole cell under `res`, with the counter and
/// site probes attached when `probed`. A probed run restores only
/// journal entries that carry probes and re-simulates the others.
fn run_cell(
    i: usize,
    point: &SweepPoint,
    spec: Spec,
    traces: Option<&TraceSet>,
    res: &Resilience,
    prior: &HashMap<u64, CellSuccess>,
    probed: bool,
) -> CellOutcome {
    let restored = prior.get(&cell_fingerprint(point, spec));
    if let Some(s) = restored.filter(|s| !probed || s.probes.is_some()) {
        return CellOutcome::Ok(s.clone());
    }
    let start = Instant::now();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = res.plan.as_deref() {
            if plan.take_panic(i) {
                panic!("injected fault: panic in cell {i} ({point})");
            }
            if let Some(stall) = plan.take_stall(i) {
                std::thread::sleep(stall);
            }
        }
        if probed {
            let probe = (CounterProbe::new(), SiteProbe::new());
            let (result, degradation, probes) = simulate_cell(point, spec, traces, probe);
            (result, degradation, Some(Box::new(probes)))
        } else {
            let (result, degradation, NullProbe) = simulate_cell(point, spec, traces, NullProbe);
            (result, degradation, None)
        }
    }));
    let elapsed = start.elapsed();
    match attempt {
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            if message.contains(REPLAY_PANIC_PREFIX) {
                CellOutcome::TraceError { message }
            } else {
                CellOutcome::Panicked { message }
            }
        }
        Ok((result, degradation, probes)) => match res.deadline {
            Some(deadline) if elapsed > deadline => CellOutcome::TimedOut { elapsed, deadline },
            _ => CellOutcome::Ok(CellSuccess {
                result,
                degradation,
                resumed: false,
                duration: elapsed,
                sampled_units: 0,
                probes,
            }),
        },
    }
}

/// Simulates one cell with `probe` attached: replays `traces`' recording
/// of the workload when it covers [`trace_len`]`(spec)`, and emulates
/// live otherwise. Without a trace set live emulation is the normal path;
/// with one it is a [`Degradation::LiveEmulation`].
pub(crate) fn simulate_cell<P: Probe>(
    point: &SweepPoint,
    spec: Spec,
    traces: Option<&TraceSet>,
    probe: P,
) -> (SimResult, Degradation, P) {
    let name = intern_name(point.workload.name());
    let params = SimParams::for_depth(point.depth);
    let (warmup, measure) = (spec.warmup, spec.measure);
    let replay = traces.map(|traces| usable_trace(traces, &point.workload, spec));
    let ((result, probe), degradation) = match replay {
        Some(Some((trace, degradation))) => (
            simulate_source_probed(
                name,
                TraceReplayer::new(Arc::clone(trace)),
                params,
                point.config,
                warmup,
                measure,
                probe,
            ),
            degradation,
        ),
        _ => {
            let emulator = arvi_isa::Emulator::new(point.workload.program(spec.seed));
            let degradation = match replay {
                Some(_) => Degradation::LiveEmulation,
                None => Degradation::None,
            };
            (
                simulate_source_probed(
                    name,
                    emulator,
                    params,
                    point.config,
                    warmup,
                    measure,
                    probe,
                ),
                degradation,
            )
        }
    };
    (result, degradation, probe)
}

/// Renders a caught panic payload (the `&str`/`String` payloads `panic!`
/// produces; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "<non-string panic payload>".to_string(),
        }
    }
}

/// A sweep that did not complete every cell: which cells failed and
/// why. Rendered with a resume hint.
#[derive(Debug, Clone)]
pub struct SweepIncomplete {
    /// Cells in the grid.
    pub total: usize,
    /// Failed/skipped cells: `(index, point, reason)`.
    pub failed: Vec<(usize, String, String)>,
}

impl std::fmt::Display for SweepIncomplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep incomplete: {} of {} cells did not finish:",
            self.failed.len(),
            self.total
        )?;
        for (i, point, reason) in &self.failed {
            writeln!(f, "  cell {i} ({point}): {reason}")?;
        }
        write!(
            f,
            "completed cells are journaled under --journal; re-run with --resume to finish the rest"
        )
    }
}

impl std::error::Error for SweepIncomplete {}

/// One-line degradation/resume summary of a resilient sweep, or `None`
/// when every cell ran the normal path (nothing worth reporting).
pub(crate) fn outcome_summary(outcomes: &[CellOutcome]) -> Option<String> {
    let mut resumed = 0usize;
    let mut requarantined = 0usize;
    let mut live = 0usize;
    let mut failed = 0usize;
    for o in outcomes {
        match o {
            CellOutcome::Ok(s) => {
                resumed += s.resumed as usize;
                match s.degradation {
                    Degradation::None => {}
                    Degradation::Requarantined => requarantined += 1,
                    Degradation::LiveEmulation => live += 1,
                }
            }
            _ => failed += 1,
        }
    }
    if resumed + requarantined + live + failed == 0 {
        return None;
    }
    let mut parts = Vec::new();
    if resumed > 0 {
        parts.push(format!("{resumed} resumed from journal"));
    }
    if requarantined > 0 {
        parts.push(format!("{requarantined} replayed a re-recorded trace"));
    }
    if live > 0 {
        parts.push(format!("{live} fell back to live emulation"));
    }
    if failed > 0 {
        parts.push(format!("{failed} failed"));
    }
    Some(format!("resilience: {}", parts.join(", ")))
}

/// End-of-grid timing report: total/min/mean/max per-cell wall-clock
/// time, the record-vs-replay-vs-machine phase breakdown, and a log2
/// duration histogram. `record_elapsed` is the trace-recording phase
/// (from [`TraceSet::record_elapsed`]); `None` for sweeps with no trace
/// set. Returns `None` when no cell ran in this process (e.g. a fully
/// resumed grid).
pub(crate) fn timing_summary(
    outcomes: &[CellOutcome],
    record_elapsed: Option<Duration>,
) -> Option<String> {
    let mut hist = arvi_obs::Log2Hist::new();
    let mut replay = Duration::ZERO;
    let mut replay_cells = 0usize;
    let mut live = Duration::ZERO;
    let mut live_cells = 0usize;
    let mut resumed = 0usize;
    let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
    for o in outcomes {
        let Some(s) = o.success() else { continue };
        if s.resumed {
            resumed += 1;
            continue;
        }
        match s.degradation {
            Degradation::LiveEmulation => {
                live += s.duration;
                live_cells += 1;
            }
            Degradation::None | Degradation::Requarantined => {
                replay += s.duration;
                replay_cells += 1;
            }
        }
        hist.record(s.duration.as_millis() as u64);
        min = min.min(s.duration);
        max = max.max(s.duration);
    }
    let cells = replay_cells + live_cells;
    if cells == 0 {
        return None;
    }
    let total = replay + live;
    let secs = |d: Duration| d.as_secs_f64();
    let mut out = format!(
        "sweep timing: {cells} cells in {:.2}s wall (replay {:.2}s/{replay_cells}, \
         machine {:.2}s/{live_cells}",
        secs(total),
        secs(replay),
        secs(live),
    );
    if let Some(record) = record_elapsed {
        out.push_str(&format!(", record phase {:.2}s", secs(record)));
    }
    if resumed > 0 {
        out.push_str(&format!(", {resumed} resumed not re-timed"));
    }
    out.push_str(&format!(
        "); per-cell min/mean/max {:.3}/{:.3}/{:.3}s\n",
        secs(min),
        secs(total) / cells as f64,
        secs(max),
    ));
    out.push_str("cell duration histogram (ms):");
    for (lo, n) in hist.nonzero_buckets() {
        out.push_str(&format!(" [{}]={n}", arvi_obs::Log2Hist::bucket_label(lo)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvi_sim::Depth;
    use arvi_workloads::Benchmark;

    fn point(b: Benchmark) -> SweepPoint {
        SweepPoint {
            workload: b.into(),
            depth: Depth::D20,
            config: PredictorConfig::ArviCurrent,
        }
    }

    fn tiny_spec() -> Spec {
        Spec {
            warmup: 500,
            measure: 1_500,
            seed: 3,
        }
    }

    #[test]
    fn default_policy_degrades_gracefully() {
        let res = Resilience::default();
        assert!(res.journal.is_none() && !res.resume && res.plan.is_none());
    }

    #[test]
    fn fault_plan_parses_every_kind_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "# a comment\n\
             flip li 100\n\
             flip-chunk go 2 7   # trailing comment\n\
             truncate compress 64\n\
             panic-cell 3\n\
             stall-cell 1 250\n\
             kill-after 5\n\
             \n",
        )
        .unwrap();
        assert_eq!(plan.len(), 6);
        assert!(FaultPlan::parse("explode everything").is_err());
        assert!(FaultPlan::parse("flip li").is_err());
        assert!(FaultPlan::parse("panic-cell x").is_err());
        assert!(FaultPlan::parse("kill-after 5 extra").is_err());
    }

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::parse("panic-cell 2\nstall-cell 0 10\nkill-after 3").unwrap();
        assert!(plan.take_panic(2));
        assert!(!plan.take_panic(2), "one-shot");
        assert!(!plan.take_panic(1));
        assert_eq!(plan.take_stall(0), Some(Duration::from_millis(10)));
        assert_eq!(plan.take_stall(0), None);
        // kill-after is sticky, not consumed.
        assert!(!plan.kill_now(2));
        assert!(plan.kill_now(3));
        assert!(plan.kill_now(4));
    }

    #[test]
    fn read_faults_match_by_workload_prefix() {
        let plan = FaultPlan::parse("flip li 1\ntruncate go 4").unwrap();
        let mut li = vec![0u8; 8];
        plan.apply_read(Path::new("/tmp/li-s3-w500-m1500.arvitrace"), &mut li);
        assert_eq!(li[1], 0xFF);
        // `li` fault must not fire on a different workload, and is spent.
        let mut go = vec![0u8; 8];
        plan.apply_read(Path::new("go-s3-w500-m1500.arvitrace"), &mut go);
        assert_eq!(go.len(), 4);
        assert!(go.iter().all(|&b| b == 0));
    }

    #[test]
    fn cell_fingerprint_separates_every_axis() {
        let spec = tiny_spec();
        let base = point(Benchmark::Li);
        let fp = cell_fingerprint(&base, spec);
        assert_eq!(fp, cell_fingerprint(&base.clone(), spec), "stable");
        let mut other = base.clone();
        other.depth = Depth::D40;
        assert_ne!(fp, cell_fingerprint(&other, spec));
        let mut other = base.clone();
        other.config = PredictorConfig::TwoLevelGskew;
        assert_ne!(fp, cell_fingerprint(&other, spec));
        assert_ne!(fp, cell_fingerprint(&point(Benchmark::Go), spec));
        let mut spec2 = spec;
        spec2.measure += 1;
        assert_ne!(fp, cell_fingerprint(&base, spec2));
        let mut spec3 = spec;
        spec3.seed += 1;
        assert_ne!(fp, cell_fingerprint(&base, spec3));
    }

    /// One live simulation of `p` (no trace set), probed with `probe`.
    fn simulate<P: Probe>(p: &SweepPoint, spec: Spec, probe: P) -> (SimResult, P) {
        let (result, _, probe) = simulate_cell(p, spec, None, probe);
        (result, probe)
    }

    fn success(result: SimResult, degradation: Degradation, resumed: bool, ms: u64) -> CellSuccess {
        CellSuccess {
            result,
            degradation,
            resumed,
            duration: Duration::from_millis(ms),
            sampled_units: 0,
            probes: None,
        }
    }

    fn assert_same_result(got: &SimResult, want: &SimResult) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.config, want.config);
        assert_eq!(got.depth_stages, want.depth_stages);
        let (g, w) = (&got.window, &want.window);
        assert_eq!(g.committed, w.committed);
        assert_eq!(g.cycles, w.cycles);
        assert_eq!(g.cond_branches, w.cond_branches);
        assert_eq!(g.l1_only, w.l1_only);
        assert_eq!(g.calc_class, w.calc_class);
        assert_eq!(g.load_class, w.load_class);
        assert_eq!(g.overrides, w.overrides);
        assert_eq!(g.overrides_correcting, w.overrides_correcting);
        assert_eq!(g.bvit_hits, w.bvit_hits);
        assert_eq!(g.full_mispredicts, w.full_mispredicts);
        assert_eq!(g.override_restarts, w.override_restarts);
    }

    #[test]
    fn journal_round_trips_results_exactly() {
        let spec = tiny_spec();
        let p = point(Benchmark::Compress);
        let (result, NullProbe) = simulate(&p, spec, NullProbe);
        let mut probed_point = point(Benchmark::Li);
        probed_point.config = PredictorConfig::TwoLevelGskew;
        let (probed_result, probes) =
            simulate(&probed_point, spec, (CounterProbe::new(), SiteProbe::new()));
        let dir = std::env::temp_dir().join(format!("arvi-journal-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("sweep.journal");
        let journal = Journal::open_append(&path, spec).unwrap();
        let mut entry = success(result.clone(), Degradation::Requarantined, false, 0);
        entry.duration = Duration::from_micros(123_456);
        journal.append(cell_fingerprint(&p, spec), &entry);
        let mut probed = success(probed_result.clone(), Degradation::None, false, 7);
        probed.probes = Some(Box::new(probes));
        journal.append(cell_fingerprint(&probed_point, spec), &probed);
        drop(journal);
        let loaded = Journal::load(&path);
        let got = loaded
            .get(&cell_fingerprint(&p, spec))
            .expect("entry present");
        assert!(got.resumed && got.probes.is_none());
        assert_eq!(got.degradation, Degradation::Requarantined);
        assert_eq!(got.duration, Duration::from_micros(123_456));
        assert_same_result(&got.result, &result);

        // A probed cell's counters and sites come back exactly.
        let got = loaded
            .get(&cell_fingerprint(&probed_point, spec))
            .expect("probed entry present");
        assert_same_result(&got.result, &probed_result);
        let (counters, sites) = got.probes.as_deref().expect("probes restored");
        let (want_counters, want_sites) = probed.probes.as_deref().unwrap();
        assert!(want_counters.committed > 0 && want_sites.sites > 0);
        assert_eq!(
            counters_to_json(counters).render_compact(),
            counters_to_json(want_counters).render_compact()
        );
        assert_eq!(
            sites_to_json(sites).render_compact(),
            sites_to_json(want_sites).render_compact()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_loader_skips_torn_lines() {
        let dir = std::env::temp_dir().join(format!("arvi-torn-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let (result, NullProbe) = simulate(&p, spec, NullProbe);
        let path = dir.join("sweep.journal");
        let journal = Journal::open_append(&path, spec).unwrap();
        journal.append(
            cell_fingerprint(&p, spec),
            &success(result, Degradation::None, false, 0),
        );
        drop(journal);
        let good = std::fs::read_to_string(&path).unwrap();
        let entry = good.lines().nth(1).unwrap().split_once(' ').unwrap().1;
        // A torn, incomplete final line (a crash mid-append), and
        // identity fields out of range: a negative or fractional config
        // or depth must not restore as some other cell.
        let mut text = good.clone();
        for (from, to) in [
            ("\"config\":1,", "\"config\":-1,"),
            ("\"config\":1,", "\"config\":1.5,"),
            ("\"depth\":20,", "\"depth\":-20,"),
            ("\"depth\":20,", "\"depth\":20.5,"),
        ] {
            assert!(entry.contains(from), "{entry}");
            text.push_str(&format!("{:016x} {}\n", 0xbad, entry.replace(from, to)));
        }
        text.push_str("deadbeefdeadbeef {\"name\":\"go\",\"config\":1,\"de");
        std::fs::write(&path, text).unwrap();
        let loaded = Journal::load(&path);
        assert_eq!(loaded.len(), 1, "good line kept, malformed lines dropped");
        assert!(loaded.contains_key(&cell_fingerprint(&p, spec)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_summary_counts_paths() {
        let spec = tiny_spec();
        let (result, NullProbe) = simulate(&point(Benchmark::Li), spec, NullProbe);
        let ok = |degradation, resumed| {
            CellOutcome::Ok(success(result.clone(), degradation, resumed, 40))
        };
        assert_eq!(outcome_summary(&[ok(Degradation::None, false)]), None);
        let summary = outcome_summary(&[
            ok(Degradation::None, true),
            ok(Degradation::LiveEmulation, false),
            CellOutcome::Panicked {
                message: "boom".into(),
            },
        ])
        .unwrap();
        assert!(summary.contains("1 resumed"));
        assert!(summary.contains("1 fell back"));
        assert!(summary.contains("1 failed"));
    }

    #[test]
    fn timing_summary_breaks_down_phases() {
        let spec = tiny_spec();
        let (result, NullProbe) = simulate(&point(Benchmark::Li), spec, NullProbe);
        let ok = |degradation, resumed, ms| {
            CellOutcome::Ok(success(result.clone(), degradation, resumed, ms))
        };
        // Nothing ran in-process: resumed-only grids report no timing.
        assert_eq!(
            timing_summary(&[ok(Degradation::None, true, 70)], None),
            None
        );
        let summary = timing_summary(
            &[
                ok(Degradation::None, false, 100),
                ok(Degradation::LiveEmulation, false, 300),
                ok(Degradation::None, true, 70), // resumed: excluded
                CellOutcome::Panicked {
                    message: "boom".into(),
                },
            ],
            Some(Duration::from_millis(250)),
        )
        .unwrap();
        assert!(summary.contains("2 cells in 0.40s"), "{summary}");
        assert!(summary.contains("replay 0.10s/1"), "{summary}");
        assert!(summary.contains("machine 0.30s/1"), "{summary}");
        assert!(summary.contains("record phase 0.25s"), "{summary}");
        assert!(summary.contains("1 resumed not re-timed"), "{summary}");
        assert!(
            summary.contains("min/mean/max 0.100/0.200/0.300s"),
            "{summary}"
        );
        // 100ms -> [64-127], 300ms -> [256-511].
        assert!(summary.contains("[64-127]=1"), "{summary}");
        assert!(summary.contains("[256-511]=1"), "{summary}");
    }

    #[test]
    fn journal_without_duration_field_still_loads() {
        // Journals from before duration tracking lack `dur_us`; their
        // entries must load with a zero duration, not be dropped.
        let spec = tiny_spec();
        let p = point(Benchmark::Li);
        let (result, NullProbe) = simulate(&p, spec, NullProbe);
        let dir = std::env::temp_dir().join(format!("arvi-olddur-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("sweep.journal");
        let journal = Journal::open_append(&path, spec).unwrap();
        journal.append(
            cell_fingerprint(&p, spec),
            &success(result, Degradation::None, false, 5),
        );
        drop(journal);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"dur_us\":5000,", "");
        std::fs::write(&path, text).unwrap();
        let loaded = Journal::load(&path);
        let entry = loaded
            .get(&cell_fingerprint(&p, spec))
            .expect("entry still loads");
        assert_eq!(entry.duration, Duration::ZERO);
        std::fs::remove_dir_all(&dir).ok();
    }
}
