//! Bounded-window event tracing in Chrome `about:tracing` JSON.
//!
//! A [`ChromeTracer`] watches a cycle range `[start, end)` and emits one
//! complete ("X") event per instruction that commits inside the window
//! (span = fetch cycle to commit cycle), instant ("i") events for
//! mispredicts and recoveries, and counter ("C") series for ROB
//! occupancy and issue width. The output loads directly into
//! `chrome://tracing` or Perfetto; cycles are mapped to microseconds
//! 1:1 so the timeline reads in cycles.

use crate::{Json, Probe};

/// Event capacity cap: ~64k events keeps the JSON in the tens of MB at
/// worst. Past the cap events are dropped and counted.
const DEFAULT_EVENT_CAP: usize = 1 << 16;

/// In-flight ring size (power of two); must cover the ROB (256 entries)
/// plus fetch-to-rename skid.
const INFLIGHT_RING: usize = 1 << 10;

/// Instruction spans are spread over this many timeline rows so
/// overlapping lifetimes render side by side instead of stacking.
const SPAN_ROWS: u64 = 16;

#[derive(Debug, Clone, Copy, Default)]
struct Inflight {
    seq: u64,
    fetch_cycle: u64,
    pc: u64,
    is_branch: bool,
    is_load: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Instruction lifetime: fetch..=commit.
    Span {
        seq: u64,
        pc: u64,
        start: u64,
        dur: u64,
        is_branch: bool,
        is_load: bool,
    },
    /// A full mispredict blocked fetch.
    Mispredict { cycle: u64, seq: u64, pc: u64 },
    /// Fetch released after a mispredict.
    Recovery { cycle: u64, blocked: u64 },
    /// Per-cycle counter sample.
    Counter { cycle: u64, rob: u32 },
    /// Issue-stage sample.
    Issue { cycle: u64, issued: u32 },
}

/// A probe that records pipeline events inside a cycle window and
/// renders them as Chrome trace JSON. Event storage is pre-allocated at
/// construction; when full, further events are dropped (and counted)
/// rather than reallocating on the hot path.
#[derive(Debug, Clone)]
pub struct ChromeTracer {
    start: u64,
    end: u64,
    events: Vec<Event>,
    inflight: Box<[Inflight]>,
    /// Events not recorded because the buffer filled.
    pub dropped: u64,
    /// Process id stamped on every event (distinguishes workloads when
    /// several tracers merge into one file).
    pub pid: u32,
}

impl Default for ChromeTracer {
    fn default() -> ChromeTracer {
        ChromeTracer::new(0, u64::MAX)
    }
}

impl ChromeTracer {
    /// A tracer for the cycle window `[start, end)` with the default
    /// event capacity.
    pub fn new(start: u64, end: u64) -> ChromeTracer {
        ChromeTracer::with_capacity(start, end, DEFAULT_EVENT_CAP)
    }

    /// A tracer with an explicit event-buffer capacity.
    pub fn with_capacity(start: u64, end: u64, cap: usize) -> ChromeTracer {
        ChromeTracer {
            start,
            end,
            events: Vec::with_capacity(cap),
            inflight: vec![Inflight::default(); INFLIGHT_RING].into_boxed_slice(),
            dropped: 0,
            pid: 0,
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[inline]
    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.end
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        if self.events.len() < self.events.capacity() {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Renders this tracer's events as a complete Chrome trace document
    /// `{"traceEvents":[...]}`.
    pub fn render(&self) -> String {
        document(self.event_objects(None))
    }

    /// This tracer's events, each rendered as one compact JSON object;
    /// `process_name`, when given, leads with a process-name metadata
    /// event so merged multi-workload traces are labelled.
    fn event_objects(&self, process_name: Option<&str>) -> Vec<String> {
        let n = |v: u64| Json::Num(v as f64);
        let s = |v: &str| Json::str(v);
        // `head` fields, then the process (and, on a timeline row, the
        // thread), then the one `args` entry.
        let event = |mut head: Vec<(&'static str, Json)>, tid: Option<u64>, arg| {
            head.push(("pid", n(self.pid as u64)));
            head.extend(tid.map(|tid| ("tid", n(tid))));
            head.push(("args", Json::obj([arg])));
            Json::obj(head).render_compact()
        };
        let mut out = Vec::with_capacity(self.events.len() + 1);
        if let Some(name) = process_name {
            let head = vec![("name", s("process_name")), ("ph", s("M"))];
            out.push(event(head, Some(0), ("name", s(name))));
        }
        out.extend(self.events.iter().map(|ev| match *ev {
            Event::Span {
                seq,
                pc,
                start,
                dur,
                is_branch,
                is_load,
            } => {
                let kind = if is_branch {
                    "branch"
                } else if is_load {
                    "mem"
                } else {
                    "alu"
                };
                let head = vec![
                    ("name", s(&format!("0x{pc:x}"))),
                    ("cat", s(kind)),
                    ("ph", s("X")),
                    ("ts", n(start)),
                    ("dur", n(dur)),
                ];
                event(head, Some(1 + seq % SPAN_ROWS), ("seq", n(seq)))
            }
            Event::Mispredict { cycle, seq, pc } => {
                let head = vec![
                    ("name", s(&format!("mispredict 0x{pc:x}"))),
                    ("cat", s("branch")),
                    ("ph", s("i")),
                    ("s", s("p")),
                    ("ts", n(cycle)),
                ];
                event(head, Some(0), ("seq", n(seq)))
            }
            Event::Recovery { cycle, blocked } => {
                let head = vec![
                    ("name", s("recovery")),
                    ("cat", s("branch")),
                    ("ph", s("i")),
                    ("s", s("p")),
                    ("ts", n(cycle)),
                ];
                event(head, Some(0), ("blocked_cycles", n(blocked)))
            }
            Event::Counter { cycle, rob } => {
                let head = vec![("name", s("rob")), ("ph", s("C")), ("ts", n(cycle))];
                event(head, None, ("occupancy", n(rob as u64)))
            }
            Event::Issue { cycle, issued } => {
                let head = vec![("name", s("issue")), ("ph", s("C")), ("ts", n(cycle))];
                event(head, None, ("issued", n(issued as u64)))
            }
        }));
        out
    }

    /// Merges several tracers (e.g. one per workload) into one Chrome
    /// trace document, labelling each with its name.
    pub fn render_merged<'a>(
        tracers: impl IntoIterator<Item = (&'a str, &'a ChromeTracer)>,
    ) -> String {
        document(
            tracers
                .into_iter()
                .flat_map(|(name, t)| t.event_objects(Some(name)))
                .collect(),
        )
    }
}

/// The Chrome trace document around already-rendered event objects.
fn document(events: Vec<String>) -> String {
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

impl Probe for ChromeTracer {
    #[inline]
    fn on_cycle(&mut self, cycle: u64, rob_occupancy: u32) {
        if self.in_window(cycle) {
            self.push(Event::Counter {
                cycle,
                rob: rob_occupancy,
            });
        }
    }

    #[inline]
    fn on_fetch(&mut self, cycle: u64, seq: u64, pc: u64, is_branch: bool, is_load: bool) {
        // Track every fetch (cheap ring write) so an instruction fetched
        // just before the window still gets a span if it commits inside.
        self.inflight[(seq as usize) & (INFLIGHT_RING - 1)] = Inflight {
            seq,
            fetch_cycle: cycle,
            pc,
            is_branch,
            is_load,
        };
    }

    #[inline]
    fn on_issue(&mut self, cycle: u64, issued: u32, _width: u32) {
        if self.in_window(cycle) {
            self.push(Event::Issue { cycle, issued });
        }
    }

    #[inline]
    fn on_commit(&mut self, cycle: u64, seq: u64) {
        if !self.in_window(cycle) {
            return;
        }
        let rec = self.inflight[(seq as usize) & (INFLIGHT_RING - 1)];
        if rec.seq != seq {
            return; // overwritten or fetched before tracing began
        }
        self.push(Event::Span {
            seq,
            pc: rec.pc,
            start: rec.fetch_cycle,
            dur: cycle - rec.fetch_cycle + 1,
            is_branch: rec.is_branch,
            is_load: rec.is_load,
        });
    }

    #[inline]
    fn on_mispredict(&mut self, cycle: u64, seq: u64, pc: u64, _inflight: u32) {
        if self.in_window(cycle) {
            self.push(Event::Mispredict { cycle, seq, pc });
        }
    }

    #[inline]
    fn on_recovery(&mut self, cycle: u64, blocked_cycles: u64) {
        if self.in_window(cycle) {
            self.push(Event::Recovery {
                cycle,
                blocked: blocked_cycles,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_fetch_to_commit() {
        let mut t = ChromeTracer::new(10, 100);
        t.on_fetch(8, 1, 0x40, false, true);
        t.on_commit(12, 1); // fetched before window, commits inside
        t.on_fetch(20, 2, 0x44, true, false);
        t.on_commit(200, 2); // commits after window: no span
        assert_eq!(t.len(), 1);
        let json = t.render();
        assert!(json.contains("\"ts\":8"), "{json}");
        assert!(json.contains("\"dur\":5"), "{json}");
        assert!(json.contains("\"cat\":\"mem\""), "{json}");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn window_filters_instants_and_counters() {
        let mut t = ChromeTracer::new(10, 20);
        t.on_cycle(5, 1);
        t.on_cycle(15, 2);
        t.on_mispredict(25, 0, 0x40, 3);
        t.on_recovery(15, 7);
        t.on_issue(15, 3, 4);
        assert_eq!(t.len(), 3); // counter@15, recovery@15, issue@15
        let json = t.render();
        assert!(json.contains("\"blocked_cycles\":7"), "{json}");
        assert!(!json.contains("mispredict"), "{json}");
    }

    #[test]
    fn capacity_cap_drops_and_counts() {
        let mut t = ChromeTracer::with_capacity(0, u64::MAX, 4);
        for c in 0..10 {
            t.on_cycle(c, 1);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped, 6);
    }

    #[test]
    fn merged_traces_carry_process_names() {
        let mut a = ChromeTracer::new(0, 10);
        a.pid = 1;
        a.on_cycle(1, 2);
        let mut b = ChromeTracer::new(0, 10);
        b.pid = 2;
        b.on_cycle(2, 3);
        let json = ChromeTracer::render_merged([("loop\"y\\z", &a), ("gap", &b)]);
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains(r#""args":{"name":"loop\"y\\z"}"#), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
        // Valid JSON shape: balanced outer object.
        assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
        Json::parse(&json).expect("the merged trace parses");
    }
}
