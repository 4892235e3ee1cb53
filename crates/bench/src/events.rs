//! Structured execution telemetry for sweeps: the `--events-out PATH`
//! append-only JSONL span log. Every line is one self-contained object
//! `{"t_us":..,"event":..,...}` — cell start/end (with record/replay/
//! live phase, duration and degradation), resume hits, trace
//! quarantines, record-phase spans, sweep boundaries. One event per
//! line means a torn write (crash mid-append) damages at most the final
//! line, same contract as the sweep journal.
//!
//! Telemetry never fails a sweep: emission errors warn on stderr and
//! the run continues. Only *opening* the log (at flag-parse time) is an
//! error the user sees as such.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::report::{io_error_at, Json};

/// An append-only JSONL event log. Timestamps are microseconds since
/// the log was opened (monotonic clock — wall time would make reruns
/// incomparable and is deliberately absent).
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    start: Instant,
    file: Mutex<std::fs::File>,
}

impl EventLog {
    /// Opens (truncating) the log at `path`, creating missing parent
    /// directories. Errors carry the offending path.
    pub fn create(path: &Path) -> std::io::Result<EventLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
        }
        let file = std::fs::File::create(path).map_err(|e| io_error_at(path, e))?;
        Ok(EventLog {
            path: path.to_path_buf(),
            start: Instant::now(),
            file: Mutex::new(file),
        })
    }

    /// Appends one event line. Write failures warn rather than fail —
    /// losing telemetry must never lose sweep results.
    pub fn emit(&self, event: &str, fields: Vec<(&'static str, Json)>) {
        let mut obj = vec![
            ("t_us", Json::Num(self.start.elapsed().as_micros() as f64)),
            ("event", Json::str(event)),
        ];
        obj.extend(fields);
        let line = Json::obj(obj).render_compact();
        let mut f = self.file.lock().unwrap();
        if let Err(e) = writeln!(f, "{line}").and_then(|()| f.flush()) {
            eprintln!(
                "warning: event log write failed ({}: {e}); continuing",
                self.path.display()
            );
        }
    }

    /// Logs a trace quarantine; the workload is then re-recorded.
    pub fn quarantine(&self, file: &str, error: &str) {
        self.emit(
            "quarantine",
            vec![
                ("file", Json::str(file)),
                ("error", Json::str(error)),
                ("action", Json::str("re-record")),
            ],
        );
    }

    /// Logs a completed trace-record phase.
    pub fn record_phase(&self, workloads: usize, elapsed: Duration) {
        self.emit(
            "record_end",
            vec![
                ("workloads", Json::Num(workloads as f64)),
                ("dur_us", Json::Num(elapsed.as_micros() as f64)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("arvi-events-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn event_lines_are_json() {
        let dir = tmpdir("lines");
        let path = dir.join("nested/events.jsonl");
        let log = EventLog::create(&path).expect("create makes parents");
        log.emit("sweep_start", vec![("cells", Json::Num(4.0))]);
        log.emit("cell_end", vec![("outcome", Json::str("ok"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("valid JSON line");
            assert!(v.num("t_us").is_some(), "{line}");
            assert!(v.get("event").is_some(), "{line}");
        }
        assert_eq!(Json::parse(lines[0]).unwrap().num("cells"), Some(4.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_error_names_the_path() {
        // A path whose parent is a regular file cannot be created.
        let dir = tmpdir("err");
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("file");
        std::fs::write(&blocker, "x").unwrap();
        let bad = blocker.join("events.jsonl");
        let err = EventLog::create(&bad).unwrap_err();
        assert!(
            err.to_string().contains("file"),
            "error should name the path: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
