//! Report file writers.
//!
//! The perf trajectory of this repository is tracked by `BENCH_*.json`
//! files emitted by the `perf_report` binary, one per PR that claims a
//! performance win. Reports are [`Json`] value trees (defined in
//! `arvi-obs`, re-exported here); these helpers write them, creating
//! missing directories and naming the failing path in every error.

pub use arvi_obs::Json;

/// Annotates an I/O error with the path it happened on, mirroring the
/// `TraceError::File { path, source }` shape from `arvi-trace`: every
/// report/journal/event writer surfaces *which* file failed.
pub fn io_error_at(path: &std::path::Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes `text` to `path`, creating missing parent directories.
/// Errors carry the offending path.
pub fn write_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| io_error_at(parent, e))?;
    }
    std::fs::write(path, text).map_err(|e| io_error_at(path, e))
}

/// Writes a rendered JSON report to `path` (parent directories are
/// created; errors carry the path).
pub fn write_report(path: &std::path::Path, value: &Json) -> std::io::Result<()> {
    write_text(path, &value.render())
}
