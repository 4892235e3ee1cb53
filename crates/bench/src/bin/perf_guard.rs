//! CI perf-regression guardrail: compares a fresh `perf_report` JSON
//! against the checked-in `BENCH_BASELINE.json` and fails the build on
//! regressions beyond the per-metric tolerance band.
//!
//! The baseline file carries, per metric, the reference value, the
//! direction that counts as better, and warn/fail thresholds in
//! percent. Two kinds of metric coexist deliberately:
//!
//! * **ratio metrics** (`*_speedup_*`) are host-independent — the two
//!   sides of the ratio are measured in the same process on the same
//!   machine — so they get tight bands; they are the real gate.
//! * **absolute metrics** (`*_ns_*`) depend on the host CPU, so their
//!   bands are generous: they catch order-of-magnitude mistakes (a
//!   debug build, an accidentally quadratic loop), not noise.
//!
//! Prints a markdown delta table (pipe it into `$GITHUB_STEP_SUMMARY`
//! in CI); every gating metric is also named on stderr with its band
//! and both values. Exit code 1 = at least one metric beyond its fail
//! band. The comparison itself lives in `arvi_bench::guard`.
//!
//! Usage: `perf_guard --report PATH [--baseline PATH] [--trends PATH]`
//!
//! `--trends` takes a `bench_history --out` JSON and appends its
//! regression flags to the summary as an advisory section — trends
//! never gate (host jitter across PRs is not this gate's evidence), the
//! baseline comparison does.
//!
//! Regenerate the baseline after an intentional perf change:
//! `cargo run --release -p arvi-bench --bin perf_report -- --quick --out F.json`,
//! then copy the `guardrail` values into `BENCH_BASELINE.json`.

use arvi_bench::{evaluate_guardrail, flag_value, trend_flags, Json};

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_guard: cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("perf_guard: {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        flag_value(&args, flag).unwrap_or_else(|e| {
            eprintln!("perf_guard: {e}");
            std::process::exit(2);
        })
    };
    let report_path = arg("--report").unwrap_or_else(|| {
        eprintln!("usage: perf_guard --report PATH [--baseline PATH] [--trends PATH]");
        std::process::exit(2);
    });
    let baseline_path = arg("--baseline").map_or("BENCH_BASELINE.json", String::as_str);

    let report = load(report_path);
    let baseline = load(baseline_path);
    let outcome = evaluate_guardrail(&report, &baseline).unwrap_or_else(|e| {
        eprintln!("perf_guard: {baseline_path}: {e}");
        std::process::exit(2);
    });

    print!("{}", outcome.to_markdown(report_path, baseline_path));
    if let Some(trends_path) = arg("--trends") {
        let flags = trend_flags(&load(trends_path));
        println!("\n### Trend advisories ({trends_path}, non-gating)\n");
        if flags.is_empty() {
            println!("No guardrail metric regressed beyond its noise band across PRs.");
        } else {
            for flag in flags {
                println!("- {flag}");
            }
        }
    }
    if outcome.gates() {
        for failure in outcome.failures() {
            eprintln!("perf_guard: {failure}");
        }
        std::process::exit(1);
    }
}
