//! Differential site attribution over a merged grid rollup: per
//! workload, the branch PCs ARVI *fixes* and *breaks* versus the best
//! baseline configuration.
//!
//! Consumes an `obs_grid.json` produced by `fig6 --obs-grid` (or any
//! experiment binary run with `--obs-grid` over a grid that sweeps both
//! ARVI and baseline configurations). Prints the markdown report to
//! stdout; `--out` additionally writes the JSON form.
//!
//! Usage: `obs_report --grid obs_grid.json [--top N] [--out FILE]`
//!
//! Exit codes: 2 on usage/parse errors, 1 when the output file cannot
//! be written.

use std::path::Path;

use arvi_bench::{attribution_diff, flag_value, write_text, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        flag_value(&args, flag).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let Some(grid_path) = arg("--grid") else {
        eprintln!("usage: obs_report --grid obs_grid.json [--top N] [--out FILE]");
        std::process::exit(2);
    };
    let top = match arg("--top") {
        None => 10,
        Some(n) => n.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("error: --top expects a count, got `{n}`");
            std::process::exit(2);
        }),
    };

    let text = std::fs::read_to_string(grid_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {grid_path}: {e}");
        std::process::exit(2);
    });
    let grid = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {grid_path}: malformed JSON: {e}");
        std::process::exit(2);
    });
    let attribution = attribution_diff(&grid, top).unwrap_or_else(|e| {
        eprintln!("error: {grid_path}: {e}");
        std::process::exit(2);
    });

    print!("{}", attribution.to_markdown());
    if let Some(out) = arg("--out") {
        let json = attribution.to_json().render();
        if let Err(e) = write_text(Path::new(out), &json) {
            eprintln!("error: cannot write attribution report: {e}");
            std::process::exit(1);
        }
        eprintln!("attribution JSON written to {out}");
    }
}
