//! In-process half of the benchmark; `run.py` calls it.
//!
//! ```text
//! perfbench run   --workload W --seed N --threads T
//! perfbench trace --workload W --seed N --threads T --spans-out FILE --stamp JSON
//! perfbench truth --seed N --threads T
//! ```
//!
//! `run` drives one repetition of a workload, prints `perfbench: setup
//! done` on stderr when set-up ends, and prints one JSON line of
//! simulated results. `trace` makes the traced run and prints its
//! per-layer metrics; its spans go to FILE, headed by the JSON stamp.
//! `truth` simulates the sampled-long region of every stream in full
//! detail, the reference its sampled estimates are judged against.

use std::process::exit;
use std::sync::Arc;

use arvi_bench::{par_map, record_trace, run_one_traced, Fig6Data, Json, Spec};
use arvi_sim::{intern_name, Depth, PredictorConfig, SimResult};
use perfbench::layers::traced_run;
use perfbench::spans::Spans;
use perfbench::work::{digest, drive, Cell, Kind, Plan, RunResult};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2)
}

fn hex(d: u64) -> Json {
    Json::str(format!("{d:016x}"))
}

fn cells_json(cells: &[(String, u64)]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|(label, d)| Json::Arr(vec![Json::str(label.clone()), hex(*d)]))
            .collect(),
    )
}

/// Positions (in `cells` order) of the cells or units whose counters
/// break a property every correct run has. A cell that repeats an
/// earlier one (paper-regen's Figure 5 cells repeat Figure 6 cells) must
/// reproduce its counters.
fn implausible(plan: &Plan, r: &RunResult) -> Vec<usize> {
    let cells: Vec<&Cell> = plan.cells().collect();
    let units = plan.units();
    r.outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| {
            let s = &o.stats;
            let committed_ok = if *i < cells.len() {
                // Commit groups may overshoot both ends of the window.
                s.committed.abs_diff(plan.measure) < 8
            } else {
                s.committed == units[(i - cells.len()) % units.len()].detail_len
            };
            let repeat_ok = *i >= cells.len() || {
                let first = cells.iter().position(|c| *c == cells[*i]).unwrap_or(*i);
                digest(s) == digest(&r.outcomes[first].stats)
            };
            !committed_ok
                || !repeat_ok
                || s.cycles == 0
                || s.ipc() > 4.0
                || s.cond_branches.correct() > s.cond_branches.total()
        })
        .map(|(i, _)| i)
        .collect()
}

/// The Figure 6 tables `experiments` prints, rendered by the program's
/// own `Fig6Data` from this run's cells, with their headings. paper-regen
/// only: `run.py --refresh` checks that each occurs in the `experiments`
/// stdout, so the pinned cells are the ones behind that stdout.
fn fig6_tables(plan: &Plan, r: &RunResult) -> Vec<String> {
    if plan.kind != Kind::PaperRegen {
        return Vec::new();
    }
    let configs = PredictorConfig::all().len();
    let mut offset = plan.grids[0].len();
    let mut out = Vec::new();
    for (depth, cells) in Depth::all().into_iter().zip(&plan.grids[1..]) {
        let outcomes = &r.outcomes[offset..offset + cells.len()];
        offset += cells.len();
        let results = cells
            .chunks(configs)
            .zip(outcomes.chunks(configs))
            .map(|(cs, os)| {
                cs.iter()
                    .zip(os)
                    .map(|(c, o)| SimResult {
                        name: intern_name(plan.streams[c.stream].name()),
                        config: c.config,
                        depth_stages: c.depth.stages(),
                        window: o.stats.clone(),
                    })
                    .collect()
            })
            .collect();
        let data = Fig6Data {
            depth,
            workloads: plan.streams.clone(),
            results,
        };
        out.push(format!(
            "== Figure 6: prediction accuracy, {depth} pipeline ==\n{}",
            data.accuracy_table().to_text()
        ));
        out.push(format!(
            "== Figure 6: normalized IPC, {depth} pipeline ==\n{}",
            data.normalized_ipc_table().to_text()
        ));
    }
    out
}

fn run(plan: &Plan) -> Json {
    let r = drive(plan, &mut Spans::new(false), || {
        eprintln!("perfbench: setup done")
    });
    let totals = r.totals();
    let cells: Vec<(String, u64)> = r
        .outcomes
        .iter()
        .map(|o| (o.label.clone(), digest(&o.stats)))
        .collect();
    let estimates = plan
        .streams
        .iter()
        .zip(&r.reports)
        .map(|(w, rep)| {
            Json::obj([
                ("stream", Json::str(w.name())),
                ("ipc", Json::Num(rep.ipc.mean)),
                ("ipc_lo", Json::Num(rep.ipc.ci_lo())),
                ("ipc_hi", Json::Num(rep.ipc.ci_hi())),
                ("units", Json::Num(rep.units() as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(plan.kind.name())),
        ("seed", Json::Num(plan.seed as f64)),
        ("threads", Json::Num(plan.threads as f64)),
        ("reported_insts", Json::Num(r.reported_insts(plan) as f64)),
        ("committed", Json::Num(totals.committed as f64)),
        ("cycles", Json::Num(totals.cycles as f64)),
        (
            "cond_correct",
            Json::Num(totals.cond_branches.correct() as f64),
        ),
        ("cond_total", Json::Num(totals.cond_branches.total() as f64)),
        ("cells", cells_json(&cells)),
        (
            "implausible",
            Json::Arr(
                implausible(plan, &r)
                    .into_iter()
                    .map(|i| Json::Num(i as f64))
                    .collect(),
            ),
        ),
        (
            "tables",
            Json::Arr(fig6_tables(plan, &r).into_iter().map(Json::Str).collect()),
        ),
        ("estimates", Json::Arr(estimates)),
    ])
}

fn trace(plan: &Plan, spans_out: &str, stamp: &str) -> Json {
    let t = traced_run(plan);
    let c = &t.counts;
    let counts_match = c
        .machine
        .iter()
        .all(|m| m.committed == c.insts && m.cond_branches.total() == c.cond_branches);
    if let Err(e) = std::fs::write(spans_out, t.spans.to_jsonl(stamp)) {
        fail(&format!("cannot write {spans_out}: {e}"));
    }
    Json::obj([
        ("workload", Json::str(plan.kind.name())),
        ("spans", Json::Num(t.spans.all().len() as f64)),
        (
            "drive_s",
            Json::Arr(t.drive_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("digests_match", Json::Bool(t.digests_on == t.digests_off)),
        ("layer_counts_match", Json::Bool(counts_match)),
        ("cells", cells_json(&t.digests_on)),
        (
            "metrics",
            Json::Obj(
                t.metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn truth(seed: u64, threads: usize) -> Json {
    let plan = Plan::new(Kind::SampledLong, seed, threads);
    let spec = Spec {
        warmup: plan.warmup,
        measure: plan.trace_len - plan.warmup,
        seed,
    };
    let rows = par_map(&plan.streams, threads, |w| {
        let trace = Arc::new(record_trace(w, spec));
        let r = run_one_traced(&trace, Depth::D20, PredictorConfig::ArviCurrent, spec);
        Json::obj([
            ("stream", Json::str(w.name())),
            ("ipc", Json::Num(r.window.ipc())),
            ("digest", hex(digest(&r.window))),
        ])
    });
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("streams", Json::Arr(rows)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&args, "--seed")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail("--seed takes a whole number"))
        })
        .unwrap_or(perfbench::work::DEFAULT_SEED);
    let threads: usize = flag(&args, "--threads")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail("--threads takes a whole number"))
        })
        .unwrap_or(1)
        .max(1);
    let plan = || {
        let name = flag(&args, "--workload").unwrap_or_else(|| fail("--workload is required"));
        let kind = Kind::parse(name).unwrap_or_else(|| fail(&format!("unknown workload {name}")));
        Plan::new(kind, seed, threads)
    };
    let out = match args.first().map(String::as_str) {
        Some("run") => run(&plan()),
        Some("trace") => trace(
            &plan(),
            flag(&args, "--spans-out").unwrap_or_else(|| fail("--spans-out is required")),
            flag(&args, "--stamp").unwrap_or("{}"),
        ),
        Some("truth") => truth(seed, threads),
        _ => fail("usage: perfbench run|trace|truth --workload W --seed N --threads T"),
    };
    println!("{}", out.render_compact());
}
