//! Regenerates scaled-down versions of every figure under `cargo bench`,
//! so the standard command exercises the full experiment flow. For the
//! full-window artifacts use the `experiments` binary.

use arvi_bench::{fig5_tables, paper_tables, Fig6Data, Run};
use arvi_sim::{Depth, PredictorConfig};

fn main() {
    // `cargo bench` passes its own flags; the figures take only these.
    let mut run = Run::from_args(&["--quick".to_string()], &[]).expect("valid flags");
    run.progress = false;
    let spec = run.spec;
    println!(
        "== regenerating paper artifacts (quick windows: {}k warm + {}k measured) ==\n",
        spec.warmup / 1000,
        spec.measure / 1000
    );

    for (title, table) in paper_tables() {
        println!("-- {title} --\n{}", table.to_text());
    }

    let sweep = run.sweep(&Depth::all(), &PredictorConfig::all());
    let (fig5a, fig5b, _) = fig5_tables(&run, &sweep).expect("every cell completes");
    println!(
        "-- Figure 5(a): load-branch fraction --\n{}",
        fig5a.to_text()
    );
    println!(
        "-- Figure 5(b): calculated vs load accuracy --\n{}",
        fig5b.to_text()
    );

    for depth in Depth::all() {
        let (data, _) = Fig6Data::collect(&run, &sweep, depth).expect("every cell completes");
        println!(
            "-- Figure 6 accuracy, {depth} --\n{}",
            data.accuracy_table().to_text()
        );
        println!(
            "-- Figure 6 normalized IPC, {depth} --\n{}",
            data.normalized_ipc_table().to_text()
        );
        println!(
            "mean normalized IPC: current {:.3}, load-back {:.3}, perfect {:.3}\n",
            data.mean_normalized_ipc(PredictorConfig::ArviCurrent),
            data.mean_normalized_ipc(PredictorConfig::ArviLoadBack),
            data.mean_normalized_ipc(PredictorConfig::ArviPerfect),
        );
    }
    println!("figures bench complete (quick windows; see `experiments` for full runs)");
}
