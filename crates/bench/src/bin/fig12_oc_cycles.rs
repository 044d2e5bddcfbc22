//! Fig. 12: cycles spent in the operand-collection stage under BOW for
//! windows 2, 3 and 4, normalized to the baseline.
//!
//! ```sh
//! BOW_SCALE=paper cargo run --release -p bow-bench --bin fig12_oc_cycles -- --jobs $(nproc)
//! BOW_SCALE=chip  cargo run --release -p bow-bench --bin fig12_oc_cycles -- --jobs $(nproc)
//! ```

use bow::prelude::*;
use bow_bench::{export_sweep, sweep, BenchTier};

fn main() {
    let tier = BenchTier::from_env();
    let windows = [2u32, 3, 4];
    let mut configs = vec![tier.configure(ConfigBuilder::baseline())];
    configs.extend(
        windows
            .iter()
            .map(|&w| tier.configure(ConfigBuilder::bow(w))),
    );
    let result = sweep(configs, tier.scale);
    export_sweep(&format!("fig12_oc_cycles{}", tier.suffix()), &result);
    let base = result.row(0).records();
    let runs: Vec<&[RunRecord]> = (1..result.rows.len())
        .map(|i| result.row(i).records())
        .collect();

    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; runs.len()];
    for (i, b) in base.iter().enumerate() {
        let b_oc = b.outcome.result.stats.oc_cycles().max(1) as f64;
        let mut row = vec![b.benchmark.clone()];
        for (wi, recs) in runs.iter().enumerate() {
            let frac = recs[i].outcome.result.stats.oc_cycles() as f64 / b_oc;
            sums[wi] += frac;
            row.push(format!("{frac:.2}"));
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for s in &sums {
        avg.push(format!("{:.2}", s / base.len() as f64));
    }
    rows.push(avg);

    println!("Fig. 12 — OC-stage cycles normalized to baseline (1.00 = baseline)\n");
    println!(
        "{}",
        bow::experiment::render_table(&["benchmark", "IW2", "IW3", "IW4"], &rows)
    );
    println!("paper: ~60% reduction at IW3, with little further gain at IW4 — the");
    println!("window quickly captures most of the reuse the OC stage waits on.");
}
