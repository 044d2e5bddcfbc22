//! Fig. 10: IPC improvement of BOW (a) and BOW-WR (b) over the baseline
//! for instruction windows 2, 3 and 4 — all seven configurations swept as
//! one parallel matrix.
//!
//! ```sh
//! BOW_SCALE=paper cargo run --release -p bow-bench --bin fig10_ipc -- --jobs $(nproc)
//! BOW_SCALE=chip  cargo run --release -p bow-bench --bin fig10_ipc -- --jobs $(nproc)
//! ```

use bow::prelude::*;
use bow_bench::{export_sweep, geomean_speedup, sweep, BenchTier};

fn main() {
    let tier = BenchTier::from_env();
    let windows = [2u32, 3, 4];
    let mut configs = vec![tier.configure(ConfigBuilder::baseline())];
    configs.extend(
        windows
            .iter()
            .map(|&w| tier.configure(ConfigBuilder::bow(w))),
    );
    configs.extend(
        windows
            .iter()
            .map(|&w| tier.configure(ConfigBuilder::bow_wr(w))),
    );
    let result = sweep(configs, tier.scale);
    export_sweep(&format!("fig10_ipc{}", tier.suffix()), &result);
    let base = result.records("baseline").expect("baseline row");

    for (title, prefix) in [("(a) BOW", "bow"), ("(b) BOW-WR", "bow-wr")] {
        let runs: Vec<&[RunRecord]> = windows
            .iter()
            .map(|w| {
                result
                    .records(&format!("{prefix} iw{w}"))
                    .expect("swept row")
            })
            .collect();

        let mut rows = Vec::new();
        for (i, b) in base.iter().enumerate() {
            let mut row = vec![b.benchmark.clone()];
            for recs in &runs {
                let speedup = b.outcome.result.cycles as f64 / recs[i].outcome.result.cycles as f64;
                row.push(format!("{:+.1}%", 100.0 * (speedup - 1.0)));
            }
            rows.push(row);
        }
        let mut avg = vec!["geomean".to_string()];
        for recs in &runs {
            avg.push(format!(
                "{:+.1}%",
                100.0 * (geomean_speedup(base, recs) - 1.0)
            ));
        }
        rows.push(avg);

        println!("Fig. 10 {title} — IPC improvement over baseline\n");
        println!(
            "{}",
            bow::experiment::render_table(&["benchmark", "IW2", "IW3", "IW4"], &rows)
        );
    }
    println!("paper averages at IW3: BOW +11%, BOW-WR +13%; diminishing returns past IW3.");
}
