//! Fig. 13: register-file dynamic energy of BOW (a) and BOW-WR (b),
//! normalized to the baseline, with the added-structure overhead stacked
//! on top.
//!
//! ```sh
//! BOW_SCALE=paper cargo run --release -p bow-bench --bin fig13_energy -- --jobs $(nproc)
//! BOW_SCALE=chip  cargo run --release -p bow-bench --bin fig13_energy -- --jobs $(nproc)
//! ```

use bow::prelude::*;
use bow_bench::{export_sweep, sweep, BenchTier};

fn main() {
    let tier = BenchTier::from_env();
    let model = EnergyModel::table_iv();
    let result = sweep(
        [
            tier.configure(ConfigBuilder::baseline()),
            tier.configure(ConfigBuilder::bow(3)),
            tier.configure(ConfigBuilder::bow_wr(3)),
        ],
        tier.scale,
    );
    export_sweep(&format!("fig13_energy{}", tier.suffix()), &result);
    let base = result.row(0).records();

    for (title, label) in [("(a) BOW", "bow iw3"), ("(b) BOW-WR", "bow-wr iw3")] {
        let recs = result.records(label).expect("swept row");
        let mut rows = Vec::new();
        let mut dyn_sum = 0.0;
        let mut ovh_sum = 0.0;
        for (b, r) in base.iter().zip(recs) {
            let rep = EnergyReport::normalized(
                &model,
                &r.outcome.result.stats.access_counts(),
                &b.outcome.result.stats.access_counts(),
            );
            dyn_sum += rep.rf_dynamic_norm;
            ovh_sum += rep.overhead_norm;
            rows.push(vec![
                b.benchmark.clone(),
                format!("{:.2}", rep.rf_dynamic_norm),
                format!("{:.3}", rep.overhead_norm),
                format!("{:.2}", rep.total_norm()),
                bow::experiment::pct(rep.savings()),
            ]);
        }
        let n = base.len() as f64;
        rows.push(vec![
            "average".into(),
            format!("{:.2}", dyn_sum / n),
            format!("{:.3}", ovh_sum / n),
            format!("{:.2}", (dyn_sum + ovh_sum) / n),
            bow::experiment::pct(1.0 - (dyn_sum + ovh_sum) / n),
        ]);

        println!("Fig. 13 {title} — normalized RF dynamic energy (baseline = 1.00)\n");
        println!(
            "{}",
            bow::experiment::render_table(
                &["benchmark", "dynamic", "overhead", "total", "saving"],
                &rows
            )
        );
    }
    println!("paper averages at IW3: BOW saves 36% (3% overhead), BOW-WR saves 55%");
    println!("(1.8% overhead) — write bypassing roughly doubles the saving because");
    println!("eliminated writes also skip the added-structure energy.");
}
