//! Metamorphic tier for memo and store keys (ROADMAP item 4a).
//!
//! Two relations that must hold whatever the simulator computes:
//!
//! * **Mixed = union.** For every pair of values on a semantic axis, a
//!   sweep that mixes the two columns equals the two single-value sweeps
//!   record for record. The sweep engine shares prepared kernels between
//!   columns through a memo keyed by the compile plan; a key that forgets
//!   an axis serves one column the other's kernel, and this is the
//!   property that notices (its absence hid the PR 10 `core_model` bug).
//! * **Execution-only knobs are invisible.** Changing the `label` leaves
//!   the compile plan, the request fingerprint and the record unchanged.

use bow::api::{KernelSpec, RunRequest};
use bow::experiment::{CompilePlan, Config, ConfigBuilder, RunRecord};
use bow::prelude::{CoreModelKind, DivergenceModel, Scale};
use bow::suite::Suite;
use bow::workloads::{by_name, Benchmark};

/// A straight-line kernel, a divergent one and a loop-heavy one: enough
/// for every compile pass to have something to change.
fn benches() -> Vec<Box<dyn Benchmark>> {
    ["vectoradd", "bfs", "btree"]
        .iter()
        .map(|n| by_name(n, Scale::Test).expect("suite benchmark"))
        .collect()
}

fn sweep(configs: &[Config]) -> Vec<Vec<String>> {
    let result = Suite::over(benches())
        .configs(configs.iter().cloned())
        .jobs(2)
        .progress(false)
        .run();
    result.assert_checked();
    let render = |r: &RunRecord| r.to_json().to_string_compact();
    result
        .rows
        .iter()
        .map(|row| row.records.iter().map(render).collect())
        .collect()
}

/// Every ordered pair of distinct `columns` (the memo is filled in column
/// order, so which value preps first matters): the mixed sweep's rows are
/// the single-column sweeps' rows.
fn assert_mixed_equals_union(axis: &str, columns: &[Config]) {
    let alone: Vec<Vec<String>> = columns
        .iter()
        .map(|c| sweep(std::slice::from_ref(c)).remove(0))
        .collect();
    for (i, a) in columns.iter().enumerate() {
        for (j, b) in columns.iter().enumerate().filter(|(j, _)| *j != i) {
            let mixed = sweep(&[a.clone(), b.clone()]);
            let pair = format!("{axis}: [{}, {}]", a.label, b.label);
            assert_eq!(mixed[0], alone[i], "{pair}: first column");
            assert_eq!(mixed[1], alone[j], "{pair}: second column");
        }
    }
}

#[test]
fn mixed_sweeps_equal_the_union_of_single_value_sweeps() {
    // BOW-WR, so the hint pass (and with it `verify`) is in play.
    let base = || ConfigBuilder::bow_wr(3);
    let cores: Vec<Config> = CoreModelKind::ALL
        .iter()
        .map(|&c| base().core_model(c).build())
        .collect();
    assert_mixed_equals_union("core_model", &cores);
    let divergences: Vec<Config> = DivergenceModel::ALL
        .iter()
        .map(|&d| base().divergence(d).build())
        .collect();
    assert_mixed_equals_union("divergence", &divergences);
    // `verify` is not in the label; tell the columns apart explicitly.
    let verifies: Vec<Config> = [false, true]
        .iter()
        .map(|&v| base().verify(v).label(format!("verify={v}")).build())
        .collect();
    assert_mixed_equals_union("verify", &verifies);
    // The plan tells every pair apart, which is why the memo does.
    for columns in [&cores, &divergences, &verifies] {
        assert_ne!(CompilePlan::of(&columns[0]), CompilePlan::of(&columns[1]));
    }
}

#[test]
fn execution_only_knobs_leave_plan_fingerprint_and_record_unchanged() {
    let request = |config: Config| RunRequest {
        kernel: KernelSpec::Workload {
            name: "bfs".to_string(),
            scale: Scale::Test,
        },
        config,
    };
    for core in CoreModelKind::ALL {
        let base = || {
            ConfigBuilder::bow_wr(3)
                .core_model(core)
                .divergence(DivergenceModel::Barrier)
        };
        let plain = request(base().build());
        let want = plain.execute().expect("bfs verifies");
        {
            let flipped = base().label("mine").build();
            let label = flipped.label.clone();
            assert_eq!(
                CompilePlan::of(&flipped),
                CompilePlan::of(&plain.config),
                "{label}: plan"
            );
            let flipped = request(flipped);
            assert_eq!(flipped.fingerprint(), plain.fingerprint(), "{label}");
            // The record names its config; everything measured is equal.
            let mut got = flipped.execute().expect("bfs verifies");
            assert_eq!(got.label, label);
            got.label = want.label.clone();
            assert_eq!(
                got.to_json().to_string_compact(),
                want.to_json().to_string_compact(),
                "{label}: record"
            );
        }
    }
}
