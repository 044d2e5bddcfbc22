//! Schema-v1 golden snapshot + round-trip proof.
//!
//! The v1 JSON layout of [`RunRecord`] and [`SweepResult`] is a
//! versioned contract: `bow-server` stores these documents under
//! content-addressed keys, `bow-cli submit` and the figure pipeline
//! consume them, and `from_json` must reconstruct them losslessly. This
//! test pins the exact rendered bytes against a checked-in snapshot
//! (`tests/golden/schema_v1.json`) and proves the round trip
//! `to_json -> from_json -> to_json` is byte-identical for both types.
//!
//! Any intentional layout change must bump
//! [`SCHEMA_VERSION`](bow::experiment::SCHEMA_VERSION) and re-bless:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test golden_schema
//! ```
//!
//! Wall-clock durations are the only nondeterministic fields, so the
//! snapshot zeroes them; everything else is pinned bit-for-bit by the
//! deterministic engine.

mod common;

use bow::experiment::{run, ConfigBuilder, RunRecord, SCHEMA_VERSION};
use bow::suite::{Suite, SweepResult};
use bow::util::json::Json;
use bow_workloads::{by_name, Scale};
use std::time::Duration;

/// A record exercising every optional section: BOW-WR so the compiler
/// report (hints + transient registers) is present, plus an analyzer
/// window so the `windows` section renders.
fn sample_record() -> RunRecord {
    let bench = by_name("vectoradd", Scale::Test).expect("suite benchmark");
    run(
        bench.as_ref(),
        ConfigBuilder::bow_wr(3).analyzer(&[3]).build(),
    )
}

/// A 2-benchmark x 2-config sweep with walls zeroed for determinism.
fn sample_sweep() -> SweepResult {
    let mut sweep = Suite::over(
        ["vectoradd", "lps"]
            .iter()
            .map(|n| by_name(n, Scale::Test).expect("suite benchmark"))
            .collect(),
    )
    .configs([
        ConfigBuilder::baseline().build(),
        ConfigBuilder::bow_wr(3).build(),
    ])
    .jobs(1)
    .progress(false)
    .run();
    sweep.wall = Duration::ZERO;
    for row in &mut sweep.rows {
        for wall in &mut row.wall {
            *wall = Duration::ZERO;
        }
    }
    sweep
}

fn render(record: &RunRecord, sweep: &SweepResult) -> String {
    let mut text =
        Json::obj([("run", record.to_json()), ("sweep", sweep.to_json())]).to_string_pretty();
    text.push('\n');
    text
}

#[test]
fn schema_v1_matches_the_golden_snapshot() {
    let record = sample_record();
    let sweep = sample_sweep();
    // An intentional layout change bumps SCHEMA_VERSION before re-blessing.
    common::check_golden("schema_v1.json", &render(&record, &sweep));
}

#[test]
fn run_record_round_trips_byte_identically() {
    let record = sample_record();
    let doc = record.to_json();
    let decoded = RunRecord::from_json(&doc).expect("decode own output");
    assert_eq!(
        doc.to_string_pretty(),
        decoded.to_json().to_string_pretty(),
        "RunRecord from_json(to_json(r)) must re-serialize identically"
    );
    // And through an actual text parse, as the server store does.
    let reparsed = bow::util::json::parse(&doc.to_string_pretty()).expect("parse own output");
    let decoded = RunRecord::from_json(&reparsed).expect("decode reparsed doc");
    assert_eq!(doc.to_string_pretty(), decoded.to_json().to_string_pretty());
}

#[test]
fn sweep_result_round_trips_byte_identically() {
    let sweep = sample_sweep();
    let doc = sweep.to_json();
    let decoded = SweepResult::from_json(&doc).expect("decode own output");
    assert_eq!(
        doc.to_string_pretty(),
        decoded.to_json().to_string_pretty(),
        "SweepResult from_json(to_json(s)) must re-serialize identically"
    );
    assert_eq!(decoded.jobs, sweep.jobs);
    assert_eq!(decoded.rows.len(), 2);
    assert_eq!(decoded.rows[1].records[0].label, "bow-wr iw3");
}

#[test]
fn decoders_reject_foreign_schema_versions() {
    let record = sample_record();
    let mut doc = record.to_json();
    if let Json::Obj(fields) = &mut doc {
        fields[0].1 = Json::from(SCHEMA_VERSION + 1);
    }
    let e = RunRecord::from_json(&doc).expect_err("future version must not decode");
    assert!(e.to_string().contains("schema_version"), "{e}");

    let mut doc = sample_sweep().to_json();
    if let Json::Obj(fields) = &mut doc {
        fields[0].1 = Json::from(SCHEMA_VERSION + 1);
    }
    assert!(SweepResult::from_json(&doc).is_err());
}

#[test]
fn decoders_are_strict_about_missing_fields() {
    let record = sample_record();
    let mut doc = record.to_json();
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "stats");
    }
    let e = RunRecord::from_json(&doc).expect_err("missing stats must not decode");
    assert!(e.to_string().contains("stats"), "{e}");
}
