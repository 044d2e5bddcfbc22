//! The metric contract: names, units, directions and bounds come from
//! `BENCHMARK.json` at the repository root, which is compiled in, so the
//! program cannot print a metric the contract does not name or omit one
//! it does.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use bow_util::json::Json;

/// The contract file, as committed beside the `benchmark/` directory.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// What an end-to-end metric reads on a workload that does not measure
/// it, and the floor under `fail_share`. The driver's contract forbids
/// an end-to-end metric that reads 0 (its bound is a share of the
/// metric's median), so "none" is reported as this instead. Every value
/// the benchmark really measures is many orders of magnitude above it.
pub const NOT_MEASURED: f64 = 1e-9;

/// One metric of the contract.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median it may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

/// One workload of the contract.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: String,
    /// Why it is in the benchmark.
    pub why: String,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads, in file order.
    pub workloads: Vec<WorkloadDef>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.req_arr(key)
        .expect("BENCHMARK.json metric list")
        .iter()
        .map(|m| MetricDef {
            name: m.req_str("name").expect("metric name").to_string(),
            unit: m.req_str("unit").expect("metric unit").to_string(),
            higher_is_better: match m.req_str("better").expect("metric direction") {
                "higher" => true,
                "lower" => false,
                other => panic!("BENCHMARK.json: `better` is `{other}`"),
            },
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The contract compiled into this binary.
///
/// # Panics
///
/// Panics when `BENCHMARK.json` is not the document the builder's
/// contract describes; the crate's tests parse it, so a release build
/// never sees that.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = bow_util::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc.req_u64("run_seconds").expect("run_seconds"),
            workloads: doc
                .req_arr("workloads")
                .expect("workloads")
                .iter()
                .map(|w| WorkloadDef {
                    name: w.req_str("name").expect("workload name").to_string(),
                    why: w.req_str("why").expect("workload why").to_string(),
                })
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
        }
    })
}

impl Spec {
    /// The metric list one `--trace` setting prints.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Per-layer counts that a change to speed or structure must leave
/// identical, and the simulated end-to-end figures. `--check` fails on
/// any difference in them, however small.
pub const EXACT: &[&str] = &[
    "bowwr_ipc_gain_pct",
    "bow_ipc_gain_pct",
    "rf_energy_saving_pct",
    "read_bypass_pct",
    "sim.cycles",
    "sim.warp_insts",
    "sim.thread_insts",
    "sim.stall_no_collector",
    "sim.stall_scoreboard",
    "sim.rf_reads",
    "sim.rf_writes",
    "sim.rf_read_conflicts",
    "sim.bypassed_reads",
    "sim.bypassed_writes",
    "sim.boc_writes",
    "sim.forced_evictions",
    "sim.oc_cycles_mem",
    "sim.oc_cycles_nonmem",
    "sim.retired_completions",
    "sim.fingerprint_lo32",
    "sim.parallel_fingerprint_match",
    "mem.loads",
    "mem.stores",
    "mem.transactions",
    "mem.l1_hit_pct",
    "mem.l2_hit_pct",
    "mem.dram_accesses",
    "mem.avg_latency_cyc",
    "bow.corpus_retained_pct",
    "server.store_hit_pct",
    "server.sim_runs",
    "server.http_non2xx",
];

/// The values one run measured, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// in contract order, with what was measured or the stand-in for
    /// "this workload does not run that".
    ///
    /// # Panics
    ///
    /// Panics on a recorded name the contract does not list.
    pub fn to_contract_json(&self, defs: &[MetricDef], unmeasured: f64) -> Json {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "metric `{name}` is not in BENCHMARK.json"
            );
        }
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.get(&d.name).unwrap_or(unmeasured);
                    (
                        d.name.clone(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::from(d.unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn contract_file_is_within_the_builders_limits() {
        let doc = bow_util::parse_json(BENCHMARK_JSON).expect("parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let s = spec();
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &s.workloads {
            assert!(valid_name(&w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.as_str()), "{} used twice", w.name);
        }
        let unit_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.as_str()), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &s.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        for m in &s.per_layer {
            assert!(m.bound.is_none(), "{} has a bound", m.name);
        }
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn the_issue_s_names_are_all_there() {
        let s = spec();
        let workloads: Vec<&str> = s.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            workloads,
            [
                "fig_pascal",
                "fig_modern",
                "chip_serial",
                "chip_threaded",
                "corpus_gen",
                "corpus_sweep",
                "server_mix"
            ]
        );
        let e2e: Vec<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "wall_s",
                "ops_per_s",
                "sim_kwips",
                "peak_rss_mb",
                "fail_share",
                "bowwr_ipc_gain_pct",
                "bow_ipc_gain_pct",
                "rf_energy_saving_pct",
                "read_bypass_pct"
            ]
        );
        for name in EXACT {
            assert!(
                s.end_to_end
                    .iter()
                    .chain(&s.per_layer)
                    .any(|m| m.name == *name),
                "exact metric {name} is not in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn contract_json_fills_unmeasured_metrics_and_rejects_unknown_ones() {
        let defs = &spec().end_to_end;
        let mut v = Values::default();
        v.set("wall_s", 1.5);
        let out = v.to_contract_json(defs, NOT_MEASURED);
        let keys: Vec<&str> = out
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(keys, names);
        assert_eq!(
            out.get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            out.get("sim_kwips")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(NOT_MEASURED)
        );
        let mut bad = Values::default();
        bad.set("no_such_metric", 1.0);
        let caught = std::panic::catch_unwind(|| bad.to_contract_json(defs, NOT_MEASURED));
        assert!(caught.is_err());
    }
}
