//! The versioned (v1) request surface of the simulation service.
//!
//! `bow-server` accepts JSON documents describing a run (one kernel under
//! one configuration) or a sweep (benchmarks × configurations). This
//! module owns the contract: parsing those documents into typed requests
//! with [`BowError`]s for everything malformed, *canonicalizing* a
//! request into a stable JSON form, and deriving the content-addressed
//! **fingerprint** — `sha256(canonical request)` — that keys the result
//! store.
//!
//! Canonicalization rules:
//!
//! * the canonical form is built from the *resolved* configuration (the
//!   full [`GpuConfig`]), not the request text, so `{"collector":"bow"}`
//!   and a request spelling out every default hash identically;
//! * knobs that provably do not affect results (the label, tracing, the
//!   checkers) are excluded, so a cache entry serves every presentation
//!   of the same run;
//! * inline kernels are canonicalized through their binary encoding
//!   ([`bow_isa::encode_kernel`]), so formatting/comment differences in
//!   the assembly text do not defeat the cache;
//! * `schema_version` is hashed in, so a schema bump invalidates every
//!   old key instead of serving stale-layout documents;
//! * [`MODEL_REVISION`] is hashed in, so a deliberate change of simulated
//!   results invalidates every old key instead of serving old-model
//!   results.

use crate::error::BowError;
use crate::experiment::{
    benchmark, run, Collector, CompilePlan, Config, ConfigBuilder, GpuModel, RunRecord,
    MODEL_REVISION, SCHEMA_VERSION,
};
use crate::suite::{Suite, SweepResult};
use crate::verdict::Verdict;
use bow_mem::{CacheConfig, MemConfig};
use bow_sim::{
    CollectorKind, CoreModelKind, DivergenceModel, Gpu, GpuConfig, OracleCheck, SchedPolicy,
};
use bow_util::json::Json;
use bow_workloads::{suite as paper_suite, RunOutcome, Scale};

/// The kernel a run request targets.
#[derive(Clone, Debug)]
pub enum KernelSpec {
    /// A named Table III workload (name + inputs + host reference).
    Workload {
        /// Benchmark name (e.g. `"vectoradd"`).
        name: String,
        /// Problem scale.
        scale: Scale,
    },
    /// An inline kernel, submitted as assembly text. No host reference
    /// exists, so the launch runs under the memory oracle
    /// ([`OracleCheck::Memory`]) for verification instead.
    Inline {
        /// The parsed kernel.
        kernel: bow_isa::Kernel,
        /// Launch dimensions: (blocks, threads-per-block).
        dims: (u32, u32),
    },
}

/// A parsed, validated `POST /v1/runs` request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// What to run.
    pub kernel: KernelSpec,
    /// The resolved configuration to run it under.
    pub config: Config,
}

/// A parsed, validated `POST /v1/sweeps` request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Benchmark names, in request order.
    pub benchmarks: Vec<String>,
    /// Problem scale for every benchmark.
    pub scale: Scale,
    /// Configuration columns, in request order.
    pub configs: Vec<Config>,
    /// Sweep-pool worker count (0 = all cores).
    pub jobs: usize,
}

/// A document's `scale`, [`Scale::Test`] when absent.
fn parse_scale(v: &Json) -> Result<Scale, BowError> {
    v.get("scale")
        .map_or(Ok(Scale::Test), |s| Ok(Scale::parse(text("scale", s)?)?))
}

/// What one `config` key does to the builder, given its key and value.
type ApplyKey = fn(ConfigBuilder, &'static str, &Json) -> Result<ConfigBuilder, BowError>;

/// Every key a `config` document may carry, in the order they apply, with
/// what each one sets. An absent key leaves [`ConfigBuilder`]'s default.
const CONFIG_KEYS: [(&str, ApplyKey); 13] = [
    // First, because it picks the design the builder starts from.
    ("collector", |_, k, v| {
        let (collector, half_size) = Collector::parse_spec(text(k, v)?)?;
        Ok(ConfigBuilder::new(collector).half_size(half_size))
    }),
    ("window", |b, k, v| Ok(b.window(small(k, v)?))),
    ("half_size", |b, k, v| Ok(b.half_size(switch(k, v)?))),
    ("capacity", |b, k, v| Ok(b.capacity(small(k, v)?))),
    ("rfc_entries", |b, k, v| Ok(b.rfc_entries(small(k, v)?))),
    ("hints", |b, k, v| Ok(b.hints(switch(k, v)?))),
    ("reorder", |b, k, v| Ok(b.reorder(switch(k, v)?))),
    (
        "model",
        |b, k, v| Ok(b.model(GpuModel::parse(text(k, v)?)?)),
    ),
    ("core_model", |b, k, v| {
        Ok(b.core_model(CoreModelKind::parse(text(k, v)?)?))
    }),
    ("divergence", |b, k, v| {
        Ok(b.divergence(DivergenceModel::parse(text(k, v)?)?))
    }),
    ("analyzer", |b, _, v| {
        let windows = v
            .as_arr()
            .ok_or_else(|| BowError::parse("`analyzer` must be an array of window sizes"))?
            .iter()
            .map(|w| {
                w.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| BowError::parse("`analyzer` entries must be small integers"))
            })
            .collect::<Result<Vec<u32>, _>>()?;
        Ok(b.analyzer(&windows))
    }),
    // Inert, type-checked then dropped: the fixed `benchmark/` sends it.
    ("sim_threads", |b, k, v| small(k, v).map(|_| b)),
    ("label", |b, k, v| Ok(b.label(text(k, v)?))),
];

fn text<'v>(key: &str, v: &'v Json) -> Result<&'v str, BowError> {
    v.as_str()
        .ok_or_else(|| BowError::parse(format!("`{key}` must be a string")))
}

fn small(key: &str, v: &Json) -> Result<u32, BowError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| BowError::parse(format!("`{key}` must be a small integer")))
}

fn switch(key: &str, v: &Json) -> Result<bool, BowError> {
    v.as_bool()
        .ok_or_else(|| BowError::parse(format!("`{key}` must be a bool")))
}

/// Builds a [`Config`] from a `ConfigBuilder`-shaped JSON document, the
/// one parser of a design: the server's, and the CLI's for the document
/// its flags make.
///
/// Every key of `CONFIG_KEYS` is optional; unknown keys are rejected so
/// client typos surface as 4xx errors instead of silently running the
/// wrong experiment.
///
/// # Errors
///
/// Returns a [`BowError`] for unknown keys/names, mistyped values or
/// out-of-range knobs.
pub fn config_from_json(v: &Json) -> Result<Config, BowError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| BowError::parse("`config` must be an object"))?;
    let known = |key: &str| CONFIG_KEYS.iter().any(|(k, _)| *k == key);
    if let Some((key, _)) = obj.iter().find(|(key, _)| !known(key)) {
        let known = CONFIG_KEYS.map(|(k, _)| k).join(", ");
        let message = format!("unknown config field `{key}` (known: {known})");
        return Err(BowError::parse(message));
    }
    let mut builder = ConfigBuilder::baseline();
    for (key, apply) in CONFIG_KEYS {
        if let Some(value) = v.get(key) {
            builder = apply(builder, key, value)?;
        }
    }
    Ok(builder.try_build()?)
}

/// The canonical JSON form of a resolved configuration: every semantic
/// knob of the [`GpuConfig`] spelled out, presentational and checker
/// knobs (`label`, tracing, oracle mode) excluded. This is what gets
/// hashed into the fingerprint.
///
/// `Config`, `GpuConfig` and `MemConfig` are destructured without `..`, so
/// a new field does not compile until it is either emitted here (semantic)
/// or bound to `_` with the reason it cannot change a result
/// (execution-only).
pub fn canonical_config_json(config: &Config) -> Json {
    let Config {
        // Presentational: names the run, never steers it.
        label: _,
        gpu,
        hints,
        reorder,
        verify,
    } = config;
    let GpuConfig {
        num_sms,
        cores_per_sm,
        max_blocks_per_sm,
        max_warps_per_sm,
        rf_bytes_per_sm,
        rf_banks,
        schedulers_per_sm,
        issue_per_scheduler,
        collector,
        core_model,
        divergence,
        num_ocus,
        rf_read_latency,
        xbar_width,
        alu_latency,
        mul_latency,
        sfu_latency,
        smem_latency,
        alu_width,
        mul_width,
        sfu_width,
        mem_width,
        mem,
        sched,
        analyze_windows,
        max_cycles,
        // Observer: records pipeline events, the pipeline runs the same.
        trace_pipeline: _,
        // Checker: re-runs the launch on the oracle and compares; the
        // pipeline's own results are untouched.
        oracle_check: _,
        // Checker: a probe on the event stream; cycles, stats and
        // fingerprints are pinned identical with it on or off.
        sanitize: _,
        // Inert: nothing reads it (kept for the fixed `benchmark/`).
        sim_threads: _,
    } = gpu;
    let MemConfig {
        l1,
        l2,
        l1_latency,
        l2_latency,
        dram_latency,
        tx_serialization,
        mshr_entries,
    } = mem;
    let collector = match *collector {
        CollectorKind::Baseline => Json::obj([("kind", Json::from("baseline"))]),
        CollectorKind::Bow { window, half_size } => Json::obj([
            ("kind", Json::from("bow")),
            ("window", Json::from(window)),
            ("half_size", Json::from(half_size)),
        ]),
        CollectorKind::BowWr { window, half_size } => Json::obj([
            ("kind", Json::from("bow-wr")),
            ("window", Json::from(window)),
            ("half_size", Json::from(half_size)),
        ]),
        CollectorKind::BowFlex { capacity } => Json::obj([
            ("kind", Json::from("bow-flex")),
            ("capacity", Json::from(capacity)),
        ]),
        CollectorKind::Rfc { entries } => Json::obj([
            ("kind", Json::from("rfc")),
            ("entries", Json::from(entries)),
        ]),
    };
    let cache = |c: &CacheConfig| {
        let CacheConfig {
            size_bytes,
            line_bytes,
            ways,
        } = *c;
        Json::obj([
            ("size_bytes", Json::from(size_bytes)),
            ("line_bytes", Json::from(line_bytes)),
            ("ways", Json::from(ways)),
        ])
    };
    Json::obj([
        ("collector", collector),
        ("core_model", Json::from(core_model.name())),
        ("divergence", Json::from(divergence.name())),
        ("num_sms", Json::from(*num_sms)),
        ("cores_per_sm", Json::from(*cores_per_sm)),
        ("max_blocks_per_sm", Json::from(*max_blocks_per_sm)),
        ("max_warps_per_sm", Json::from(*max_warps_per_sm)),
        ("rf_bytes_per_sm", Json::from(*rf_bytes_per_sm)),
        ("rf_banks", Json::from(*rf_banks)),
        ("schedulers_per_sm", Json::from(*schedulers_per_sm)),
        ("issue_per_scheduler", Json::from(*issue_per_scheduler)),
        ("num_ocus", Json::from(*num_ocus)),
        ("rf_read_latency", Json::from(*rf_read_latency)),
        ("xbar_width", Json::from(*xbar_width)),
        ("alu_latency", Json::from(*alu_latency)),
        ("mul_latency", Json::from(*mul_latency)),
        ("sfu_latency", Json::from(*sfu_latency)),
        ("smem_latency", Json::from(*smem_latency)),
        ("alu_width", Json::from(*alu_width)),
        ("mul_width", Json::from(*mul_width)),
        ("sfu_width", Json::from(*sfu_width)),
        ("mem_width", Json::from(*mem_width)),
        (
            "mem",
            Json::obj([
                ("l1", cache(l1)),
                ("l2", cache(l2)),
                ("l1_latency", Json::from(*l1_latency)),
                ("l2_latency", Json::from(*l2_latency)),
                ("dram_latency", Json::from(*dram_latency)),
                ("tx_serialization", Json::from(*tx_serialization)),
                ("mshr_entries", Json::from(*mshr_entries)),
            ]),
        ),
        (
            "sched",
            Json::from(match sched {
                SchedPolicy::Gto => "gto",
                SchedPolicy::Lrr => "lrr",
            }),
        ),
        (
            "analyze_windows",
            Json::Arr(analyze_windows.iter().map(|&w| Json::from(w)).collect()),
        ),
        ("max_cycles", Json::from(*max_cycles)),
        ("hints", Json::from(*hints)),
        ("reorder", Json::from(*reorder)),
        ("verify", Json::from(*verify)),
    ])
}

fn canonical_kernel_json(kernel: &KernelSpec) -> Json {
    match kernel {
        KernelSpec::Workload { name, scale } => Json::obj([
            ("workload", Json::from(name.as_str())),
            ("scale", Json::from(scale.name())),
        ]),
        KernelSpec::Inline { kernel, dims } => {
            let words = bow_isa::encode_kernel(kernel);
            let mut hex = String::with_capacity(words.len() * 8);
            for w in words {
                hex.push_str(&format!("{w:08x}"));
            }
            Json::obj([
                ("inline", Json::from(hex)),
                ("blocks", Json::from(dims.0)),
                ("threads", Json::from(dims.1)),
            ])
        }
    }
}

fn parse_kernel_spec(v: &Json) -> Result<KernelSpec, BowError> {
    let k = v
        .get("kernel")
        .ok_or_else(|| BowError::parse("missing `kernel` object"))?;
    match (k.get("workload"), k.get("asm")) {
        (Some(name), None) => Ok(KernelSpec::Workload {
            name: text("kernel.workload", name)?.to_string(),
            scale: parse_scale(k)?,
        }),
        (None, Some(asm)) => {
            let kernel = bow_isa::asm::parse_kernel(text("kernel.asm", asm)?)
                .map_err(|e| BowError::parse(format!("kernel assembly: {e}")))?;
            let dim = |key: &'static str, default: u32| -> Result<u32, BowError> {
                match k.get(key) {
                    None => Ok(default),
                    Some(j) => j
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            BowError::parse(format!("`kernel.{key}` must be a positive integer"))
                        }),
                }
            };
            Ok(KernelSpec::Inline {
                kernel,
                dims: (dim("blocks", 1)?, dim("threads", 32)?),
            })
        }
        _ => Err(BowError::parse(
            "`kernel` must have exactly one of `workload` or `asm`",
        )),
    }
}

/// The launch parameters of an inline kernel, which has no host harness to
/// allocate its buffers: one disjoint 64 KiB region per parameter word.
pub fn synthetic_params(kernel: &bow_isa::Kernel) -> Vec<u32> {
    (0..kernel.param_words)
        .map(|i| 0x10_0000 + u32::from(i) * 0x1_0000)
        .collect()
}

impl RunRequest {
    /// Parses a `POST /v1/runs` body.
    ///
    /// # Errors
    ///
    /// Returns a [`BowError`] for malformed kernels, unknown names or
    /// invalid configurations.
    pub fn from_json(v: &Json) -> Result<RunRequest, BowError> {
        let kernel = parse_kernel_spec(v)?;
        if let KernelSpec::Workload { name, scale } = &kernel {
            // Resolve early so unknown names fail at submit time, not in
            // the job.
            benchmark(name, *scale)?;
        }
        let empty = Json::Obj(Vec::new());
        let config = config_from_json(v.get("config").unwrap_or(&empty))?;
        Ok(RunRequest { kernel, config })
    }

    /// The canonical JSON form of this request (see the module docs for
    /// the rules). Hash input for [`fingerprint`](RunRequest::fingerprint).
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("model_revision", Json::from(MODEL_REVISION)),
            ("kernel", canonical_kernel_json(&self.kernel)),
            ("config", canonical_config_json(&self.config)),
        ])
    }

    /// The content-addressed store key: SHA-256 of the canonical request,
    /// as 64 hex characters.
    pub fn fingerprint(&self) -> String {
        bow_util::hash::sha256_hex(self.canonical_json().to_string_compact().as_bytes())
    }

    /// Runs the request to completion on the calling thread and returns
    /// the record. Named workloads run through the standard experiment
    /// driver (host-reference checked); inline kernels are compiled by
    /// the same [`CompilePlan`] and launch directly with the memory oracle
    /// enabled, so `checked` still means "independently verified".
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Verify`] when a workload fails its reference
    /// check or an inline kernel's final memory disagrees with the oracle,
    /// and [`BowError::Config`] when the configuration's compile plan
    /// refuses an inline kernel (e.g. `"divergence":"barrier"` on control
    /// flow the barrier lowering cannot express).
    pub fn execute(&self) -> Result<RunRecord, BowError> {
        let rec = match &self.kernel {
            KernelSpec::Workload { name, scale } => {
                run(benchmark(name, *scale)?.as_ref(), self.config.clone())
            }
            KernelSpec::Inline { kernel, dims } => {
                let (kernel, compiler) = CompilePlan::of(&self.config).apply(kernel.clone())?;
                let mut gpu_cfg = self.config.gpu.clone();
                gpu_cfg.oracle_check = OracleCheck::Memory;
                let result = Gpu::new(gpu_cfg).launch(
                    &kernel,
                    bow_isa::KernelDims::linear(dims.0, dims.1),
                    &synthetic_params(&kernel),
                );
                RunRecord {
                    label: self.config.label.clone(),
                    benchmark: kernel.name.clone(),
                    outcome: RunOutcome {
                        checked: result.oracle_verdict(),
                        result,
                    },
                    compiler,
                }
            }
        };
        Verdict::of_records([&rec]).into_result(String::new())?;
        Ok(rec)
    }
}

impl SweepRequest {
    /// Parses a `POST /v1/sweeps` body: `benchmarks` (array of names, or
    /// absent for the whole Table III suite), optional `scale`, and
    /// `configs` (array of config documents, at least one).
    ///
    /// # Errors
    ///
    /// Returns a [`BowError`] for unknown benchmarks or invalid configs.
    pub fn from_json(v: &Json) -> Result<SweepRequest, BowError> {
        let scale = parse_scale(v)?;
        let benchmarks: Vec<String> = match v.get("benchmarks") {
            None => paper_suite(scale)
                .iter()
                .map(|b| b.name().to_string())
                .collect(),
            Some(list) => list
                .as_arr()
                .ok_or_else(|| BowError::parse("`benchmarks` must be an array of names"))?
                .iter()
                .map(|b| {
                    b.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| BowError::parse("`benchmarks` entries must be strings"))
                })
                .collect::<Result<_, _>>()?,
        };
        for name in &benchmarks {
            benchmark(name, scale)?;
        }
        let configs = v
            .get("configs")
            .ok_or_else(|| BowError::parse("missing `configs` array"))?
            .as_arr()
            .ok_or_else(|| BowError::parse("`configs` must be an array"))?
            .iter()
            .map(config_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if configs.is_empty() {
            return Err(BowError::parse("`configs` must not be empty"));
        }
        let jobs = match v.get("jobs") {
            None => 1,
            Some(j) => j
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| BowError::parse("`jobs` must be a non-negative integer"))?,
        };
        Ok(SweepRequest {
            benchmarks,
            scale,
            configs,
            jobs,
        })
    }

    /// The canonical JSON form of this request. `jobs` is an execution
    /// knob (results are identical at any worker count) and is excluded.
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("model_revision", Json::from(MODEL_REVISION)),
            (
                "sweep",
                Json::obj([
                    ("scale", Json::from(self.scale.name())),
                    (
                        "benchmarks",
                        Json::Arr(
                            self.benchmarks
                                .iter()
                                .map(|b| Json::from(b.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "configs",
                        Json::Arr(self.configs.iter().map(canonical_config_json).collect()),
                    ),
                ]),
            ),
        ])
    }

    /// The content-addressed store key for this sweep.
    pub fn fingerprint(&self) -> String {
        bow_util::hash::sha256_hex(self.canonical_json().to_string_compact().as_bytes())
    }

    /// Runs the sweep on the parallel engine and returns the result.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Verify`], listing every cell that fails its
    /// reference check.
    pub fn execute(&self) -> Result<SweepResult, BowError> {
        let benches = self
            .benchmarks
            .iter()
            .map(|name| benchmark(name, self.scale))
            .collect::<Result<Vec<_>, _>>()?;
        let result = Suite::over(benches)
            .configs(self.configs.iter().cloned())
            .jobs(self.jobs)
            .progress(false)
            .run();
        Verdict::of_records(result.all_records()).into_result(String::new())?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use bow_util::json::parse;
    use bow_workloads::by_name;

    fn req(body: &str) -> Result<RunRequest, BowError> {
        RunRequest::from_json(&parse(body).expect("test body is valid JSON"))
    }

    #[test]
    fn workload_request_parses_and_fingerprints() {
        let r = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow-wr", "window": 3}}"#)
        .unwrap();
        assert_eq!(r.config.label, "bow-wr iw3");
        let f = r.fingerprint();
        assert_eq!(f.len(), 64);
        assert!(f.chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// The default request's key, pinned: a change of the canonical form,
    /// [`SCHEMA_VERSION`] or [`MODEL_REVISION`] moves it, and must be
    /// deliberate (docs/API.md lists every one-time key change).
    #[test]
    fn default_request_fingerprint_is_pinned() {
        let r = req(r#"{"kernel": {"workload": "vectoradd"}}"#).unwrap();
        assert_eq!(
            r.fingerprint(),
            "e807383c41e0c950ddcf6e9c8dcefa872450d5b33fbb3615b9b37361f470a843"
        );
    }

    #[test]
    fn fingerprint_ignores_sim_threads_and_label() {
        let plain = req(r#"{"kernel": {"workload": "vectoradd"},
                            "config": {"collector": "bow"}}"#)
        .unwrap();
        for extra in [
            r#""sim_threads": 0"#,
            r#""sim_threads": 1"#,
            r#""sim_threads": 8, "label": "mine""#,
        ] {
            let r = req(&format!(
                r#"{{"kernel": {{"workload": "vectoradd"}},
                    "config": {{"collector": "bow", {extra}}}}}"#
            ))
            .unwrap();
            assert_eq!(r.fingerprint(), plain.fingerprint(), "{extra}");
            // The key is dropped: every value resolves to the one config.
            assert_eq!(r.config.gpu, plain.config.gpu, "{extra}");
        }
        // Still type-checked like every integer field.
        for bad in [r#""lots""#, "-1", "4294967296"] {
            let e = req(&format!(
                r#"{{"kernel": {{"workload": "vectoradd"}},
                    "config": {{"sim_threads": {bad}}}}}"#
            ))
            .unwrap_err();
            assert_eq!(e.kind(), "parse", "{bad}");
        }
    }

    #[test]
    fn fingerprint_separates_semantic_knobs() {
        let base = req(r#"{"kernel": {"workload": "vectoradd"}}"#).unwrap();
        for other in [
            r#"{"kernel": {"workload": "vectoradd"}, "config": {"collector": "bow"}}"#,
            r#"{"kernel": {"workload": "lps"}}"#,
            r#"{"kernel": {"workload": "vectoradd", "scale": "paper"}}"#,
        ] {
            assert_ne!(base.fingerprint(), req(other).unwrap().fingerprint());
        }
    }

    #[test]
    fn core_model_is_a_semantic_knob() {
        let pascal = req(r#"{"kernel": {"workload": "vectoradd"},
                             "config": {"collector": "bow", "core_model": "pascal"}}"#)
        .unwrap();
        let modern = req(r#"{"kernel": {"workload": "vectoradd"},
                             "config": {"collector": "bow", "core_model": "modern"}}"#)
        .unwrap();
        assert_ne!(pascal.fingerprint(), modern.fingerprint());
        assert_eq!(modern.config.label, "bow iw3+modern");
        // Pascal is the default: spelling it out keys identically.
        let default = req(r#"{"kernel": {"workload": "vectoradd"},
                              "config": {"collector": "bow"}}"#)
        .unwrap();
        assert_eq!(pascal.fingerprint(), default.fingerprint());
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"core_model": "volta"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn divergence_is_a_semantic_knob() {
        let stack = req(r#"{"kernel": {"workload": "bfs"},
                            "config": {"collector": "bow", "divergence": "stack"}}"#)
        .unwrap();
        let barrier = req(r#"{"kernel": {"workload": "bfs"},
                              "config": {"collector": "bow", "divergence": "barrier"}}"#)
        .unwrap();
        assert_ne!(stack.fingerprint(), barrier.fingerprint());
        assert_eq!(barrier.config.label, "bow iw3+barrier");
        // Stack is the default: spelling it out keys identically.
        let default = req(r#"{"kernel": {"workload": "bfs"},
                              "config": {"collector": "bow"}}"#)
        .unwrap();
        assert_eq!(stack.fingerprint(), default.fingerprint());
        let e = req(r#"{"kernel": {"workload": "bfs"},
                        "config": {"divergence": "ipdom"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn defaulted_and_spelled_out_requests_collide() {
        let short = req(r#"{"kernel": {"workload": "vectoradd"}}"#).unwrap();
        let long = req(r#"{"kernel": {"workload": "vectoradd", "scale": "test"},
                           "config": {"collector": "baseline", "model": "scaled"}}"#)
        .unwrap();
        assert_eq!(short.fingerprint(), long.fingerprint());
    }

    #[test]
    fn inline_kernels_canonicalize_through_encoding() {
        let a =
            req(r#"{"kernel": {"asm": ".kernel k\n    mov r0, 7\n    exit\n", "threads": 32}}"#)
                .unwrap();
        // Different whitespace/comments, same instructions.
        let b = req(r#"{"kernel": {"asm": ".kernel k\n# a comment\n  mov   r0, 7\n  exit\n"}}"#)
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = req(r#"{"kernel": {"asm": ".kernel k\n    mov r0, 8\n    exit\n"}}"#).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn bad_requests_fail_with_typed_errors() {
        let e = req(r#"{"config": {}}"#).unwrap_err();
        assert_eq!(e.kind(), "parse");
        let e = req(r#"{"kernel": {"workload": "nope"}}"#).unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "warp-drive"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow", "window": 0}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"windw": 3}}"#)
        .unwrap_err();
        assert!(
            e.to_string().contains("unknown config field `windw`"),
            "{e}"
        );
        let e = req(r#"{"kernel": {"asm": "not assembly"}}"#).unwrap_err();
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn run_request_executes_and_records_match_direct_runs() {
        let r = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow-wr"}}"#)
        .unwrap();
        let rec = r.execute().unwrap();
        let direct = run(
            by_name("vectoradd", Scale::Test).unwrap().as_ref(),
            ConfigBuilder::bow_wr(3).build(),
        );
        assert_eq!(
            rec.to_json().to_string_pretty(),
            direct.to_json().to_string_pretty()
        );
    }

    #[test]
    fn inline_request_executes_under_the_memory_oracle() {
        let r = req(
            r#"{"kernel": {"asm": ".kernel k\n    mov r0, 7\n    iadd r1, r0, 1\n    exit\n"}}"#,
        )
        .unwrap();
        let rec = r.execute().unwrap();
        assert_eq!(rec.benchmark, "k");
        assert!(rec.outcome.checked.is_ok());
        assert!(rec.outcome.result.stats.warp_instructions > 0);
    }

    /// `depth` nested SSY diamonds around one store, every fork genuinely
    /// divergent (lane parity of a shifted thread id). Structured, so the
    /// SIMT stack runs it at any depth; the barrier register file holds
    /// only `NUM_CBARS` nesting levels.
    fn nested_diamonds(depth: usize) -> String {
        use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg, Special};
        let r = Reg::r;
        let mut b = KernelBuilder::new("nest")
            .s2r(r(0), Special::TidX)
            .mov_imm(r(2), 0x10_0000);
        for d in 0..depth {
            b = b
                .shr(r(1), r(0).into(), Operand::Imm(d as u32 % 5))
                .and(r(1), r(1).into(), Operand::Imm(1))
                .isetp(CmpOp::Eq, Pred::p(0), r(1).into(), Operand::Imm(0))
                .ssy(format!("join{d}"))
                .bra_if(Pred::p(0), false, format!("else{d}"));
        }
        b = b.stg(r(2), 0, r(0).into());
        for d in (0..depth).rev() {
            b = b
                .bra(format!("join{d}"))
                .label(format!("else{d}"))
                .iadd(r(3), r(0).into(), Operand::Imm(d as u32))
                .label(format!("join{d}"))
                .sync();
        }
        b.exit().build().expect("structured kernel").disassemble()
    }

    fn inline_req(asm: &str, divergence: &str) -> RunRequest {
        let body = Json::obj([
            ("kernel", Json::obj([("asm", Json::from(asm))])),
            (
                "config",
                Json::obj([
                    ("collector", Json::from("bow-wr")),
                    ("divergence", Json::from(divergence)),
                ]),
            ),
        ]);
        RunRequest::from_json(&body).expect("well-formed inline request")
    }

    #[test]
    fn inline_barrier_requests_go_through_the_barrier_lowering() {
        // Nine nested diamonds run happily on the SIMT stack, but the
        // barrier lowering refuses them (TooDeep). Before the inline arm
        // went through the compile plan it never lowered: this request
        // simulated the SSY/SYNC kernel and stored the stack-mode record
        // under the barrier fingerprint.
        let deep = nested_diamonds(bow_isa::NUM_CBARS + 1);
        let stack = inline_req(&deep, "stack")
            .execute()
            .expect("stack runs any depth");
        assert!(stack.outcome.result.completed);
        let e = inline_req(&deep, "barrier").execute().unwrap_err();
        assert_eq!(e.kind(), "config", "a 4xx on the wire, not a panic: {e}");
        assert!(matches!(
            &e,
            BowError::Config(ConfigError::Compile {
                pass: "barrier lowering",
                ..
            })
        ));
        assert!(e.to_string().contains("nests"), "{e}");

        // At a depth the barrier file holds, the lowered kernel runs and
        // reconverges to the same counters as its stack twin (the measured
        // ROADMAP 3(b) finding), under a distinct content address.
        let ok = nested_diamonds(bow_isa::NUM_CBARS);
        let (s, b) = (inline_req(&ok, "stack"), inline_req(&ok, "barrier"));
        assert_ne!(s.fingerprint(), b.fingerprint());
        let (s, b) = (s.execute().unwrap(), b.execute().unwrap());
        assert_eq!(b.label, "bow-wr iw3+barrier");
        assert_eq!(s.outcome.result.stats, b.outcome.result.stats);
        assert!(
            b.compiler.is_some(),
            "bow-wr inline runs carry the hint report"
        );
    }

    #[test]
    fn sweep_request_round_trip() {
        let v = parse(
            r#"{"benchmarks": ["vectoradd", "lps"],
                "configs": [{"collector": "baseline"}, {"collector": "bow-wr"}]}"#,
        )
        .unwrap();
        let s = SweepRequest::from_json(&v).unwrap();
        assert_eq!(s.benchmarks, ["vectoradd", "lps"]);
        assert_eq!(s.configs.len(), 2);
        assert_eq!(s.fingerprint().len(), 64);
        let result = s.execute().unwrap();
        assert_eq!(result.rows.len(), 2);
        // jobs is an execution knob: a different worker count keys the same.
        let mut with_jobs = SweepRequest::from_json(&v).unwrap();
        with_jobs.jobs = 8;
        assert_eq!(s.fingerprint(), with_jobs.fingerprint());
    }

    #[test]
    fn sweep_rejects_unknowns() {
        let e = SweepRequest::from_json(
            &parse(r#"{"benchmarks": ["nope"], "configs": [{}]}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = SweepRequest::from_json(&parse(r#"{"benchmarks": []}"#).unwrap()).unwrap_err();
        assert_eq!(e.kind(), "parse");
    }
}
