//! The experiment driver: one call runs a benchmark under a named
//! configuration, applying the compiler passes the configuration's
//! [`CompilePlan`] names. Single runs go through [`run`]; whole
//! (benchmark × configuration) matrices go through the parallel
//! [`suite`](crate::suite) engine, which reuses this module's
//! [`prepare_kernel`]/[`run_prepared`] split to memoize compiler-pass
//! output across cells, keyed by the plan itself.
//!
//! Configurations are built with [`ConfigBuilder`], which exposes every
//! knob of the design space — collector kind, instruction window,
//! half-size buffers, compiler hints, the footnote-1 scheduler, GPU model
//! scale — orthogonally and derives the display label automatically.

use crate::error::{BowError, ConfigError};
use bow_compiler::{annotate, CompilerReport};
use bow_isa::Kernel;
use bow_sim::{
    CollectorKind, CoreModelKind, DivergenceModel, Gpu, GpuConfig, SimStats, WindowReport,
};
use bow_util::json::{DecodeError, Json};
use bow_util::{parse_name, UnknownName};
use bow_workloads::{Benchmark, RunOutcome, Scale};

/// Version tag of every serialized document this crate emits
/// ([`RunRecord::to_json`], [`SweepResult::to_json`](crate::suite::SweepResult::to_json))
/// and of the wire fingerprints derived from them. Bump on any change to
/// field names, field order or value encodings, and re-bless the
/// `schema_v1` golden snapshot.
pub const SCHEMA_VERSION: u64 = 1;

/// Revision of the simulated model, hashed into every request fingerprint
/// (`api`'s `canonical_json`) so that a result store never serves a result
/// the current model would not produce. Bump on any deliberate change of
/// simulated results.
///
/// Revision 1: a global store lands in device memory when it executes.
/// Revision 2: the Pascal scoreboard holds a predicate read (a guard or a
/// predicate source) from issue until the reader dispatches.
pub const MODEL_REVISION: u64 = 2;

/// Which operand-collection design a configuration simulates — the
/// coarse axis of [`ConfigBuilder`]; the window/half-size/capacity
/// details are separate knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Collector {
    /// Conventional operand collectors (the paper's baseline GPU).
    #[default]
    Baseline,
    /// BOW: read bypassing, write-through (§IV-A).
    Bow,
    /// BOW-WR: read + write bypassing (§IV-B). Compiler hints default on.
    BowWr,
    /// Buffer-bounded bypassing (the paper's future work, §IV-C).
    BowFlex,
    /// The register-file-cache comparison baseline (§V-A).
    Rfc,
}

impl Collector {
    /// The collector specs the CLI (`--collector`) and the wire
    /// (`"collector"`) accept: every design by name, plus the
    /// `bow-wr-half` shorthand for BOW-WR on the half-size buffer.
    pub const SPECS: [(&'static str, Collector, bool); 6] = [
        ("baseline", Collector::Baseline, false),
        ("bow", Collector::Bow, false),
        ("bow-wr", Collector::BowWr, false),
        ("bow-wr-half", Collector::BowWr, true),
        ("bow-flex", Collector::BowFlex, false),
        ("rfc", Collector::Rfc, false),
    ];

    /// Resolves a collector spec to the design and whether it asks for
    /// the half-size buffer. Sizing knobs (window, capacity, entries) are
    /// the caller's: the CLI and the wire default them differently.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownName`] listing the valid specs.
    pub fn parse_spec(spec: &str) -> Result<(Collector, bool), UnknownName> {
        parse_name("collector", &Self::SPECS, |s| s.0, spec).map(|(_, c, half)| (c, half))
    }
}

/// Which GPU model the configuration runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GpuModel {
    /// Table II's SM microarchitecture with 2 SMs — the experiment
    /// harness default; per-SM behaviour matches the full chip.
    #[default]
    Scaled,
    /// The full 56-SM NVIDIA TITAN X (Pascal) of Table II.
    TitanX,
}

impl GpuModel {
    /// Every GPU model, in table order.
    pub const ALL: [GpuModel; 2] = [GpuModel::Scaled, GpuModel::TitanX];

    /// The canonical lowercase name (the wire's `"model"` values).
    pub fn name(&self) -> &'static str {
        match self {
            GpuModel::Scaled => "scaled",
            GpuModel::TitanX => "titan-x",
        }
    }

    /// The GPU model named `s`.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownName`] listing the valid names.
    pub fn parse(s: &str) -> Result<GpuModel, UnknownName> {
        parse_name("GPU model", &Self::ALL, Self::name, s)
    }
}

/// Builds a [`Config`] from orthogonal knobs.
///
/// ```
/// use bow::experiment::ConfigBuilder;
///
/// let wr = ConfigBuilder::bow_wr(3).build();
/// assert_eq!(wr.label, "bow-wr iw3");
/// let wb = ConfigBuilder::bow_wr(3).hints(false).build();
/// assert_eq!(wb.label, "bow-wb iw3");
/// let half = ConfigBuilder::bow_wr(3).half_size(true).build();
/// assert_eq!(half.label, "bow-wr iw3 half");
/// ```
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    collector: Collector,
    window: u32,
    half_size: bool,
    capacity: u32,
    rfc_entries: u32,
    hints: Option<bool>,
    reorder: bool,
    verify: bool,
    sanitize: bool,
    model: GpuModel,
    core_model: CoreModelKind,
    divergence: DivergenceModel,
    analyzer: Vec<u32>,
    label: Option<String>,
}

impl ConfigBuilder {
    /// Starts from the given collector design with default knobs
    /// (window 3, full-size buffers, hints wherever the design supports
    /// them, scaled GPU).
    pub fn new(collector: Collector) -> ConfigBuilder {
        ConfigBuilder {
            collector,
            window: 3,
            half_size: false,
            capacity: 12,
            rfc_entries: 6,
            hints: None,
            reorder: false,
            verify: false,
            sanitize: false,
            model: GpuModel::default(),
            core_model: CoreModelKind::default(),
            divergence: DivergenceModel::default(),
            analyzer: Vec::new(),
            label: None,
        }
    }

    /// The unmodified baseline GPU.
    pub fn baseline() -> ConfigBuilder {
        ConfigBuilder::new(Collector::Baseline)
    }

    /// BOW (read bypassing) with the given instruction window.
    pub fn bow(window: u32) -> ConfigBuilder {
        ConfigBuilder::new(Collector::Bow).window(window)
    }

    /// BOW-WR (read + write bypassing, compiler hints) with the given
    /// instruction window.
    pub fn bow_wr(window: u32) -> ConfigBuilder {
        ConfigBuilder::new(Collector::BowWr).window(window)
    }

    /// Buffer-bounded bypassing with the given value-buffer capacity.
    pub fn bow_flex(capacity: u32) -> ConfigBuilder {
        ConfigBuilder::new(Collector::BowFlex).capacity(capacity)
    }

    /// The register-file-cache baseline (6 entries per warp, as in §V-A).
    pub fn rfc() -> ConfigBuilder {
        ConfigBuilder::new(Collector::Rfc)
    }

    /// Sets the instruction-window size (BOW/BOW-WR designs).
    pub fn window(mut self, window: u32) -> ConfigBuilder {
        self.window = window;
        self
    }

    /// Uses the half-size shared-entry value buffer of §IV-C.
    pub fn half_size(mut self, yes: bool) -> ConfigBuilder {
        self.half_size = yes;
        self
    }

    /// Sets the value-buffer capacity (BOW-Flex only).
    pub fn capacity(mut self, entries: u32) -> ConfigBuilder {
        self.capacity = entries;
        self
    }

    /// Sets the RFC entry count per warp (RFC only).
    pub fn rfc_entries(mut self, entries: u32) -> ConfigBuilder {
        self.rfc_entries = entries;
        self
    }

    /// Forces the §IV-B compiler hint pass on or off. The default is
    /// derived: on for BOW-WR (its write-back policy is hint-steered),
    /// off everywhere else. BOW-WR with `hints(false)` is the pure
    /// write-back design of Table I's middle column.
    pub fn hints(mut self, yes: bool) -> ConfigBuilder {
        self.hints = Some(yes);
        self
    }

    /// Runs the bypass-aware instruction scheduler (paper footnote 1)
    /// before hint assignment.
    pub fn reorder(mut self, yes: bool) -> ConfigBuilder {
        self.reorder = yes;
        self
    }

    /// Gates the hint pass behind the independent residency verifier
    /// ([`bow_compiler::annotate_checked`]): [`CompilePlan::apply`] fails
    /// (and [`prepare_kernel`] panics) if the verifier rejects the
    /// producer's annotation. Only meaningful when the hint pass runs.
    pub fn verify(mut self, yes: bool) -> ConfigBuilder {
        self.verify = yes;
        self
    }

    /// Attaches the dynamic race sanitizer ([`GpuConfig::sanitize`]) to
    /// every launch: the probe shadows shared/global words and barrier
    /// epochs and the result carries a
    /// [`SanitizerReport`](bow_sim::SanitizerReport). Pure checker —
    /// cycles, stats and fingerprints are unaffected, so the label does
    /// not encode it.
    pub fn sanitize(mut self, yes: bool) -> ConfigBuilder {
        self.sanitize = yes;
        self
    }

    /// Selects the GPU model scale (default: [`GpuModel::Scaled`]).
    pub fn model(mut self, model: GpuModel) -> ConfigBuilder {
        self.model = model;
        self
    }

    /// Selects the SM core model (default: [`CoreModelKind::Pascal`]).
    /// The modern core runs the post-Volta sub-core pipeline and makes
    /// the [`CompilePlan`] emit the control-bits sidecar the core's issue
    /// stage consumes.
    pub fn core_model(mut self, core: CoreModelKind) -> ConfigBuilder {
        self.core_model = core;
        self
    }

    /// Selects the divergence/reconvergence model (default:
    /// [`DivergenceModel::Stack`]). Under [`DivergenceModel::Barrier`],
    /// the [`CompilePlan`] lowers every `ssy`/`sync` to convergence
    /// barriers ([`bow_compiler::lower_to_barriers`]) and the simulator,
    /// which reads the kernel and not this knob, runs the stack-less
    /// per-warp barrier bookkeeping.
    pub fn divergence(mut self, model: DivergenceModel) -> ConfigBuilder {
        self.divergence = model;
        self
    }

    /// Enables the Fig. 3 sliding-window analyzer for `windows`.
    pub fn analyzer(mut self, windows: &[u32]) -> ConfigBuilder {
        self.analyzer = windows.to_vec();
        self
    }

    /// Overrides the auto-derived label.
    pub fn label(mut self, label: impl Into<String>) -> ConfigBuilder {
        self.label = Some(label.into());
        self
    }

    /// Whether the built config will run the hint pass.
    fn effective_hints(&self) -> bool {
        self.hints.unwrap_or(self.collector == Collector::BowWr)
    }

    /// The label the builder derives when none is set explicitly. A model
    /// axis off its default appends `+<name>` from the axis's name table.
    fn derived_label(&self) -> String {
        let mut label = self.base_label();
        for (off_default, name) in [
            (
                self.core_model != CoreModelKind::default(),
                self.core_model.name(),
            ),
            (
                self.divergence != DivergenceModel::default(),
                self.divergence.name(),
            ),
        ] {
            if off_default {
                label.push('+');
                label.push_str(name);
            }
        }
        label
    }

    fn base_label(&self) -> String {
        let sched = if self.reorder { "+sched" } else { "" };
        let half = if self.half_size { " half" } else { "" };
        match self.collector {
            Collector::Baseline => format!("baseline{sched}"),
            Collector::Bow => format!("bow{sched} iw{}{half}", self.window),
            Collector::BowWr => {
                let name = if self.effective_hints() {
                    "bow-wr"
                } else {
                    "bow-wb"
                };
                format!("{name}{sched} iw{}{half}", self.window)
            }
            Collector::BowFlex => format!("bow-flex{sched} c{}", self.capacity),
            Collector::Rfc => format!("rfc{sched}"),
        }
    }

    /// Validates every knob that has a bounded range. Knobs are only
    /// checked where they are meaningful: the window bound applies to
    /// BOW/BOW-WR (where it sizes the value buffer), the capacity bound
    /// to BOW-Flex, the entry bound to RFC.
    fn validate(&self) -> Result<(), ConfigError> {
        let range = |field: &'static str, value: u32, min: u32, max: u32| {
            if (min..=max).contains(&value) {
                Ok(())
            } else {
                Err(ConfigError::Range {
                    field,
                    value: u64::from(value),
                    min: u64::from(min),
                    max: u64::from(max),
                })
            }
        };
        match self.collector {
            Collector::Bow | Collector::BowWr => range("window", self.window, 1, 64)?,
            Collector::BowFlex => range("capacity", self.capacity, 1, 4096)?,
            Collector::Rfc => range("rfc_entries", self.rfc_entries, 1, 1024)?,
            Collector::Baseline => {}
        }
        for &w in &self.analyzer {
            range("analyzer window", w, 1, 1024)?;
        }
        Ok(())
    }

    /// Assembles the [`Config`], validating every bounded knob first.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first out-of-range knob.
    pub fn try_build(self) -> Result<Config, ConfigError> {
        self.validate()?;
        Ok(self.assemble())
    }

    /// Assembles the [`Config`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range knob; use
    /// [`try_build`](ConfigBuilder::try_build) where the knobs come from
    /// user input.
    pub fn build(self) -> Config {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("invalid configuration: {e}"),
        }
    }

    fn assemble(self) -> Config {
        let kind = match self.collector {
            Collector::Baseline => CollectorKind::Baseline,
            Collector::Bow => CollectorKind::Bow {
                window: self.window,
                half_size: self.half_size,
            },
            Collector::BowWr => CollectorKind::BowWr {
                window: self.window,
                half_size: self.half_size,
            },
            Collector::BowFlex => CollectorKind::BowFlex {
                capacity: self.capacity,
            },
            Collector::Rfc => CollectorKind::Rfc {
                entries: self.rfc_entries,
            },
        };
        let mut gpu = match self.model {
            GpuModel::Scaled => GpuConfig::scaled(kind),
            GpuModel::TitanX => GpuConfig::titan_x_pascal(kind),
        };
        if !self.analyzer.is_empty() {
            gpu = gpu.with_analyzer(&self.analyzer);
        }
        gpu.sanitize = self.sanitize;
        gpu.core_model = self.core_model;
        gpu.divergence = self.divergence;
        let label = self.label.clone().unwrap_or_else(|| self.derived_label());
        Config {
            label,
            gpu,
            hints: self.effective_hints(),
            reorder: self.reorder,
            verify: self.verify,
        }
    }
}

/// A named pipeline configuration to evaluate.
#[derive(Clone, Debug)]
pub struct Config {
    /// Display label (e.g. `"bow-wr iw3"`).
    pub label: String,
    /// The GPU configuration.
    pub gpu: GpuConfig,
    /// Whether to run the §IV-B compiler pass before launching (BOW-WR).
    pub hints: bool,
    /// Whether to run the bypass-aware scheduler (the paper's footnote 1
    /// extension) before hint assignment.
    pub reorder: bool,
    /// Whether the [`CompilePlan`] must gate the hint pass behind the
    /// independent residency verifier.
    pub verify: bool,
}

impl Config {
    /// Enables the Fig. 3 window analyzer on this configuration.
    pub fn with_analyzer(mut self, windows: &[u32]) -> Config {
        self.gpu = self.gpu.with_analyzer(windows);
        self
    }
}

/// The result of running one benchmark under one configuration.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The configuration label.
    pub label: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Launch statistics and reference check.
    pub outcome: RunOutcome,
    /// Compiler report (when the configuration ran the hint pass).
    pub compiler: Option<CompilerReport>,
}

impl RunRecord {
    /// Instructions per cycle of the run.
    pub fn ipc(&self) -> f64 {
        self.outcome.result.ipc()
    }

    /// Panics if the reference check failed — experiments must never
    /// aggregate wrong results.
    pub fn assert_checked(&self) -> &RunRecord {
        if let Err(e) = &self.outcome.checked {
            panic!(
                "{} under {} produced wrong results: {e}",
                self.benchmark, self.label
            );
        }
        self
    }

    /// The record as a schema-v1 JSON object: version tag, identity,
    /// headline numbers, the full statistics block, the Fig. 3 window
    /// reports (when the analyzer ran) and the compiler report (when the
    /// hint pass ran). Field names and order are part of the versioned
    /// contract (pinned by the `schema_v1` golden snapshot); any change
    /// must bump [`SCHEMA_VERSION`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                Json::from(crate::experiment::SCHEMA_VERSION),
            ),
            ("config".to_string(), Json::from(self.label.as_str())),
            ("benchmark".to_string(), Json::from(self.benchmark.as_str())),
            ("cycles".to_string(), Json::from(self.outcome.result.cycles)),
            (
                "instructions".to_string(),
                Json::from(self.outcome.result.stats.warp_instructions),
            ),
            ("ipc".to_string(), Json::from(self.ipc())),
            (
                "completed".to_string(),
                Json::from(self.outcome.result.completed),
            ),
            (
                "checked".to_string(),
                match &self.outcome.checked {
                    Ok(()) => Json::from(true),
                    Err(e) => Json::from(e.as_str()),
                },
            ),
            ("stats".to_string(), self.outcome.result.stats.to_json()),
            (
                "per_sm".to_string(),
                Json::Arr(
                    self.outcome
                        .result
                        .per_sm
                        .iter()
                        .map(SimStats::to_json)
                        .collect(),
                ),
            ),
        ];
        if !self.outcome.result.windows.is_empty() {
            fields.push((
                "windows".to_string(),
                Json::Arr(
                    self.outcome
                        .result
                        .windows
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("window", Json::from(w.window)),
                                ("total_reads", Json::from(w.total_reads)),
                                ("bypassed_reads", Json::from(w.bypassed_reads)),
                                ("total_writes", Json::from(w.total_writes)),
                                ("bypassed_writes", Json::from(w.bypassed_writes)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(c) = &self.compiler {
            fields.push((
                "compiler".to_string(),
                Json::obj([
                    ("rf_only", Json::from(c.rf_only)),
                    ("persistent", Json::from(c.persistent)),
                    ("transient", Json::from(c.transient)),
                    // The register indices themselves (not just a count),
                    // so the report round-trips through from_json.
                    (
                        "transient_regs",
                        Json::Arr(
                            c.transient_regs
                                .iter()
                                .map(|r| Json::from(u64::from(r.index())))
                                .collect(),
                        ),
                    ),
                    ("used_regs", Json::from(c.used_regs)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Decodes a record from the object [`RunRecord::to_json`] writes.
    /// Strict on every stored field (derived fields like `ipc` are
    /// recomputed, not read), so a decoded record re-serializes
    /// byte-identically — the property the content-addressed result store
    /// relies on.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a missing/mistyped field or an
    /// unsupported `schema_version`.
    pub fn from_json(v: &Json) -> Result<RunRecord, DecodeError> {
        let version = v.req_u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(DecodeError::new(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let stats = SimStats::from_json(v.req("stats")?).map_err(|e| e.context("stats"))?;
        let per_sm = v
            .req_arr("per_sm")?
            .iter()
            .map(|s| SimStats::from_json(s).map_err(|e| e.context("per_sm")))
            .collect::<Result<Vec<_>, _>>()?;
        let windows = match v.get("windows") {
            None => Vec::new(),
            Some(w) => w
                .as_arr()
                .ok_or_else(|| DecodeError::new("`windows` must be an array"))?
                .iter()
                .map(|w| {
                    Ok(WindowReport {
                        window: w.req_u64("window")? as u32,
                        total_reads: w.req_u64("total_reads")?,
                        bypassed_reads: w.req_u64("bypassed_reads")?,
                        total_writes: w.req_u64("total_writes")?,
                        bypassed_writes: w.req_u64("bypassed_writes")?,
                    })
                })
                .collect::<Result<Vec<_>, DecodeError>>()
                .map_err(|e| e.context("windows"))?,
        };
        let checked = match v.req("checked")? {
            Json::Bool(true) => Ok(()),
            Json::Str(s) => Err(s.clone()),
            _ => {
                return Err(DecodeError::new(
                    "`checked` must be true or an error string",
                ))
            }
        };
        let compiler = match v.get("compiler") {
            None => None,
            Some(c) => Some(CompilerReport {
                rf_only: c.req_u64("rf_only")? as usize,
                persistent: c.req_u64("persistent")? as usize,
                transient: c.req_u64("transient")? as usize,
                transient_regs: c
                    .req_arr("transient_regs")?
                    .iter()
                    .map(|r| {
                        let idx = r
                            .as_u64()
                            .filter(|&i| i <= 254)
                            .ok_or_else(|| DecodeError::new("bad register index"))?;
                        Ok(bow_isa::Reg::r(idx as u8))
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()
                    .map_err(|e| e.context("compiler"))?,
                used_regs: c.req_u64("used_regs")? as usize,
            }),
        };
        Ok(RunRecord {
            label: v.req_str("config")?.to_string(),
            benchmark: v.req_str("benchmark")?.to_string(),
            outcome: RunOutcome {
                result: bow_sim::LaunchResult {
                    cycles: v.req_u64("cycles")?,
                    stats,
                    per_sm,
                    windows,
                    completed: v.req_bool("completed")?,
                    sanitizer: None,
                    oracle: None,
                },
                checked,
            },
            compiler,
        })
    }
}

/// Everything a configuration decides about compilation: which passes run
/// over a kernel before launch, and with what parameters. The simulator
/// never reads `divergence`, the sidecar half of `core_model`, `hints`,
/// `reorder` or `verify` — they are one compile-time decision, taken here
/// once by [`of`](CompilePlan::of) and executed once by
/// [`apply`](CompilePlan::apply), the only launch-prep path in the
/// workspace.
///
/// The plan is also the sweep engine's memo key ([`crate::suite`]): a
/// config field can influence prep only by being in the plan, and a field
/// in the plan is in the key by construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CompilePlan {
    /// Run the footnote-1 bypass-aware scheduler first.
    pub reorder: bool,
    /// Run the §IV-B hint pass at this operand-window size (`None`: no
    /// hint pass, so unhinted configs of every window share one plan).
    pub hints: Option<u32>,
    /// Gate the hint pass behind the independent residency verifier.
    pub verify: bool,
    /// `Barrier` lowers `ssy`/`sync` to convergence barriers.
    pub divergence: DivergenceModel,
    /// `Modern` emits the control-bits sidecar the core's issue stage
    /// consumes.
    pub core_model: CoreModelKind,
}

impl CompilePlan {
    /// The plan `config` asks for. `verify` only gates the hint pass, so
    /// it is dropped when no hint pass runs.
    pub fn of(config: &Config) -> CompilePlan {
        CompilePlan {
            reorder: config.reorder,
            hints: config
                .hints
                .then(|| config.gpu.collector.window().unwrap_or(3)),
            verify: config.verify && config.hints,
            divergence: config.gpu.divergence,
            core_model: config.gpu.core_model,
        }
    }

    /// Runs the plan's passes over `kernel`, in this fixed order: the
    /// scheduler, then the hint pass, then the barrier lowering (an opcode
    /// rewrite, so the hint sidecar stays pc-aligned), then the
    /// control-bits emitter. Pure. Returns the launchable kernel and the
    /// hint pass's report when it ran.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Compile`] when the hint verifier rejects the
    /// annotation or the barrier lowering refuses the kernel's control
    /// flow: the kernel cannot run under this configuration.
    pub fn apply(&self, kernel: Kernel) -> Result<(Kernel, Option<CompilerReport>), BowError> {
        let refused = |kernel: &Kernel, pass: &'static str, message: String| ConfigError::Compile {
            kernel: kernel.name.clone(),
            pass,
            message,
        };
        let kernel = if self.reorder {
            bow_compiler::reorder_for_bypass(&kernel)
        } else {
            kernel
        };
        let (kernel, report) = match self.hints {
            None => (kernel, None),
            Some(window) => {
                let (annotated, report) = if self.verify {
                    bow_compiler::annotate_checked(&kernel, window).map_err(|audit| {
                        let unsound: Vec<String> = audit
                            .unsound()
                            .map(|f| format!("pc {} ({} as {:?})", f.pc, f.reg, f.hint))
                            .collect();
                        let message = format!(
                            "{} unsound hint(s) at window {window}: [{}]",
                            unsound.len(),
                            unsound.join(", ")
                        );
                        refused(&kernel, "hint verifier", message)
                    })?
                } else {
                    annotate(&kernel, window)
                };
                (annotated, Some(report))
            }
        };
        let kernel = match self.divergence {
            DivergenceModel::Barrier => bow_compiler::lower_to_barriers(&kernel)
                .map_err(|e| refused(&kernel, "barrier lowering", e.to_string()))?,
            DivergenceModel::Stack => kernel,
        };
        let kernel = match self.core_model {
            CoreModelKind::Modern => {
                bow_compiler::emit_ctrl(&kernel, &bow_compiler::CtrlLatencies::default())
            }
            CoreModelKind::Pascal => kernel,
        };
        Ok((kernel, report))
    }
}

/// Compiles a benchmark's kernel for `config`: [`CompilePlan::of`] then
/// [`CompilePlan::apply`].
///
/// # Panics
///
/// Panics when a pass of the plan refuses the kernel; the suite's
/// workloads never are, and user-supplied kernels go through
/// [`CompilePlan::apply`] for the typed error.
pub fn prepare_kernel(bench: &dyn Benchmark, config: &Config) -> (Kernel, Option<CompilerReport>) {
    CompilePlan::of(config)
        .apply(bench.kernel())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Looks a Table III benchmark up by name.
///
/// # Errors
///
/// Returns [`ConfigError::Unknown`] listing the suite's names.
pub fn benchmark(name: &str, scale: Scale) -> Result<Box<dyn Benchmark>, ConfigError> {
    bow_workloads::by_name(name, scale).ok_or_else(|| {
        ConfigError::Unknown(UnknownName {
            what: "benchmark",
            value: name.to_string(),
            valid: bow_workloads::suite(scale)
                .iter()
                .map(|b| b.name())
                .collect(),
        })
    })
}

/// Launches an already-prepared kernel under `config` and packages the
/// outcome. The timing simulation itself; everything deterministic.
pub fn run_prepared(
    bench: &dyn Benchmark,
    config: &Config,
    kernel: &Kernel,
    compiler: Option<CompilerReport>,
) -> RunRecord {
    let mut gpu = Gpu::new(config.gpu.clone());
    let outcome = bench.run_with(&mut gpu, kernel);
    RunRecord {
        label: config.label.clone(),
        benchmark: bench.name().to_string(),
        outcome,
        compiler,
    }
}

/// Runs `bench` under `config`, applying the compiler pass if requested.
pub fn run(bench: &dyn Benchmark, config: Config) -> RunRecord {
    let (kernel, compiler) = prepare_kernel(bench, &config);
    run_prepared(bench, &config, &kernel, compiler)
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Renders a simple aligned table: a header row and data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_workloads::{by_name, Scale};

    #[test]
    fn run_applies_hints_only_for_bow_wr() {
        let b = by_name("vectoradd", Scale::Test).expect("exists");
        let base = run(b.as_ref(), ConfigBuilder::baseline().build());
        assert!(base.compiler.is_none());
        base.assert_checked();
        let wr = run(b.as_ref(), ConfigBuilder::bow_wr(3).build());
        assert!(wr.compiler.is_some());
        wr.assert_checked();
    }

    #[test]
    fn builder_labels_are_descriptive() {
        assert_eq!(ConfigBuilder::baseline().build().label, "baseline");
        assert_eq!(ConfigBuilder::bow(4).build().label, "bow iw4");
        assert_eq!(ConfigBuilder::bow_wr(3).build().label, "bow-wr iw3");
        assert_eq!(
            ConfigBuilder::bow_wr(3).half_size(true).build().label,
            "bow-wr iw3 half"
        );
        assert_eq!(
            ConfigBuilder::bow_wr(3).hints(false).build().label,
            "bow-wb iw3"
        );
        assert_eq!(ConfigBuilder::bow_flex(6).build().label, "bow-flex c6");
        assert_eq!(ConfigBuilder::rfc().build().label, "rfc");
        assert_eq!(
            ConfigBuilder::bow_wr(3).reorder(true).build().label,
            "bow-wr+sched iw3"
        );
        assert_eq!(
            ConfigBuilder::bow_wr(2).label("custom").build().label,
            "custom"
        );
    }

    #[test]
    fn core_model_knob_labels_plumbs_and_annotates() {
        let c = ConfigBuilder::bow_wr(3)
            .core_model(CoreModelKind::Modern)
            .build();
        assert_eq!(c.label, "bow-wr iw3+modern");
        assert_eq!(c.gpu.core_model, CoreModelKind::Modern);
        let b = by_name("vectoradd", Scale::Test).expect("exists");
        let (kernel, _) = prepare_kernel(b.as_ref(), &c);
        assert_eq!(
            kernel.ctrl.len(),
            kernel.insts.len(),
            "modern configs carry a full control-bits sidecar"
        );
        let rec = run(b.as_ref(), c);
        rec.assert_checked();
        // Pascal configs stay unannotated.
        let (kernel, _) = prepare_kernel(b.as_ref(), &ConfigBuilder::bow_wr(3).build());
        assert!(kernel.ctrl.is_empty());
    }

    #[test]
    fn divergence_knob_labels_plumbs_and_lowers() {
        let c = ConfigBuilder::bow_wr(3)
            .divergence(DivergenceModel::Barrier)
            .build();
        assert_eq!(c.label, "bow-wr iw3+barrier");
        assert_eq!(c.gpu.divergence, DivergenceModel::Barrier);
        let b = by_name("bfs", Scale::Test).expect("exists");
        let (kernel, _) = prepare_kernel(b.as_ref(), &c);
        assert!(
            kernel.uses_convergence_barriers(),
            "barrier configs lower ssy/sync away"
        );
        assert!(!kernel
            .insts
            .iter()
            .any(|i| matches!(i.op, bow_isa::Opcode::Ssy | bow_isa::Opcode::Sync)));
        let rec = run(b.as_ref(), c);
        rec.assert_checked();
        // Stack configs keep the stack form.
        let (kernel, _) = prepare_kernel(b.as_ref(), &ConfigBuilder::bow_wr(3).build());
        assert!(!kernel.uses_convergence_barriers());
        // Both model knobs stack in the label.
        let both = ConfigBuilder::baseline()
            .core_model(CoreModelKind::Modern)
            .divergence(DivergenceModel::Barrier)
            .build();
        assert_eq!(both.label, "baseline+modern+barrier");
    }

    #[test]
    fn try_build_validates_ranges() {
        assert!(ConfigBuilder::bow(0).try_build().is_err());
        let e = ConfigBuilder::bow_wr(65).try_build().unwrap_err();
        assert_eq!(
            e,
            ConfigError::Range {
                field: "window",
                value: 65,
                min: 1,
                max: 64,
            }
        );
        assert!(ConfigBuilder::bow_flex(0).try_build().is_err());
        assert!(ConfigBuilder::rfc().rfc_entries(0).try_build().is_err());
        assert!(ConfigBuilder::baseline()
            .analyzer(&[3, 0])
            .try_build()
            .is_err());
        // Valid extremes pass.
        assert!(ConfigBuilder::bow(1).try_build().is_ok());
        assert!(ConfigBuilder::bow_wr(64).try_build().is_ok());
        // The analyzer window bound only applies where it is meaningful.
        assert!(ConfigBuilder::baseline().window(99).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_panics_on_invalid_ranges() {
        let _ = ConfigBuilder::bow(0).build();
    }

    #[test]
    fn builder_knobs_are_orthogonal() {
        let c = ConfigBuilder::bow_wr(5)
            .half_size(true)
            .reorder(true)
            .model(GpuModel::TitanX)
            .analyzer(&[2, 3])
            .build();
        assert_eq!(
            c.gpu.collector,
            CollectorKind::BowWr {
                window: 5,
                half_size: true
            }
        );
        assert_eq!(c.gpu.num_sms, 56);
        assert_eq!(c.gpu.analyze_windows, vec![2, 3]);
        assert!(c.hints && c.reorder);
    }

    #[test]
    fn prepared_run_equals_direct_run() {
        let b = by_name("vectoradd", Scale::Test).expect("exists");
        let cfg = ConfigBuilder::bow_wr(3).build();
        let direct = run(b.as_ref(), cfg.clone());
        let (kernel, rep) = prepare_kernel(b.as_ref(), &cfg);
        let prepared = run_prepared(b.as_ref(), &cfg, &kernel, rep);
        assert_eq!(direct.outcome.result.cycles, prepared.outcome.result.cycles);
        assert_eq!(direct.outcome.result.stats, prepared.outcome.result.stats);
    }

    #[test]
    fn run_record_serializes_to_json() {
        let b = by_name("vectoradd", Scale::Test).expect("exists");
        let rec = run(b.as_ref(), ConfigBuilder::bow_wr(3).build());
        let v = bow_util::json::parse(&rec.to_json().to_string_pretty()).expect("valid JSON");
        assert_eq!(v.get("benchmark").and_then(Json::as_str), Some("vectoradd"));
        assert_eq!(v.get("config").and_then(Json::as_str), Some("bow-wr iw3"));
        assert_eq!(
            v.get("cycles").and_then(Json::as_u64),
            Some(rec.outcome.result.cycles)
        );
        assert_eq!(v.get("checked"), Some(&Json::Bool(true)));
        assert!(v
            .get("stats")
            .and_then(|s| s.get("bypassed_reads"))
            .is_some());
        let per_sm = v.get("per_sm").expect("per-SM breakdown present");
        match per_sm {
            Json::Arr(sms) => {
                assert_eq!(sms.len(), rec.outcome.result.per_sm.len());
                let total: u64 = sms
                    .iter()
                    .map(|s| {
                        s.get("warp_instructions")
                            .and_then(Json::as_u64)
                            .expect("per-SM instruction count")
                    })
                    .sum();
                assert_eq!(total, rec.outcome.result.stats.warp_instructions);
            }
            other => panic!("per_sm must be an array, got {other:?}"),
        }
        assert!(
            v.get("compiler").is_some(),
            "bow-wr records carry the compiler report"
        );
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "ipc"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["long-name".into(), "2.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.55), " 55.0%");
    }
}
