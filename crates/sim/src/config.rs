//! Simulation configuration (the paper's Table II plus model knobs).

use crate::collector::CollectorKind;
use bow_mem::MemConfig;
use bow_util::{parse_name, UnknownName};

/// Warp-scheduling policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Greedy-then-oldest: keep issuing the same warp until it stalls, then
    /// fall back to the oldest ready warp (the paper's configuration).
    Gto,
    /// Loose round-robin across ready warps.
    Lrr,
}

/// Which SM core microarchitecture a launch simulates.
///
/// The core model decides how instructions move through an SM — stage
/// construction, the hazard/dependence policy, register-file organization
/// and collector topology — while every other [`GpuConfig`] knob (widths,
/// latencies, the collector *model*, memory hierarchy) applies to both.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CoreModelKind {
    /// The Pascal-style core of Table II: scoreboarded issue, an SM-wide
    /// operand-collector pool behind one crossbar, flat bank mapping.
    #[default]
    Pascal,
    /// A post-Volta core (after "Analyzing Modern NVIDIA GPU cores",
    /// arXiv 2503.20481): four sub-cores per SM with private collectors
    /// and register-bank clusters, a uniform register file for
    /// warp-invariant values, and fixed-latency dependences driven by
    /// per-instruction control bits instead of a scoreboard.
    Modern,
}

impl CoreModelKind {
    /// Every core model, in table order.
    pub const ALL: [CoreModelKind; 2] = [CoreModelKind::Pascal, CoreModelKind::Modern];

    /// The canonical lowercase name — the one spelling the CLI flag, the
    /// wire contract, labels and result canonicalization all use.
    pub fn name(&self) -> &'static str {
        match self {
            CoreModelKind::Pascal => "pascal",
            CoreModelKind::Modern => "modern",
        }
    }

    /// The core model named `s`.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownName`] listing the valid names.
    pub fn parse(s: &str) -> Result<CoreModelKind, UnknownName> {
        parse_name("core model", &Self::ALL, Self::name, s)
    }
}

/// Which divergence/reconvergence model a launch's kernels are compiled
/// for.
///
/// A compile-time axis only: the knob steers the *compiler pipeline* (the
/// experiment harness's compile plan lowers `ssy`/`sync` to convergence
/// barriers when it is `Barrier`) and participates in result
/// canonicalization; the simulator never reads it and picks a warp's
/// bookkeeping from the kernel it actually runs
/// ([`bow_isa::Kernel::uses_convergence_barriers`]), so a barrier-form
/// kernel reconverges correctly whatever the config says. Orthogonal to
/// [`CoreModelKind`]: both divergence models run on both cores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DivergenceModel {
    /// Pre-Volta SIMT reconvergence stack: `ssy` pushes a reconvergence
    /// point, divergent branches push the deferred path, `sync` pops.
    #[default]
    Stack,
    /// Post-Volta stack-less reconvergence: `bssy` arms a per-warp
    /// convergence barrier, `bsync` parks thread groups on it until every
    /// pending participant arrives.
    Barrier,
}

impl DivergenceModel {
    /// Every divergence model, in table order.
    pub const ALL: [DivergenceModel; 2] = [DivergenceModel::Stack, DivergenceModel::Barrier];

    /// The canonical lowercase name — the one spelling the CLI flag, the
    /// wire contract, labels and result canonicalization all use.
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceModel::Stack => "stack",
            DivergenceModel::Barrier => "barrier",
        }
    }

    /// The divergence model named `s`.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownName`] listing the valid names.
    pub fn parse(s: &str) -> Result<DivergenceModel, UnknownName> {
        parse_name("divergence model", &Self::ALL, Self::name, s)
    }
}

/// Full configuration of the simulated GPU.
///
/// [`GpuConfig::titan_x_pascal`] reproduces Table II; [`GpuConfig::scaled`]
/// is the same microarchitecture with fewer SMs, the configuration the
/// experiment harness uses so the full benchmark sweep finishes quickly.
#[derive(Clone, PartialEq, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM (informational; issue widths below drive timing).
    pub cores_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Register-file size per SM in bytes.
    pub rf_bytes_per_sm: u32,
    /// Number of single-ported register banks per SM.
    pub rf_banks: u32,
    /// Warp schedulers per SM.
    pub schedulers_per_sm: u32,
    /// Instructions each scheduler may issue per cycle.
    pub issue_per_scheduler: u32,
    /// Operand-collector model to simulate.
    pub collector: CollectorKind,
    /// SM core microarchitecture (stage graph, hazard policy, RF and
    /// collector topology). Orthogonal to [`collector`](Self::collector):
    /// every collector model runs on either core.
    pub core_model: CoreModelKind,
    /// Divergence/reconvergence model kernels are compiled for (see
    /// [`DivergenceModel`]). Orthogonal to the core model and collector.
    pub divergence: DivergenceModel,
    /// Baseline operand-collector units per SM (pool shared by all warps).
    pub num_ocus: u32,
    /// Cycles from a register-bank grant until the operand sits in the
    /// collector (arbitration + crossbar transfer). Bypassed operands skip
    /// this entirely — the latency side of BOW's advantage.
    pub rf_read_latency: u32,
    /// Operands the bank→collector crossbar can deliver per cycle across
    /// the whole SM. Bypassed operands never cross it — the throughput
    /// side of BOW's advantage.
    pub xbar_width: u32,
    /// ALU pipeline latency in cycles.
    pub alu_latency: u32,
    /// Multiplier/FMA pipeline latency in cycles.
    pub mul_latency: u32,
    /// Special-function-unit latency in cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency in cycles (plus bank-conflict cycles).
    pub smem_latency: u32,
    /// Warp instructions each FU class can start per cycle per SM.
    pub alu_width: u32,
    /// See [`alu_width`](Self::alu_width).
    pub mul_width: u32,
    /// See [`alu_width`](Self::alu_width).
    pub sfu_width: u32,
    /// See [`alu_width`](Self::alu_width).
    pub mem_width: u32,
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Warp-scheduling policy.
    pub sched: SchedPolicy,
    /// Instruction-window sizes the online bypass analyzer should track
    /// (Fig. 3); empty disables the analyzer.
    pub analyze_windows: Vec<u32>,
    /// Safety valve: abort a launch after this many cycles (0 = unlimited).
    pub max_cycles: u64,
    /// Record per-instruction pipeline events (see
    /// [`PipeTrace`](crate::pipetrace::PipeTrace)). Costly; off by default.
    pub trace_pipeline: bool,
    /// Run every launch twice — once through the timing-free architectural
    /// oracle ([`crate::oracle`]) and once through the pipeline — and
    /// report where they disagree in
    /// [`LaunchResult::oracle`](crate::LaunchResult). Costly; off by
    /// default; intended for differential testing (`bow fuzz`) and
    /// correctness CI.
    pub oracle_check: OracleCheck,
    /// Subscribe the race sanitizer ([`crate::sanitize`]) to the launch:
    /// shadow every shared- and global-memory word with last-accessor
    /// provenance and a per-CTA barrier epoch, and report intra-CTA data
    /// races, reads of never-initialized shared memory and divergent
    /// barriers in [`LaunchResult::sanitizer`](crate::LaunchResult).
    /// Costly (forces the instrumented pipeline); off by default.
    pub sanitize: bool,
    /// Inert, read by nothing: the fixed `benchmark/` sets this field.
    pub sim_threads: u32,
}

/// How strictly [`GpuConfig::oracle_check`] compares a launch against the
/// architectural oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OracleCheck {
    /// No oracle run (the normal, fast path).
    #[default]
    Off,
    /// Compare final global memory only, word for word. Sound for any
    /// kernel whose cross-warp races are value-convergent (every racing
    /// write stores the same value — e.g. level-synchronous BFS marking
    /// a node from several edges).
    Memory,
    /// Additionally check every instruction's destination values against
    /// the oracle's write log, reporting the first divergence. Only
    /// sound for kernels free of cross-warp data races, where the
    /// oracle's warp-serial schedule is equivalent to any interleaving.
    Lockstep,
}

impl GpuConfig {
    /// The NVIDIA TITAN X (Pascal) configuration of Table II.
    pub fn titan_x_pascal(collector: CollectorKind) -> GpuConfig {
        GpuConfig {
            num_sms: 56,
            cores_per_sm: 128,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 32,
            rf_bytes_per_sm: 256 * 1024,
            rf_banks: 32,
            schedulers_per_sm: 4,
            issue_per_scheduler: 2,
            collector,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            num_ocus: 32,
            rf_read_latency: 2,
            xbar_width: 8,
            alu_latency: 4,
            mul_latency: 6,
            sfu_latency: 16,
            smem_latency: 24,
            alu_width: 4,
            mul_width: 4,
            sfu_width: 1,
            mem_width: 1,
            mem: MemConfig::default(),
            sched: SchedPolicy::Gto,
            analyze_windows: Vec::new(),
            max_cycles: 0,
            trace_pipeline: false,
            oracle_check: OracleCheck::Off,
            sanitize: false,
            sim_threads: 1,
        }
    }

    /// The same SM microarchitecture with a small SM count, for fast
    /// experiment sweeps. Per-SM behaviour — the quantity every figure in
    /// the paper reports — is unchanged.
    pub fn scaled(collector: CollectorKind) -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            ..GpuConfig::titan_x_pascal(collector)
        }
    }

    /// Returns a copy with a different collector model — the way the
    /// harness builds matched baseline/BOW/BOW-WR/RFC configurations.
    pub fn with_collector(&self, collector: CollectorKind) -> GpuConfig {
        GpuConfig {
            collector,
            ..self.clone()
        }
    }

    /// Returns a copy with the Fig. 3 analyzer enabled for `windows`.
    pub fn with_analyzer(&self, windows: &[u32]) -> GpuConfig {
        GpuConfig {
            analyze_windows: windows.to_vec(),
            ..self.clone()
        }
    }

    /// Pipeline latency for an opcode's functional-unit class (memory gets
    /// its latency from the hierarchy instead).
    pub fn fu_latency(&self, class: bow_isa::FuClass) -> u32 {
        match class {
            bow_isa::FuClass::Alu => self.alu_latency,
            bow_isa::FuClass::Mul => self.mul_latency,
            bow_isa::FuClass::Sfu => self.sfu_latency,
            bow_isa::FuClass::Mem => 0,
            bow_isa::FuClass::Ctrl => 1,
        }
    }

    /// Per-cycle issue width for a functional-unit class.
    pub fn fu_width(&self, class: bow_isa::FuClass) -> u32 {
        match class {
            bow_isa::FuClass::Alu => self.alu_width,
            bow_isa::FuClass::Mul => self.mul_width,
            bow_isa::FuClass::Sfu => self.sfu_width,
            bow_isa::FuClass::Mem => self.mem_width,
            bow_isa::FuClass::Ctrl => u32::MAX,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::scaled(CollectorKind::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::FuClass;

    #[test]
    fn table_ii_constants() {
        let c = GpuConfig::titan_x_pascal(CollectorKind::Baseline);
        assert_eq!(c.num_sms, 56);
        assert_eq!(c.cores_per_sm, 128);
        assert_eq!(c.max_blocks_per_sm, 16);
        assert_eq!(c.max_warps_per_sm, 32);
        assert_eq!(c.rf_bytes_per_sm, 256 * 1024);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.issue_per_scheduler, 2);
        assert_eq!(c.sched, SchedPolicy::Gto);
    }

    #[test]
    fn scaled_only_changes_sm_count() {
        let full = GpuConfig::titan_x_pascal(CollectorKind::Baseline);
        let scaled = GpuConfig::scaled(CollectorKind::Baseline);
        assert_eq!(
            GpuConfig {
                num_sms: full.num_sms,
                ..scaled
            },
            full
        );
    }

    #[test]
    fn latency_lookup() {
        let c = GpuConfig::default();
        assert_eq!(c.fu_latency(FuClass::Alu), 4);
        assert_eq!(c.fu_latency(FuClass::Sfu), 16);
        assert_eq!(c.fu_width(FuClass::Mem), 1);
    }

    #[test]
    fn with_collector_preserves_everything_else() {
        let base = GpuConfig::default();
        let bow = base.with_collector(CollectorKind::bow(3));
        assert_eq!(bow.num_sms, base.num_sms);
        assert_eq!(bow.collector, CollectorKind::bow(3));
    }
}
