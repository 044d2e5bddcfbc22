//! # bow-sim — cycle-level GPU model with bypassing operand collectors
//!
//! This crate is the heart of the BOW reproduction: a functional **and**
//! cycle-level model of a GPU streaming multiprocessor (SM) in the style the
//! paper simulates with GPGPU-Sim (NVIDIA TITAN X, Pascal — Table II):
//!
//! * four greedy-then-oldest (GTO) warp schedulers with dual issue;
//! * one SM [`Pipeline`] (writeback → collect → dispatch → issue, see
//!   [`stage`]) serving both cores [`CoreModelKind`] selects. `pascal` runs
//!   it over an SM-wide collector pool behind a scoreboard blocking
//!   RAW/WAW/WAR hazards per warp; `modern` splits it into one sub-core
//!   partition per scheduler behind compiler-emitted control bits and a
//!   uniform register file. The two differ in that interlock and the
//!   partition count, nothing else;
//! * a 32-bank, single-ported register file with a bank arbitrator;
//! * an operand-collection stage with four interchangeable models:
//!   the **baseline** OCUs, the paper's **BOW** (read bypassing,
//!   write-through), **BOW-WR** (read+write bypassing, write-back with
//!   compiler hints) and the **RFC** register-file-cache comparison point;
//! * pipelined SIMD execution units and an L1/L2/DRAM memory hierarchy
//!   (from [`bow_mem`]);
//! * SIMT divergence via an SSY/SYNC reconvergence stack, and block-wide
//!   barriers.
//!
//! Execution is functional: threads carry real register values and memory
//! holds real data, so every run can be checked against a host reference —
//! and the repository's central invariant, *bypassing never changes
//! architectural state*, is enforced by tests that compare final memory
//! across all collector models.
//!
//! ## Quick start
//!
//! ```
//! use bow_sim::{Gpu, GpuConfig, CollectorKind};
//! use bow_isa::{KernelBuilder, Reg, Special, KernelDims};
//!
//! // d[i] = i  for 64 threads
//! let r = Reg::r;
//! let kernel = KernelBuilder::new("iota")
//!     .s2r(r(0), Special::TidX)
//!     .s2r(r(1), Special::CtaidX)
//!     .s2r(r(2), Special::NtidX)
//!     .imad(r(0), r(1).into(), r(2).into(), r(0).into())
//!     .ldc(r(3), 0)
//!     .shl(r(4), r(0).into(), 2.into())
//!     .iadd(r(3), r(3).into(), r(4).into())
//!     .stg(r(3), 0, r(0).into())
//!     .exit()
//!     .build()?;
//!
//! let mut gpu = Gpu::new(GpuConfig::scaled(CollectorKind::bow_wr(3)));
//! let out = 0x1000u64;
//! let run = gpu.launch(&kernel, KernelDims::linear(2, 32), &[out as u32]);
//! assert_eq!(gpu.global().read_u32(out + 4 * 63), 63);
//! assert!(run.stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bits;
pub mod collector;
pub mod config;
pub mod decode;
pub mod exec;
pub mod gpu;
pub mod oracle;
pub mod pipetrace;
pub mod probe;
pub mod regfile;
pub mod sanitize;
pub mod scheduler;
pub mod scoreboard;
pub mod sm;
pub mod stage;
pub mod stats;
pub mod trace;
pub mod warp;

// The name-table helper the axis enums here (and `bow_workloads::Scale`)
// declare their value names with.
pub use bow_util::{parse_name, UnknownName};
pub use collector::CollectorKind;
pub use config::{CoreModelKind, DivergenceModel, GpuConfig, OracleCheck, SchedPolicy};
pub use gpu::{Gpu, LaunchResult};
pub use oracle::{
    run_oracle, Divergence, LockstepChecker, OracleMismatch, OracleReport, OracleRun, WriteLog,
    WriteRecord,
};
pub use pipetrace::{Event, PipeTrace, Stage};
pub use probe::{emit, NullProbe, PipeEvent, Probe, StallKind};
pub use sanitize::{Sanitizer, SanitizerFinding, SanitizerReport};
pub use stage::{CompletionQueue, DispatchLatch, Pipeline, SmCtx};
pub use stats::{SimStats, WriteDest};
pub use trace::{ArchWindow, BypassAnalyzer, WindowReport};
