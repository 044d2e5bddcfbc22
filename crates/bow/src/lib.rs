//! # BOW: Breathing Operand Windows
//!
//! A from-scratch Rust reproduction of *BOW: Breathing Operand Windows to
//! Exploit Bypassing in GPUs* (MICRO 2020): a cycle-level GPU SM model with
//! a banked register file and operand collectors, the BOW / BOW-WR
//! bypassing architectures, the compiler liveness pass that drives their
//! write-back hints, a register-file-cache baseline, an energy/area model
//! and the paper's benchmark suite.
//!
//! This umbrella crate re-exports the public API of every subsystem and
//! adds the [`experiment`] driver the figure/table harness and examples
//! are built on.
//!
//! ## Quick start
//!
//! ```
//! use bow::prelude::*;
//!
//! // Sweep one benchmark under the baseline and BOW-WR (IW = 3) in
//! // parallel; rows come back in configuration order.
//! let result = Suite::benchmark("vectoradd", Scale::Test)
//!     .config(ConfigBuilder::baseline().build())
//!     .config(ConfigBuilder::bow_wr(3).build())
//!     .progress(false)
//!     .run();
//! result.assert_checked();
//! assert!(result.row(1).records[0].outcome.result.stats.bypassed_reads > 0);
//! ```

pub mod api;
mod campaign;
pub mod corpus;
pub mod error;
pub mod experiment;
pub mod fuzz;
pub mod mutate;
pub mod sanitize_campaign;
pub mod suite;
pub mod verdict;

/// Re-export of [`bow_isa`]: the instruction set.
pub mod isa {
    pub use bow_isa::*;
}

/// Re-export of [`bow_mem`]: the memory substrate.
pub mod mem {
    pub use bow_mem::*;
}

/// Re-export of [`bow_util`]: RNG, JSON and small shared utilities.
pub mod util {
    pub use bow_util::*;
}

/// Re-export of [`bow_energy`]: the energy/area model.
pub mod energy {
    pub use bow_energy::*;
}

/// Re-export of [`bow_sim`]: the cycle-level GPU model.
pub mod sim {
    pub use bow_sim::*;
}

/// Re-export of [`bow_compiler`]: liveness and hints.
pub mod compiler {
    pub use bow_compiler::*;
}

/// Re-export of [`bow_workloads`]: the benchmark suite.
pub mod workloads {
    pub use bow_workloads::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use crate::api::{KernelSpec, RunRequest, SweepRequest};
    pub use crate::error::{BowError, ConfigError};
    pub use crate::experiment::{run, Config, ConfigBuilder, GpuModel, RunRecord, SCHEMA_VERSION};
    pub use crate::suite::{ConfigRow, Suite, SweepResult};
    pub use bow_compiler::annotate;
    pub use bow_energy::{AccessCounts, EnergyModel, EnergyReport};
    pub use bow_isa::{
        CmpOp, Kernel, KernelBuilder, KernelDims, Operand, Pred, Reg, Special, WritebackHint,
    };
    pub use bow_sim::{
        CollectorKind, CoreModelKind, DivergenceModel, Gpu, GpuConfig, LaunchResult, SimStats,
    };
    pub use bow_workloads::{suite, Benchmark, RunOutcome, Scale};
}
