//! # bow-workloads — the benchmark suite of the BOW study
//!
//! The paper evaluates BOW on 15 benchmarks drawn from ISPASS, Rodinia,
//! Tango, the CUDA SDK and Parboil (Table III). The original CUDA binaries
//! cannot run on a from-scratch simulator, so this crate provides a kernel
//! written in the BOW ISA for every benchmark, matching its computational
//! character — instruction mix, register pressure, memory behaviour,
//! divergence — as described in DESIGN.md. Every workload is *functional*:
//! [`Benchmark::run_with`] seeds device memory deterministically, launches
//! the kernel(s) and checks the produced memory against an exact host
//! reference (same operation order, same fused multiply-adds).
//!
//! ```no_run
//! use bow_sim::{Gpu, GpuConfig, CollectorKind};
//! use bow_workloads::suite;
//!
//! for bench in suite(bow_workloads::Scale::Test) {
//!     let mut gpu = Gpu::new(GpuConfig::scaled(CollectorKind::bow_wr(3)));
//!     let kernel = bench.kernel();
//!     let out = bench.run_with(&mut gpu, &kernel);
//!     out.checked.expect("functional mismatch");
//!     println!("{}: IPC {:.2}", bench.name(), out.result.ipc());
//! }
//! ```

pub mod harness;
pub mod kernels;
pub mod snippet;

pub use harness::{merge_results, RunOutcome};

use bow_isa::Kernel;
use bow_sim::{parse_name, Gpu, UnknownName};

/// Problem-size preset for the suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny inputs for unit tests (debug-build friendly).
    Test,
    /// The sizes the experiment harness uses (seconds per run in release).
    Paper,
}

impl Scale {
    /// Every scale, in table order.
    pub const ALL: [Scale; 2] = [Scale::Test, Scale::Paper];

    /// The canonical lowercase name — the one spelling the CLI flag and
    /// the wire contract use.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    }

    /// The scale named `s`.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownName`] listing the valid names.
    pub fn parse(s: &str) -> Result<Scale, UnknownName> {
        parse_name("scale", &Self::ALL, Self::name, s)
    }
}

/// A runnable benchmark: kernel + inputs + host reference.
///
/// Implementations are plain data (name + problem sizes), so the trait
/// requires `Send + Sync` — the parallel sweep engine (`bow::suite`)
/// shares one boxed suite across its worker threads.
pub trait Benchmark: Send + Sync {
    /// Short lower-case name (the paper's label, e.g. `"btree"`).
    fn name(&self) -> &'static str;

    /// The suite the paper drew it from (`"rodinia"`, `"ispass"`, ...).
    fn suite(&self) -> &'static str;

    /// One-line description.
    fn description(&self) -> &'static str;

    /// The benchmark's kernel (un-annotated; pass through
    /// [`bow_compiler::annotate`] for BOW-WR runs).
    ///
    /// [`bow_compiler::annotate`]: https://docs.rs/bow-compiler
    fn kernel(&self) -> Kernel;

    /// Seeds device memory, launches `kernel` (one or more times) and
    /// verifies the result against the host reference.
    fn run_with(&self, gpu: &mut Gpu, kernel: &Kernel) -> RunOutcome;
}

/// The full Table III suite at the given scale, in the paper's order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(kernels::lib_mc::LibMc::new(scale)),
        Box::new(kernels::lps::Lps::new(scale)),
        Box::new(kernels::sto::Sto::new(scale)),
        Box::new(kernels::wp::Wp::new(scale)),
        Box::new(kernels::backprop::Backprop::new(scale)),
        Box::new(kernels::bfs::Bfs::new(scale)),
        Box::new(kernels::btree::Btree::new(scale)),
        Box::new(kernels::gaussian::Gaussian::new(scale)),
        Box::new(kernels::mum::Mum::new(scale)),
        Box::new(kernels::nw::Nw::new(scale)),
        Box::new(kernels::srad::Srad::new(scale)),
        Box::new(kernels::cifarnet::CifarNet::new(scale)),
        Box::new(kernels::squeezenet::SqueezeNet::new(scale)),
        Box::new(kernels::vectoradd::VectorAdd::new(scale)),
        Box::new(kernels::sad::Sad::new(scale)),
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Benchmark>> {
    suite(scale).into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_fifteen() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 15);
        let names: Vec<&str> = s.iter().map(|b| b.name()).collect();
        for expect in [
            "lib",
            "lps",
            "sto",
            "wp",
            "backprop",
            "bfs",
            "btree",
            "gaussian",
            "mum",
            "nw",
            "srad",
            "cifarnet",
            "squeezenet",
            "vectoradd",
            "sad",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn all_kernels_validate() {
        for b in suite(Scale::Test) {
            b.kernel()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("btree", Scale::Test).is_some());
        assert!(by_name("nope", Scale::Test).is_none());
    }
}
