//! `corpus_gen`: `bow::corpus::generate` and nothing else — the fuzz
//! generator, scrub/prune, `characterize`, the lint gate and sha256
//! fingerprints. No kernel is simulated.
//!
//! A pass generates ten corpora of 1000 kernels, from master seeds
//! `seed .. seed + 9`; every pass generates the same ten, so each corpus
//! is one timed piece. An operation is one kernel asked of the
//! generator; it fails when the manifest comes back without it, or when
//! a sampled entry does not re-materialize to its recorded fingerprint.

use std::time::Instant;

use bow::compiler::{self, CtrlLatencies};
use bow::corpus::{self, adversarial, Manifest, ManifestEntry};
use bow::isa::fuzz::FuzzKernel;
use bow::isa::{encode_kernel, Kernel};
use bow_util::hash::sha256_hex;
use bow_util::XorShift;

use super::{caught, finish_trace, PassClock, RunOpts, RunOutput, SetUps, Sizing, TraceEnd};
use crate::trace::Tracer;

/// Entries per pass that are re-materialized and re-fingerprinted.
const SPOT_CHECKS: u64 = 32;

/// Retained kernels per traced corpus that the downstream compile passes
/// (the ones a sweep of that corpus would run) are timed on.
const COMPILE_PROBES: usize = 200;

/// `corpus::kernel_seed`, which is private: the per-kernel seed is
/// derived from the master seed by position. The traced pass checks its
/// manifest against `generate`'s, so a drift here cannot go unnoticed.
fn kernel_seed(master: u64, stratum_index: usize, attempt: u64) -> u64 {
    const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    master ^ ((stratum_index as u64 + 1) * 1_000_003 + attempt).wrapping_mul(SEED_MIX)
}

fn generated(manifest: &Manifest) -> impl Iterator<Item = &ManifestEntry> {
    manifest
        .entries
        .iter()
        .filter(|e| e.stratum != adversarial::STRATUM)
}

/// Checks one generated manifest and counts its operations.
fn verify(out: &mut RunOutput, manifest: &Manifest, seed: u64, count: usize) {
    out.attempted += count as u64;
    let got = generated(manifest).filter(|e| e.retained).count();
    for _ in got..count {
        out.fail(format!(
            "generate({seed}, {count}) retained only {got} kernels"
        ));
    }
    let back = Manifest::from_json(&manifest.to_json());
    if back.as_ref() != Ok(manifest) {
        out.failures.push(format!(
            "generate({seed}, {count}): manifest does not round-trip through JSON"
        ));
    }
    let mut rng = XorShift::new(seed ^ 0x5b07);
    for _ in 0..SPOT_CHECKS.min(manifest.entries.len() as u64) {
        let entry = &manifest.entries[rng.below(manifest.entries.len() as u64) as usize];
        let same =
            corpus::kernel_for(entry).is_some_and(|k| corpus::fingerprint(&k) == entry.fingerprint);
        if !same {
            out.fail(format!(
                "{} does not re-materialize to its fingerprint",
                entry.name
            ));
        }
    }
}

fn set_up(opts: &RunOpts) {
    // Page the generator and the lint suite in, and let the allocator
    // grow, before the first timed pass.
    std::hint::black_box(corpus::generate(opts.seed ^ 0x77a2_3000, 256));
}

/// What the traced pipeline adds up beside the spans.
#[derive(Default)]
struct Sums {
    candidates: u64,
    retained: u64,
    hashed_bytes: u64,
    compiled_insts: u64,
}

fn traced_fingerprint(tr: &mut Tracer, sums: &mut Sums, kernel: &Kernel) -> String {
    let bytes = tr.leaf("isa.encode", || {
        let words = encode_kernel(kernel);
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    });
    sums.hashed_bytes += bytes.len() as u64;
    tr.leaf("util.sha256", || sha256_hex(&bytes))
}

/// `corpus::generate`, stage by stage, with a span around each.
fn traced_generate(tr: &mut Tracer, sums: &mut Sums, seed: u64, count: usize) -> Manifest {
    tr.scope("bench.pass", |tr| {
        let defs = corpus::strata();
        let (per, extra) = (count / defs.len(), count % defs.len());
        let mut entries = Vec::with_capacity(count + adversarial::all().len());
        let mut rejected = Vec::new();
        let mut id = 0u64;
        for (si, def) in defs.iter().enumerate() {
            let target = per + usize::from(si < extra);
            let (mut kept, mut attempt, mut dirty) = (0usize, 0u64, 0u64);
            while kept < target && attempt < (target as u64) * 8 {
                let kseed = kernel_seed(seed, si, attempt);
                attempt += 1;
                sums.candidates += 1;
                let mut rng = XorShift::new(kseed);
                let program = tr.leaf("isa.fuzz_gen", || {
                    FuzzKernel::generate_with(&mut rng, def.budget, &def.params)
                });
                let name = format!("corpus_{}_{:016x}", def.name, kseed);
                let kernel = tr.leaf("isa.scrub_prune", || program.scrub().build_pruned(&name));
                sums.compiled_insts += kernel.insts.len() as u64;
                if tr
                    .leaf("compiler.lint_gate", || corpus::lint_gate(&kernel))
                    .is_some()
                {
                    dirty += 1;
                    continue;
                }
                sums.compiled_insts += kernel.insts.len() as u64;
                let traits = tr.leaf("compiler.characterize", || compiler::characterize(&kernel));
                entries.push(ManifestEntry {
                    id,
                    stratum: def.name.to_string(),
                    name,
                    seed: kseed,
                    budget: def.budget as u64,
                    traits,
                    fingerprint: traced_fingerprint(tr, sums, &kernel),
                    retained: true,
                    reject: None,
                });
                id += 1;
                kept += 1;
                sums.retained += 1;
            }
            rejected.push((def.name.to_string(), dirty));
        }
        let mut adv_dirty = 0u64;
        for adv in adversarial::all() {
            let kernel = (adv.build)();
            sums.compiled_insts += 2 * kernel.insts.len() as u64;
            let code = tr.leaf("compiler.lint_gate", || corpus::lint_as_authored(&kernel));
            adv_dirty += u64::from(code.is_some());
            let traits = tr.leaf("compiler.characterize", || compiler::characterize(&kernel));
            entries.push(ManifestEntry {
                id,
                stratum: adversarial::STRATUM.to_string(),
                name: adv.name.to_string(),
                seed: 0,
                budget: 0,
                traits,
                fingerprint: traced_fingerprint(tr, sums, &kernel),
                retained: code.is_none(),
                reject: code.map(str::to_string),
            });
            id += 1;
        }
        rejected.push((adversarial::STRATUM.to_string(), adv_dirty));
        Manifest {
            seed,
            count: count as u64,
            entries,
            rejected,
        }
    })
}

/// Times the compile passes a sweep of this corpus would run, on the
/// first retained kernels: they are not part of `generate`, so they sit
/// under a root span of their own, outside the traced wall and outside
/// the driver's `bench` layer.
fn compile_probes(tr: &mut Tracer, sums: &mut Sums, manifest: &Manifest) {
    tr.scope("probe.compile", |tr| {
        for entry in generated(manifest).take(COMPILE_PROBES) {
            let Some(kernel) = corpus::kernel_for(entry) else {
                continue;
            };
            let insts = kernel.insts.len() as u64;
            let reordered = tr.leaf("compiler.reorder", || compiler::reorder_for_bypass(&kernel));
            let annotated = tr.leaf("compiler.annotate_checked", || {
                compiler::annotate_checked(&kernel, 3)
            });
            let lowered = tr.leaf("compiler.lower_to_barriers", || {
                compiler::lower_to_barriers(&kernel)
            });
            let ctrl = tr.leaf("compiler.emit_ctrl", || {
                compiler::emit_ctrl(&kernel, &CtrlLatencies::default())
            });
            sums.compiled_insts += 4 * insts;
            std::hint::black_box((reordered, annotated.is_ok(), lowered.is_ok(), ctrl));
        }
    });
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> RunOutput {
    let sizing = Sizing::of(opts);
    let (corpora, count) = (sizing.corpus_gen_corpora, sizing.corpus_gen_count);
    let mut out = RunOutput::default();
    let (mut set_ups, ()) = SetUps::first(sizing.setup_reps, || set_up(opts));
    let clock = PassClock::start(opts);
    let mut tr = Tracer::new();
    let mut sums = Sums::default();
    let (mut pieces, mut traced_walls) = (Vec::new(), Vec::new());
    let mut started = 0;
    while clock.another(started) {
        started += 1;
        let mut walls = Vec::with_capacity(corpora);
        let mut traced_wall = 0.0;
        for k in 0..corpora as u64 {
            let seed = opts.seed.wrapping_add(k);
            let start = Instant::now();
            let generated = caught(|| corpus::generate(seed, count));
            walls.push(start.elapsed().as_secs_f64());
            let manifest = match generated {
                Ok(m) => m,
                Err(message) => {
                    out.attempted += count as u64;
                    for _ in 0..count {
                        out.fail(format!("generate({seed}, {count}) panicked: {message}"));
                    }
                    continue;
                }
            };
            verify(&mut out, &manifest, seed, count);
            if opts.trace {
                let start = Instant::now();
                let staged = traced_generate(&mut tr, &mut sums, seed, count);
                traced_wall += start.elapsed().as_secs_f64();
                if staged != manifest {
                    out.failures.push(format!(
                        "generate({seed}, {count}): the staged pipeline built a different manifest"
                    ));
                }
                compile_probes(&mut tr, &mut sums, &manifest);
            }
        }
        pieces.push(walls);
        traced_walls.push(traced_wall);
        set_ups.after_pass(|| set_up(opts));
    }
    out.passes = pieces.len() as u64;
    let ops = (corpora * count) as u64;
    if !opts.trace {
        out.set_pass_timing(&set_ups, &pieces, ops);
        return out;
    }
    let walls: Vec<f64> = pieces.iter().map(|p| p.iter().sum()).collect();
    if let Some(sha) = tr.totals().get("util.sha256") {
        out.values.set(
            "util.sha256_mb_s",
            sums.hashed_bytes as f64 / 1e6 / (sha.total_ns as f64 / 1e9),
        );
    }
    out.values.set(
        "bow.corpus_retained_pct",
        100.0 * sums.retained as f64 / sums.candidates.max(1) as f64,
    );
    finish_trace(
        &mut out,
        &tr,
        opts,
        &TraceEnd {
            workload: "corpus_gen",
            root: "bench.pass",
            traced_walls: &traced_walls,
            untraced_walls: &walls,
            compiled_insts: sums.compiled_insts,
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_staged_pipeline_builds_generate_s_manifest() {
        let mut tr = Tracer::new();
        let mut sums = Sums::default();
        for seed in [1u64, 0xfeed] {
            let staged = traced_generate(&mut tr, &mut sums, seed, 40);
            assert_eq!(staged, corpus::generate(seed, 40), "seed {seed}");
        }
        assert_eq!(sums.retained, 80);
        assert!(sums.candidates >= sums.retained);
        let totals = tr.totals();
        for span in [
            "isa.fuzz_gen",
            "isa.scrub_prune",
            "compiler.lint_gate",
            "compiler.characterize",
            "isa.encode",
            "util.sha256",
        ] {
            assert!(totals[span].count >= 80, "{span}");
        }
    }

    #[test]
    fn a_short_or_corrupt_manifest_fails_operations() {
        let mut manifest = corpus::generate(9, 20);
        let mut out = RunOutput::default();
        verify(&mut out, &manifest, 9, 20);
        assert_eq!((out.attempted, out.failed), (20, 0), "{:?}", out.failures);
        // Two kernels short, and every fingerprint wrong.
        let dropped: Vec<_> = manifest.entries.drain(..2).collect();
        assert_eq!(dropped.len(), 2);
        for e in &mut manifest.entries {
            e.fingerprint = "0".repeat(64);
        }
        let mut out = RunOutput::default();
        verify(&mut out, &manifest, 9, 20);
        assert_eq!(out.attempted, 20);
        assert_eq!(
            out.failed,
            2 + SPOT_CHECKS.min(manifest.entries.len() as u64)
        );
    }
}
