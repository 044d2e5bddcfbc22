//! The stratified thousand-kernel corpus.
//!
//! Every headline number in the reproduction used to rest on 15
//! hand-written workloads. This module scales the workload axis: it
//! drives the steerable fuzz generator ([`bow_isa::fuzz::GenParams`])
//! across stratified buckets of the paper's own analysis axes — register
//! pressure, operand reuse distance, branch divergence, memory-op
//! density — characterizes every candidate statically
//! ([`bow_compiler::characterize()`]), rejects anything the `B001..B014`
//! lint suite is not clean on, and persists a deterministic manifest so
//! the whole population is reproducible from seeds alone (no kernel
//! binaries are ever checked in).
//!
//! The corpus then feeds the standard sweep machinery: [`sweep`] runs
//! collectors × kernels through the same [`Suite`] pool the Table III
//! benchmarks use, with every cell checked by the lockstep oracle and then
//! the independent host model, and [`distribution_json`] reduces the
//! records to per-stratum bypass-opportunity and IPC-gain distributions
//! (median/p10/p90) — the population view of Figs. 3 and 10.
//!
//! Determinism contract: [`generate`] is a pure function of
//! `(seed, count)`. The manifest JSON is byte-identical across runs and
//! machines and at any worker count — every field is an integer, string
//! or bool, and per-kernel seeds are derived by position, never by wall
//! clock or thread timing.

use crate::campaign::Program;
use crate::experiment::{Config, ConfigBuilder, GpuModel};
use crate::suite::{effective_jobs, map_parallel, Suite, SweepResult};
use bow_compiler::{
    annotate_with, characterize, characterize_with, ctrl_bits, lint_kernel, lint_with, Analysis,
    CtrlLatencies, KernelTraits, LintOptions,
};
use bow_isa::fuzz::{FuzzKernel, GenParams};
use bow_isa::{encode_kernel, Kernel};
use bow_sim::{CoreModelKind, DivergenceModel, OracleCheck};
use bow_util::hash::sha256_hex;
use bow_util::json::{DecodeError, Json};
use bow_util::XorShift;
use bow_workloads::Benchmark;

pub mod adversarial;

/// Manifest schema version; bumped on any layout change.
pub const MANIFEST_VERSION: u64 = 1;

/// Default master seed of the corpus (`bow-cli corpus gen --seed`).
pub const DEFAULT_SEED: u64 = 0x0c09_95ee_d000_0001;

/// Default corpus size (`bow-cli corpus gen --count`).
pub const DEFAULT_COUNT: usize = 1000;

/// Per-kernel seed mixer (same spirit as the fuzzer's golden ratio).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hint window every corpus kernel is annotated and linted at.
pub(crate) const WINDOW: u32 = 3;

/// Cycle watchdog of an adversarial kernel's judged launch: two of the
/// planted hazards stall the barrier by construction, and the kernels are
/// a dozen instructions long, so a fraction of a generated program's
/// budget bounds the hang without risking a false timeout.
const ADV_MAX_CYCLES: u64 = 200_000;

/// One generation stratum: a named point in the generator's parameter
/// space plus the statement budget drawn at.
#[derive(Clone, Copy, Debug)]
pub struct StratumDef {
    /// Stable stratum name (a manifest key).
    pub name: &'static str,
    /// What the stratum stresses.
    pub description: &'static str,
    /// Generator knobs.
    pub params: GenParams,
    /// Statement budget per kernel.
    pub budget: usize,
}

/// The generated strata, one or two per paper axis plus a mixed control.
/// The adversarial stratum (hand-written SIMT hazards) is separate — see
/// [`adversarial`].
pub fn strata() -> Vec<StratumDef> {
    let d = GenParams::default();
    vec![
        StratumDef {
            name: "mixed",
            description: "the classic fuzzer distribution (control group)",
            params: d,
            budget: 24,
        },
        StratumDef {
            name: "regs-low",
            description: "register pressure low: two data registers in play",
            params: GenParams {
                active_regs: 2,
                ..d
            },
            budget: 24,
        },
        StratumDef {
            name: "regs-high",
            description: "register pressure high: full pool, larger bodies",
            params: GenParams {
                active_regs: 8,
                ..d
            },
            budget: 36,
        },
        StratumDef {
            name: "reuse-near",
            description: "short operand reuse distance (bypass-friendly)",
            params: GenParams {
                reuse_window: 2,
                ..d
            },
            budget: 24,
        },
        StratumDef {
            name: "reuse-far",
            description: "long operand reuse distance: uniform over 8 regs, ALU-dominated",
            params: GenParams {
                active_regs: 8,
                w_alu: 70,
                w_branch: 4,
                w_loop: 3,
                ..d
            },
            budget: 32,
        },
        StratumDef {
            name: "divergent",
            description: "branch-heavy: deep diamonds dominate",
            params: GenParams {
                w_branch: 25,
                w_alu: 34,
                ..d
            },
            budget: 28,
        },
        StratumDef {
            name: "straightline",
            description: "no control flow: pure in-order issue",
            params: GenParams {
                w_branch: 0,
                w_loop: 0,
                ..d
            },
            budget: 24,
        },
        StratumDef {
            name: "mem-heavy",
            description: "memory-dense: loads/stores/constants at triple weight",
            params: GenParams {
                w_load: 18,
                w_store: 18,
                w_ldconst: 10,
                w_alu: 24,
                ..d
            },
            budget: 24,
        },
        StratumDef {
            name: "compute",
            description: "no memory traffic beyond the fixed prologue/epilogue",
            params: GenParams {
                w_load: 0,
                w_store: 0,
                w_ldconst: 0,
                w_exchange: 0,
                w_barrier: 0,
                ..d
            },
            budget: 24,
        },
    ]
}

/// One manifest row: everything needed to re-materialize and reason
/// about a corpus kernel without storing its binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Position in the manifest (stable within a `(seed, count)` corpus).
    pub id: u64,
    /// Stratum name (a generated stratum or `"adversarial"`).
    pub stratum: String,
    /// Kernel name (deterministic; also the benchmark label in sweeps).
    pub name: String,
    /// Per-kernel generator seed (0 for hand-written kernels).
    pub seed: u64,
    /// Statement budget the kernel was generated at (0 if hand-written).
    pub budget: u64,
    /// Static characterization vector.
    pub traits: KernelTraits,
    /// SHA-256 over the kernel's binary encoding — the content identity.
    pub fingerprint: String,
    /// Whether the kernel is lint-clean (no errors, no warnings) and
    /// therefore part of the sweepable population.
    pub retained: bool,
    /// Primary diagnostic code when not retained (e.g. `"B002"`).
    pub reject: Option<String>,
}

/// A generated corpus: the deterministic record of `(seed, count)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Master seed.
    pub seed: u64,
    /// Requested kernel count (generated strata only).
    pub count: u64,
    /// All entries: retained generated kernels first (grouped by
    /// stratum, in draw order), then the adversarial stratum.
    pub entries: Vec<ManifestEntry>,
    /// Candidates rejected per stratum during generation.
    pub rejected: Vec<(String, u64)>,
}

fn traits_json(t: &KernelTraits) -> Json {
    Json::obj([
        ("insts", Json::from(u64::from(t.insts))),
        ("live_peak", Json::from(u64::from(t.live_peak))),
        ("regs_written", Json::from(u64::from(t.regs_written))),
        ("reuse_x100", Json::from(t.reuse_x100)),
        ("branch_depth", Json::from(u64::from(t.branch_depth))),
        ("mem_per_ki", Json::from(u64::from(t.mem_per_ki))),
        ("loads", Json::from(u64::from(t.loads))),
        ("stores", Json::from(u64::from(t.stores))),
        ("barriers", Json::from(u64::from(t.barriers))),
    ])
}

fn traits_from_json(v: &Json) -> Result<KernelTraits, DecodeError> {
    Ok(KernelTraits {
        insts: v.req_u64("insts")? as u32,
        live_peak: v.req_u64("live_peak")? as u32,
        regs_written: v.req_u64("regs_written")? as u32,
        reuse_x100: v.req_u64("reuse_x100")?,
        branch_depth: v.req_u64("branch_depth")? as u32,
        mem_per_ki: v.req_u64("mem_per_ki")? as u32,
        loads: v.req_u64("loads")? as u32,
        stores: v.req_u64("stores")? as u32,
        barriers: v.req_u64("barriers")? as u32,
    })
}

impl ManifestEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::from(self.id)),
            ("stratum".to_string(), Json::from(self.stratum.as_str())),
            ("name".to_string(), Json::from(self.name.as_str())),
            ("seed".to_string(), Json::from(format!("{:#x}", self.seed))),
            ("budget".to_string(), Json::from(self.budget)),
            ("traits".to_string(), traits_json(&self.traits)),
            (
                "fingerprint".to_string(),
                Json::from(self.fingerprint.as_str()),
            ),
            ("retained".to_string(), Json::from(self.retained)),
        ];
        if let Some(code) = &self.reject {
            fields.push(("reject".to_string(), Json::from(code.as_str())));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<ManifestEntry, DecodeError> {
        Ok(ManifestEntry {
            id: v.req_u64("id")?,
            stratum: v.req_str("stratum")?.to_string(),
            name: v.req_str("name")?.to_string(),
            seed: parse_hex_u64(v.req_str("seed")?)?,
            budget: v.req_u64("budget")?,
            traits: traits_from_json(v.req("traits")?)?,
            fingerprint: v.req_str("fingerprint")?.to_string(),
            retained: v.req_bool("retained")?,
            reject: match v.get("reject") {
                Some(j) => Some(
                    j.as_str()
                        .ok_or_else(|| DecodeError::new("`reject` must be a string"))?
                        .to_string(),
                ),
                None => None,
            },
        })
    }
}

fn parse_hex_u64(s: &str) -> Result<u64, DecodeError> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| DecodeError::new(format!("seed `{s}` is not 0x-hex")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|e| DecodeError::new(format!("seed `{s}` is not 0x-hex: {e}")))
}

impl Manifest {
    /// Serializes the manifest. Byte-deterministic: integers, strings
    /// and bools only, in fixed key order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(MANIFEST_VERSION)),
            ("seed", Json::from(format!("{:#x}", self.seed))),
            ("count", Json::from(self.count)),
            (
                "rejected",
                Json::Obj(
                    self.rejected
                        .iter()
                        .map(|(s, n)| (s.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
            (
                "kernels",
                Json::arr(self.entries.iter().map(ManifestEntry::to_json)),
            ),
        ])
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on any missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Manifest, DecodeError> {
        let version = v.req_u64("schema_version")?;
        if version != MANIFEST_VERSION {
            return Err(DecodeError::new(format!(
                "manifest schema {version}, expected {MANIFEST_VERSION}"
            )));
        }
        let rejected = v
            .req("rejected")?
            .as_obj()
            .ok_or_else(|| DecodeError::new("`rejected` must be an object"))?
            .iter()
            .map(|(k, n)| {
                n.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| DecodeError::new("`rejected` counts must be integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            seed: parse_hex_u64(v.req_str("seed")?)?,
            count: v.req_u64("count")?,
            entries: v
                .req_arr("kernels")?
                .iter()
                .map(ManifestEntry::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            rejected,
        })
    }

    /// The retained (sweepable) entries.
    pub fn retained(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.iter().filter(|e| e.retained)
    }

    /// Stratum names present, in first-appearance order.
    pub fn strata(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.stratum.as_str()) {
                out.push(&e.stratum);
            }
        }
        out
    }
}

/// The per-kernel generator seed: position-derived, so the corpus is
/// independent of generation order and thread count.
fn kernel_seed(master: u64, stratum_index: usize, attempt: u64) -> u64 {
    master ^ ((stratum_index as u64 + 1) * 1_000_003 + attempt).wrapping_mul(SEED_MIX)
}

/// Content fingerprint: SHA-256 over the kernel's binary encoding.
/// Machine-independent — the encoding is a defined little-endian word
/// stream, independent of host layout.
pub fn fingerprint(kernel: &Kernel) -> String {
    let words = encode_kernel(kernel);
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    sha256_hex(&bytes)
}

/// Runs the full static gate a corpus candidate must pass: annotate at
/// the default window, emit control bits (so the `B013`/`B014` sidecar
/// lints judge real output), then the whole `B001..B014` suite with the
/// hint verifier on. Returns the primary diagnostic code if the kernel
/// has any error or warning.
pub fn lint_gate(kernel: &Kernel) -> Option<&'static str> {
    gate_with(kernel, &Analysis::new(kernel))
}

/// [`lint_gate`] over `kernel`'s analysis bundle. Hints and control bits
/// change neither the CFG nor any operand, so the one bundle serves the
/// annotated kernel, its control bits and the lint run.
fn gate_with(kernel: &Kernel, an: &Analysis) -> Option<&'static str> {
    let latencies = CtrlLatencies::default();
    let (mut annotated, _) = annotate_with(kernel, an, WINDOW);
    annotated.ctrl = ctrl_bits(&annotated, an, &latencies);
    let report = lint_with(
        &annotated,
        an,
        &LintOptions {
            window: WINDOW,
            check_hints: true,
            latencies,
        },
    );
    primary_code(&report)
}

/// Lints a kernel exactly as authored — no re-annotation, no ctrl
/// emission — with the hint verifier on. The gate for the adversarial
/// stratum, whose kernels carry hand-planted hints that
/// [`bow_compiler::annotate`] would silently repair.
pub fn lint_as_authored(kernel: &Kernel) -> Option<&'static str> {
    let report = lint_kernel(
        kernel,
        &LintOptions {
            window: WINDOW,
            check_hints: true,
            latencies: CtrlLatencies::default(),
        },
    );
    primary_code(&report)
}

fn primary_code(report: &bow_compiler::LintReport) -> Option<&'static str> {
    report
        .diagnostics
        .iter()
        // Race findings (B015/B016) do not reject a candidate: racy
        // kernels are exactly what the sanitizer campaign cross-validates
        // against the static analysis, and the simulator executes them
        // deterministically regardless.
        .find(|d| {
            d.severity != bow_compiler::Severity::Info && d.code != "B015" && d.code != "B016"
        })
        .map(|d| d.code)
}

/// Generates the corpus for `(seed, count)`: `count` kernels spread
/// evenly over the generated strata (lint-dirty candidates are redrawn
/// and counted in [`Manifest::rejected`]), plus the fixed adversarial
/// stratum. Pure and deterministic; draws candidates on every available
/// core.
pub fn generate(seed: u64, count: usize) -> Manifest {
    generate_on(seed, count, effective_jobs(0))
}

/// Oversampling bound: a stratum stops after `OVERSAMPLE × target`
/// attempts, so generation terminates even if a stratum turns hostile
/// to the lint suite.
const OVERSAMPLE: u64 = 8;

/// Generation progress of one stratum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Lane {
    /// Kernels the stratum must keep.
    target: usize,
    /// Kernels kept so far.
    kept: usize,
    /// The next attempt index to draw.
    next: u64,
    /// Attempts the lint gate rejected.
    dirty: u64,
}

/// Plans one round of draws as `(stratum index, attempt)` pairs: for
/// every unfinished stratum, the next `min(target − kept, cap − next)`
/// attempts. These are exactly the attempts a serial draw-until-full
/// loop would still make if every one of them came back clean, so no
/// planned draw is ever wasted and none is made twice.
fn plan_round(lanes: &[Lane]) -> Vec<(usize, u64)> {
    lanes
        .iter()
        .enumerate()
        .flat_map(|(si, lane)| {
            let cap = lane.target as u64 * OVERSAMPLE;
            let n = ((lane.target - lane.kept) as u64).min(cap.saturating_sub(lane.next));
            (lane.next..lane.next + n).map(move |attempt| (si, attempt))
        })
        .collect()
}

/// Draws one candidate: generate → scrub → prune → the static gate.
/// `None` when the gate rejects it; otherwise its manifest row (`id` is
/// assigned once the whole manifest is in order).
fn draw(seed: u64, si: usize, def: &StratumDef, attempt: u64) -> Option<ManifestEntry> {
    let kseed = kernel_seed(seed, si, attempt);
    let mut rng = XorShift::new(kseed);
    let fk = FuzzKernel::generate_with(&mut rng, def.budget, &def.params).scrub();
    let name = format!("corpus_{}_{:016x}", def.name, kseed);
    let kernel = fk.build_pruned(&name);
    let an = Analysis::new(&kernel);
    if gate_with(&kernel, &an).is_some() {
        return None;
    }
    Some(ManifestEntry {
        id: 0,
        stratum: def.name.to_string(),
        name,
        seed: kseed,
        budget: def.budget as u64,
        traits: characterize_with(&kernel, &an),
        fingerprint: fingerprint(&kernel),
        retained: true,
        reject: None,
    })
}

/// [`generate`] on `workers` threads. The generated strata are drawn in
/// rounds ([`plan_round`]), each round one [`map_parallel`] call whose
/// results are folded back in attempt order, so the manifest is the one
/// a serial loop produces at any worker count.
fn generate_on(seed: u64, count: usize, workers: usize) -> Manifest {
    let defs = strata();
    let per = count / defs.len();
    let extra = count % defs.len();
    let mut lanes: Vec<Lane> = (0..defs.len())
        .map(|si| Lane {
            target: per + usize::from(si < extra),
            ..Lane::default()
        })
        .collect();
    let mut kept: Vec<Vec<ManifestEntry>> = lanes
        .iter()
        .map(|lane| Vec::with_capacity(lane.target))
        .collect();
    loop {
        let tasks = plan_round(&lanes);
        if tasks.is_empty() {
            break;
        }
        let run = |t: usize| {
            let (si, attempt) = tasks[t];
            draw(seed, si, &defs[si], attempt)
        };
        let drawn = map_parallel(tasks.len(), workers, &run, |_, _| {});
        for (&(si, _), entry) in tasks.iter().zip(drawn) {
            let lane = &mut lanes[si];
            lane.next += 1;
            match entry {
                Some(entry) => {
                    kept[si].push(entry);
                    lane.kept += 1;
                }
                None => lane.dirty += 1,
            }
        }
    }
    let adversaries = adversarial::all();
    let mut entries = Vec::with_capacity(count + adversaries.len());
    for drawn in kept {
        entries.extend(drawn);
    }
    let mut rejected: Vec<(String, u64)> = defs
        .iter()
        .zip(&lanes)
        .map(|(def, lane)| (def.name.to_string(), lane.dirty))
        .collect();
    let mut adv_dirty = 0u64;
    for adv in adversaries {
        let kernel = (adv.build)();
        let code = lint_as_authored(&kernel);
        if code.is_some() {
            adv_dirty += 1;
        }
        entries.push(ManifestEntry {
            id: 0,
            stratum: adversarial::STRATUM.to_string(),
            name: adv.name.to_string(),
            seed: 0,
            budget: 0,
            traits: characterize(&kernel),
            fingerprint: fingerprint(&kernel),
            retained: code.is_none(),
            reject: code.map(str::to_string),
        });
    }
    rejected.push((adversarial::STRATUM.to_string(), adv_dirty));
    for (id, entry) in entries.iter_mut().enumerate() {
        entry.id = id as u64;
    }
    Manifest {
        seed,
        count: count as u64,
        entries,
        rejected,
    }
}

/// Re-materializes the kernel of a manifest entry, regrown from its seed
/// or built from its adversarial table row; `None` for an unknown stratum or
/// adversarial name (a manifest from a different corpus version).
pub fn kernel_for(entry: &ManifestEntry) -> Option<Kernel> {
    Some(program(entry)?.kernel())
}

/// A manifest entry as a campaign program (the corpus sweep's and the
/// sanitizer campaign's population): a generated entry regrown from its
/// seed, scrubbed and built pruned, on an input drawn from the same seed,
/// or an adversarial kernel with no input and a shorter watchdog.
pub(crate) fn program(entry: &ManifestEntry) -> Option<Program> {
    let name = entry.name.clone();
    if entry.stratum == adversarial::STRATUM {
        let adv = adversarial::all().into_iter().find(|a| a.name == name)?;
        return Some(Program::fixed(name, (adv.build)(), ADV_MAX_CYCLES));
    }
    let def = strata().into_iter().find(|d| d.name == entry.stratum)?;
    let mut rng = XorShift::new(entry.seed);
    let budget = entry.budget as usize;
    let program = FuzzKernel::generate_with(&mut rng, budget, &def.params).scrub();
    let input = FuzzKernel::gen_input(&mut XorShift::new(entry.seed ^ SEED_MIX));
    Some(Program::generated(name, program, true, input))
}

/// Selects the sweepable slice of a manifest: retained, generated
/// kernels only (adversarial hazards are a lint population, not a
/// performance population), truncated to `limit` when non-zero. Entries
/// are taken round-robin across strata so a small limit still covers
/// every stratum.
pub fn select(manifest: &Manifest, limit: usize) -> Vec<&ManifestEntry> {
    let strata_names = manifest.strata();
    let mut by_stratum: Vec<Vec<&ManifestEntry>> = vec![Vec::new(); strata_names.len()];
    for e in manifest.retained() {
        if e.stratum == adversarial::STRATUM {
            continue;
        }
        if let Some(si) = strata_names.iter().position(|s| *s == e.stratum) {
            by_stratum[si].push(e);
        }
    }
    let total: usize = by_stratum.iter().map(Vec::len).sum();
    let take = if limit == 0 { total } else { limit.min(total) };
    let mut picked: Vec<&ManifestEntry> = Vec::with_capacity(take);
    let mut round = 0usize;
    while picked.len() < take {
        let mut progressed = false;
        for lane in &by_stratum {
            if picked.len() >= take {
                break;
            }
            if let Some(e) = lane.get(round) {
                picked.push(e);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
        round += 1;
    }
    picked
}

/// Materializes [`select`]'s slice as [`Benchmark`]s for the suite pool:
/// each a campaign program, judged by the oracle and then its host model.
pub fn benches(manifest: &Manifest, limit: usize) -> Vec<Box<dyn Benchmark>> {
    let bench = |p: Program| Box::new(p) as Box<dyn Benchmark>;
    select(manifest, limit)
        .into_iter()
        .filter_map(|e| program(e).map(bench))
        .collect()
}

/// The corpus collector columns: the paper's four models at the default
/// window, on one core and divergence model.
pub fn corpus_configs(core: CoreModelKind, divergence: DivergenceModel) -> Vec<Config> {
    let model = GpuModel::Scaled;
    let with = |b: ConfigBuilder| {
        b.model(model)
            .core_model(core)
            .divergence(divergence)
            .build()
    };
    let mut configs = vec![
        with(ConfigBuilder::baseline()),
        with(ConfigBuilder::bow(WINDOW)),
        with(ConfigBuilder::bow_wr(WINDOW).verify(true)),
        with(ConfigBuilder::rfc()),
    ];
    // Every corpus launch additionally runs under the lockstep oracle:
    // the timing-free interpreter checks each pipeline writeback, so a
    // sweep failure names the first diverging instruction, not just a
    // wrong final word. Pure checker — stats and IPC are unaffected.
    for c in &mut configs {
        c.gpu.oracle_check = OracleCheck::Lockstep;
    }
    configs
}

/// Options of a corpus sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Max kernels to sweep (0 = every retained kernel).
    pub limit: usize,
    /// Sweep-pool worker count (0 = all cores).
    pub jobs: usize,
    /// Core model to sweep on.
    pub core_model: CoreModelKind,
    /// Reconvergence machinery to sweep under.
    pub divergence: DivergenceModel,
    /// Progress lines to stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            limit: 0,
            jobs: 0,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            progress: false,
        }
    }
}

/// Sweeps the corpus through the standard suite pool: 4 collectors ×
/// the retained kernels, every cell checked by the lockstep oracle and
/// then the independent host model. A failing cell does not stop the
/// sweep: its record carries the failure, and
/// [`Verdict::of_records`](crate::verdict::Verdict::of_records) turns
/// every such record into a finding.
pub fn sweep(manifest: &Manifest, opts: &SweepOptions) -> SweepResult {
    Suite::over(benches(manifest, opts.limit))
        .configs(corpus_configs(opts.core_model, opts.divergence))
        .jobs(opts.jobs)
        .progress(opts.progress)
        .run()
}

/// A median/p10/p90 summary of one metric over a kernel population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Population size.
    pub n: usize,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Dist {
    /// Nearest-rank percentiles of `xs` (need not be sorted).
    pub fn of(mut xs: Vec<f64>) -> Dist {
        if xs.is_empty() {
            return Dist {
                n: 0,
                p10: 0.0,
                median: 0.0,
                p90: 0.0,
            };
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
        let pick = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        Dist {
            n: xs.len(),
            p10: pick(0.10),
            median: pick(0.50),
            p90: pick(0.90),
        }
    }

    /// The distribution as a JSON object.
    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::from(self.n as u64)),
            ("p10", Json::from(self.p10)),
            ("median", Json::from(self.median)),
            ("p90", Json::from(self.p90)),
        ])
    }
}

/// One non-baseline design column of a distribution document: for each
/// swept kernel its IPC and, where the run could observe it, its measured
/// read-bypass rate (server-side inline runs report IPC only).
pub struct DesignColumn<'a> {
    /// Column label in the document.
    pub label: &'a str,
    /// IPC per swept kernel.
    pub ipc: Vec<f64>,
    /// Read-bypass rate per swept kernel, when measured.
    pub read_bypass: Option<Vec<f64>>,
}

/// Reduces per-kernel results to per-stratum distributions: for every
/// design column, the IPC gain over baseline and (when measured) the
/// read-bypass rate, over all kernels and per stratum. `strata[k]` and
/// `baseline_ipc[k]` describe swept kernel `k`.
pub fn distributions(
    strata: &[&str],
    baseline_ipc: &[f64],
    columns: &[DesignColumn],
    core: CoreModelKind,
    divergence: DivergenceModel,
) -> Json {
    let mut strata_names: Vec<&str> = Vec::new();
    for s in strata {
        if !strata_names.contains(s) {
            strata_names.push(s);
        }
    }
    let mut scopes: Vec<(&str, Option<&str>)> = vec![("all", None)];
    scopes.extend(strata_names.iter().map(|s| (*s, Some(*s))));
    let mut stratum_rows = Vec::new();
    for (scope_name, filter) in scopes {
        let in_scope = |k: &usize| filter.is_none_or(|f| f == strata[*k]);
        let mut collectors = Vec::new();
        for column in columns {
            let gains = (0..strata.len())
                .filter(|k| in_scope(k) && baseline_ipc[*k] > 0.0)
                .map(|k| column.ipc[k] / baseline_ipc[k])
                .collect();
            let mut fields = vec![
                ("label", Json::from(column.label)),
                ("ipc_gain", Dist::of(gains).to_json()),
            ];
            if let Some(bypass) = &column.read_bypass {
                let rates = (0..strata.len()).filter(in_scope).map(|k| bypass[k]);
                fields.push(("read_bypass_rate", Dist::of(rates.collect()).to_json()));
            }
            collectors.push(Json::obj(fields));
        }
        stratum_rows.push(Json::obj([
            ("stratum", Json::from(scope_name)),
            ("collectors", Json::Arr(collectors)),
        ]));
    }
    Json::obj([
        ("schema_version", Json::from(MANIFEST_VERSION)),
        ("core_model", Json::from(core.name())),
        ("divergence", Json::from(divergence.name())),
        ("kernels", Json::from(strata.len() as u64)),
        ("strata", Json::Arr(stratum_rows)),
    ])
}

/// Reduces a local corpus sweep (row 0 = baseline) to [`distributions`]
/// (the population analogue of Figs. 10 and 3).
pub fn distribution_json(
    manifest: &Manifest,
    sweep: &SweepResult,
    core: CoreModelKind,
    divergence: DivergenceModel,
) -> Json {
    let stratum_of = |bench: &str| -> &str {
        let entry = manifest.entries.iter().find(|e| e.name == bench);
        entry.map_or("unknown", |e| e.stratum.as_str())
    };
    let baseline = &sweep.row(0).records;
    let strata: Vec<&str> = baseline.iter().map(|r| stratum_of(&r.benchmark)).collect();
    let ipc = |records: &[crate::experiment::RunRecord]| records.iter().map(|r| r.ipc()).collect();
    let columns: Vec<DesignColumn> = sweep.rows[1..]
        .iter()
        .map(|row| DesignColumn {
            label: &row.label,
            ipc: ipc(&row.records),
            read_bypass: Some(
                row.records
                    .iter()
                    .map(|r| r.outcome.result.stats.read_bypass_rate())
                    .collect(),
            ),
        })
        .collect();
    let baseline_ipc: Vec<f64> = ipc(baseline);
    distributions(&strata, &baseline_ipc, &columns, core, divergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_stratified() {
        let a = generate(DEFAULT_SEED, 18);
        let b = generate(DEFAULT_SEED, 18);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "manifest is byte-identical across runs"
        );
        for def in strata() {
            assert!(
                a.entries
                    .iter()
                    .any(|e| e.stratum == def.name && e.retained),
                "stratum {} has at least one retained kernel",
                def.name
            );
        }
        assert!(a.entries.iter().any(|e| e.stratum == adversarial::STRATUM));
    }

    #[test]
    fn manifest_is_the_same_at_any_worker_count() {
        // At 4 kernels five of the nine strata have a target of 0.
        for count in [4, 90] {
            let serial = generate_on(DEFAULT_SEED, count, 1);
            for workers in [2, 3, 11] {
                assert_eq!(
                    generate_on(DEFAULT_SEED, count, workers),
                    serial,
                    "{count} kernels on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn round_planner_never_plans_past_the_oversampling_cap() {
        // Three kernels are missing but only two attempts remain.
        let lane = Lane {
            target: 4,
            kept: 1,
            next: 30,
            dirty: 29,
        };
        assert_eq!(plan_round(&[lane]), [(0, 30), (0, 31)]);
        // At the cap nothing more is drawn, full or not.
        assert!(plan_round(&[Lane { next: 32, ..lane }]).is_empty());
    }

    #[test]
    fn round_planner_plans_exactly_the_missing_kernels_below_the_cap() {
        let lanes = [
            Lane {
                target: 5,
                kept: 2,
                next: 7,
                dirty: 5,
            },
            Lane {
                target: 3,
                ..Lane::default()
            },
        ];
        assert_eq!(
            plan_round(&lanes),
            [(0, 7), (0, 8), (0, 9), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn round_planner_plans_nothing_once_every_stratum_is_full() {
        let lanes = [
            Lane {
                target: 5,
                kept: 5,
                next: 9,
                dirty: 4,
            },
            Lane::default(),
        ];
        assert!(plan_round(&lanes).is_empty());
    }

    #[test]
    fn retained_kernels_are_lint_clean_and_rematerializable() {
        let m = generate(DEFAULT_SEED ^ 7, 9);
        for e in m.retained() {
            let k = kernel_for(e).expect("entry re-materializes");
            assert_eq!(
                fingerprint(&k),
                e.fingerprint,
                "{}: stable identity",
                e.name
            );
            assert_eq!(lint_gate(&k), None, "{}: retained ⇒ lint-clean", e.name);
            assert_eq!(characterize(&k), e.traits, "{}: traits reproduce", e.name);
        }
    }

    #[test]
    fn live_peak_is_the_largest_b006_pressure_row() {
        // Both come from one replay (`Analysis::max_live`): the
        // characterization's peak is the pressure table's maximum, on
        // clean and dirty candidates of every stratum alike.
        for (si, def) in strata().iter().enumerate() {
            for attempt in 0..12 {
                let mut rng = XorShift::new(kernel_seed(DEFAULT_SEED, si, attempt));
                let fk = FuzzKernel::generate_with(&mut rng, def.budget, &def.params).scrub();
                let k = fk.build_pruned(def.name);
                let rows = lint_kernel(&k, &LintOptions::default()).pressure;
                let max_live = rows.iter().map(|p| p.max_live).max().unwrap_or(0);
                assert_eq!(
                    characterize(&k).live_peak as usize,
                    max_live,
                    "{} attempt {attempt}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = generate(3, 9);
        let parsed = Manifest::from_json(&m.to_json()).expect("parses");
        assert_eq!(m, parsed);
    }

    #[test]
    fn strata_steer_the_characterization_axes() {
        let m = generate(DEFAULT_SEED, 90);
        let mean = |stratum: &str, f: &dyn Fn(&KernelTraits) -> f64| -> f64 {
            let xs: Vec<f64> = m
                .retained()
                .filter(|e| e.stratum == stratum)
                .map(|e| f(&e.traits))
                .collect();
            assert!(!xs.is_empty(), "stratum {stratum} populated");
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let regs = &|t: &KernelTraits| f64::from(t.regs_written);
        let reuse = &|t: &KernelTraits| t.reuse_x100 as f64;
        let branch = &|t: &KernelTraits| f64::from(t.branch_depth);
        let mem = &|t: &KernelTraits| f64::from(t.mem_per_ki);
        assert!(mean("regs-high", regs) > mean("regs-low", regs));
        assert!(mean("reuse-near", reuse) < mean("reuse-far", reuse));
        assert!(mean("divergent", branch) > mean("straightline", branch));
        assert_eq!(mean("straightline", branch), 0.0);
        assert!(mean("mem-heavy", mem) > mean("compute", mem));
    }

    #[test]
    fn round_robin_limit_covers_every_stratum() {
        let m = generate(DEFAULT_SEED, 27);
        let picked = benches(&m, 9);
        assert_eq!(picked.len(), 9);
        let mut seen: Vec<String> = picked
            .iter()
            .map(|b| {
                let name = b.name();
                let s = name.strip_prefix("corpus_").unwrap();
                s[..s.rfind('_').unwrap()].to_string()
            })
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 9, "limit 9 touches all 9 generated strata");
    }

    #[test]
    fn mini_sweep_is_checked_and_thread_count_invariant() {
        let m = generate(DEFAULT_SEED, 4);
        let base = SweepOptions {
            limit: 4,
            jobs: 1,
            ..SweepOptions::default()
        };
        let a = sweep(&m, &base);
        a.assert_checked();
        let b = sweep(&m, &SweepOptions { jobs: 2, ..base });
        b.assert_checked();
        for (ra, rb) in a.all_records().zip(b.all_records()) {
            assert_eq!(ra.benchmark, rb.benchmark);
            assert_eq!(
                ra.outcome.result.cycles, rb.outcome.result.cycles,
                "{} {}: byte-identical at jobs 1 vs 2",
                ra.label, ra.benchmark
            );
        }
        let dist = distribution_json(&m, &a, CoreModelKind::Pascal, DivergenceModel::Stack);
        assert_eq!(dist.req_u64("kernels").unwrap(), 4);
    }

    #[test]
    fn barrier_mini_sweep_is_checked_and_thread_count_invariant() {
        // The same corpus under the stack-less divergence model: every
        // retained kernel lowers, runs under the lockstep oracle, matches
        // the host evaluator and stays byte-identical across sweep workers.
        let m = generate(DEFAULT_SEED, 4);
        let base = SweepOptions {
            limit: 4,
            jobs: 1,
            divergence: DivergenceModel::Barrier,
            ..SweepOptions::default()
        };
        let a = sweep(&m, &base);
        a.assert_checked();
        let b = sweep(&m, &SweepOptions { jobs: 2, ..base });
        b.assert_checked();
        for (ra, rb) in a.all_records().zip(b.all_records()) {
            assert!(ra.label.contains("+barrier"), "{}", ra.label);
            assert_eq!(
                ra.outcome.result.cycles, rb.outcome.result.cycles,
                "{} {}: byte-identical at jobs 1 vs 2",
                ra.label, ra.benchmark
            );
        }
        let dist = distribution_json(&m, &a, CoreModelKind::Pascal, DivergenceModel::Barrier);
        assert_eq!(
            dist.get("divergence").and_then(Json::as_str),
            Some("barrier")
        );
    }
}
