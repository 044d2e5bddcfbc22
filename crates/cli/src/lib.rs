//! # bow-cli — command-line front end for the BOW GPU model
//!
//! Subcommands:
//!
//! * `suite` — list the benchmark suite;
//! * `run <bench>` — run one benchmark under a chosen collector and print
//!   IPC, traffic and energy;
//! * `compare <bench>` — run every collector model side by side;
//! * `asm <file>` — assemble a kernel from text and print a summary;
//! * `compile <file>` — assemble, run the §IV-B hint pass (and optionally
//!   the footnote-1 scheduler) and print the annotated disassembly;
//! * `sweep <bench>` — IW1..7 window sweep on one benchmark;
//! * `figure <name>` — regenerate a table under `results/` (every paper
//!   figure and table, the ablations, the corpus report), `all` of them,
//!   or `list` the index ([`figures::FIGURES`]);
//! * `fuzz` — differential kernel fuzzing against the architectural
//!   oracle across all collector models;
//! * `lint` — static-analysis suite and independent hint-soundness
//!   verifier over a kernel file or the whole workload suite; `--mutate`
//!   runs the mutation sanitizer that audits the verifier itself;
//! * `trace <file>` — run with pipeline tracing and print the timeline;
//! * `encode <file>` / `decode <file>` — binary-format round trip;
//! * `serve` — the persistent simulation service (`bow-server`): v1
//!   HTTP/JSON API with a content-addressed result store;
//! * `submit` — client for a running server: submit runs, poll jobs,
//!   fetch stored results, health-check, shut down.
//!
//! The synopsis lines of [`USAGE`] are the parser's grammar (`flag_spec`
//! reads each subcommand's flags off them), so an undocumented flag is a
//! parse error and a documented one cannot fail to parse; axis values
//! (`--core-model`, `--divergence`, `--scale`, collector specs) resolve
//! through the name tables declared next to their enums. Kernels are
//! compiled for launch or lint by `bow::experiment::CompilePlan` only.
//!
//! Command logic lives in this library and returns strings, so everything
//! is unit-testable; `main.rs` only does process I/O. Failures are typed
//! [`BowError`]s; `main.rs` exits with [`BowError::exit_code`] so scripts
//! can tell parse (2) / config (3) / io (4) / verify (5) failures apart.

pub mod figures;

use bow::error::BowError;
use bow::experiment::{pct, render_table, CompilePlan, Config};
use bow::prelude::*;
use bow::verdict::{Check, Finding, Verdict};
use bow_util::json::Json;
use std::fmt::Write as _;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List the benchmark suite.
    Suite,
    /// Run one benchmark.
    Run {
        /// Benchmark name.
        bench: String,
        /// Collector spec (e.g. `bow-wr`).
        collector: String,
        /// Instruction-window size.
        window: u32,
        /// Problem scale.
        scale: Scale,
        /// Apply the bypass-aware scheduler first.
        reorder: bool,
        /// SM core model to simulate.
        core_model: CoreModelKind,
        /// Reconvergence machinery: SSY/SYNC stack or convergence barriers.
        divergence: DivergenceModel,
        /// Attach the race sanitizer and print its report.
        sanitize: bool,
    },
    /// Run all collectors on one benchmark.
    Compare {
        /// Benchmark name.
        bench: String,
        /// Problem scale.
        scale: Scale,
        /// Sweep-engine worker count (0 = all cores).
        jobs: usize,
        /// SM core model to simulate.
        core_model: CoreModelKind,
        /// Reconvergence machinery: SSY/SYNC stack or convergence barriers.
        divergence: DivergenceModel,
    },
    /// Assemble a kernel file and summarize it.
    Asm {
        /// Path to the assembly source.
        path: String,
    },
    /// Assemble + hint pass (+ optional scheduler), print annotated text.
    Compile {
        /// Path to the assembly source.
        path: String,
        /// Window for the hint pass.
        window: u32,
        /// Run the scheduler first.
        reorder: bool,
    },
    /// Sweep BOW-WR window sizes over one benchmark.
    Sweep {
        /// Benchmark name.
        bench: String,
        /// Problem scale.
        scale: Scale,
        /// Sweep-engine worker count (0 = all cores).
        jobs: usize,
        /// SM core model to simulate.
        core_model: CoreModelKind,
        /// Reconvergence machinery: SSY/SYNC stack or convergence barriers.
        divergence: DivergenceModel,
    },
    /// Regenerate a results table (or `all` of them, or `list` them).
    Figure {
        /// A [`figures::FIGURES`] name, `all` or `list`.
        name: String,
        /// Problem scale, GPU model and worker count to run on.
        tier: figures::Tier,
        /// Directory to write the table and its JSON exports under.
        out: Option<String>,
    },
    /// Differential-fuzz generated kernels against the oracle.
    Fuzz {
        /// Number of generated cases.
        cases: u64,
        /// Master seed for case generation.
        seed: u64,
        /// Worker threads (0 = all cores).
        jobs: usize,
        /// Statement budget per generated program.
        size: usize,
        /// Directory for minimized `.asm` repro files.
        out_dir: String,
        /// SM core model every case runs on.
        core_model: CoreModelKind,
        /// Reconvergence machinery every case runs under.
        divergence: DivergenceModel,
    },
    /// Static-analysis lint suite + hint verifier (or, with `mutate`,
    /// the mutation sanitizer that audits the verifier).
    Lint {
        /// Assembly file to lint; `None` with `all_workloads`/`mutate`.
        path: Option<String>,
        /// Lint every benchmark kernel (annotated at `window`).
        all_workloads: bool,
        /// Fail on warnings as well as errors.
        deny_warnings: bool,
        /// Write the machine-readable report to this file.
        json: Option<String>,
        /// Operand-window size the hint verifier models.
        window: u32,
        /// Run the mutation sanitizer instead of linting.
        mutate: bool,
        /// Use the small fixed CI sanitizer configuration.
        smoke: bool,
        /// Worker threads for the sanitizer (0 = all cores).
        jobs: usize,
        /// Core model the lint targets: `modern` runs the control-bit
        /// emitter first so the sidecar lints judge real output.
        core_model: CoreModelKind,
        /// Divergence model the lint targets: `barrier` lowers SSY/SYNC
        /// to convergence barriers first, putting B017/B018 in play.
        divergence: DivergenceModel,
        /// Print the long-form description of one `B0xx` code and stop;
        /// an empty code lists every known code.
        explain: Option<String>,
    },
    /// Run a kernel with pipeline tracing and print the timeline.
    Trace {
        /// Path to the assembly source.
        path: String,
        /// Collector spec.
        collector: String,
        /// Instruction-window size.
        window: u32,
        /// Maximum events to print.
        limit: usize,
    },
    /// Encode an assembly file to the binary format (hex words).
    Encode {
        /// Path to the assembly source.
        path: String,
    },
    /// Decode a hex-word binary back to assembly.
    Decode {
        /// Path to the hex file.
        path: String,
    },
    /// Run the persistent simulation service.
    Serve {
        /// Bind address (port 0 = ephemeral).
        addr: String,
        /// Job-worker threads (0 = all cores).
        workers: usize,
        /// Result-store directory.
        store: String,
        /// Write the bound address here once listening (CI uses this
        /// with port 0).
        port_file: Option<String>,
    },
    /// Talk to a running server.
    Submit {
        /// Server address.
        addr: String,
        /// What to do.
        action: SubmitAction,
    },
    /// Manage the stratified kernel corpus.
    Corpus {
        /// What to do.
        action: CorpusAction,
    },
    /// Print usage.
    Help,
}

/// The `corpus` subcommand's verbs.
#[derive(Clone, Debug, PartialEq)]
pub enum CorpusAction {
    /// Generate a corpus and write `<dir>/manifest.json`.
    Gen {
        /// Generated kernels across all strata.
        count: usize,
        /// Master seed.
        seed: u64,
        /// Output directory for the manifest.
        dir: String,
    },
    /// Summarize a previously generated manifest.
    Stats {
        /// Directory holding `manifest.json`.
        dir: String,
    },
    /// Sweep the retained corpus through the four collector models.
    Sweep {
        /// Directory holding `manifest.json`.
        dir: String,
        /// Max kernels to sweep (0 = every retained kernel).
        limit: usize,
        /// Sweep-pool worker count (0 = all cores).
        jobs: usize,
        /// SM core model to sweep on.
        core_model: CoreModelKind,
        /// Reconvergence machinery to sweep under.
        divergence: DivergenceModel,
        /// Run through a `bow-server` instead of the local pool.
        addr: Option<String>,
        /// Also write the distribution JSON to this file.
        out: Option<String>,
    },
    /// Cross-validate the dynamic race sanitizer against the static
    /// lint suite over the corpus plus the adversarial stratum.
    Sanitize {
        /// Generated kernels across all strata.
        count: usize,
        /// Master seed.
        seed: u64,
        /// Worker threads (0 = all cores).
        jobs: usize,
        /// Use the small fixed CI configuration.
        smoke: bool,
        /// Write the machine-readable campaign report to this file.
        out: Option<String>,
    },
}

/// The `submit` subcommand's verbs.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitAction {
    /// `POST /v1/runs`: a named workload or an inline `.asm` file.
    Run {
        /// Benchmark name (exclusive with `asm`).
        bench: Option<String>,
        /// Assembly file to submit inline (exclusive with `bench`).
        asm: Option<String>,
        /// Collector spec.
        collector: String,
        /// Instruction-window size.
        window: u32,
        /// Problem scale.
        scale: Scale,
        /// Block on completion (false = `"wait":false`, get a job id).
        wait: bool,
    },
    /// `GET /v1/jobs/{id}`.
    Job(u64),
    /// `GET /v1/results/{fingerprint}`.
    Fetch(String),
    /// `GET /v1/healthz`.
    Health,
    /// `POST /v1/shutdown`.
    Shutdown,
}

fn err(msg: impl Into<String>) -> BowError {
    BowError::parse(msg)
}

/// The usage text.
pub const USAGE: &str = "\
bow-cli — the BOW GPU model

USAGE:
  bow-cli suite
  bow-cli run <bench> [--collector C] [--window N] [--scale test|paper] [--reorder]
              [--core-model pascal|modern] [--divergence stack|barrier] [--sanitize]
  bow-cli compare <bench> [--scale test|paper] [--jobs N]
                  [--core-model pascal|modern] [--divergence stack|barrier]
  bow-cli asm <file.s>
  bow-cli compile <file.s> [--window N] [--reorder]
  bow-cli sweep <bench> [--scale test|paper] [--jobs N]
                [--core-model pascal|modern] [--divergence stack|barrier]
  bow-cli figure <name|all|list> [--scale test|paper] [--model scaled|titan-x]
                 [--jobs N] [--out DIR]
  bow-cli fuzz [--cases N] [--seed S] [--jobs N] [--size N] [--out DIR] [--smoke]
               [--core-model pascal|modern] [--divergence stack|barrier]
  bow-cli lint <file.s> [--window N] [--deny-warnings] [--json FILE]
              [--core-model pascal|modern] [--divergence stack|barrier]
  bow-cli lint --all-workloads [--window N] [--deny-warnings] [--json FILE]
              [--core-model pascal|modern] [--divergence stack|barrier]
  bow-cli lint --mutate [--smoke] [--jobs N] [--json FILE]
                [--divergence stack|barrier]
  bow-cli lint --explain [B0xx]
  bow-cli trace <file.s> [--collector C] [--window N] [--limit N]
  bow-cli encode <file.s>
  bow-cli decode <file.hex>
  bow-cli serve [--addr HOST:PORT] [--workers N] [--store DIR] [--port-file FILE]
  bow-cli submit <bench> [--asm FILE] [--collector C] [--window N]
                 [--scale test|paper] [--addr HOST:PORT] [--no-wait]
  bow-cli submit --job ID | --fetch FINGERPRINT | --health | --shutdown
                 [--addr HOST:PORT]
  bow-cli corpus gen [--count N] [--seed S] [--dir DIR]
  bow-cli corpus stats [--dir DIR]
  bow-cli corpus sweep [--dir DIR] [--limit N] [--jobs N]
                 [--core-model pascal|modern] [--divergence stack|barrier]
                 [--addr HOST:PORT] [--out FILE]
  bow-cli corpus sanitize [--count N] [--seed S] [--jobs N] [--smoke] [--out FILE]

COLLECTORS:
  baseline | bow | bow-wr | bow-wr-half | bow-flex | rfc

The synopses above are the parser's grammar: a flag a command does not
list, a value flag without its value, a stray argument or a value that
is not in its axis's table (pascal|modern, stack|barrier, test|paper,
scaled|titan-x) is a parse error (exit 2) that names the valid choices.
Flags and the positional argument may come in any order.

`compare` and `sweep` run their (benchmark x config) matrix on the
parallel sweep engine; --jobs N picks the worker count (default: all
cores, 1 = serial). Results are identical at any job count.

`figure` regenerates the tables EXPERIMENTS.md argues from: every paper
figure and table, the ablations, the cross-model studies and the corpus
report (`figure list` prints the index; an unknown name is exit 3 and
lists it). `figure <name>` prints the table and, under --out DIR, also
writes DIR/<name>.txt plus its raw cells as DIR/<name>.json; without
--out nothing is written. `figure all` is the bless flow: it writes
every file under --out (default results) and prints one path per file.
--scale defaults to paper here, the scale of the committed tables;
--model titan-x builds every configuration on the full 56-SM chip and
suffixes the file names with _chip. Tables are byte-identical at any
--jobs; CI regenerates all of them and compares with results/.

`fuzz` generates random kernels and runs each under every collector
model through four checks: lint (the static hint verifier accepts the
annotated kernel), oracle (every instruction against a timing-free
architectural oracle), reference (final memory against an independent
host model) and sanitizer (the race sanitizer rides the same launch,
and every dynamic finding must carry a static B0xx flag: dynamic ⊆
static). A failing cell shrinks to a minimal kernel written as a
runnable .asm repro. `--smoke` is the fixed 64-case CI configuration
(other flags except --jobs and --out are ignored).

`run --sanitize` attaches the dynamic race sanitizer (docs/ANALYSIS.md,
`Sanitizer`): shadow state over shared and global memory plus per-lane
register shadows, reporting data races, never-initialized reads,
divergent barriers, broken syncs and `.wb.boc` hint violations; each
one is a sanitizer finding. `corpus sanitize` runs the whole
cross-validation campaign — generated corpus plus the adversarial
stratum, both core models — and writes the CI artifact (default
results/sanitizer_campaign.json; `--smoke` is the fixed 64-kernel CI
configuration).

`lint` runs the static-analysis suite (stable B0xx codes; see
docs/ANALYSIS.md) plus the independent hint-soundness verifier. A file
that carries no write-back hints is annotated first, so the lint judges
what the compiler would actually emit. A kernel with errors is a lint
finding, and under --deny-warnings so is one with warnings (advisories
never are).
`lint --mutate` instead audits the verifier itself: it flips sound hints
to BocOnly across a generated corpus and requires every mutant that
demonstrably loses a value to be statically flagged (`--smoke` is the
small fixed CI configuration). --json writes the machine-readable
report for either mode. `lint --explain B0xx` prints the long-form
description of one diagnostic code and exits (unknown codes exit 2);
`lint --explain` with no code lists every known code with its severity
and one-line summary.

--core-model picks the SM microarchitecture (docs/ARCHITECTURE.md,
`Core models`): `pascal` is the paper's scoreboarded Pascal SM and the
default; `modern` is the post-Volta core — four sub-cores, a uniform
register file and compiler-emitted control bits in place of the
scoreboard. `fuzz` runs the same collector configurations on both.

--divergence picks the reconvergence machinery (docs/ARCHITECTURE.md,
`Divergence models`): `stack` is the classic SSY/SYNC reconvergence
stack and the default; `barrier` is the post-Volta model — the compiler
lowers SSY/SYNC to BSSY/BSYNC convergence barriers at immediate
post-dominators and the SM tracks divergence with per-warp barrier
registers and thread-group splits, no stack. Orthogonal to
--core-model: all four combinations run.

Both are compile-time choices, made by one compile plan (scheduler,
hint pass, barrier lowering, control-bit emitter) that every command
applies: `run`, `fuzz`, `lint --mutate` and `trace` launch, and `lint`
judges, exactly the kernel the chosen models' pipeline would consume —
barrier-form under `barrier` (lints B017/B018 in play), with its
control-bit sidecar under `modern` (B013/B014). A kernel the plan
cannot compile (e.g. SSY nested deeper than the 8 barrier registers
under `barrier`) is an invalid-config error (exit 3).

`corpus` manages the stratified thousand-kernel population
(docs/TESTING.md, `Corpus tier`). `gen` draws `--count` kernels across
the strata from `--seed`, keeps only lint-clean candidates and writes a
deterministic `manifest.json` (seeds + characterization + content
fingerprints — never kernel binaries; the corpus re-materializes from
seeds alone). `stats` tabulates a manifest. `sweep` runs the retained
kernels, round-robin across strata, through baseline/bow/bow-wr/rfc and
prints per-stratum IPC-gain and bypass-rate distributions. Every cell
is checked against the lockstep oracle and the host model; a failing
cell is a finding and does not stop the sweep. With --addr
the runs go through a live bow-server instead (inline submissions under
the server's synthetic-parameter convention: IPC distributions only,
verified by the memory oracle rather than the host reference).

`serve` runs the persistent v1 HTTP/JSON simulation service
(docs/API.md). Every request is keyed by a content-addressed
fingerprint; results persist under --store (default results/store) and
identical resubmissions are answered from cache without simulating.
`submit` is the matching client (default --addr 127.0.0.1:7070): it
prints the server's JSON response verbatim.

Every check (lint, oracle, reference, sanitizer, mutation) reports a
disagreement as a finding: one line `<kernel> under <design>: <detail>`
on stderr, and an entry of the `findings` array in the `lint --mutate`
and `corpus sanitize` JSON. A command exits 5 if and only if it has a
finding.

EXIT CODES:
  0 success | 2 parse error | 3 invalid config | 4 I/O error
  5 verification failure | 101 panic
";

/// One flag of a subcommand: its name and whether it takes a value.
type Flag = (&'static str, bool);

/// A subcommand's argument grammar, read off its synopsis lines in
/// [`USAGE`] (docopt-style: the usage text *is* the spec, so a flag cannot
/// be documented without parsing or parse without being documented):
/// whether it takes a positional `<argument>`, and every `--flag` with
/// whether a value follows it (`[--window N]`) or not (`[--reorder]`).
/// `corpus` verbs are keyed as `"corpus <verb>"`. This one table drives
/// both lookup and rejection: [`split_args`] refuses a flag that is not
/// listed, a listed value flag with no value and a surplus positional,
/// and a token is positional exactly when no value flag precedes it.
fn flag_spec(command: &str) -> Option<(bool, Vec<Flag>)> {
    let synopsis = USAGE
        .lines()
        .skip_while(|l| *l != "USAGE:")
        .take_while(|l| !l.is_empty());
    let (mut found, mut mine) = (false, false);
    let (mut positional, mut flags) = (false, Vec::new());
    for line in synopsis {
        // A synopsis starts at `bow-cli <command>`; deeper-indented lines
        // continue it, and a command may have several synopses.
        if let Some(start) = line.strip_prefix("  bow-cli ") {
            let after = start.strip_prefix(command);
            mine = after.is_some_and(|rest| rest.is_empty() || rest.starts_with(' '));
            found |= mine;
        }
        if !mine {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            let word = word.trim_start_matches('[');
            positional |= word.starts_with('<');
            let name = word.trim_end_matches(']');
            if name.starts_with("--") && !flags.iter().any(|(n, _)| *n == name) {
                // `[--flag]` closes at once; `--flag VALUE` has a next word
                // that is neither another group nor an alternative bar.
                let next = words.get(i + 1).filter(|_| name.len() == word.len());
                flags.push((name, next.is_some_and(|v| !v.starts_with(['[', '|']))));
            }
        }
    }
    found.then_some((positional, flags))
}

/// A subcommand's positional argument (at most one) and its given flags,
/// each with its value (`""` for a switch).
type Split<'a> = (Option<&'a str>, Vec<(&'static str, &'a str)>);

/// Splits a subcommand's arguments by its [`flag_spec`].
fn split_args<'a>(
    command: &str,
    takes_positional: bool,
    spec: &[Flag],
    rest: &[&'a str],
) -> Result<Split<'a>, BowError> {
    let (mut positional, mut given) = (None, Vec::new());
    let mut it = rest.iter().copied();
    while let Some(token) = it.next() {
        if !token.starts_with("--") {
            if !takes_positional || positional.replace(token).is_some() {
                return Err(err(format!("{command}: unexpected argument `{token}`")));
            }
            continue;
        }
        let &(name, takes_value) = spec.iter().find(|(n, _)| *n == token).ok_or_else(|| {
            let valid: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
            err(format!(
                "{command}: unknown flag `{token}` (valid: {})",
                valid.join(", ")
            ))
        })?;
        let value = if takes_value {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| err(format!("{command}: `{name}` needs a value")))?
        } else {
            ""
        };
        given.push((name, value));
    }
    Ok((positional, given))
}

/// A numeric flag's value, decimal or `0x…` hex (seeds round-trip through
/// repro headers and docs in hex); `None` when the flag was not given.
fn number<T: TryFrom<u64>>(given: &[(&str, &str)], name: &str) -> Result<Option<T>, BowError> {
    let Some((_, v)) = given.iter().find(|(n, _)| *n == name) else {
        return Ok(None);
    };
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    let converted = parsed.ok().and_then(|n| T::try_from(n).ok());
    converted
        .map(Some)
        .ok_or_else(|| err(format!("bad {} `{v}`", &name[2..])))
}

/// An axis flag's value, resolved through the axis's own name table (an
/// unknown name is a usage error listing the valid ones).
fn axis<T>(
    value: Option<&str>,
    default: T,
    parse: fn(&str) -> Result<T, bow_util::UnknownName>,
) -> Result<T, BowError> {
    value.map_or(Ok(default), |v| parse(v).map_err(|e| err(e.to_string())))
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`BowError::Parse`] describing the first unrecognized token: an
/// unknown command, verb, flag or flag value, a value flag with no value,
/// or a surplus positional argument.
pub fn parse(args: &[String]) -> Result<Command, BowError> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let rest: Vec<&str> = it.collect();
    let key = if cmd == "corpus" {
        // The verb picks the flag set, and telling the verb from a flag's
        // value takes the flags' arities: `corpus` alone matches every
        // verb's synopsis, so split once against the union of their flags
        // (a flag has one arity under all of them) to find the verb.
        let (_, every) = flag_spec(cmd).expect("the usage text has corpus synopses");
        let verb = split_args(cmd, true, &every, &rest)?.0;
        let verb =
            verb.ok_or_else(|| err("corpus: pass a verb (gen, stats, sweep or sanitize)"))?;
        format!("corpus {verb}")
    } else {
        cmd.to_string()
    };
    let (takes_positional, flags) = flag_spec(&key)
        .ok_or_else(|| err(format!("unknown command `{key}` (try `bow-cli help`)")))?;
    // A corpus verb is its command's positional.
    let (target, given) = split_args(&key, takes_positional || cmd == "corpus", &flags, &rest)?;

    let opt = |name: &str| given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let flag = |name: &str| opt(name).is_some();
    let text = |name: &str, default: &str| opt(name).unwrap_or(default).to_string();
    let positional = |what: &str| {
        let found = target.map(String::from);
        found.ok_or_else(|| err(format!("{key}: missing {what}")))
    };
    let scale = axis(opt("--scale"), Scale::Test, Scale::parse)?;
    let core_model = axis(
        opt("--core-model"),
        Default::default(),
        CoreModelKind::parse,
    )?;
    let divergence = axis(
        opt("--divergence"),
        Default::default(),
        DivergenceModel::parse,
    )?;
    let window: u32 = number(&given, "--window")?.unwrap_or(3);
    let jobs: usize = number(&given, "--jobs")?.unwrap_or(0);

    match key.as_str() {
        "suite" => Ok(Command::Suite),
        "run" => Ok(Command::Run {
            bench: positional("benchmark name")?,
            collector: text("--collector", "bow-wr"),
            window,
            scale,
            reorder: flag("--reorder"),
            core_model,
            divergence,
            sanitize: flag("--sanitize"),
        }),
        "compare" => Ok(Command::Compare {
            bench: positional("benchmark name")?,
            scale,
            jobs,
            core_model,
            divergence,
        }),
        "asm" => Ok(Command::Asm {
            path: positional("file")?,
        }),
        "compile" => Ok(Command::Compile {
            path: positional("file")?,
            window,
            reorder: flag("--reorder"),
        }),
        "sweep" => Ok(Command::Sweep {
            bench: positional("benchmark name")?,
            scale,
            jobs,
            core_model,
            divergence,
        }),
        "figure" => {
            let name = positional("figure name (or `all`, `list`)")?;
            // `all` is the bless flow: it always writes, by default over
            // the committed tables.
            let bless = (name == "all").then(|| "results".to_string());
            Ok(Command::Figure {
                tier: figures::Tier {
                    scale: axis(opt("--scale"), Scale::Paper, Scale::parse)?,
                    model: axis(opt("--model"), GpuModel::Scaled, GpuModel::parse)?,
                    jobs,
                },
                out: opt("--out").map(String::from).or(bless),
                name,
            })
        }
        "fuzz" => {
            // `--smoke` pins cases/seed/size: no flag may tune them.
            let (tunable, defaults) = if flag("--smoke") {
                (&[][..], bow::fuzz::FuzzOptions::smoke())
            } else {
                (&given[..], bow::fuzz::FuzzOptions::default())
            };
            Ok(Command::Fuzz {
                cases: number(tunable, "--cases")?.unwrap_or(defaults.cases),
                seed: number(tunable, "--seed")?.unwrap_or(defaults.seed),
                jobs,
                size: number(tunable, "--size")?.unwrap_or(defaults.size),
                out_dir: text("--out", &defaults.out_dir.display().to_string()),
                core_model,
                divergence,
            })
        }
        "lint" => {
            // Under `--explain` the positional is the code to explain (none
            // lists every code); otherwise it is the file to lint.
            let target = target.map(String::from);
            let (path, explain) = if flag("--explain") {
                (None, Some(target.unwrap_or_default()))
            } else {
                (target, None)
            };
            let all_workloads = flag("--all-workloads");
            let mutate = flag("--mutate");
            if path.is_none() && !all_workloads && !mutate && explain.is_none() {
                return Err(err(
                    "lint: pass a file, --all-workloads, --mutate or --explain",
                ));
            }
            Ok(Command::Lint {
                path,
                all_workloads,
                deny_warnings: flag("--deny-warnings"),
                json: opt("--json").map(String::from),
                window,
                mutate,
                smoke: flag("--smoke"),
                jobs,
                core_model,
                divergence,
                explain,
            })
        }
        "trace" => Ok(Command::Trace {
            path: positional("file")?,
            collector: text("--collector", "bow-wr"),
            window,
            limit: number(&given, "--limit")?.unwrap_or(120),
        }),
        "encode" => Ok(Command::Encode {
            path: positional("file")?,
        }),
        "decode" => Ok(Command::Decode {
            path: positional("file")?,
        }),
        "serve" => Ok(Command::Serve {
            addr: text("--addr", "127.0.0.1:7070"),
            workers: number(&given, "--workers")?.unwrap_or(0),
            store: text("--store", "results/store"),
            port_file: opt("--port-file").map(String::from),
        }),
        "submit" => {
            let action = if flag("--shutdown") {
                SubmitAction::Shutdown
            } else if flag("--health") {
                SubmitAction::Health
            } else if let Some(id) = number(&given, "--job")? {
                SubmitAction::Job(id)
            } else if let Some(fp) = opt("--fetch") {
                SubmitAction::Fetch(fp.to_string())
            } else {
                let bench = target.map(String::from);
                let asm = opt("--asm").map(String::from);
                match (&bench, &asm) {
                    (None, None) => return Err(err(
                        "submit: pass a benchmark, --asm, --job, --fetch, --health or --shutdown",
                    )),
                    (Some(_), Some(_)) => {
                        return Err(err("submit: pass a benchmark OR --asm, not both"))
                    }
                    _ => {}
                }
                SubmitAction::Run {
                    bench,
                    asm,
                    collector: text("--collector", "bow-wr"),
                    window,
                    scale,
                    wait: !flag("--no-wait"),
                }
            };
            Ok(Command::Submit {
                addr: text("--addr", "127.0.0.1:7070"),
                action,
            })
        }
        "corpus gen" => Ok(Command::Corpus {
            action: CorpusAction::Gen {
                count: number(&given, "--count")?.unwrap_or(bow::corpus::DEFAULT_COUNT),
                seed: number(&given, "--seed")?.unwrap_or(bow::corpus::DEFAULT_SEED),
                dir: text("--dir", "corpus"),
            },
        }),
        "corpus stats" => Ok(Command::Corpus {
            action: CorpusAction::Stats {
                dir: text("--dir", "corpus"),
            },
        }),
        "corpus sanitize" => {
            // `--smoke` pins the fixed CI campaign: no flag may tune it.
            let smoke = flag("--smoke");
            let (tunable, defaults) = if smoke {
                (&[][..], bow::sanitize_campaign::CampaignOptions::smoke())
            } else {
                (&given[..], bow::sanitize_campaign::CampaignOptions::full())
            };
            Ok(Command::Corpus {
                action: CorpusAction::Sanitize {
                    count: number(tunable, "--count")?.unwrap_or(defaults.count),
                    seed: number(tunable, "--seed")?.unwrap_or(defaults.seed),
                    jobs,
                    smoke,
                    out: opt("--out").map(String::from),
                },
            })
        }
        "corpus sweep" => Ok(Command::Corpus {
            action: CorpusAction::Sweep {
                dir: text("--dir", "corpus"),
                limit: number(&given, "--limit")?.unwrap_or(0),
                jobs,
                core_model,
                divergence,
                addr: opt("--addr").map(String::from),
                out: opt("--out").map(String::from),
            },
        }),
        other => unreachable!("`{other}` has a flag spec but no parser"),
    }
}

/// Builds the experiment [`Config`] named by a collector spec. Under the
/// CLI a `bow-flex` buffer holds `4 × window` values.
///
/// # Errors
///
/// Returns [`BowError::Config`] for unknown collector names or
/// out-of-range knobs.
pub fn config_for(
    collector: &str,
    window: u32,
    reorder: bool,
    core_model: CoreModelKind,
    divergence: DivergenceModel,
) -> Result<Config, BowError> {
    let (collector, half_size) = bow::experiment::Collector::parse_spec(collector)?;
    Ok(ConfigBuilder::new(collector)
        .window(window)
        .half_size(half_size)
        .capacity(window.saturating_mul(4))
        .reorder(reorder)
        .core_model(core_model)
        .divergence(divergence)
        .try_build()?)
}

/// Reads and assembles a kernel file.
fn read_kernel(path: &str) -> Result<Kernel, BowError> {
    let text = std::fs::read_to_string(path).map_err(|e| BowError::io(path, e))?;
    bow_isa::asm::parse_kernel(&text).map_err(|e| err(e.to_string()))
}

/// Runs one benchmark under `designs`, each on the chosen core and
/// divergence model, through the sweep engine (every cell must pass its
/// reference check) and tabulates each design against the first, the
/// baseline: label, IPC, IPC vs baseline, read and write bypass rate,
/// normalized RF energy.
fn design_table(
    bench: &str,
    scale: Scale,
    jobs: usize,
    (core_model, divergence): (CoreModelKind, DivergenceModel),
    designs: Vec<ConfigBuilder>,
) -> Result<Vec<Vec<String>>, BowError> {
    let b = bow::experiment::benchmark(bench, scale)?;
    let configs = designs
        .into_iter()
        .map(|d| d.core_model(core_model).divergence(divergence).build());
    let result = Suite::over(vec![b]).configs(configs).jobs(jobs).run();
    Verdict::of_records(result.all_records()).into_result(String::new())?;
    let model = EnergyModel::table_iv();
    let base = &result.row(0).records[0];
    let base_counts = base.outcome.result.stats.access_counts();
    let row = |rec: &RunRecord| {
        let s = &rec.outcome.result.stats;
        let energy = EnergyReport::normalized(&model, &s.access_counts(), &base_counts);
        vec![
            rec.label.clone(),
            format!("{:.3}", rec.ipc()),
            format!("{:+.1}%", 100.0 * (rec.ipc() / base.ipc() - 1.0)),
            pct(s.read_bypass_rate()),
            pct(s.write_bypass_rate()),
            format!("{:.2}", energy.total_norm()),
        ]
    };
    Ok(result.all_records().map(row).collect())
}

/// `doc` pretty-printed, newline-terminated: the on-disk form of every
/// JSON artifact the CLI writes.
fn json_text(doc: &Json) -> String {
    let mut text = doc.to_string_pretty();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// `POST /v1/runs`: one kernel document under one config document.
fn post_run(
    addr: &str,
    kernel: Json,
    config: Json,
    wait: bool,
) -> Result<bow_server::client::Response, BowError> {
    let body = Json::obj([
        ("kernel", kernel),
        ("config", config),
        ("wait", Json::from(wait)),
    ]);
    bow_server::client::post(addr, "/v1/runs", &body.to_string_compact())
}

fn corpus_manifest_path(dir: &str) -> String {
    format!("{dir}/manifest.json")
}

fn load_corpus_manifest(dir: &str) -> Result<bow::corpus::Manifest, BowError> {
    let path = corpus_manifest_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| BowError::io(&path, e))?;
    let json = bow_util::json::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
    bow::corpus::Manifest::from_json(&json).map_err(|e| err(format!("{path}: {e}")))
}

/// Per-stratum retention table shared by `corpus gen` and `corpus stats`.
fn corpus_stratum_table(manifest: &bow::corpus::Manifest) -> String {
    let rejected_in = |stratum: &str| -> u64 {
        manifest
            .rejected
            .iter()
            .find(|(s, _)| s == stratum)
            .map_or(0, |(_, n)| *n)
    };
    let mean = |xs: &[u64]| -> String {
        format!("{:.1}", xs.iter().sum::<u64>() as f64 / xs.len() as f64)
    };
    let rows: Vec<Vec<String>> = manifest
        .strata()
        .iter()
        .map(|stratum| {
            let entries: Vec<_> = manifest
                .entries
                .iter()
                .filter(|e| &e.stratum == stratum)
                .collect();
            let retained = entries.iter().filter(|e| e.retained).count();
            let col = |f: &dyn Fn(&bow::corpus::ManifestEntry) -> u64| {
                mean(&entries.iter().map(|e| f(e)).collect::<Vec<u64>>())
            };
            vec![
                (*stratum).to_string(),
                retained.to_string(),
                (entries.len() - retained + rejected_in(stratum) as usize).to_string(),
                col(&|e| u64::from(e.traits.insts)),
                col(&|e| u64::from(e.traits.regs_written)),
                col(&|e| e.traits.reuse_x100 / 100),
                col(&|e| u64::from(e.traits.branch_depth)),
                col(&|e| u64::from(e.traits.mem_per_ki)),
            ]
        })
        .collect();
    render_table(
        &[
            "stratum", "kept", "rejected", "insts", "regs", "reuse", "depth", "mem/ki",
        ],
        &rows,
    )
}

/// Drives the corpus sweep through a running `bow-server`: every
/// selected kernel is submitted inline (assembly text) under each of the
/// four collector columns, and the per-stratum IPC-gain distributions
/// are reduced client-side. The server runs inline kernels under its
/// synthetic-parameter convention with the memory oracle, so this path
/// reports IPC only — bypass-rate distributions need the local pool.
fn corpus_server_sweep(
    manifest: &bow::corpus::Manifest,
    limit: usize,
    addr: &str,
    core: CoreModelKind,
    divergence: DivergenceModel,
) -> Result<Json, BowError> {
    use bow::corpus;
    const COLLECTORS: [&str; 4] = ["baseline", "bow", "bow-wr", "rfc"];
    let picked = corpus::select(manifest, limit);
    if picked.is_empty() {
        return Err(err("corpus sweep: manifest has no retained kernels"));
    }
    let mut ipc: Vec<Vec<f64>> = vec![Vec::new(); COLLECTORS.len()];
    for entry in &picked {
        let kernel = corpus::kernel_for(entry).ok_or_else(|| {
            err(format!(
                "{}: cannot re-materialize from manifest",
                entry.name
            ))
        })?;
        let asm = kernel.disassemble();
        for (ci, collector) in COLLECTORS.iter().enumerate() {
            let kernel = Json::obj([
                ("asm", Json::from(asm.as_str())),
                ("blocks", Json::from(bow_isa::fuzz::GRID.0)),
                ("threads", Json::from(bow_isa::fuzz::BLOCK.0)),
            ]);
            let config = Json::obj([
                ("collector", Json::from(*collector)),
                ("window", Json::from(3_u32)),
                ("model", Json::from(GpuModel::Scaled.name())),
                ("core_model", Json::from(core.name())),
                ("divergence", Json::from(divergence.name())),
            ]);
            let response = post_run(addr, kernel, config, true)?;
            if response.status >= 400 {
                return Err(BowError::io(addr, response.body.trim_end()));
            }
            let parsed = response
                .json()
                .map_err(|e| err(format!("server response: {e}")))?;
            let value = parsed
                .get("result")
                .and_then(|r| r.get("ipc"))
                .and_then(Json::as_f64)
                .ok_or_else(|| err("server response has no `result.ipc`"))?;
            ipc[ci].push(value);
        }
    }

    // The same reduction as a local sweep, minus the bypass-rate column
    // the server path cannot observe.
    let strata: Vec<&str> = picked.iter().map(|e| e.stratum.as_str()).collect();
    let baseline = ipc.remove(0);
    let columns: Vec<corpus::DesignColumn> = COLLECTORS[1..]
        .iter()
        .zip(ipc)
        .map(|(label, ipc)| corpus::DesignColumn {
            label,
            ipc,
            read_bypass: None,
        })
        .collect();
    Ok(corpus::distributions(
        &strata, &baseline, &columns, core, divergence,
    ))
}

/// Executes a command, returning the text to print.
///
/// # Errors
///
/// Returns a [`BowError`] for unknown benchmarks, unreadable files or
/// invalid kernels; `main.rs` exits with its
/// [`exit_code`](BowError::exit_code).
pub fn execute(cmd: Command) -> Result<String, BowError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Suite => {
            let rows: Vec<Vec<String>> = suite(Scale::Paper)
                .iter()
                .map(|b| {
                    vec![
                        b.name().to_string(),
                        b.suite().to_string(),
                        b.description().to_string(),
                    ]
                })
                .collect();
            Ok(render_table(&["benchmark", "suite", "description"], &rows))
        }
        Command::Run {
            bench,
            collector,
            window,
            scale,
            reorder,
            core_model,
            divergence,
            sanitize,
        } => {
            let b = bow::experiment::benchmark(&bench, scale)?;
            let mut cfg = config_for(&collector, window, reorder, core_model, divergence)?;
            cfg.gpu.sanitize = sanitize;
            let label = cfg.label.clone();
            let rec = bow::experiment::run(b.as_ref(), cfg);
            let mut verdict = Verdict::of_records([&rec]);
            let s = &rec.outcome.result.stats;
            let mut out = String::new();
            let checked = if verdict.is_clean() {
                "OK (results verified)"
            } else {
                "results differ from the reference"
            };
            writeln!(out, "{bench} under {label}: {checked}").unwrap();
            writeln!(out, "  cycles             {}", rec.outcome.result.cycles).unwrap();
            writeln!(out, "  warp instructions  {}", s.warp_instructions).unwrap();
            writeln!(out, "  IPC                {:.3}", rec.ipc()).unwrap();
            writeln!(out, "  RF reads/writes    {} / {}", s.rf.reads, s.rf.writes).unwrap();
            writeln!(out, "  read bypass        {}", pct(s.read_bypass_rate())).unwrap();
            writeln!(out, "  write bypass       {}", pct(s.write_bypass_rate())).unwrap();
            if let Some(c) = &rec.compiler {
                writeln!(
                    out,
                    "  compiler           {} transient / {} persistent / {} rf-only; {} regs elided",
                    c.transient, c.persistent, c.rf_only, c.transient_regs.len()
                )
                .unwrap();
            }
            if let Some(san) = &rec.outcome.result.sanitizer {
                // Under `run --sanitize` every dynamic finding fails.
                let found = match san.findings.len() {
                    0 => "clean".to_string(),
                    n => format!("{n} finding(s)"),
                };
                writeln!(out, "  sanitizer          {found}").unwrap();
                verdict.findings.extend(
                    san.findings
                        .iter()
                        .map(|f| Finding::new(Check::Sanitizer, &bench, &label, f.to_string())),
                );
            }
            verdict.into_result(out)
        }
        Command::Compare {
            bench,
            scale,
            jobs,
            core_model,
            divergence,
        } => {
            let designs = vec![
                ConfigBuilder::baseline(),
                ConfigBuilder::bow(3),
                ConfigBuilder::bow_wr(3),
                ConfigBuilder::bow_wr(3).half_size(true),
                ConfigBuilder::bow_flex(12),
                ConfigBuilder::rfc(),
            ];
            let axes = (core_model, divergence);
            let rows = design_table(&bench, scale, jobs, axes, designs)?;
            Ok(render_table(
                &[
                    "config",
                    "ipc",
                    "vs base",
                    "rd bypass",
                    "wr bypass",
                    "energy",
                ],
                &rows,
            ))
        }
        Command::Asm { path } => {
            let k = read_kernel(&path)?;
            let mut out = String::new();
            writeln!(
                out,
                "kernel `{}`: {} instructions, {} registers, {} B shared, {} params",
                k.name,
                k.len(),
                k.num_regs,
                k.shared_bytes,
                k.param_words
            )
            .unwrap();
            out.push_str(&k.disassemble());
            Ok(out)
        }
        Command::Compile {
            path,
            window,
            reorder,
        } => {
            let mut k = read_kernel(&path)?;
            if reorder {
                k = bow_compiler::reorder_for_bypass(&k);
            }
            let (annotated, report) = annotate(&k, window);
            let mut out = String::new();
            writeln!(
                out,
                "hint pass (IW{window}): {} transient / {} persistent / {} rf-only; \
                 {} of {} registers need no RF slot",
                report.transient,
                report.persistent,
                report.rf_only,
                report.transient_regs.len(),
                report.used_regs
            )
            .unwrap();
            out.push_str(&annotated.disassemble());
            Ok(out)
        }
        Command::Sweep {
            bench,
            scale,
            jobs,
            core_model,
            divergence,
        } => {
            let mut designs = vec![ConfigBuilder::baseline()];
            designs.extend((1..=7u32).map(ConfigBuilder::bow_wr));
            let axes = (core_model, divergence);
            let table = design_table(&bench, scale, jobs, axes, designs)?;
            // One row per window (the baseline row is the yardstick), named
            // by the window and without the absolute-IPC column.
            let rows: Vec<Vec<String>> = (1..=7u32)
                .zip(&table[1..])
                .map(|(w, row)| [&[format!("IW{w}")], &row[2..]].concat())
                .collect();
            Ok(render_table(
                &["window", "ipc vs base", "rd bypass", "wr bypass", "energy"],
                &rows,
            ))
        }
        Command::Figure { name, tier, out } => match name.as_str() {
            "list" => Ok(figures::list()),
            "all" => {
                // One line per file written.
                let mut text = String::new();
                for figure in &figures::FIGURES {
                    for path in figure.run(&tier, out.as_deref())?.1 {
                        writeln!(text, "{path}").unwrap();
                    }
                }
                Ok(text)
            }
            name => Ok(figures::find(name)?.run(&tier, out.as_deref())?.0),
        },
        Command::Fuzz {
            cases,
            seed,
            jobs,
            size,
            out_dir,
            core_model,
            divergence,
        } => {
            let report = bow::fuzz::run_fuzz(&bow::fuzz::FuzzOptions {
                cases,
                seed,
                jobs,
                size,
                out_dir: out_dir.into(),
                core_model,
                divergence,
            });
            let summary = report.summary();
            report.verdict.into_result(summary)
        }
        Command::Lint {
            path,
            all_workloads,
            deny_warnings,
            json,
            window,
            mutate,
            smoke,
            jobs,
            core_model,
            divergence,
            explain,
        } => {
            if let Some(code) = explain {
                if code.is_empty() {
                    // Bare `--explain`: list every known code.
                    let rows: Vec<Vec<String>> = bow_compiler::LINT_DOCS
                        .iter()
                        .map(|d| {
                            vec![
                                d.code.to_string(),
                                d.severity.to_string(),
                                d.summary.to_string(),
                            ]
                        })
                        .collect();
                    let mut out = render_table(&["code", "severity", "summary"], &rows);
                    out.push_str("\nuse `bow-cli lint --explain B0xx` for the full description\n");
                    return Ok(out);
                }
                return bow_compiler::explain(&code)
                    .ok_or_else(|| err(format!("lint: unknown diagnostic code `{code}`")));
            }
            if mutate {
                let mut opts = if smoke {
                    bow::mutate::MutateOptions::smoke()
                } else {
                    bow::mutate::MutateOptions::full()
                };
                opts.jobs = jobs;
                opts.divergence = divergence;
                let report = bow::mutate::run_mutation(&opts);
                if let Some(p) = json {
                    std::fs::write(&p, report.to_json().to_string_pretty())
                        .map_err(|e| BowError::io(&p, e))?;
                }
                let summary = report.summary();
                return report.verdict.into_result(summary);
            }

            // Lint the artifact the pipeline would consume under the
            // targeted models: the same compile plan a launch goes through
            // — hint pass, then barrier lowering (puts B017/B018 in play),
            // then the control-bit emitter on the modern core (B013/B014).
            // The passes only set hints, rewrite opcodes and attach a
            // sidecar, so pc -> source-line tables stay valid.
            let plan = CompilePlan {
                reorder: false,
                hints: Some(window),
                verify: false,
                divergence,
                core_model,
            };
            // (kernel, pc -> source line when it came from a .s file)
            let mut targets: Vec<(Kernel, Option<Vec<usize>>)> = Vec::new();
            if let Some(p) = &path {
                let text = std::fs::read_to_string(p).map_err(|e| BowError::io(p.as_str(), e))?;
                let (k, lines) =
                    bow_isa::asm::parse_kernel_lines(&text).map_err(|e| err(e.to_string()))?;
                // Lint hand-annotated kernels as written; run the hint
                // pass on bare ones so B010 judges real compiler output.
                let hand_annotated = k.insts.iter().any(|i| i.hint != WritebackHint::Both);
                let plan = CompilePlan {
                    hints: plan.hints.filter(|_| !hand_annotated),
                    ..plan
                };
                targets.push((plan.apply(k)?.0, Some(lines)));
            }
            if all_workloads {
                for b in suite(Scale::Test) {
                    targets.push((plan.apply(b.kernel())?.0, None));
                }
            }

            let opts = bow_compiler::LintOptions {
                window,
                ..Default::default()
            };
            let reports: Vec<_> = targets
                .iter()
                .map(|(k, _)| bow_compiler::lint_kernel(k, &opts))
                .collect();
            if let Some(p) = json {
                let doc = bow::util::json::Json::arr(reports.iter().map(|r| r.to_json()));
                std::fs::write(&p, doc.to_string_pretty()).map_err(|e| BowError::io(&p, e))?;
            }

            let mut out = String::new();
            for ((k, lines), report) in targets.iter().zip(&reports) {
                out.push_str(&report.render(k, lines.as_deref()));
                out.push('\n');
            }
            // The design a finding names: the one whose compile plan made
            // the linted kernel.
            let design = ConfigBuilder::bow_wr(window)
                .core_model(core_model)
                .divergence(divergence)
                .build()
                .label;
            let verdict: Verdict = reports
                .iter()
                .filter(|r| r.errors() > 0 || (deny_warnings && !r.passes_deny_warnings()))
                .map(|r| {
                    let detail = format!("{} error(s), {} warning(s)", r.errors(), r.warnings());
                    Finding::new(Check::Lint, &r.kernel, &design, detail)
                })
                .collect();
            let status = match verdict.findings.len() {
                0 => "clean".to_string(),
                n => format!("{n} failing"),
            };
            writeln!(
                out,
                "linted {} kernel(s) at IW{window}: {status}",
                reports.len()
            )
            .unwrap();
            verdict.into_result(out)
        }
        Command::Trace {
            path,
            collector,
            window,
            limit,
        } => {
            let (core_model, divergence) = Default::default();
            let cfg = config_for(&collector, window, false, core_model, divergence)?;
            let (kernel, _) = CompilePlan::of(&cfg).apply(read_kernel(&path)?)?;
            let mut gpu_cfg = cfg.gpu.clone();
            gpu_cfg.trace_pipeline = true;
            gpu_cfg.num_sms = 1;
            let mut gpu = bow_sim::Gpu::new(gpu_cfg);
            let params = bow::api::synthetic_params(&kernel);
            let res = gpu.launch(&kernel, bow_isa::KernelDims::linear(1, 32), &params);
            let trace = gpu.take_trace();
            let mut out = String::new();
            writeln!(
                out,
                "{} cycles, {} warp instructions, IPC {:.3} under {}\n",
                res.cycles,
                res.stats.warp_instructions,
                res.ipc(),
                cfg.label
            )
            .unwrap();
            out.push_str(&trace.render(limit));
            Ok(out)
        }
        Command::Encode { path } => {
            let words = bow_isa::encode_kernel(&read_kernel(&path)?);
            let mut out = String::with_capacity(words.len() * 9);
            for w in words {
                writeln!(out, "{w:08x}").unwrap();
            }
            Ok(out)
        }
        Command::Decode { path } => {
            let text = std::fs::read_to_string(&path).map_err(|e| BowError::io(&path, e))?;
            let words: Result<Vec<u32>, _> = text
                .split_whitespace()
                .map(|t| u32::from_str_radix(t, 16))
                .collect();
            let words = words.map_err(|e| err(format!("bad hex word: {e}")))?;
            let k = bow_isa::decode_kernel("decoded", &words).map_err(|e| err(e.to_string()))?;
            Ok(k.disassemble())
        }
        Command::Serve {
            addr,
            workers,
            store,
            port_file,
        } => {
            let server = bow_server::Server::bind(&bow_server::ServerConfig {
                addr,
                workers,
                store_dir: store.into(),
            })?;
            let bound = server.local_addr();
            if let Some(p) = port_file {
                std::fs::write(&p, bound.to_string()).map_err(|e| BowError::io(&p, e))?;
            }
            eprintln!("bow-server listening on {bound} (POST /v1/shutdown to stop)");
            server.run()?;
            Ok(format!("bow-server on {bound} stopped\n"))
        }
        Command::Submit { addr, action } => {
            let response = match action {
                SubmitAction::Run {
                    bench,
                    asm,
                    collector,
                    window,
                    scale,
                    wait,
                } => {
                    let kernel = match (&bench, &asm) {
                        (Some(b), None) => Json::obj([
                            ("workload", Json::from(b.as_str())),
                            ("scale", Json::from(scale.name())),
                        ]),
                        (None, Some(path)) => {
                            let text =
                                std::fs::read_to_string(path).map_err(|e| BowError::io(path, e))?;
                            Json::obj([("asm", Json::from(text))])
                        }
                        _ => unreachable!("parse() enforces bench XOR asm"),
                    };
                    let config = Json::obj([
                        ("collector", Json::from(collector.as_str())),
                        ("window", Json::from(window)),
                    ]);
                    post_run(&addr, kernel, config, wait)?
                }
                SubmitAction::Job(id) => bow_server::client::get(&addr, &format!("/v1/jobs/{id}"))?,
                SubmitAction::Fetch(fp) => {
                    bow_server::client::get(&addr, &format!("/v1/results/{fp}"))?
                }
                SubmitAction::Health => bow_server::client::get(&addr, "/v1/healthz")?,
                SubmitAction::Shutdown => bow_server::client::post(&addr, "/v1/shutdown", "{}")?,
            };
            // Print the server's JSON verbatim; non-2xx responses carry a
            // structured error document and fail the process.
            let mut out = response.body.clone();
            if !out.ends_with('\n') {
                out.push('\n');
            }
            if response.status < 400 {
                Ok(out)
            } else {
                let kind = response
                    .json()
                    .ok()
                    .and_then(|v| {
                        v.get("error")?
                            .get("kind")
                            .and_then(Json::as_str)
                            .map(String::from)
                    })
                    .unwrap_or_default();
                Err(match kind.as_str() {
                    "config" => BowError::Config(ConfigError::Unknown(bow_util::UnknownName {
                        what: "request (server rejected the configuration)",
                        value: out.trim_end().to_string(),
                        valid: Vec::new(),
                    })),
                    "io" | "not_found" => BowError::io(&addr, out.trim_end()),
                    "verify" => BowError::verify(out.trim_end()),
                    _ => BowError::parse(out.trim_end()),
                })
            }
        }
        Command::Corpus { action } => match action {
            CorpusAction::Gen { count, seed, dir } => {
                let manifest = bow::corpus::generate(seed, count);
                std::fs::create_dir_all(&dir).map_err(|e| BowError::io(&dir, e))?;
                let path = corpus_manifest_path(&dir);
                std::fs::write(&path, json_text(&manifest.to_json()))
                    .map_err(|e| BowError::io(&path, e))?;
                let retained = manifest.retained().count();
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "corpus: seed {seed:#x}, {count} generated candidates, \
                     {retained}/{} entries retained → {path}",
                    manifest.entries.len()
                );
                out.push_str(&corpus_stratum_table(&manifest));
                Ok(out)
            }
            CorpusAction::Stats { dir } => {
                let manifest = load_corpus_manifest(&dir)?;
                let retained = manifest.retained().count();
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "corpus: seed {:#x}, count {}, {retained}/{} entries retained",
                    manifest.seed,
                    manifest.count,
                    manifest.entries.len()
                );
                out.push_str(&corpus_stratum_table(&manifest));
                Ok(out)
            }
            CorpusAction::Sweep {
                dir,
                limit,
                jobs,
                core_model,
                divergence,
                addr,
                out,
            } => {
                let manifest = load_corpus_manifest(&dir)?;
                let doc = if let Some(addr) = addr {
                    corpus_server_sweep(&manifest, limit, &addr, core_model, divergence)?
                } else {
                    let opts = bow::corpus::SweepOptions {
                        limit,
                        jobs,
                        core_model,
                        divergence,
                        progress: true,
                    };
                    let result = bow::corpus::sweep(&manifest, &opts);
                    let cells = result.all_records().count();
                    Verdict::of_records(result.all_records())
                        .into_result(format!("corpus sweep: {cells} cells checked\n"))?;
                    bow::corpus::distribution_json(&manifest, &result, core_model, divergence)
                };
                let text = json_text(&doc);
                if let Some(out_path) = out {
                    std::fs::write(&out_path, &text).map_err(|e| BowError::io(&out_path, e))?;
                }
                Ok(text)
            }
            CorpusAction::Sanitize {
                count,
                seed,
                jobs,
                smoke,
                out,
            } => {
                let mut opts = if smoke {
                    bow::sanitize_campaign::CampaignOptions::smoke()
                } else {
                    bow::sanitize_campaign::CampaignOptions::full()
                };
                opts.count = count;
                opts.seed = seed;
                opts.jobs = jobs;
                let report = bow::sanitize_campaign::run_campaign(&opts);
                let out_path = out.unwrap_or_else(|| "results/sanitizer_campaign.json".into());
                if let Some(dir) = std::path::Path::new(&out_path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| BowError::io(dir.display().to_string(), e))?;
                    }
                }
                std::fs::write(&out_path, json_text(&report.to_json()))
                    .map_err(|e| BowError::io(&out_path, e))?;
                let summary = format!("{}report → {out_path}\n", report.summary());
                report.verdict.into_result(summary)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_run_with_options() {
        let c = parse(&argv(
            "run btree --collector bow --window 4 --scale test --reorder",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                bench: "btree".into(),
                collector: "bow".into(),
                window: 4,
                scale: Scale::Test,
                reorder: true,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
                sanitize: false,
            }
        );
        assert!(parse(&argv("run btree --window lots")).is_err());
    }

    #[test]
    fn parse_defaults() {
        let c = parse(&argv("run vectoradd")).unwrap();
        assert_eq!(
            c,
            Command::Run {
                bench: "vectoradd".into(),
                collector: "bow-wr".into(),
                window: 3,
                scale: Scale::Test,
                reorder: false,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
                sanitize: false,
            }
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run x --scale huge")).is_err());
    }

    #[test]
    fn flag_spec_rejects_typos_and_missing_values_and_places_positionals() {
        // The CLI twin of the server's unknown-key 4xx: a typo'd flag used
        // to be ignored, silently running the default collector.
        let e = parse(&argv("run lps --colector bow")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        let msg = e.to_string();
        assert!(msg.contains("unknown flag `--colector`"), "{msg}");
        assert!(msg.contains("--collector"), "lists the valid flags: {msg}");
        // A value flag with no value used to be ignored too.
        let e = parse(&argv("run lps --window")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("`--window` needs a value"), "{e}");
        assert!(parse(&argv("run lps --window --reorder")).is_err());
        // A value flag's value is never the positional: this used to look
        // up benchmark `bow`.
        let cmd = parse(&argv("run --collector bow lps")).unwrap();
        match &cmd {
            Command::Run {
                bench, collector, ..
            } => assert_eq!((bench.as_str(), collector.as_str()), ("lps", "bow")),
            other => panic!("parsed {other:?}"),
        }
        let out = execute(cmd).unwrap();
        assert!(out.starts_with("lps under bow iw3: OK"), "{out}");
        // So the path / benchmark / verb need not lead any more.
        match parse(&argv("lint --window 4 k.s")).unwrap() {
            Command::Lint { path, window, .. } => {
                assert_eq!((path.as_deref(), window), (Some("k.s"), 4));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("submit --collector bow lps")).unwrap() {
            Command::Submit {
                action: SubmitAction::Run { bench, .. },
                ..
            } => assert_eq!(bench.as_deref(), Some("lps")),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("corpus --count 64 gen")).unwrap() {
            Command::Corpus {
                action: CorpusAction::Gen { count, .. },
            } => assert_eq!(count, 64),
            other => panic!("parsed {other:?}"),
        }
        // Surplus positionals, another subcommand's flag and another
        // verb's flag are all rejected.
        assert!(parse(&argv("run lps btree")).is_err());
        assert!(parse(&argv("fuzz lps")).is_err());
        assert!(parse(&argv("suite --jobs 2")).is_err());
        assert!(parse(&argv("corpus gen --limit 3")).is_err());
        // The spec is read off the usage synopsis; pin what it derives.
        assert_eq!(
            flag_spec("compile"),
            Some((true, vec![("--window", true), ("--reorder", false)]))
        );
        assert_eq!(flag_spec("suite"), Some((false, Vec::new())));
        let (positional, lint) = flag_spec("lint").expect("lint has four synopses");
        assert!(positional);
        for flag in [("--json", true), ("--mutate", false), ("--explain", false)] {
            assert!(lint.contains(&flag), "{flag:?} in {lint:?}");
        }
        assert_eq!(lint.len(), 10, "{lint:?}");
        let (positional, submit) = flag_spec("submit").expect("submit has two synopses");
        assert!(positional);
        for flag in [("--job", true), ("--health", false), ("--shutdown", false)] {
            assert!(submit.contains(&flag), "{flag:?} in {submit:?}");
        }
        let (positional, fuzz) = flag_spec("fuzz").expect("fuzz");
        assert!(!positional && fuzz.contains(&("--smoke", false)));
        assert_eq!(
            flag_spec("corpus stats"),
            Some((false, vec![("--dir", true)]))
        );
        // `corpus` alone is the union of its verbs' synopses.
        assert_eq!(flag_spec("corpus").map(|(_, flags)| flags.len()), Some(10));
        assert_eq!(flag_spec("frobnicate"), None);
    }

    #[test]
    fn axis_names_round_trip_through_flag_wire_and_label() {
        use bow::api::{canonical_config_json, config_from_json};
        use bow::experiment::{Collector, GpuModel};
        let wire = |key: &'static str, value: &str| {
            config_from_json(&Json::obj([(key, Json::from(value))])).unwrap()
        };
        for v in CoreModelKind::ALL {
            let name = v.name();
            assert_eq!(CoreModelKind::parse(name), Ok(v));
            match parse(&argv(&format!("run lps --core-model {name}"))).unwrap() {
                Command::Run { core_model, .. } => assert_eq!(core_model, v),
                other => panic!("parsed {other:?}"),
            }
            let cfg = wire("core_model", name);
            assert_eq!(cfg.gpu.core_model, v);
            let suffix = format!("+{name}");
            assert_eq!(cfg.label.ends_with(&suffix), v != CoreModelKind::default());
            let canon = canonical_config_json(&cfg);
            assert_eq!(canon.get("core_model").and_then(Json::as_str), Some(name));
        }
        for v in DivergenceModel::ALL {
            let name = v.name();
            assert_eq!(DivergenceModel::parse(name), Ok(v));
            match parse(&argv(&format!("run lps --divergence {name}"))).unwrap() {
                Command::Run { divergence, .. } => assert_eq!(divergence, v),
                other => panic!("parsed {other:?}"),
            }
            let cfg = wire("divergence", name);
            assert_eq!(cfg.gpu.divergence, v);
            let suffix = format!("+{name}");
            assert_eq!(
                cfg.label.ends_with(&suffix),
                v != DivergenceModel::default()
            );
            let canon = canonical_config_json(&cfg);
            assert_eq!(canon.get("divergence").and_then(Json::as_str), Some(name));
        }
        for v in Scale::ALL {
            let name = v.name();
            assert_eq!(Scale::parse(name), Ok(v));
            match parse(&argv(&format!("run lps --scale {name}"))).unwrap() {
                Command::Run { scale, .. } => assert_eq!(scale, v),
                other => panic!("parsed {other:?}"),
            }
            let body = Json::obj([(
                "kernel",
                Json::obj([("workload", Json::from("lps")), ("scale", Json::from(name))]),
            )]);
            match RunRequest::from_json(&body).unwrap().kernel {
                KernelSpec::Workload { scale, .. } => assert_eq!(scale, v),
                other => panic!("parsed {other:?}"),
            }
        }
        for v in GpuModel::ALL {
            assert_eq!(GpuModel::parse(v.name()), Ok(v));
            let want = ConfigBuilder::baseline().model(v).build().gpu.num_sms;
            assert_eq!(wire("model", v.name()).gpu.num_sms, want);
        }
        // Collector specs: the CLI and the wire resolve every spec to the
        // same design and buffer size; only `bow-flex` sizing differs
        // (CLI: 4 x window; wire: `capacity`, default 12).
        let (core, div) = Default::default();
        for (spec, design, half) in Collector::SPECS {
            assert_eq!(Collector::parse_spec(spec), Ok((design, half)));
            let cli = config_for(spec, 3, false, core, div).unwrap();
            let wired = wire("collector", spec);
            assert_eq!(
                (cli.label, cli.gpu, cli.hints),
                (wired.label, wired.gpu, wired.hints),
                "{spec}"
            );
        }
        assert_eq!(
            config_for("bow-flex", 5, false, core, div).unwrap().label,
            "bow-flex c20"
        );
        assert_eq!(wire("collector", "bow-flex").label, "bow-flex c12");
        // Unknown names list the table, on both surfaces.
        let e = parse(&argv("run lps --core-model volta")).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("(valid: pascal, modern)"), "{e}");
        let e = config_from_json(&Json::obj([("divergence", Json::from("ipdom"))])).unwrap_err();
        assert_eq!(e.kind(), "config");
        assert!(e.to_string().contains("(valid: stack, barrier)"), "{e}");
    }

    #[test]
    fn parse_sweep() {
        let c = parse(&argv("sweep nw --scale test --jobs 2")).unwrap();
        assert_eq!(
            c,
            Command::Sweep {
                bench: "nw".into(),
                scale: Scale::Test,
                jobs: 2,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
            }
        );
    }

    #[test]
    fn parse_jobs_defaults_to_all_cores() {
        let c = parse(&argv("compare nw --scale test")).unwrap();
        assert_eq!(
            c,
            Command::Compare {
                bench: "nw".into(),
                scale: Scale::Test,
                jobs: 0,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
            }
        );
        assert!(parse(&argv("sweep nw --jobs lots")).is_err());
    }

    #[test]
    fn sweep_runs_all_windows() {
        let out = execute(Command::Sweep {
            bench: "vectoradd".into(),
            scale: Scale::Test,
            jobs: 2,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
        })
        .unwrap();
        assert!(out.contains("IW1") && out.contains("IW7"), "{out}");
    }

    #[test]
    fn compare_lists_all_collectors() {
        let out = execute(Command::Compare {
            bench: "vectoradd".into(),
            scale: Scale::Test,
            jobs: 2,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
        })
        .unwrap();
        for label in ["baseline", "bow iw3", "bow-wr iw3", "bow-flex c12", "rfc"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn suite_lists_benchmarks() {
        let out = execute(Command::Suite).unwrap();
        assert!(out.contains("btree"));
        assert!(out.contains("vectoradd"));
    }

    #[test]
    fn run_vectoradd_reports_verified() {
        let out = execute(Command::Run {
            bench: "vectoradd".into(),
            collector: "bow-wr".into(),
            window: 3,
            scale: Scale::Test,
            reorder: false,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            sanitize: false,
        })
        .unwrap();
        assert!(out.contains("OK (results verified)"), "{out}");
        assert!(out.contains("IPC"));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let e = execute(Command::Run {
            bench: "nope".into(),
            collector: "bow".into(),
            window: 3,
            scale: Scale::Test,
            reorder: false,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            sanitize: false,
        })
        .unwrap_err();
        assert!(e.to_string().contains("unknown benchmark"));
    }

    #[test]
    fn encode_decode_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("bow_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm = dir.join("k.s");
        std::fs::write(
            &asm,
            ".kernel k\n    mov r0, 7\n    iadd r1, r0, 1\n    exit\n",
        )
        .unwrap();
        let hex = execute(Command::Encode {
            path: asm.display().to_string(),
        })
        .unwrap();
        let hex_path = dir.join("k.hex");
        std::fs::write(&hex_path, hex).unwrap();
        let text = execute(Command::Decode {
            path: hex_path.display().to_string(),
        })
        .unwrap();
        assert!(text.contains("mov r0, 7"));
        assert!(text.contains("iadd r1, r0, 1"));
    }

    #[test]
    fn parse_fuzz_flags_and_smoke() {
        let c = parse(&argv("fuzz --cases 10 --seed 42 --jobs 2 --size 8")).unwrap();
        assert_eq!(
            c,
            Command::Fuzz {
                cases: 10,
                seed: 42,
                jobs: 2,
                size: 8,
                out_dir: bow::fuzz::FuzzOptions::default()
                    .out_dir
                    .display()
                    .to_string(),
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
            }
        );
        // --smoke pins cases/seed/size regardless of other flags.
        let smoke = bow::fuzz::FuzzOptions::smoke();
        let c = parse(&argv("fuzz --smoke --cases 9999 --jobs 3")).unwrap();
        assert_eq!(
            c,
            Command::Fuzz {
                cases: smoke.cases,
                seed: smoke.seed,
                jobs: 3,
                size: smoke.size,
                out_dir: smoke.out_dir.display().to_string(),
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
            }
        );
        assert!(parse(&argv("fuzz --cases many")).is_err());
        // Hex seeds round-trip from repro headers and the docs.
        match parse(&argv("fuzz --seed 0x5330c0de")).unwrap() {
            Command::Fuzz { seed, .. } => assert_eq!(seed, 0x5330_c0de),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn fuzz_command_runs_clean() {
        let out = execute(Command::Fuzz {
            cases: 2,
            seed: 7,
            jobs: 2,
            size: 10,
            out_dir: std::env::temp_dir()
                .join("bow_cli_fuzz_test")
                .display()
                .to_string(),
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
        })
        .unwrap();
        assert!(out.starts_with("fuzz: 2 cases x 5 configs, "), "{out}");
    }

    #[test]
    fn parse_lint_flags() {
        let c = parse(&argv(
            "lint --all-workloads --deny-warnings --window 4 --json out.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Lint {
                path: None,
                all_workloads: true,
                deny_warnings: true,
                json: Some("out.json".into()),
                window: 4,
                mutate: false,
                smoke: false,
                jobs: 0,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
                explain: None,
            }
        );
        // A bare `lint` has nothing to lint.
        assert!(parse(&argv("lint")).is_err());
        match parse(&argv("lint --mutate --smoke --jobs 2")).unwrap() {
            Command::Lint {
                mutate,
                smoke,
                jobs,
                ..
            } => {
                assert!(mutate && smoke);
                assert_eq!(jobs, 2);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn lint_all_workloads_is_clean_under_deny_warnings() {
        let dir = std::env::temp_dir().join("bow_cli_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("lint.json");
        let out = execute(Command::Lint {
            path: None,
            all_workloads: true,
            deny_warnings: true,
            json: Some(json.display().to_string()),
            window: 3,
            mutate: false,
            smoke: false,
            jobs: 0,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            explain: None,
        })
        .unwrap();
        assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
        let doc = std::fs::read_to_string(&json).unwrap();
        let parsed = bow::util::json::parse(&doc).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 15);
    }

    #[test]
    fn lint_on_the_modern_core_emits_and_judges_control_bits() {
        // --core-model modern routes every workload kernel through the
        // control-bit emitter before linting, so the sidecar lints
        // (B013/B014) exercise real compiler output — and it is clean.
        let out = execute(Command::Lint {
            path: None,
            all_workloads: true,
            deny_warnings: true,
            json: None,
            window: 3,
            mutate: false,
            smoke: false,
            jobs: 0,
            core_model: CoreModelKind::Modern,
            divergence: DivergenceModel::Stack,
            explain: None,
        })
        .unwrap();
        assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
    }

    #[test]
    fn lint_flags_an_unsound_file_and_maps_source_lines() {
        let dir = std::env::temp_dir().join("bow_cli_lint_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm = dir.join("bad.s");
        // A hand-annotated kernel: the BocOnly value is evicted (window 3
        // runs out) before the distant read, and r9 is read uninitialized.
        std::fs::write(
            &asm,
            ".kernel bad\n\
             \x20   mov r0, 7 .wb.boc\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   iadd r1, r0, 1\n\
             \x20   iadd r2, r9, 1\n\
             \x20   exit\n",
        )
        .unwrap();
        let e = execute(Command::Lint {
            path: Some(asm.display().to_string()),
            all_workloads: false,
            deny_warnings: false,
            json: None,
            window: 3,
            mutate: false,
            smoke: false,
            jobs: 0,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            explain: None,
        })
        .unwrap_err()
        .to_string();
        assert!(e.contains("error[B010]"), "{e}");
        assert!(e.contains("warning[B001]"), "{e}");
        // Source-line spans, not raw pcs: `mov r0` sits on line 2.
        assert!(e.contains("bad:2"), "{e}");
        assert!(e.contains("linted 1 kernel(s) at IW3: 1 failing"), "{e}");
        assert!(e.contains("\nbad under bow-wr iw3: "), "{e}");
    }

    #[test]
    fn lint_annotates_bare_kernels_before_judging_hints() {
        let dir = std::env::temp_dir().join("bow_cli_lint_bare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm = dir.join("ok.s");
        std::fs::write(
            &asm,
            ".kernel ok\n\
             \x20   mov r0, 7\n\
             \x20   iadd r1, r0, 1\n\
             \x20   stg [r1], r0\n\
             \x20   exit\n",
        )
        .unwrap();
        let out = execute(Command::Lint {
            path: Some(asm.display().to_string()),
            all_workloads: false,
            deny_warnings: true,
            json: None,
            window: 3,
            mutate: false,
            smoke: false,
            jobs: 0,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            explain: None,
        })
        .unwrap();
        assert!(out.contains("linted 1 kernel(s) at IW3: clean"), "{out}");
    }

    #[test]
    fn config_for_covers_all_collectors() {
        for c in [
            "baseline",
            "bow",
            "bow-wr",
            "bow-wr-half",
            "bow-flex",
            "rfc",
        ] {
            assert!(
                config_for(c, 3, false, CoreModelKind::Pascal, DivergenceModel::Stack).is_ok(),
                "{c}"
            );
            assert!(
                config_for(c, 3, false, CoreModelKind::Modern, DivergenceModel::Stack).is_ok(),
                "{c}"
            );
        }
        assert!(config_for(
            "warp-drive",
            3,
            false,
            CoreModelKind::Pascal,
            DivergenceModel::Stack
        )
        .is_err());
    }

    #[test]
    fn parse_core_model_flag() {
        match parse(&argv("run vectoradd --core-model modern")).unwrap() {
            Command::Run { core_model, .. } => assert_eq!(core_model, CoreModelKind::Modern),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("fuzz --smoke --core-model modern")).unwrap() {
            Command::Fuzz { core_model, .. } => assert_eq!(core_model, CoreModelKind::Modern),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&argv("run vectoradd --core-model volta")).is_err());
    }

    #[test]
    fn run_on_the_modern_core_reports_verified() {
        let out = execute(Command::Run {
            bench: "vectoradd".into(),
            collector: "bow-wr".into(),
            window: 3,
            scale: Scale::Test,
            reorder: false,
            core_model: CoreModelKind::Modern,
            divergence: DivergenceModel::Stack,
            sanitize: false,
        })
        .unwrap();
        assert!(out.contains("bow-wr iw3+modern"), "{out}");
        assert!(out.contains("OK (results verified)"), "{out}");
    }

    #[test]
    fn compare_on_the_modern_core_labels_every_row() {
        let out = execute(Command::Compare {
            bench: "vectoradd".into(),
            scale: Scale::Test,
            jobs: 2,
            core_model: CoreModelKind::Modern,
            divergence: DivergenceModel::Stack,
        })
        .unwrap();
        for label in ["baseline+modern", "bow iw3+modern", "rfc+modern"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn parse_corpus_verbs() {
        assert_eq!(
            parse(&argv("corpus gen --count 64 --seed 0x2a --dir pop")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Gen {
                    count: 64,
                    seed: 0x2a,
                    dir: "pop".into(),
                }
            }
        );
        assert_eq!(
            parse(&argv("corpus gen")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Gen {
                    count: bow::corpus::DEFAULT_COUNT,
                    seed: bow::corpus::DEFAULT_SEED,
                    dir: "corpus".into(),
                }
            }
        );
        assert_eq!(
            parse(&argv("corpus stats --dir pop")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Stats { dir: "pop".into() }
            }
        );
        assert_eq!(
            parse(&argv(
                "corpus sweep --limit 16 --jobs 2 --core-model modern \
                 --addr 127.0.0.1:9 --out d.json"
            ))
            .unwrap(),
            Command::Corpus {
                action: CorpusAction::Sweep {
                    dir: "corpus".into(),
                    limit: 16,
                    jobs: 2,
                    core_model: CoreModelKind::Modern,
                    divergence: DivergenceModel::Stack,
                    addr: Some("127.0.0.1:9".into()),
                    out: Some("d.json".into()),
                }
            }
        );
        assert!(parse(&argv("corpus")).is_err());
        assert!(parse(&argv("corpus prune")).is_err());
        assert!(parse(&argv("corpus gen --seed banana")).is_err());
        assert!(parse(&argv("corpus gen --count some")).is_err());
    }

    #[test]
    fn corpus_gen_then_stats_roundtrip() {
        let dir = std::env::temp_dir().join("bow_cli_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.display().to_string();
        let gen = |_| {
            execute(Command::Corpus {
                action: CorpusAction::Gen {
                    count: 18,
                    seed: 0x5eed,
                    dir: dir.clone(),
                },
            })
            .unwrap();
            std::fs::read_to_string(format!("{dir}/manifest.json")).unwrap()
        };
        let first = gen(0);
        let second = gen(1);
        assert_eq!(first, second, "manifest is byte-identical across runs");
        assert!(first.ends_with('\n'));

        let out = execute(Command::Corpus {
            action: CorpusAction::Stats { dir: dir.clone() },
        })
        .unwrap();
        assert!(out.contains("seed 0x5eed"), "{out}");
        for stratum in ["mixed", "divergent", "mem-heavy", "adversarial"] {
            assert!(out.contains(stratum), "missing {stratum} in:\n{out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(execute(Command::Corpus {
            action: CorpusAction::Stats { dir },
        })
        .is_err());
    }

    #[test]
    fn corpus_sweep_emits_distributions() {
        let dir = std::env::temp_dir()
            .join("bow_cli_corpus_sweep_test")
            .display()
            .to_string();
        execute(Command::Corpus {
            action: CorpusAction::Gen {
                count: 9,
                seed: 0xd157,
                dir: dir.clone(),
            },
        })
        .unwrap();
        let out_file = format!("{dir}/dist.json");
        let out = execute(Command::Corpus {
            action: CorpusAction::Sweep {
                dir: dir.clone(),
                limit: 4,
                jobs: 2,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
                addr: None,
                out: Some(out_file.clone()),
            },
        })
        .unwrap();
        for key in ["ipc_gain", "read_bypass_rate", "\"core_model\": \"pascal\""] {
            assert!(out.contains(key), "missing {key} in:\n{out}");
        }
        assert_eq!(std::fs::read_to_string(&out_file).unwrap(), out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_sanitize_flags() {
        match parse(&argv("run vectoradd --sanitize")).unwrap() {
            Command::Run { sanitize, .. } => assert!(sanitize),
            other => panic!("parsed {other:?}"),
        }
        // The fuzzer always sanitizes (its sanitizer check), so `--sanitize` is
        // not one of its flags, and the error lists the ones that are.
        let e = parse(&argv("fuzz --smoke --sanitize")).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let msg = e.to_string();
        assert!(
            msg.contains("unknown flag `--sanitize`") && msg.contains("--smoke, --core-model"),
            "{msg}"
        );
        match parse(&argv(
            "corpus sanitize --count 32 --seed 0x2a --jobs 2 --out s.json",
        ))
        .unwrap()
        {
            Command::Corpus {
                action:
                    CorpusAction::Sanitize {
                        count,
                        seed,
                        jobs,
                        smoke,
                        out,
                    },
            } => {
                assert_eq!((count, seed, jobs, smoke), (32, 0x2a, 2, false));
                assert_eq!(out.as_deref(), Some("s.json"));
            }
            other => panic!("parsed {other:?}"),
        }
        // --smoke pins the fixed CI campaign regardless of other knobs.
        match parse(&argv("corpus sanitize --smoke --count 9999")).unwrap() {
            Command::Corpus {
                action: CorpusAction::Sanitize { count, smoke, .. },
            } => {
                assert_eq!(
                    count,
                    bow::sanitize_campaign::CampaignOptions::smoke().count
                );
                assert!(smoke);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn run_with_sanitizer_reports_clean() {
        let out = execute(Command::Run {
            bench: "vectoradd".into(),
            collector: "bow-wr".into(),
            window: 3,
            scale: Scale::Test,
            reorder: false,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
            sanitize: true,
        })
        .unwrap();
        assert!(out.contains("sanitizer          clean"), "{out}");
    }

    #[test]
    fn lint_explain_prints_docs_and_rejects_unknown_codes() {
        match parse(&argv("lint --explain B015")).unwrap() {
            Command::Lint { explain, .. } => assert_eq!(explain.as_deref(), Some("B015")),
            other => panic!("parsed {other:?}"),
        }
        let out = execute(parse(&argv("lint --explain B015")).unwrap()).unwrap();
        assert!(out.starts_with("B015:"), "{out}");
        assert!(out.contains("error"), "{out}");
        // Unknown codes are a usage error: exit code 2 for scripts.
        let e = execute(parse(&argv("lint --explain B999")).unwrap()).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("B999"), "{e}");
    }

    #[test]
    fn lint_explain_with_no_code_lists_every_code() {
        // A bare `--explain` (or one directly followed by another flag)
        // lists the whole catalog instead of erroring.
        for cmdline in ["lint --explain", "lint --explain --window 3"] {
            let out = execute(parse(&argv(cmdline)).unwrap()).unwrap();
            for code in ["B001", "B010", "B017", "B018"] {
                assert!(out.contains(code), "missing {code} in:\n{out}");
            }
            assert!(out.contains("severity"), "{out}");
        }
    }

    #[test]
    fn parse_divergence_flag() {
        match parse(&argv("run vectoradd --divergence barrier")).unwrap() {
            Command::Run { divergence, .. } => assert_eq!(divergence, DivergenceModel::Barrier),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv(
            "fuzz --smoke --divergence barrier --core-model modern",
        ))
        .unwrap()
        {
            Command::Fuzz {
                divergence,
                core_model,
                ..
            } => {
                assert_eq!(divergence, DivergenceModel::Barrier);
                assert_eq!(core_model, CoreModelKind::Modern);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("corpus sweep --divergence barrier")).unwrap() {
            Command::Corpus {
                action: CorpusAction::Sweep { divergence, .. },
            } => assert_eq!(divergence, DivergenceModel::Barrier),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&argv("run vectoradd --divergence ipdom")).is_err());
    }

    #[test]
    fn run_under_barrier_divergence_reports_verified() {
        // bfs is divergent at test scale, so this exercises real
        // split/join traffic end to end through the CLI path.
        let run = |sanitize: bool| {
            execute(Command::Run {
                bench: "bfs".into(),
                collector: "bow-wr".into(),
                window: 3,
                scale: Scale::Test,
                reorder: false,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Barrier,
                sanitize,
            })
        };
        let out = run(false).unwrap();
        assert!(out.contains("bow-wr iw3+barrier"), "{out}");
        assert!(out.contains("OK (results verified)"), "{out}");
        // With the sanitizer attached, bfs's known benign cross-warp
        // race is still found under barrier divergence: the probe rides
        // the same event stream whatever the reconvergence bookkeeping,
        // and findings surface as the usual exit-code-5 Verify error.
        let err = match run(true) {
            Err(BowError::Verify(msg)) => msg,
            other => panic!("expected sanitizer findings, got {other:?}"),
        };
        assert!(err.contains("race: global word"), "{err}");
    }

    #[test]
    fn lint_all_workloads_under_barriers_is_clean() {
        // --divergence barrier lowers every workload kernel to
        // convergence-barrier form before linting; the barrier-form
        // structure checks and B017/B018 must all come back clean.
        let out = execute(Command::Lint {
            path: None,
            all_workloads: true,
            deny_warnings: true,
            json: None,
            window: 3,
            mutate: false,
            smoke: false,
            jobs: 0,
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Barrier,
            explain: None,
        })
        .unwrap();
        assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
    }

    #[test]
    fn corpus_sanitize_writes_the_campaign_artifact() {
        let dir = std::env::temp_dir().join("bow_cli_corpus_sanitize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_file = dir.join("campaign.json").display().to_string();
        let out = execute(Command::Corpus {
            action: CorpusAction::Sanitize {
                count: 6,
                seed: 0xdeca,
                jobs: 2,
                smoke: false,
                out: Some(out_file.clone()),
            },
        })
        .unwrap();
        assert!(out.starts_with("sanitizer campaign: "), "{out}");
        assert!(out.contains(&out_file), "{out}");
        let doc = bow::util::json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("findings").and_then(Json::as_arr).map(|a| a.len()),
            Some(0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_sweep_through_a_live_server() {
        let root =
            std::env::temp_dir().join(format!("bow_cli_corpus_server_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("pop").display().to_string();
        execute(Command::Corpus {
            action: CorpusAction::Gen {
                count: 9,
                seed: 0xcafe,
                dir: dir.clone(),
            },
        })
        .unwrap();

        let server = bow_server::Server::bind(&bow_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            store_dir: root.join("store"),
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let out = execute(Command::Corpus {
            action: CorpusAction::Sweep {
                dir,
                limit: 2,
                jobs: 0,
                core_model: CoreModelKind::Pascal,
                divergence: DivergenceModel::Stack,
                addr: Some(addr.clone()),
                out: None,
            },
        })
        .unwrap();
        assert!(out.contains("ipc_gain"), "{out}");
        assert!(out.contains("\"kernels\": 2"), "{out}");
        // The server path measures IPC only (memory-oracle runs with
        // synthetic parameters); it must not fabricate bypass numbers.
        assert!(!out.contains("read_bypass_rate"), "{out}");

        let resp = bow_server::client::post(&addr, "/v1/shutdown", "{}").expect("shutdown");
        assert_eq!(resp.status, 200);
        handle.join().expect("join");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `results/`, from the crate directory tests run in.
    const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

    #[test]
    fn figures_index_is_exactly_the_committed_results() {
        // A figure cannot be added without a committed table, nor a table
        // orphaned: `results/*.txt` and `results/corpus_*.json` are what
        // `figure all` regenerates and CI compares.
        let mut committed: Vec<String> = std::fs::read_dir(RESULTS)
            .expect("results/")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .filter(|f| f.ends_with(".txt") || (f.starts_with("corpus_") && f.ends_with(".json")))
            // A `--model titan-x --out results` run leaves git-ignored files.
            .filter(|f| !f.contains("_chip."))
            .collect();
        let mut declared: Vec<&str> = figures::FIGURES
            .iter()
            .flat_map(|f| f.files)
            .copied()
            .collect();
        committed.sort();
        declared.sort();
        assert_eq!(declared, committed);
        assert_eq!(declared.len(), 24);
        let list = figures::list();
        for f in figures::FIGURES {
            assert_eq!(figures::find(f.name).unwrap().name, f.name);
            assert!(list.contains(f.about), "{}", f.name);
        }
    }

    fn figure(args: &str) -> Result<String, BowError> {
        parse(&argv(&format!("figure {args}"))).and_then(execute)
    }

    #[test]
    fn sweep_free_figures_match_their_committed_tables() {
        for name in [
            "fig01_memsizes",
            "table1_snippet_writes",
            "table2_config",
            "table3_benchmarks",
            "table4_overheads",
        ] {
            let committed = std::fs::read_to_string(format!("{RESULTS}/{name}.txt")).unwrap();
            assert_eq!(figure(name).unwrap(), committed, "{name}");
        }
        // Nothing was written: no `--out`, no file anywhere.
        assert!(!std::path::Path::new("results").exists());
    }

    #[test]
    fn a_sweeping_figure_renders_at_test_scale() {
        let text = figure("fig04_oc_latency --scale test --jobs 2").unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "Fig. 4 — share of instruction execution time spent in the OC stage"
        );
        assert_eq!(lines[2], " benchmark  non-memory  memory  overall");
        // Title, blank, header, rule, 15 benchmarks, the average, blank,
        // three lines of prose.
        assert_eq!(lines.len(), 4 + 15 + 1 + 1 + 3, "{text}");
        assert!(lines[19].trim_start().starts_with("average"), "{text}");
    }

    #[test]
    fn figure_typos_are_typed_errors_naming_the_valid_choices() {
        // Each of these used to run silently with a default.
        for (args, code, valid) in [
            ("fig10_ipc --jbos 2", 2, "--scale, --model, --jobs, --out"),
            ("fig10_ipc --scale papr", 2, "(valid: test, paper)"),
            ("fig10_ipc --model volta", 2, "(valid: scaled, titan-x)"),
            ("fig10_ipc --jobs two", 2, "bad jobs `two`"),
            ("fig99", 3, "fig10_ipc, fig11_ipc_halfsize"),
            ("", 2, "missing figure name"),
        ] {
            let e = figure(args).unwrap_err();
            assert_eq!(e.exit_code(), code, "{args}: {e}");
            assert!(e.to_string().contains(valid), "{args}: {e}");
        }
        // `all` blesses `results/` unless told otherwise; a name writes
        // only under `--out`; the committed tables are paper scale.
        let out_of = |args: &str| match parse(&argv(args)).unwrap() {
            Command::Figure { out, tier, .. } => (out, tier.scale),
            other => panic!("parsed {other:?}"),
        };
        assert_eq!(out_of("figure all"), (Some("results".into()), Scale::Paper));
        assert_eq!(
            out_of("figure all --out x"),
            (Some("x".into()), Scale::Paper)
        );
        assert_eq!(out_of("figure fig10_ipc --scale test"), (None, Scale::Test));
    }

    #[test]
    fn figure_model_reaches_every_sweep_and_suffixes_its_files() {
        // The full-chip tier used to reach three figures only; fig11 was
        // one of those that silently ran 2 SMs and overwrote the
        // un-suffixed export. (At test scale the 56-SM numbers equal the
        // 2-SM ones; `chip_tier_selects_the_full_titan_x` pins the config.)
        let dir = std::env::temp_dir().join(format!("bow_cli_figure_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = "fig11_ipc_halfsize --scale test --model titan-x --out";
        let printed = figure(&format!("{args} {}", dir.display())).unwrap();
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(
            written,
            [
                "fig11_ipc_halfsize_chip.json",
                "fig11_ipc_halfsize_chip.txt"
            ]
        );
        let table = std::fs::read_to_string(dir.join("fig11_ipc_halfsize_chip.txt")).unwrap();
        assert_eq!(table, printed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chip_tier_selects_the_full_titan_x() {
        let tier = |scale, model| figures::Tier {
            scale,
            model,
            jobs: 1,
        };
        let chip = tier(Scale::Paper, GpuModel::TitanX);
        assert_eq!(chip.suffix(), "_chip");
        let cfg = chip.config(ConfigBuilder::bow_wr(3));
        assert_eq!(cfg.gpu.num_sms, 56);
        assert_eq!(cfg.label, "bow-wr iw3");

        let scaled = tier(Scale::Test, GpuModel::Scaled);
        assert_eq!(scaled.suffix(), "");
        assert_eq!(scaled.config(ConfigBuilder::baseline()).gpu.num_sms, 2);
    }

    #[test]
    fn table1_reproduces_the_papers_pattern() {
        use bow_workloads::snippet::{fig6_kernel, fragment_range};
        let counts = figures::table1_counts(&fig6_kernel(), fragment_range(), 3);
        // Write-through: counted straight off the listing.
        assert_eq!(counts[0], [3, 4, 3, 1]);
        // Write-back: the window consolidates r1's double update, r0's
        // double update and r2's load+shift pair.
        assert_eq!(counts[1], [1, 2, 2, 1]);
        // Compiler hints: only the two truly persistent values remain —
        // identical to the paper's column (r1 = 1, r3 = 1).
        assert_eq!(counts[2], [0, 1, 0, 1]);
        let totals: Vec<u32> = counts.iter().map(|c| c.iter().sum()).collect();
        assert_eq!(totals, vec![11, 6, 2]);
    }

    #[test]
    fn geomean_of_identical_runs_is_one() {
        let b = bow::workloads::by_name("vectoradd", Scale::Test).unwrap();
        let run = || {
            vec![bow::experiment::run(
                b.as_ref(),
                ConfigBuilder::baseline().build(),
            )]
        };
        let g = figures::geomean_speedup(&run(), &run());
        assert!((g - 1.0).abs() < 1e-9);
    }
}
