//! # bow-cli — command-line front end for the BOW GPU model
//!
//! [`COMMANDS`] is the whole command line: one [`Subcommand`] row per
//! subcommand and per `corpus` verb, in `help` order. A row holds the
//! command's synopsis lines, exactly as `help` prints them, and its
//! handler, a `fn(&Args) -> Result<String, BowError>`.
//!
//! The synopsis is the grammar. [`Args`] splits a command line by the
//! flags its synopsis lists: a flag it does not list, a value flag with no
//! value or a surplus argument is a parse error, so an undocumented flag
//! cannot parse and a documented one cannot fail to. The handler then
//! reads its flags through [`Args`]; in debug builds, reading a flag the
//! synopsis does not list panics, so the grammar and the handler cannot
//! drift apart. Axis values (`--core-model`, `--divergence`, `--scale`,
//! collector specs) resolve through the name tables declared next to
//! their enums. Kernels are compiled for launch or lint by
//! `bow::experiment::CompilePlan` only.
//!
//! The rows live with their family, each module holding its rows,
//! handlers and helpers:
//!
//! * [`bench`](mod@bench) — `suite`, `run`, `compare` and `sweep`;
//! * [`kernel`] — `asm`, `compile`, `encode`, `decode` and `trace` on a
//!   kernel file;
//! * [`check`] — `fuzz` and `lint` (with `--mutate` and `--explain`);
//! * [`service`] — `serve` and its client, `submit`;
//! * [`corpus`] — `corpus gen`, `stats`, `sweep` and `sanitize`;
//! * [`figures`] — `figure`, over its own index of every table under
//!   `results/` ([`figures::FIGURES`]).
//!
//! A new subcommand is a row in its family's module, with its synopsis and
//! handler, and an entry in [`COMMANDS`] where `help` should list it.
//!
//! Handlers return strings, so everything is unit-testable; `main.rs` only
//! does process I/O. Failures are typed [`BowError`]s; `main.rs` exits
//! with [`BowError::exit_code`] so scripts can tell parse (2) / config (3)
//! / io (4) / verify (5) failures apart.

pub mod bench;
pub mod check;
pub mod corpus;
pub mod figures;
pub mod kernel;
pub mod service;

use bow::error::BowError;
use bow::prelude::*;
use bow_util::UnknownName;

fn err(msg: impl Into<String>) -> BowError {
    BowError::parse(msg)
}

/// One row of the command index.
pub struct Subcommand {
    /// What `bow-cli` takes first; a `corpus` verb is `"corpus <verb>"`.
    pub name: &'static str,
    /// Its synopsis lines, exactly as `help` prints them: the grammar
    /// [`Args`] splits its command line by.
    pub synopsis: &'static str,
    /// Runs it.
    pub(crate) run: fn(&Args) -> Result<String, BowError>,
}

/// Every subcommand, in `help` order.
pub const COMMANDS: [Subcommand; 18] = [
    bench::SUITE,
    bench::RUN,
    bench::COMPARE,
    kernel::ASM,
    kernel::COMPILE,
    bench::SWEEP,
    figures::FIGURE,
    check::FUZZ,
    check::LINT,
    kernel::TRACE,
    kernel::ENCODE,
    kernel::DECODE,
    service::SERVE,
    service::SUBMIT,
    corpus::GEN,
    corpus::STATS,
    corpus::SWEEP,
    corpus::SANITIZE,
];

/// What `help` prints after the synopses: the text shared by several
/// commands.
const PROSE: &str = "\
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
runnable .asm repro. `--smoke` is the fixed 64-case CI configuration:
it fixes --cases, --seed and --size (giving one beside it is a parse
error), while --jobs, --out, --core-model and --divergence still apply.

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

/// The `help` text: the synopsis of every row of [`COMMANDS`], then the
/// shared prose.
pub fn usage() -> String {
    let synopses: String = COMMANDS.iter().map(|c| c.synopsis).collect();
    format!("bow-cli — the BOW GPU model\n\nUSAGE:\n{synopses}\n{PROSE}")
}

/// Runs a command line (without the program name), returning the text to
/// print.
///
/// # Errors
///
/// Returns [`BowError::Parse`] for the first unrecognized token (an
/// unknown command, verb, flag or flag value, a value flag with no value,
/// a surplus argument), or the handler's error: unknown benchmarks,
/// unreadable files, invalid kernels, findings. `main.rs` exits with its
/// [`exit_code`](BowError::exit_code).
pub fn run(argv: &[String]) -> Result<String, BowError> {
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((&cmd, rest)) if !matches!(cmd, "help" | "--help" | "-h") => (cmd, rest),
        _ => return Ok(usage()),
    };
    let name = if cmd == "corpus" {
        // The verb picks the flag set, and telling the verb from a flag's
        // value takes the flags' arities: `corpus` alone matches every
        // verb's synopsis, so split once against the union of their flags
        // (a flag has one arity under all of them) to find the verb.
        let verb = Args::new(cmd, rest)?.target;
        let verb =
            verb.ok_or_else(|| err("corpus: pass a verb (gen, stats, sweep or sanitize)"))?;
        format!("corpus {verb}")
    } else {
        cmd.to_string()
    };
    let args = Args::new(&name, rest)?;
    let row = COMMANDS.iter().find(|c| c.name == name);
    (row.expect("Args::new found its synopsis").run)(&args)
}

/// One flag of a subcommand: its name and whether it takes a value.
type Flag = (&'static str, bool);

/// A command's argument grammar, read off the synopsis lines of its rows
/// (docopt-style: the usage text *is* the spec): whether it takes a
/// positional `<argument>`, and every `--flag` with whether a value
/// follows it (`[--window N]`) or not (`[--reorder]`). `corpus` alone is
/// the union of its verbs' synopses. `None` for an unknown command.
fn flag_spec(command: &str) -> Option<(bool, Vec<Flag>)> {
    let mine = |c: &&Subcommand| {
        let after = c.name.strip_prefix(command);
        after.is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    };
    let mut rows = COMMANDS.iter().filter(mine).peekable();
    rows.peek()?;
    let (mut positional, mut flags) = (false, Vec::new());
    for line in rows.flat_map(|c| c.synopsis.lines()) {
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
    Some((positional, flags))
}

/// A subcommand's command line, split by its synopsis. Its handler reads
/// every flag here, so only the flags the synopsis lists.
pub struct Args<'a> {
    /// The command, for messages: `run`, `corpus gen`, ...
    command: &'a str,
    /// The flags its synopsis lists.
    flags: Vec<Flag>,
    /// The positional argument, if one was given (a `corpus` verb is its
    /// command's positional).
    target: Option<&'a str>,
    /// The flags given, each with its value (`""` for a switch).
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `rest`, the arguments after the command, by the synopsis of
    /// `command`. Flags and the positional may come in any order; a token
    /// is positional exactly when no value flag precedes it.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] for an unknown command, a flag the synopsis
    /// does not list, a value flag with no value and a surplus positional.
    pub fn new(command: &'a str, rest: &[&'a str]) -> Result<Args<'a>, BowError> {
        let (takes_positional, flags) = flag_spec(command)
            .ok_or_else(|| err(format!("unknown command `{command}` (try `bow-cli help`)")))?;
        let takes_positional = takes_positional || command.starts_with("corpus");
        let (mut target, mut given) = (None, Vec::new());
        let mut it = rest.iter().copied();
        while let Some(token) = it.next() {
            if !token.starts_with("--") {
                if !takes_positional || target.replace(token).is_some() {
                    return Err(err(format!("{command}: unexpected argument `{token}`")));
                }
                continue;
            }
            let &(name, takes_value) =
                flags.iter().find(|(n, _)| *n == token).ok_or_else(|| {
                    let valid: Vec<&str> = flags.iter().map(|(n, _)| *n).collect();
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
        Ok(Args {
            command,
            flags,
            target,
            given,
        })
    }

    /// The value of flag `name` (`""` for a switch), if it was given.
    ///
    /// # Panics
    ///
    /// In debug builds, when the synopsis does not list `name`.
    pub fn opt(&self, name: &str) -> Option<&'a str> {
        debug_assert!(
            self.flags.iter().any(|(n, _)| *n == name),
            "`{}` reads `{name}`, which its synopsis does not list",
            self.command
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.opt(name).is_some()
    }

    /// The value of flag `name`, or `default`.
    pub fn text(&self, name: &str, default: &'a str) -> &'a str {
        self.opt(name).unwrap_or(default)
    }

    /// The positional argument, `what` naming it when it is missing.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] when none was given.
    pub fn positional(&self, what: &str) -> Result<&'a str, BowError> {
        self.target
            .ok_or_else(|| err(format!("{}: missing {what}", self.command)))
    }

    /// A numeric flag's value, decimal or `0x…` hex (seeds round-trip
    /// through repro headers and docs in hex); `None` when it was not
    /// given.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] when the value is not a number of type `T`.
    pub fn number<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, BowError> {
        let Some(v) = self.opt(name) else {
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

    /// An axis flag's value, resolved through the axis's own name table,
    /// or `default`.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] listing the valid names for an unknown one.
    pub fn axis<T>(
        &self,
        name: &str,
        default: T,
        parse: fn(&str) -> Result<T, UnknownName>,
    ) -> Result<T, BowError> {
        self.opt(name)
            .map_or(Ok(default), |v| parse(v).map_err(|e| err(e.to_string())))
    }

    /// Whether switch `name` was given. The switch fixes the flags in
    /// `pinned`, so one of them beside it is an error, never a flag
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] naming the first pinned flag given beside it.
    pub fn pins(&self, name: &str, pinned: &[&str]) -> Result<bool, BowError> {
        if !self.flag(name) {
            return Ok(false);
        }
        match pinned.iter().find(|p| self.flag(p)) {
            Some(p) => Err(err(format!(
                "{}: `{p}` cannot be combined with `{name}`, which fixes it",
                self.command
            ))),
            None => Ok(true),
        }
    }

    /// `--core-model` and `--divergence`, each defaulting to its axis's
    /// default.
    ///
    /// # Errors
    ///
    /// As [`Args::axis`].
    pub fn models(&self) -> Result<(CoreModelKind, DivergenceModel), BowError> {
        let (core, divergence) = Default::default();
        Ok((
            self.axis("--core-model", core, CoreModelKind::parse)?,
            self.axis("--divergence", divergence, DivergenceModel::parse)?,
        ))
    }

    /// `--window`, the instruction-window size; 3 by default.
    ///
    /// # Errors
    ///
    /// As [`Args::number`].
    pub fn window(&self) -> Result<u32, BowError> {
        Ok(self.number("--window")?.unwrap_or(3))
    }

    /// `--jobs`, the worker count; 0 (all cores) by default.
    ///
    /// # Errors
    ///
    /// As [`Args::number`].
    pub fn jobs(&self) -> Result<usize, BowError> {
        Ok(self.number("--jobs")?.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests;
