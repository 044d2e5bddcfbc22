//! # bow-cli — command-line front end for the BOW GPU model
//!
//! [`COMMANDS`] is the whole command line: one [`Subcommand`] row per
//! subcommand and per `corpus` verb, in `help` order. A row holds the
//! command's synopsis lines and its handler, a
//! `fn(&Args) -> Result<String, BowError>`.
//!
//! Each synopsis line is a grammar: [`Args`] holds a command line to the
//! line its bare flag (`--mutate`, `--job`, ...) selects, else to the
//! positional line, so a mode never silently ignores another mode's
//! arguments. An axis flag's values come from its enum's name table
//! ([`Axis`]); the design flags make one wire `config` document
//! ([`Args::design`]), posted by `submit` and resolved locally by the
//! server's parser. Kernels compile through `CompilePlan` only.
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

use bow::api::config_from_json;
use bow::error::BowError;
use bow::experiment::Collector;
use bow::prelude::*;
use bow_util::json::Json;
use bow_util::UnknownName;

fn err(msg: impl Into<String>) -> BowError {
    BowError::parse(msg)
}

/// One row of the command index.
pub struct Subcommand {
    /// What `bow-cli` takes first; a `corpus` verb is `"corpus <verb>"`.
    pub name: &'static str,
    /// Its synopsis lines, each the grammar of one form of the command,
    /// with axis flags written bare (`[--scale]`).
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

impl Subcommand {
    /// Its synopsis lines as `help` prints them: each bare axis flag
    /// followed by its axis's values, `|`-separated.
    pub fn usage(&self) -> String {
        AXES.iter()
            .fold(self.synopsis.to_string(), |text, (flag, values)| {
                text.replace(&format!("[{flag}]"), &format!("[{flag} {}]", values()))
            })
    }
}

/// The `help` text: the synopsis of every row of [`COMMANDS`], then the
/// shared prose.
pub fn usage() -> String {
    let synopses: String = COMMANDS.iter().map(Subcommand::usage).collect();
    let collectors = Collector::SPECS.map(|spec| spec.0).join(" | ");
    let [core, divergence, scale, model] = AXES.map(|(_, values)| values());
    format!(
        "bow-cli — the BOW GPU model\n\nUSAGE:\n{synopses}\n\
COLLECTORS:
  {collectors}

The synopses above are the parser's grammar: a flag a command does not
list, a value flag without its value, a stray argument or a value that
is not in its axis's table ({core}, {divergence}, {scale},
{model}) is a parse error (exit 2) that names the valid choices.
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
"
    )
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
        // Telling the verb from a flag's value takes the flags' arities:
        // split once by every verb's flags to find it.
        let verb = Args::split(cmd, rest)?.0.target;
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

/// A design axis a flag picks a value of, through the name table declared
/// next to the axis's enum.
pub trait Axis: Sized {
    /// The flag that picks it.
    const FLAG: &'static str;
    /// The value named `s`, or an [`UnknownName`] listing the table.
    const PARSE: fn(&str) -> Result<Self, UnknownName>;
}

/// Declares each axis flag once: its [`Axis`] impl, and its row of
/// [`AXES`] with the values a synopsis prints, `|`-separated.
macro_rules! axes {
    ($($flag:literal => $axis:ty),* $(,)?) => {
        $(impl Axis for $axis {
            const FLAG: &'static str = $flag;
            const PARSE: fn(&str) -> Result<$axis, UnknownName> = <$axis>::parse;
        })*
        const AXES: [(&str, fn() -> String); [$($flag),*].len()] =
            [$(($flag, || <$axis>::ALL.map(|v| v.name()).join("|"))),*];
    };
}

axes! {
    "--core-model" => CoreModelKind,
    "--divergence" => DivergenceModel,
    "--scale" => Scale,
    "--model" => GpuModel,
}

/// One flag of a synopsis line: its name and whether it takes a value.
type Flag = (&'static str, bool);

/// One synopsis line — a `bow-cli …` line and its continuation lines —
/// read as a grammar (docopt-style: the usage text *is* the spec).
#[derive(Debug, PartialEq)]
struct Line {
    /// The positional it takes as written (`<bench>`, `[B0xx]`, a verb).
    positional: Option<&'static str>,
    /// Every flag it lists, with whether a value follows it.
    flags: Vec<Flag>,
    /// Its bare flags, which select it; none on the positional line.
    modes: Vec<&'static str>,
}

impl Line {
    /// Reads the line `text` of row `name`; `text` starts at the name.
    fn read(name: &'static str, text: &'static str) -> Line {
        let mut line = Line {
            positional: name.split_once(' ').map(|(_, verb)| verb),
            flags: Vec::new(),
            modes: Vec::new(),
        };
        let skip = name.split(' ').count();
        let mut words = text.split_whitespace().skip(skip).peekable();
        while let Some(word) = words.next() {
            let group = word.trim_start_matches('[');
            let flag = group.trim_end_matches(']');
            if flag.starts_with("--") {
                // `[--flag]` closes at once; `--flag VALUE` has a next word
                // that is neither another group nor an alternative bar. An
                // axis flag is written bare and takes its axis's value.
                let next = words.peek().filter(|_| flag.len() == group.len());
                let takes_value = AXES.iter().any(|(axis, _)| *axis == flag)
                    || next.is_some_and(|v| !v.starts_with(['[', '|']));
                line.flags.push((flag, takes_value));
                if group.len() == word.len() {
                    line.modes.push(flag);
                }
            } else if word.starts_with(['<', '[']) {
                line.positional = Some(word);
            }
        }
        line
    }

    fn lists(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }
}

/// The grammar of every synopsis line of `command`'s rows, in `help`
/// order; `corpus` alone has every verb's lines. `None` for an unknown
/// command.
fn flag_spec(command: &str) -> Option<Vec<Line>> {
    let mine = |c: &&Subcommand| {
        let after = c.name.strip_prefix(command);
        after.is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    };
    let lines: Vec<Line> = COMMANDS
        .iter()
        .filter(mine)
        .flat_map(|c| c.synopsis.split("bow-cli ").skip(1).map(|t| (c.name, t)))
        .map(|(name, text)| Line::read(name, text))
        .collect();
    (!lines.is_empty()).then_some(lines)
}

/// A subcommand's command line, split by its synopsis and held to the one
/// line it selects. Its handler reads every flag here, so only the flags
/// the synopsis lists.
pub struct Args<'a> {
    /// The command, for messages: `run`, `corpus gen`, ...
    command: &'a str,
    /// Every flag its synopsis lists, on any line.
    flags: Vec<Flag>,
    /// The positional argument, if one was given (a `corpus` verb is its
    /// command's positional).
    target: Option<&'a str>,
    /// The flags given, each with its value (`""` for a switch).
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `rest`, the arguments after the command, by the synopsis of
    /// `command` and holds it to the line it selects: the last line one of
    /// whose bare flags is given (of alternatives, the first one listed),
    /// else the positional line. Flags and the positional may come in any
    /// order; a token is positional exactly when no value flag precedes it.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] for an unknown command, a flag no line lists, a
    /// value flag with no value, a surplus positional, and a flag or a
    /// positional the selected line does not take.
    pub fn new(command: &'a str, rest: &[&'a str]) -> Result<Args<'a>, BowError> {
        let (args, lines) = Args::split(command, rest)?;
        let moded = lines.iter().rev().find_map(|line| {
            let mode = line.modes.iter().find(|m| args.value_of(m).is_some())?;
            Some((line, *mode))
        });
        let (line, mode) = moded.unwrap_or_else(|| {
            let line = lines.iter().find(|l| l.modes.is_empty());
            let line = line.expect("every command has a positional line");
            (line, line.positional.unwrap_or(command))
        });
        let outside =
            |flag: &&str| *flag != mode && (!line.lists(flag) || line.modes.contains(flag));
        if let Some(flag) = args.given.iter().map(|(n, _)| *n).find(outside) {
            return Err(err(format!(
                "{command}: `{flag}` cannot be combined with `{mode}`"
            )));
        }
        match (args.target, line.positional) {
            (Some(arg), None) => Err(err(format!(
                "{command}: `{mode}` takes no argument, got `{arg}`"
            ))),
            _ => Ok(args),
        }
    }

    /// Splits `rest` by every flag of `command`'s lines (a flag has one
    /// arity on all of them) without selecting a line.
    fn split(command: &'a str, rest: &[&'a str]) -> Result<(Args<'a>, Vec<Line>), BowError> {
        let lines = flag_spec(command)
            .ok_or_else(|| err(format!("unknown command `{command}` (try `bow-cli help`)")))?;
        let mut flags: Vec<Flag> = Vec::new();
        for flag in lines.iter().flat_map(|l| &l.flags) {
            if !flags.contains(flag) {
                flags.push(*flag);
            }
        }
        let takes_positional = lines.iter().any(|l| l.positional.is_some());
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
        let args = Args {
            command,
            flags,
            target,
            given,
        };
        Ok((args, lines))
    }

    /// The value of flag `name` (`""` for a switch), if it was given.
    fn value_of(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
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
        self.value_of(name)
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
        self.opt(name).map(|v| number(name, v)).transpose()
    }

    /// Axis flag [`T::FLAG`](Axis::FLAG)'s value, resolved through the
    /// axis's name table; `None` when it was not given.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] listing the valid names for an unknown one.
    pub fn axis<T: Axis>(&self) -> Result<Option<T>, BowError> {
        let parse = |v| T::PARSE(v).map_err(|e| err(e.to_string()));
        self.value_of(T::FLAG).map(parse).transpose()
    }

    /// The wire `config` document of the design flags given, their one
    /// meaning on every line: `--collector` defaults to `bow-wr`, a flag
    /// not given leaves the wire's default, and a `bow-flex` buffer holds
    /// `4 × --window` values.
    ///
    /// # Errors
    ///
    /// [`BowError::Parse`] for an unknown model or a non-numeric window.
    pub fn design(&self) -> Result<Json, BowError> {
        let core: Option<CoreModelKind> = self.axis()?;
        let divergence: Option<DivergenceModel> = self.axis()?;
        let window = self.value_of("--window");
        let window: Option<u32> = window.map(|v| number("--window", v)).transpose()?;
        let collector = self.value_of("--collector").unwrap_or("bow-wr");
        let mut doc = vec![("collector", Json::from(collector))];
        if let Some(window) = window {
            doc.push(("window", Json::from(window)));
            if Collector::parse_spec(collector).is_ok_and(|(c, _)| c == Collector::BowFlex) {
                doc.push(("capacity", Json::from(window.saturating_mul(4))));
            }
        }
        if self.value_of("--reorder").is_some() {
            doc.push(("reorder", Json::from(true)));
        }
        doc.extend(core.map(|c| ("core_model", Json::from(c.name()))));
        doc.extend(divergence.map(|d| ("divergence", Json::from(d.name()))));
        Ok(Json::obj(doc))
    }

    /// [`Args::design`], resolved by the wire's parser.
    ///
    /// # Errors
    ///
    /// As [`Args::design`] and [`config_from_json`].
    pub fn config(&self) -> Result<Config, BowError> {
        config_from_json(&self.design()?)
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

    /// `--jobs`, the worker count; 0 (all cores) by default.
    ///
    /// # Errors
    ///
    /// As [`Args::number`].
    pub fn jobs(&self) -> Result<usize, BowError> {
        Ok(self.number("--jobs")?.unwrap_or(0))
    }
}

/// Flag `name`'s value `v` as a number of type `T` (see [`Args::number`]).
fn number<T: TryFrom<u64>>(name: &str, v: &str) -> Result<T, BowError> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    let converted = parsed.ok().and_then(|n| T::try_from(n).ok());
    converted.ok_or_else(|| err(format!("bad {} `{v}`", &name[2..])))
}

#[cfg(test)]
mod tests;
