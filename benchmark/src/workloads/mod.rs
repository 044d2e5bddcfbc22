//! The seven workloads and what one run of any of them returns.
//!
//! A run is: set up `setup_reps` times, then repeat whole passes over the
//! workload's inputs until `--seconds` have gone by. Timing metrics
//! describe one undisturbed pass: each is the fastest of its repetitions
//! (see [`fastest`]). Counts are those of one pass and every pass must
//! reproduce them.

pub mod corpus_gen;
pub mod matrix;
pub mod server_mix;

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use bow::workloads::Scale;
use bow_util::XorShift;

use crate::metrics::{spec, Values};
use crate::trace::{layer_self_ns, Tracer};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to keep starting passes for.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Test-scale inputs, one pass.
    pub smoke: bool,
    /// Where span files and the server's store directories go.
    pub out_dir: PathBuf,
}

/// Input sizes: the measured ones, or the small ones `--smoke` uses.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Problem scale of the Table III kernels.
    pub scale: Scale,
    /// Times the set-up is run: once before the first pass, then again
    /// after each pass until there are this many samples, so that they
    /// are spread over the run like the passes are.
    pub setup_reps: usize,
    /// Corpora `corpus::generate` is asked for per pass, and the kernels
    /// in each.
    pub corpus_gen_corpora: usize,
    /// See `corpus_gen_corpora`.
    pub corpus_gen_count: usize,
    /// Corpus kernels swept per core.
    pub corpus_sweep_kernels: usize,
    /// Distinct configurations per Table III kernel in the server's key
    /// space (cold requests per round = 15 × this).
    pub server_configs_per_kernel: usize,
    /// Cached resubmissions per round.
    pub server_hits: usize,
    /// `GET /v1/results/{fp}` requests per round.
    pub server_gets: usize,
}

impl Sizing {
    /// Sizes for `opts`.
    pub fn of(opts: &RunOpts) -> Sizing {
        if opts.smoke {
            Sizing {
                scale: Scale::Test,
                setup_reps: 1,
                corpus_gen_corpora: 2,
                corpus_gen_count: 100,
                corpus_sweep_kernels: 24,
                server_configs_per_kernel: 2,
                server_hits: 315,
                server_gets: 155,
            }
        } else {
            Sizing {
                scale: Scale::Paper,
                setup_reps: 5,
                corpus_gen_corpora: 10,
                corpus_gen_count: 1000,
                corpus_sweep_kernels: 192,
                server_configs_per_kernel: 7,
                server_hits: 1100,
                server_gets: 545,
            }
        }
    }
}

/// A percentile or median that was reported, with its sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleNote {
    /// The metric (or group of metrics) the samples are behind.
    pub metric: String,
    /// How many samples.
    pub samples: usize,
    /// The percentile really reported where the name says `p99`/`p95`.
    pub percentile: Option<u32>,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Operations attempted in the timed passes.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Timed passes completed.
    pub passes: u64,
    /// Host seconds of each timed pass, in the order they ran.
    pub pass_wall_s: Vec<f64>,
    /// Metric values, by contract name.
    pub values: Values,
    /// Sample counts behind the medians and percentiles.
    pub samples: Vec<SampleNote>,
}

impl RunOutput {
    /// Counts one failed operation and keeps its message if it is among
    /// the first.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Notes the samples behind a metric.
    pub fn note(&mut self, metric: &str, samples: usize, percentile: Option<u32>) {
        self.samples.push(SampleNote {
            metric: metric.to_string(),
            samples,
            percentile,
        });
    }

    /// Fills the end-to-end timing metrics every workload shares, and
    /// returns `wall_s`. `pieces[p][i]` is the host time of piece `i` of
    /// pass `p` (see [`undisturbed_wall_s`]).
    pub fn set_pass_timing(
        &mut self,
        set_ups: &SetUps,
        pieces: &[Vec<f64>],
        ops_per_pass: u64,
    ) -> f64 {
        let setup_s = &set_ups.samples;
        let wall_s = undisturbed_wall_s(pieces);
        self.pass_wall_s = pieces.iter().map(|p| p.iter().sum()).collect();
        self.values.set("setup_s", fastest(setup_s));
        self.values.set("wall_s", wall_s);
        self.values.set("ops_per_s", ops_per_pass as f64 / wall_s);
        self.note("setup_s (fastest of)", setup_s.len(), None);
        self.note(
            &format!(
                "wall_s ops_per_s sim_kwips (passes, of {} pieces each)",
                pieces[0].len()
            ),
            pieces.len(),
            None,
        );
        wall_s
    }
}

/// The host seconds of a workload's set-ups: one before the first pass,
/// then one after each pass until there are `wanted`, so that the
/// samples are spread over the run like the passes are.
#[derive(Clone, Debug)]
pub struct SetUps {
    samples: Vec<f64>,
    wanted: usize,
}

impl SetUps {
    /// Times the first set-up and returns what it built.
    pub fn first<T>(wanted: usize, set_up: impl FnOnce() -> T) -> (SetUps, T) {
        let start = Instant::now();
        let built = set_up();
        let samples = vec![start.elapsed().as_secs_f64()];
        (SetUps { samples, wanted }, built)
    }

    /// Set-ups that were timed elsewhere (the server boots once a round).
    pub fn measured(samples: Vec<f64>) -> SetUps {
        SetUps {
            wanted: samples.len(),
            samples,
        }
    }

    /// Called after a pass: times `set_up` once more if samples are
    /// still wanted.
    pub fn after_pass<T>(&mut self, set_up: impl FnOnce() -> T) {
        if self.samples.len() < self.wanted {
            let start = Instant::now();
            std::hint::black_box(set_up());
            self.samples.push(start.elapsed().as_secs_f64());
        }
    }
}

/// The fastest of repeated timings of the same work.
///
/// The benchmark runs on shared hosts whose speed shifts by tens of
/// percent for seconds at a time (measured here: the same 0.35 s pass
/// took 0.34–0.60 s within two minutes, both cores alike). Such
/// disturbance only ever adds time, so the fastest repetition is the
/// best estimate of the undisturbed time, and it moves far less from run
/// to run than the median does.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("at least one timing")
}

/// The wall of one undisturbed pass, from several disturbed ones. Every
/// pass does the same work in the same pieces (cells, corpora, request
/// chunks, plus whatever is left of the pass's wall), so each piece is
/// taken from the pass where it ran [`fastest`]: a piece that fell into
/// a slow spell of the host in one pass is read from another.
///
/// # Panics
///
/// Panics when there is no pass or the passes differ in piece count.
pub fn undisturbed_wall_s(pieces: &[Vec<f64>]) -> f64 {
    let n = pieces[0].len();
    assert!(
        pieces.iter().all(|p| p.len() == n),
        "passes differ in shape"
    );
    (0..n)
        .map(|i| pieces.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// What a traced run has at its end, for [`finish_trace`].
pub struct TraceEnd<'a> {
    /// The workload, for the span file's name.
    pub workload: &'a str,
    /// The span whose total is the traced wall (`bench.pass`, `bench.round`).
    pub root: &'a str,
    /// Wall of each traced pass.
    pub traced_walls: &'a [f64],
    /// Wall of each untraced pass the traced ones are compared with.
    pub untraced_walls: &'a [f64],
    /// Instructions the `compiler.*` spans were handed.
    pub compiled_insts: u64,
}

/// What every traced run reports from its spans: traced over untraced
/// wall, the share of the traced wall that is not the driver's own self
/// time, the per-pass total of every span the contract has a
/// `<span>_s` metric for, the compile rate, and the span file.
pub fn finish_trace(out: &mut RunOutput, tr: &Tracer, opts: &RunOpts, end: &TraceEnd<'_>) {
    let totals = tr.totals();
    let v = &mut out.values;
    if !end.traced_walls.is_empty() && !end.untraced_walls.is_empty() {
        v.set(
            "trace.overhead_pct",
            100.0 * (fastest(end.traced_walls) / fastest(end.untraced_walls) - 1.0),
        );
    }
    let traced_ns = totals.get(end.root).map_or(0, |t| t.total_ns);
    if traced_ns > 0 {
        let own_ns = layer_self_ns(&totals).get("bench").copied().unwrap_or(0);
        v.set(
            "trace.coverage_pct",
            100.0 * (1.0 - own_ns as f64 / traced_ns as f64),
        );
    }
    let passes = end.traced_walls.len().max(1) as f64;
    for (span, t) in &totals {
        let metric = format!("{span}_s");
        if spec().per_layer.iter().any(|m| m.name == metric) {
            v.set(metric, t.total_ns as f64 / 1e9 / passes);
        }
    }
    let compile_ns: u64 = totals
        .iter()
        .filter(|(span, _)| span.starts_with("compiler."))
        .map(|(_, t)| t.total_ns)
        .sum();
    if compile_ns > 0 {
        v.set(
            "compiler.kinsts_per_s",
            end.compiled_insts as f64 / 1e3 / (compile_ns as f64 / 1e9),
        );
    }
    out.note(
        "trace.overhead_pct (traced passes)",
        end.traced_walls.len(),
        None,
    );
    let path = opts.out_dir.join(format!("trace_{}.json", end.workload));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&opts.out_dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_json(end.workload, &mut file)?;
        std::io::Write::flush(&mut file)
    };
    if let Err(e) = write() {
        out.failures.push(format!("{}: {e}", path.display()));
    }
}

/// Timed passes an untraced run makes whatever `--seconds` says, so that
/// every piece of work has at least three chances of an undisturbed
/// repetition.
const MIN_PASSES: usize = 3;

/// Starts passes until `seconds` have gone by since `start`, and until an
/// untraced run has made [`MIN_PASSES`]; a smoke run makes exactly one.
#[derive(Clone, Copy, Debug)]
pub struct PassClock {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl PassClock {
    /// A clock starting now.
    pub fn start(opts: &RunOpts) -> PassClock {
        PassClock {
            start: Instant::now(),
            seconds: if opts.smoke { 0.0 } else { opts.seconds },
            min_passes: if opts.smoke || opts.trace {
                1
            } else {
                MIN_PASSES
            },
        }
    }

    /// Whether another pass should start after `done` finished ones.
    pub fn another(&self, done: usize) -> bool {
        done < self.min_passes || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// Runs `f`, turning a panic into its message.
pub fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut XorShift, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a set-up that
/// could not be completed (no temp directory, no port).
pub fn run(name: &str, opts: &RunOpts) -> Result<RunOutput, String> {
    match name {
        "fig_pascal" | "fig_modern" | "chip_serial" | "chip_threaded" | "corpus_sweep" => {
            Ok(matrix::run(name, opts))
        }
        "corpus_gen" => Ok(corpus_gen::run(opts)),
        "server_mix" => server_mix::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(&mut XorShift::new(7), 60);
        let b = permutation(&mut XorShift::new(7), 60);
        let c = permutation(&mut XorShift::new(8), 60);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn each_piece_is_read_from_the_pass_where_it_ran_fastest() {
        let passes = [
            vec![1.0, 5.0, 0.3],
            vec![2.0, 4.0, 0.2],
            vec![1.5, 9.0, 0.4],
        ];
        assert_eq!(undisturbed_wall_s(&passes), 1.0 + 4.0 + 0.2);
        assert_eq!(undisturbed_wall_s(&passes[..1]), 6.3);
        assert_eq!(fastest(&[3.0, 2.0, 2.5]), 2.0);
    }

    #[test]
    fn caught_reports_the_panic_message() {
        assert_eq!(caught(|| 3), Ok(3));
        let err = caught(|| -> u32 { panic!("cell {} broke", 7) }).unwrap_err();
        assert_eq!(err, "cell 7 broke");
    }
}
