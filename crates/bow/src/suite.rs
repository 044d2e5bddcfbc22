//! The parallel experiment sweep engine.
//!
//! Every figure and table in the paper is a (benchmark × configuration)
//! matrix: 15 workloads each simulated under a handful of GPU configs.
//! The cells are completely independent timing simulations, so this
//! module runs them concurrently on a std-only thread pool (the calling
//! thread plus scoped helpers, claiming cells from one shared counter)
//! while keeping the *results* in deterministic matrix order — a sweep
//! at `--jobs 8` produces cell-for-cell identical [`RunRecord`]s (and
//! byte-identical rendered tables) to `--jobs 1`.
//!
//! ```no_run
//! use bow::experiment::ConfigBuilder;
//! use bow::suite::Suite;
//! use bow::workloads::Scale;
//!
//! let result = Suite::new(Scale::Test)
//!     .config(ConfigBuilder::baseline().build())
//!     .config(ConfigBuilder::bow_wr(3).build())
//!     .jobs(0) // 0 = all cores
//!     .run();
//! let speedup = bow::suite::SweepResult::geomean_ratio(
//!     result.row(1).records(),
//!     result.row(0).records(),
//! );
//! println!("BOW-WR speedup: {speedup:.3}x in {:.1}s", result.wall.as_secs_f64());
//! ```
//!
//! Compiler-pass output is memoized per (benchmark, [`CompilePlan`]): a
//! BOW-WR window sweep annotates each kernel once per window, and every
//! non-hinted configuration of a benchmark shares one prepared kernel,
//! instead of re-running the passes for every cell.

use std::collections::HashMap;
use std::io::IsTerminal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::experiment::{prepare_kernel, run_prepared, CompilePlan, Config, RunRecord};
use bow_compiler::CompilerReport;
use bow_isa::Kernel;
use bow_sim::oracle::share_runs;
use bow_sim::OracleCheck;
use bow_util::json::{DecodeError, Json};
use bow_workloads::{by_name, suite as paper_suite, Benchmark, Scale};

/// Memoization key for prepared kernels: benchmark index plus the
/// configuration's whole compile plan. The plan is everything
/// `prepare_kernel` reads, so two configs share an entry exactly when
/// they would compile the same kernel the same way.
type PrepKey = (usize, CompilePlan);

type Prepared = Arc<(Kernel, Option<CompilerReport>)>;

/// A (benchmark × configuration) sweep, built up fluently and executed
/// with [`run`](Suite::run).
pub struct Suite {
    benches: Vec<Box<dyn Benchmark>>,
    configs: Vec<Config>,
    jobs: usize,
    progress: Option<bool>,
}

impl Suite {
    /// A sweep over the paper's full Table III suite at `scale`.
    pub fn new(scale: Scale) -> Suite {
        Suite::over(paper_suite(scale))
    }

    /// A sweep over an explicit benchmark list.
    pub fn over(benches: Vec<Box<dyn Benchmark>>) -> Suite {
        Suite {
            benches,
            configs: Vec::new(),
            jobs: 0,
            progress: None,
        }
    }

    /// A sweep over a single named benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the Table III suite.
    pub fn benchmark(name: &str, scale: Scale) -> Suite {
        let b = by_name(name, scale)
            .unwrap_or_else(|| panic!("no benchmark named {name:?} in the suite"));
        Suite::over(vec![b])
    }

    /// Adds one configuration column.
    pub fn config(mut self, config: Config) -> Suite {
        self.configs.push(config);
        self
    }

    /// Adds several configuration columns.
    pub fn configs(mut self, configs: impl IntoIterator<Item = Config>) -> Suite {
        self.configs.extend(configs);
        self
    }

    /// Sets the sweep's worker-thread count (one cell per worker at a
    /// time). `0` (the default) means one thread per available core; `1`
    /// runs the sweep serially on the calling thread.
    pub fn jobs(mut self, jobs: usize) -> Suite {
        self.jobs = jobs;
        self
    }

    /// Inert, returns `self`: the fixed `benchmark/` calls this builder.
    pub fn sim_threads(self, _threads: u32) -> Suite {
        self
    }

    /// Forces per-cell progress lines (written to stderr) on or off. The
    /// default prints them only when stderr is a terminal, so redirected
    /// table output stays byte-identical with or without a TTY.
    pub fn progress(mut self, on: bool) -> Suite {
        self.progress = Some(on);
        self
    }

    /// Executes every cell and returns the results in matrix order —
    /// one [`ConfigRow`] per configuration, records within a row in
    /// benchmark order — regardless of worker count or completion order.
    pub fn run(self) -> SweepResult {
        let start = Instant::now();
        let Suite {
            benches,
            configs,
            jobs,
            progress,
        } = self;
        let progress = progress.unwrap_or_else(|| std::io::stderr().is_terminal());
        let n_benches = benches.len();
        let total = n_benches * configs.len();

        // Cell c = (config index, benchmark index), benchmark-major. When
        // the oracle checks, a benchmark's cells are one pool group: they
        // run back to back on one thread and share one oracle run per
        // program (`bow_sim::oracle::share_runs`). An unchecked sweep
        // hands out single cells, which balances uneven benchmarks better.
        let checked = configs
            .iter()
            .any(|c| c.gpu.oracle_check != OracleCheck::Off);
        let group = if checked { configs.len() } else { 1 };
        let cells: Vec<(usize, usize)> = (0..n_benches)
            .flat_map(|bi| (0..configs.len()).map(move |ci| (ci, bi)))
            .collect();

        // Memoize the compiler passes per distinct (benchmark, plan)
        // before fanning out: the passes are pure and cheap next to a
        // timing simulation, and precomputing keeps every worker's view of
        // the prepared kernels identical.
        let plans: Vec<CompilePlan> = configs.iter().map(CompilePlan::of).collect();
        let mut prepared: HashMap<PrepKey, Prepared> = HashMap::new();
        for &(ci, bi) in &cells {
            prepared
                .entry((bi, plans[ci]))
                .or_insert_with(|| Arc::new(prepare_kernel(benches[bi].as_ref(), &configs[ci])));
        }

        let workers = effective_jobs(jobs).min(total.max(1));

        let run_cell = |cell: usize| -> (RunRecord, Duration) {
            let (ci, bi) = cells[cell];
            let prep = &prepared[&(bi, plans[ci])];
            let t0 = Instant::now();
            let rec = run_prepared(benches[bi].as_ref(), &configs[ci], &prep.0, prep.1.clone());
            (rec, t0.elapsed())
        };
        let report = |done: usize, rec: &RunRecord, wall: Duration| {
            if progress {
                eprintln!(
                    "[{done:>3}/{total}] {:<12} {:<18} ipc {:<6.3} {:>7.2?}",
                    rec.benchmark,
                    rec.label,
                    rec.ipc(),
                    wall
                );
            }
        };

        let results =
            map_parallel_grouped(total, group, workers, &run_cell, |done, (rec, wall)| {
                report(done, rec, *wall);
            });

        let mut rows: Vec<ConfigRow> = configs
            .iter()
            .map(|c| ConfigRow {
                label: c.label.clone(),
                records: Vec::with_capacity(n_benches),
                wall: Vec::with_capacity(n_benches),
            })
            .collect();
        // Cells come back benchmark-major, so each row fills in benchmark
        // order.
        for (cell, (rec, wall)) in results.into_iter().enumerate() {
            let row = &mut rows[cells[cell].0];
            row.records.push(rec);
            row.wall.push(wall);
        }
        SweepResult {
            rows,
            jobs: workers,
            wall: start.elapsed(),
        }
    }
}

/// Runs `run(0..total)` on the calling thread plus up to `workers - 1`
/// scoped helpers and returns the results in index order, regardless of
/// worker count or completion order. `report` fires once per completed
/// task (in completion order, 1-based) — the progress hook.
///
/// Every thread claims the next unclaimed index from one shared counter,
/// so tasks start in index order and a thread that finishes early simply
/// claims more. Each thread keeps its own `(index, result)` list; the
/// lists are merged by index once all threads are done. A panicking task
/// propagates out of this call with its own payload.
pub(crate) fn map_parallel<T, F, R>(total: usize, workers: usize, run: &F, report: R) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: FnMut(usize, &T) + Send,
{
    map_parallel_grouped(total, 1, workers, run, report)
}

/// [`map_parallel`], with a thread claiming `group` consecutive indices
/// at a time and running them back to back inside one
/// [`share_runs`](bow_sim::oracle::share_runs) scope: tasks that launch
/// one program under several designs, grouped, share one oracle run at
/// any worker count, and the run is dropped when its group is done.
pub(crate) fn map_parallel_grouped<T, F, R>(
    total: usize,
    group: usize,
    workers: usize,
    run: &F,
    report: R,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: FnMut(usize, &T) + Send,
{
    assert!(group > 0, "a pool group holds at least one task");
    let next = AtomicUsize::new(0);
    let progress = Mutex::new((0usize, report));
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results travel
            // back through the joins.
            let first = next.fetch_add(group, Ordering::Relaxed);
            if first >= total {
                return done;
            }
            share_runs(|| {
                for i in first..total.min(first + group) {
                    let r = run(i);
                    // The count is bumped before `report` runs, so a
                    // panicking report leaves the pair valid; recovering
                    // the guard lets that panic, not a poison error,
                    // reach the caller.
                    let mut guard = progress.lock().unwrap_or_else(PoisonError::into_inner);
                    let (count, report) = &mut *guard;
                    *count += 1;
                    report(*count, &r);
                    drop(guard);
                    done.push((i, r));
                }
            });
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(total.div_ceil(group)))
            .map(|_| scope.spawn(work))
            .collect();
        let mut results = work();
        for helper in helpers {
            match helper.join() {
                Ok(list) => results.extend(list),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Resolves a jobs request: `0` means all available cores.
pub(crate) fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// One configuration's row of a completed sweep: records (and per-cell
/// wall-clock times) in benchmark order.
#[derive(Clone, Debug)]
pub struct ConfigRow {
    /// The configuration label.
    pub label: String,
    /// One record per benchmark, in suite order.
    pub records: Vec<RunRecord>,
    /// Wall-clock time of each cell's simulation, parallel to `records`.
    pub wall: Vec<Duration>,
}

impl ConfigRow {
    /// The row's records as a slice (for the table/geomean helpers).
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// The row as a schema-v1 JSON object: the config label plus one cell
    /// per benchmark. Each cell is the full [`RunRecord`] document with
    /// its wall time appended (`wall_nanos` is authoritative;
    /// `wall_seconds` is a derived convenience field).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("config", Json::from(self.label.as_str())),
            (
                "cells",
                Json::Arr(
                    self.records
                        .iter()
                        .zip(&self.wall)
                        .map(|(rec, wall)| {
                            let mut cell = rec.to_json();
                            if let Json::Obj(fields) = &mut cell {
                                fields.push((
                                    "wall_nanos".to_string(),
                                    Json::from(wall.as_nanos() as u64),
                                ));
                                fields.push((
                                    "wall_seconds".to_string(),
                                    Json::from(wall.as_secs_f64()),
                                ));
                            }
                            cell
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a row from the object [`ConfigRow::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<ConfigRow, DecodeError> {
        let mut records = Vec::new();
        let mut wall = Vec::new();
        for cell in v.req_arr("cells")? {
            records.push(RunRecord::from_json(cell).map_err(|e| e.context("cells"))?);
            wall.push(Duration::from_nanos(cell.req_u64("wall_nanos")?));
        }
        Ok(ConfigRow {
            label: v.req_str("config")?.to_string(),
            records,
            wall,
        })
    }
}

/// A completed sweep: one [`ConfigRow`] per configuration, in the order
/// the configurations were added.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Rows in configuration order.
    pub rows: Vec<ConfigRow>,
    /// Worker count the sweep actually ran with.
    pub jobs: usize,
    /// Total wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepResult {
    /// The row at `index` (configuration order).
    pub fn row(&self, index: usize) -> &ConfigRow {
        &self.rows[index]
    }

    /// Looks a row up by configuration label.
    pub fn records(&self, label: &str) -> Option<&[RunRecord]> {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.records())
    }

    /// All records in matrix order (row by row).
    pub fn all_records(&self) -> impl Iterator<Item = &RunRecord> {
        self.rows.iter().flat_map(|r| r.records.iter())
    }

    /// Panics if any cell failed its functional reference check.
    pub fn assert_checked(&self) -> &SweepResult {
        for rec in self.all_records() {
            rec.assert_checked();
        }
        self
    }

    /// Sum of per-cell simulation times — the serial-equivalent cost the
    /// pool amortized over its workers.
    pub fn cell_time(&self) -> Duration {
        self.rows.iter().flat_map(|r| r.wall.iter()).sum()
    }

    /// Geometric-mean ratio of per-benchmark IPC between two rows
    /// (e.g. a design row over the baseline row).
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths or are empty.
    pub fn geomean_ratio(num: &[RunRecord], den: &[RunRecord]) -> f64 {
        assert!(!num.is_empty() && num.len() == den.len(), "rows must align");
        let log_sum: f64 = num
            .iter()
            .zip(den)
            .map(|(n, d)| (n.ipc() / d.ipc()).ln())
            .sum();
        (log_sum / num.len() as f64).exp()
    }

    /// The sweep as one schema-v1 JSON document: version tag, sweep-level
    /// metadata and per-row cell records (each with its wall time). Field
    /// names and order are part of the versioned contract (pinned by the
    /// `schema_v1` golden snapshot); any change must bump
    /// [`SCHEMA_VERSION`](crate::experiment::SCHEMA_VERSION).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "schema_version",
                Json::from(crate::experiment::SCHEMA_VERSION),
            ),
            ("jobs", Json::from(self.jobs)),
            ("wall_nanos", Json::from(self.wall.as_nanos() as u64)),
            ("wall_seconds", Json::from(self.wall.as_secs_f64())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ConfigRow::to_json).collect()),
            ),
        ])
    }

    /// Decodes a sweep from the document [`SweepResult::to_json`] writes.
    /// Strict on every stored field (`wall_seconds` is derived from
    /// `wall_nanos`, not read), so a decoded sweep re-serializes
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a missing/mistyped field or an
    /// unsupported `schema_version`.
    pub fn from_json(v: &Json) -> Result<SweepResult, DecodeError> {
        let version = v.req_u64("schema_version")?;
        if version != crate::experiment::SCHEMA_VERSION {
            return Err(DecodeError::new(format!(
                "unsupported schema_version {version} (expected {})",
                crate::experiment::SCHEMA_VERSION
            )));
        }
        Ok(SweepResult {
            rows: v
                .req_arr("rows")?
                .iter()
                .map(|row| ConfigRow::from_json(row).map_err(|e| e.context("rows")))
                .collect::<Result<Vec<_>, _>>()?,
            jobs: v.req_u64("jobs")? as usize,
            wall: Duration::from_nanos(v.req_u64("wall_nanos")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ConfigBuilder;

    fn small() -> Vec<Box<dyn Benchmark>> {
        ["vectoradd", "lps", "sto"]
            .iter()
            .map(|n| by_name(n, Scale::Test).expect("suite benchmark"))
            .collect()
    }

    fn three_configs() -> Vec<Config> {
        vec![
            ConfigBuilder::baseline().build(),
            ConfigBuilder::bow(3).build(),
            ConfigBuilder::bow_wr(3).build(),
        ]
    }

    /// Serial, two workers, an odd count, and more workers than tasks.
    const POOL_WORKERS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn pool_returns_results_in_index_order() {
        for workers in POOL_WORKERS {
            for total in [0, 5] {
                let out = map_parallel(total, workers, &|i| i * 10, |_, _: &usize| {});
                let want: Vec<usize> = (0..total).map(|i| i * 10).collect();
                assert_eq!(out, want, "{workers} workers, {total} tasks");
            }
        }
    }

    #[test]
    fn pool_reports_every_task_once_counting_up() {
        for workers in POOL_WORKERS {
            for total in [0, 5] {
                let mut seen = Vec::new();
                let _ = map_parallel(total, workers, &|i| i, |done, _: &usize| seen.push(done));
                let want: Vec<usize> = (1..=total).collect();
                assert_eq!(seen, want, "{workers} workers, {total} tasks");
            }
        }
    }

    #[test]
    fn pool_results_do_not_depend_on_completion_order() {
        // Seeded, uneven amounts of work per task.
        let mut rng = bow_util::XorShift::new(0x5eed);
        let cost: Vec<u64> = (0..5).map(|_| rng.below(20_000)).collect();
        let work = |i: usize| (i, (0..cost[i]).fold(i as u64, |h, k| h.rotate_left(5) ^ k));
        let serial = map_parallel(cost.len(), 1, &work, |_, _: &(usize, u64)| {});
        for workers in [2, 3, 8] {
            // Task 0 waits until every other task has been reported, so it
            // is forced to complete last.
            let others_done = (Mutex::new(false), std::sync::Condvar::new());
            let (flag, signal) = &others_done;
            let task = |i: usize| {
                if i == 0 {
                    let mut done = flag.lock().expect("no thread panics holding it");
                    while !*done {
                        done = signal.wait(done).expect("no thread panics holding it");
                    }
                }
                work(i)
            };
            let mut completed = Vec::new();
            let out = map_parallel(cost.len(), workers, &task, |done, &(i, _)| {
                completed.push(i);
                if done == cost.len() - 1 {
                    *flag.lock().expect("no thread panics holding it") = true;
                    signal.notify_all();
                }
            });
            assert_eq!(out, serial, "{workers} workers");
            assert_eq!(completed.last(), Some(&0), "{workers} workers");
        }
    }

    #[test]
    fn a_pool_group_runs_on_one_thread_in_index_order() {
        for workers in POOL_WORKERS {
            for (total, group) in [(12, 4), (10, 4), (3, 5), (0, 2)] {
                let ran = Mutex::new(Vec::new());
                let task = |i: usize| {
                    let thread = std::thread::current().id();
                    ran.lock().expect("no task panics").push((thread, i));
                    i
                };
                let mut reports = 0;
                let out = map_parallel_grouped(total, group, workers, &task, |_, _| reports += 1);
                assert_eq!(out, (0..total).collect::<Vec<_>>(), "{workers} workers");
                assert_eq!(reports, total);
                let ran = ran.into_inner().expect("no task panics");
                for first in (0..total).step_by(group) {
                    let members: Vec<usize> = (first..total.min(first + group)).collect();
                    let thread = ran.iter().find(|r| r.1 == first).expect("ran").0;
                    let on_it: Vec<usize> =
                        ran.iter().filter(|r| r.0 == thread).map(|r| r.1).collect();
                    let at = on_it.iter().position(|&i| i == first).expect("ran");
                    assert_eq!(
                        on_it[at..at + members.len()],
                        members[..],
                        "{workers} workers, group at {first}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_propagates_a_task_panic() {
        for workers in POOL_WORKERS {
            let caught = std::panic::catch_unwind(|| {
                map_parallel(
                    5,
                    workers,
                    &|i| {
                        if i == 3 {
                            panic!("task 3 failed");
                        }
                        i
                    },
                    |_, _: &usize| {},
                )
            });
            let payload = caught.expect_err("the task's panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task 3 failed"),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn sweep_preserves_matrix_order() {
        let result = Suite::over(small())
            .configs(three_configs())
            .jobs(4)
            .progress(false)
            .run();
        assert_eq!(result.rows.len(), 3);
        let labels: Vec<&str> = result.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["baseline", "bow iw3", "bow-wr iw3"]);
        for row in &result.rows {
            let names: Vec<&str> = row.records.iter().map(|r| r.benchmark.as_str()).collect();
            assert_eq!(names, ["vectoradd", "lps", "sto"]);
            assert_eq!(row.wall.len(), row.records.len());
        }
        result.assert_checked();
    }

    #[test]
    fn parallel_sweep_matches_serial_cell_for_cell() {
        let serial = Suite::over(small())
            .configs(three_configs())
            .jobs(1)
            .progress(false)
            .run();
        let parallel = Suite::over(small())
            .configs(three_configs())
            .jobs(8)
            .progress(false)
            .run();
        assert_eq!(parallel.rows.len(), serial.rows.len());
        for (p, s) in parallel.rows.iter().zip(&serial.rows) {
            assert_eq!(p.label, s.label);
            for (pr, sr) in p.records.iter().zip(&s.records) {
                assert_eq!(pr.benchmark, sr.benchmark);
                assert_eq!(pr.label, sr.label);
                assert_eq!(pr.outcome.result.cycles, sr.outcome.result.cycles);
                assert_eq!(pr.outcome.result.stats, sr.outcome.result.stats);
                assert_eq!(pr.outcome.result.windows, sr.outcome.result.windows);
                assert_eq!(pr.compiler, sr.compiler);
            }
        }
    }

    #[test]
    fn single_benchmark_sweep() {
        let result = Suite::benchmark("vectoradd", Scale::Test)
            .config(ConfigBuilder::baseline().build())
            .jobs(1)
            .progress(false)
            .run();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].records.len(), 1);
        assert_eq!(result.records("baseline").map(<[RunRecord]>::len), Some(1));
        assert!(result.records("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "no benchmark named")]
    fn unknown_benchmark_panics() {
        let _ = Suite::benchmark("nope", Scale::Test);
    }

    #[test]
    fn geomean_ratio_of_identical_rows_is_one() {
        let result = Suite::over(small())
            .config(ConfigBuilder::baseline().build())
            .jobs(2)
            .progress(false)
            .run();
        let row = result.row(0).records();
        let g = SweepResult::geomean_ratio(row, row);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_json_has_one_cell_per_record() {
        let result = Suite::over(small())
            .configs(three_configs())
            .jobs(2)
            .progress(false)
            .run();
        let doc = result.to_json();
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 3);
        for row in rows {
            let cells = row.get("cells").and_then(Json::as_arr).expect("cells");
            assert_eq!(cells.len(), 3);
            for cell in cells {
                assert!(cell.get("wall_seconds").and_then(Json::as_f64).is_some());
            }
        }
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn memoization_key_collapses_unhinted_windows() {
        let key =
            |bench: usize, b: ConfigBuilder| -> PrepKey { (bench, CompilePlan::of(&b.build())) };
        // No hint pass runs for plain BOW, so all windows share a key.
        assert_eq!(
            key(0, ConfigBuilder::baseline()),
            key(0, ConfigBuilder::bow(2))
        );
        assert_eq!(key(0, ConfigBuilder::bow(2)), key(0, ConfigBuilder::bow(7)));
        // With hints the window parameterizes the pass and must split.
        assert_ne!(
            key(0, ConfigBuilder::bow_wr(2)),
            key(0, ConfigBuilder::bow_wr(7))
        );
        assert_ne!(
            key(0, ConfigBuilder::bow_wr(2)),
            key(1, ConfigBuilder::bow_wr(2))
        );
        // `verify` gates the hint pass, so it splits hinted configs only.
        assert_ne!(
            key(0, ConfigBuilder::bow_wr(3)),
            key(0, ConfigBuilder::bow_wr(3).verify(true))
        );
        assert_eq!(
            key(0, ConfigBuilder::bow(3)),
            key(0, ConfigBuilder::bow(3).verify(true))
        );
        // The label is not in the plan.
        assert_eq!(
            key(0, ConfigBuilder::bow_wr(3)),
            key(0, ConfigBuilder::bow_wr(3).label("mine"))
        );
    }

    #[test]
    fn mixed_verify_sweep_preps_the_verified_column_on_its_own() {
        // A `verify(true)` column must never be served the kernel a
        // `verify(false)` column prepared: its own prep is where the
        // verifier gate (`annotate_checked`) runs. Counting `kernel()`
        // calls observes one prep per distinct plan.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PREPS: AtomicUsize = AtomicUsize::new(0);
        struct Counting(Box<dyn Benchmark>);
        impl Benchmark for Counting {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn suite(&self) -> &'static str {
                self.0.suite()
            }
            fn description(&self) -> &'static str {
                self.0.description()
            }
            fn kernel(&self) -> Kernel {
                PREPS.fetch_add(1, Ordering::SeqCst);
                self.0.kernel()
            }
            fn run_with(
                &self,
                gpu: &mut bow_sim::Gpu,
                kernel: &Kernel,
            ) -> bow_workloads::RunOutcome {
                self.0.run_with(gpu, kernel)
            }
        }
        let bench = Counting(by_name("vectoradd", Scale::Test).expect("suite benchmark"));
        let result = Suite::over(vec![Box::new(bench)])
            .config(ConfigBuilder::bow_wr(3).build())
            .config(
                ConfigBuilder::bow_wr(3)
                    .verify(true)
                    .label("verified")
                    .build(),
            )
            // Same plan as the first column: shares its prepared kernel.
            .config(ConfigBuilder::bow_wr(3).label("relabelled").build())
            .jobs(1)
            .progress(false)
            .run();
        result.assert_checked();
        assert_eq!(
            PREPS.load(Ordering::SeqCst),
            2,
            "one prep per distinct plan"
        );
    }
}
