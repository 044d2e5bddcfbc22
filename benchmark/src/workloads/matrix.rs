//! The five (kernel × configuration) workloads: `fig_pascal`,
//! `fig_modern`, `chip_serial`, `chip_threaded` and `corpus_sweep`.
//!
//! An operation is one launched-and-checked cell. Untraced passes go
//! through [`Suite`] at `jobs = 1`, the way a researcher regenerates a
//! figure; traced passes call the same public pieces one by one with a
//! span around each. Modelled caches start empty at every cell: both
//! paths build one `Gpu` per cell.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bow::compiler::{self, CompilerReport, CtrlLatencies};
use bow::corpus;
use bow::energy::{EnergyModel, EnergyReport};
use bow::experiment::{prepare_kernel, Config, ConfigBuilder, GpuModel, RunRecord};
use bow::isa::Kernel;
use bow::sim::{CollectorKind, CoreModelKind, DivergenceModel, Gpu, SimStats};
use bow::suite::{Suite, SweepResult};
use bow::workloads::{by_name, suite as paper_suite, Benchmark, RunOutcome, Scale};
use bow_util::XorShift;

use super::{
    caught, fastest, finish_trace, permutation, PassClock, RunOpts, RunOutput, SetUps, Sizing,
    TraceEnd,
};
use crate::host::nproc;
use crate::metrics::Values;
use crate::stats::{percentile, tail};
use crate::trace::Tracer;

/// The multi-block kernels of the full-chip workloads.
const CHIP_KERNELS: [&str; 7] = [
    "lps",
    "wp",
    "backprop",
    "gaussian",
    "srad",
    "squeezenet",
    "vectoradd",
];

/// A benchmark that can sit in several `Suite`s: `Suite::over` takes its
/// benchmark list by value and a boxed benchmark cannot be cloned.
struct Shared(Arc<dyn Benchmark>);

impl Benchmark for Shared {
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
        self.0.kernel()
    }
    fn run_with(&self, gpu: &mut Gpu, kernel: &Kernel) -> RunOutcome {
        self.0.run_with(gpu, kernel)
    }
}

/// One sweep: every benchmark under every configuration.
struct Group {
    benches: Vec<Arc<dyn Benchmark>>,
    configs: Vec<Config>,
}

impl Group {
    fn cells(&self) -> usize {
        self.benches.len() * self.configs.len()
    }
}

/// What the trace pass runs beside the workload's own untraced pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Twin {
    None,
    /// The same launches at another `sim_threads` (the `chip_*` pair).
    Threads(u32),
    /// The same sweep at `jobs = nproc` (`fig_modern`).
    Jobs,
}

/// The fixed part of a workload.
struct Plan {
    sim_threads: u32,
    /// The workload reproduces Figs. 10/12/13, so the simulated gains
    /// are reported.
    figure: bool,
    /// Set-up simulates every cell once serially and keeps the
    /// fingerprints as the reference the timed passes must reproduce.
    serial_reference: bool,
    twin: Twin,
}

/// What set-up builds.
struct Inputs {
    groups: Vec<Group>,
    /// Per group: the order configurations and benchmarks are swept in.
    order: Vec<(Vec<usize>, Vec<usize>)>,
    /// Stats fingerprint of every cell, in canonical order.
    reference: Option<Vec<u64>>,
}

impl Inputs {
    fn cells(&self) -> usize {
        self.groups.iter().map(Group::cells).sum()
    }
}

fn arcs(benches: Vec<Box<dyn Benchmark>>) -> Vec<Arc<dyn Benchmark>> {
    benches.into_iter().map(Arc::from).collect()
}

fn figure_configs(
    core: CoreModelKind,
    divergence: DivergenceModel,
    model: GpuModel,
) -> Vec<Config> {
    [
        ConfigBuilder::baseline(),
        ConfigBuilder::bow(3),
        ConfigBuilder::bow_wr(3),
        ConfigBuilder::rfc(),
    ]
    .into_iter()
    .map(|b| {
        b.model(model)
            .core_model(core)
            .divergence(divergence)
            .build()
    })
    .collect()
}

fn plan_of(name: &str) -> Plan {
    let chip = |threads, other| Plan {
        sim_threads: threads,
        figure: false,
        serial_reference: true,
        twin: Twin::Threads(other),
    };
    match name {
        "fig_pascal" => Plan {
            sim_threads: 1,
            figure: true,
            serial_reference: false,
            twin: Twin::None,
        },
        "fig_modern" => Plan {
            sim_threads: 1,
            figure: true,
            serial_reference: false,
            twin: Twin::Jobs,
        },
        "chip_serial" => chip(1, 2),
        "chip_threaded" => chip(2, 1),
        "corpus_sweep" => Plan {
            sim_threads: 1,
            figure: false,
            serial_reference: false,
            twin: Twin::None,
        },
        other => unreachable!("`{other}` is not a matrix workload"),
    }
}

fn groups_of(name: &str, scale: Scale, sizing: &Sizing) -> Vec<Group> {
    let (pascal, modern) = (
        (CoreModelKind::Pascal, DivergenceModel::Stack),
        (CoreModelKind::Modern, DivergenceModel::Barrier),
    );
    match name {
        "fig_pascal" | "fig_modern" => {
            let (core, div) = if name == "fig_pascal" { pascal } else { modern };
            vec![Group {
                benches: arcs(paper_suite(scale)),
                configs: figure_configs(core, div, GpuModel::Scaled),
            }]
        }
        "chip_serial" | "chip_threaded" => vec![Group {
            benches: CHIP_KERNELS
                .iter()
                .map(|n| Arc::from(by_name(n, scale).expect("Table III kernel")))
                .collect(),
            configs: vec![ConfigBuilder::bow_wr(3).model(GpuModel::TitanX).build()],
        }],
        "corpus_sweep" => {
            // The population is the committed corpus (default seed), cut
            // to the size CI sweeps: other seeds and larger cuts contain
            // kernels the pascal collectors fail the lockstep oracle on
            // (see README, "Inputs left out on purpose").
            let manifest = corpus::generate(corpus::DEFAULT_SEED, corpus::DEFAULT_COUNT);
            [pascal, modern]
                .into_iter()
                .map(|(core, div)| Group {
                    benches: arcs(corpus::benches(&manifest, sizing.corpus_sweep_kernels)),
                    configs: corpus::corpus_configs(core, div),
                })
                .collect()
        }
        other => unreachable!("`{other}` is not a matrix workload"),
    }
}

/// One pass through `Suite`.
struct SuitePass {
    wall_s: f64,
    /// Each cell's own time, as `Suite` measured it, at its canonical
    /// index.
    cell_s: Vec<f64>,
    /// One record per cell, at its canonical index.
    cells: Vec<RunRecord>,
}

impl SuitePass {
    /// What `Suite` spent outside the cells: compile passes, pool and
    /// result bookkeeping.
    fn overhead_s(&self) -> f64 {
        self.wall_s - self.cell_s.iter().sum::<f64>()
    }

    /// The pass as timed pieces: every cell, then the remainder.
    fn pieces(&self) -> Vec<f64> {
        let mut pieces = self.cell_s.clone();
        pieces.push(self.overhead_s());
        pieces
    }
}

fn suite_pass(inputs: &Inputs, sim_threads: u32, jobs: usize) -> SuitePass {
    let mut cells: Vec<Option<RunRecord>> = Vec::new();
    cells.resize_with(inputs.cells(), || None);
    let mut cell_s = vec![0.0; inputs.cells()];
    let mut base = 0;
    let start = Instant::now();
    for (group, (config_order, bench_order)) in inputs.groups.iter().zip(&inputs.order) {
        let benches: Vec<Box<dyn Benchmark>> = bench_order
            .iter()
            .map(|&bi| Box::new(Shared(Arc::clone(&group.benches[bi]))) as Box<dyn Benchmark>)
            .collect();
        let result: SweepResult = Suite::over(benches)
            .configs(config_order.iter().map(|&ci| group.configs[ci].clone()))
            .jobs(jobs)
            .sim_threads(sim_threads)
            .progress(false)
            .run();
        for (row, &ci) in result.rows.into_iter().zip(config_order) {
            for ((record, wall), &bi) in row.records.into_iter().zip(row.wall).zip(bench_order) {
                let index = base + ci * group.benches.len() + bi;
                cells[index] = Some(record);
                cell_s[index] = wall.as_secs_f64();
            }
        }
        base += group.cells();
    }
    SuitePass {
        wall_s: start.elapsed().as_secs_f64(),
        cell_s,
        cells: cells
            .into_iter()
            .map(|c| c.expect("Suite returns every cell"))
            .collect(),
    }
}

fn set_up(name: &str, plan: &Plan, opts: &RunOpts, sizing: &Sizing) -> Inputs {
    let groups = groups_of(name, sizing.scale, sizing);
    let mut rng = XorShift::new(opts.seed);
    let order = groups
        .iter()
        .map(|g| {
            (
                permutation(&mut rng, g.configs.len()),
                permutation(&mut rng, g.benches.len()),
            )
        })
        .collect();
    let mut inputs = Inputs {
        groups,
        order,
        reference: None,
    };
    // Build and compile every kernel once, so a kernel the passes reject
    // stops the run here and not inside a timed pass.
    for group in &inputs.groups {
        for bench in &group.benches {
            for config in &group.configs {
                std::hint::black_box(prepare_kernel(bench.as_ref(), config));
            }
        }
    }
    if plan.serial_reference {
        let pass = suite_pass(&inputs, 1, 1);
        inputs.reference = Some(pass.cells.iter().map(fingerprint).collect());
    } else if plan.figure {
        // Let the allocator and the instruction cache see the simulator
        // before the first timed pass.
        let warm = Inputs {
            groups: groups_of(name, Scale::Test, sizing),
            order: inputs.order.clone(),
            reference: None,
        };
        std::hint::black_box(suite_pass(&warm, 1, 1).wall_s);
    }
    inputs
}

fn fingerprint(cell: &RunRecord) -> u64 {
    cell.outcome.result.stats.fingerprint()
}

fn cell_label(inputs: &Inputs, index: usize) -> String {
    let mut base = 0;
    for (gi, group) in inputs.groups.iter().enumerate() {
        if index < base + group.cells() {
            let local = index - base;
            return format!(
                "group {gi} {} under {}",
                group.benches[local % group.benches.len()].name(),
                group.configs[local / group.benches.len()].label
            );
        }
        base += group.cells();
    }
    format!("cell {index}")
}

/// Checks every cell of a pass and counts it into `out`.
fn absorb(out: &mut RunOutput, inputs: &Inputs, reference: &[u64], cells: &[RunRecord]) {
    for (i, cell) in cells.iter().enumerate() {
        out.attempted += 1;
        let result = &cell.outcome;
        if let Err(e) = &result.checked {
            out.fail(format!("{}: host reference: {e}", cell_label(inputs, i)));
        } else if !result.result.completed {
            out.fail(format!("{}: did not complete", cell_label(inputs, i)));
        } else if fingerprint(cell) != reference[i] {
            out.fail(format!(
                "{}: stats fingerprint {:#x} is not the reference {:#x}",
                cell_label(inputs, i),
                fingerprint(cell),
                reference[i]
            ));
        }
    }
}

/// A pass panicked somewhere inside `Suite`: run every cell on its own
/// to find which ones fail, and count those.
fn attribute_panic(out: &mut RunOutput, inputs: &Inputs, sim_threads: u32, message: &str) {
    let before = out.failed;
    for group in &inputs.groups {
        for config in &group.configs {
            for bench in &group.benches {
                out.attempted += 1;
                let mut config = config.clone();
                config.gpu.sim_threads = sim_threads;
                let label = format!("{} under {}", bench.name(), config.label);
                match caught(|| bow::experiment::run(bench.as_ref(), config)) {
                    Ok(rec) if rec.outcome.checked.is_ok() && rec.outcome.result.completed => {}
                    Ok(_) => out.fail(format!("{label}: wrong or incomplete result")),
                    Err(panic) => out.fail(format!("{label}: panic: {panic}")),
                }
            }
        }
    }
    if out.failed == before {
        // The pass failed as a whole but no single cell does.
        out.fail(format!("pass panicked: {message}"));
    }
}

/// Sets the simulated figures of a Fig. 10/12/13 matrix, in percent.
/// `cells` is one group in canonical order: rows baseline, bow iw3,
/// bow-wr iw3, rfc.
fn set_figures(v: &mut Values, cells: &[RunRecord], benches: usize) {
    let row = |ci: usize| &cells[ci * benches..(ci + 1) * benches];
    let (base, bow, wr) = (row(0), row(1), row(2));
    let gain = |rows: &[RunRecord]| 100.0 * (SweepResult::geomean_ratio(rows, base) - 1.0);
    v.set("bowwr_ipc_gain_pct", gain(wr));
    v.set("bow_ipc_gain_pct", gain(bow));
    // Fig. 13's average: one minus the mean normalized RF energy
    // (dynamic + added structures) over the kernels.
    let model = EnergyModel::table_iv();
    let norm: f64 = wr
        .iter()
        .zip(base)
        .map(|(w, b)| {
            EnergyReport::normalized(
                &model,
                &w.outcome.result.stats.access_counts(),
                &b.outcome.result.stats.access_counts(),
            )
            .total_norm()
        })
        .sum();
    v.set(
        "rf_energy_saving_pct",
        100.0 * (1.0 - norm / benches as f64),
    );
    let bypass: f64 = wr
        .iter()
        .map(|w| w.outcome.result.stats.read_bypass_rate())
        .sum();
    v.set("read_bypass_pct", 100.0 * bypass / benches as f64);
}

fn warp_insts(cells: &[RunRecord]) -> u64 {
    cells
        .iter()
        .map(|c| c.outcome.result.stats.warp_instructions)
        .sum()
}

/// Runs one of the matrix workloads.
pub fn run(name: &str, opts: &RunOpts) -> RunOutput {
    let plan = plan_of(name);
    let sizing = Sizing::of(opts);
    let set_up = || set_up(name, &plan, opts, &sizing);
    let (set_ups, inputs) = SetUps::first(sizing.setup_reps, set_up);
    let mut out = RunOutput::default();
    if opts.trace {
        traced(name, &plan, &inputs, opts, &mut out);
    } else {
        untraced(&plan, &inputs, opts, set_ups, &set_up, &mut out);
    }
    out
}

/// The fingerprints every pass must reproduce: the serial reference
/// from set-up where there is one, else those of the first pass.
fn reference_for<'a>(
    kept: &'a mut Option<Vec<u64>>,
    inputs: &Inputs,
    cells: &[RunRecord],
) -> &'a [u64] {
    kept.get_or_insert_with(|| {
        inputs
            .reference
            .clone()
            .unwrap_or_else(|| cells.iter().map(fingerprint).collect())
    })
}

fn untraced(
    plan: &Plan,
    inputs: &Inputs,
    opts: &RunOpts,
    mut set_ups: SetUps,
    set_up: &dyn Fn() -> Inputs,
    out: &mut RunOutput,
) {
    let clock = PassClock::start(opts);
    let mut pieces: Vec<Vec<f64>> = Vec::new();
    let mut reference = None;
    let mut first: Option<Vec<RunRecord>> = None;
    let mut started = 0;
    while clock.another(started) {
        started += 1;
        match caught(|| suite_pass(inputs, plan.sim_threads, 1)) {
            Ok(pass) => {
                let reference = reference_for(&mut reference, inputs, &pass.cells);
                absorb(out, inputs, reference, &pass.cells);
                pieces.push(pass.pieces());
                first.get_or_insert(pass.cells);
            }
            Err(message) => attribute_panic(out, inputs, plan.sim_threads, &message),
        }
        set_ups.after_pass(set_up);
    }
    out.passes = pieces.len() as u64;
    let Some(first) = first else {
        // No pass survived: there is no timing to report.
        return;
    };
    let wall_s = out.set_pass_timing(&set_ups, &pieces, inputs.cells() as u64);
    out.values
        .set("sim_kwips", warp_insts(&first) as f64 / 1e3 / wall_s);
    if plan.figure {
        set_figures(&mut out.values, &first, inputs.groups[0].benches.len());
    }
}

/// The compile-pass inputs of a configuration: cells that agree on these
/// share one prepared kernel, as in `Suite`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PrepKey {
    bench: usize,
    reorder: bool,
    hints: bool,
    verify: bool,
    window: u32,
    core: CoreModelKind,
    divergence: DivergenceModel,
}

impl PrepKey {
    fn of(bench: usize, config: &Config) -> PrepKey {
        PrepKey {
            bench,
            reorder: config.reorder,
            hints: config.hints,
            verify: config.verify,
            window: if config.hints {
                config.gpu.collector.window().unwrap_or(3)
            } else {
                0
            },
            core: config.gpu.core_model,
            divergence: config.gpu.divergence,
        }
    }
}

/// `bow::experiment::prepare_kernel`, pass by pass, with a span around
/// each. Returns the instructions the compile passes were handed.
fn traced_prepare(
    tr: &mut Tracer,
    bench: &dyn Benchmark,
    config: &Config,
) -> (Kernel, Option<CompilerReport>, u64) {
    let window = config.gpu.collector.window().unwrap_or(3);
    let mut compiled = 0u64;
    let mut kernel = tr.leaf("workloads.kernel_build", || bench.kernel());
    if config.reorder {
        compiled += kernel.insts.len() as u64;
        kernel = tr.leaf("compiler.reorder", || compiler::reorder_for_bypass(&kernel));
    }
    let mut report = None;
    if config.hints {
        compiled += kernel.insts.len() as u64;
        let (k, rep) = if config.verify {
            tr.leaf("compiler.annotate_checked", || {
                compiler::annotate_checked(&kernel, window)
            })
            .unwrap_or_else(|_| panic!("hint verifier rejected `{}`", kernel.name))
        } else {
            tr.leaf("compiler.annotate", || compiler::annotate(&kernel, window))
        };
        kernel = k;
        report = Some(rep);
    }
    if config.gpu.divergence == DivergenceModel::Barrier {
        compiled += kernel.insts.len() as u64;
        kernel = tr
            .leaf("compiler.lower_to_barriers", || {
                compiler::lower_to_barriers(&kernel)
            })
            .unwrap_or_else(|e| panic!("barrier lowering rejected `{}`: {e}", kernel.name));
    }
    if config.gpu.core_model == CoreModelKind::Modern {
        compiled += kernel.insts.len() as u64;
        kernel = tr.leaf("compiler.emit_ctrl", || {
            compiler::emit_ctrl(&kernel, &CtrlLatencies::default())
        });
    }
    (kernel, report, compiled)
}

fn collector_name(kind: &CollectorKind) -> Option<&'static str> {
    match kind {
        CollectorKind::Baseline => Some("baseline"),
        CollectorKind::Bow { .. } => Some("bow"),
        CollectorKind::BowWr { .. } => Some("bowwr"),
        CollectorKind::Rfc { .. } => Some("rfc"),
        CollectorKind::BowFlex { .. } => None,
    }
}

/// Host time and simulated work of the launches sharing a label.
#[derive(Clone, Copy, Default)]
struct LaunchSum {
    run_ns: u64,
    warp_insts: u64,
    sm_cycles: u64,
}

/// What the traced passes add up beside the spans.
#[derive(Default)]
struct TraceSums {
    by_collector: HashMap<&'static str, LaunchSum>,
    by_kernel: HashMap<&'static str, LaunchSum>,
    cycles: u64,
    run_ns: u64,
    compiled_insts: u64,
    launch_ms: Vec<f64>,
}

type Prepared = HashMap<PrepKey, (Kernel, Option<CompilerReport>)>;

/// One traced pass: its wall, its cells in canonical order (a cell that
/// panicked is `Err` with the message) and what it compiled, per group.
struct TracedPass {
    wall_s: f64,
    cells: Vec<Result<RunRecord, String>>,
    prepared: Vec<Prepared>,
}

/// Every cell in the seeded order, each layer called directly.
fn traced_pass(
    tr: &mut Tracer,
    inputs: &Inputs,
    sim_threads: u32,
    sums: &mut TraceSums,
) -> TracedPass {
    let model = EnergyModel::table_iv();
    let mut cells: Vec<Option<Result<RunRecord, String>>> = Vec::new();
    cells.resize_with(inputs.cells(), || None);
    let mut all_prepared = Vec::new();
    let start = Instant::now();
    tr.scope("bench.pass", |tr| {
        let mut base = 0;
        for (group, (config_order, bench_order)) in inputs.groups.iter().zip(&inputs.order) {
            let mut prepared = Prepared::new();
            for &ci in config_order {
                let mut config = group.configs[ci].clone();
                config.gpu.sim_threads = sim_threads;
                for &bi in bench_order {
                    let bench = group.benches[bi].as_ref();
                    let depth = tr.depth();
                    let cell = caught(|| {
                        tr.scope("bench.cell", |tr| {
                            let (kernel, report) =
                                prepared.entry(PrepKey::of(bi, &config)).or_insert_with(|| {
                                    let (kernel, report, compiled) =
                                        traced_prepare(tr, bench, &config);
                                    sums.compiled_insts += compiled;
                                    (kernel, report)
                                });
                            let mut gpu = tr.leaf("sim.gpu_new", || Gpu::new(config.gpu.clone()));
                            let (outcome, run_ns) =
                                tr.timed_leaf("sim.run_with", || bench.run_with(&mut gpu, kernel));
                            let stats = &outcome.result.stats;
                            let counts = stats.access_counts();
                            std::hint::black_box(tr.leaf("energy.evaluate", || {
                                model.rf_dynamic_pj(&counts) + model.overhead_pj(&counts)
                            }));
                            let launch = LaunchSum {
                                run_ns,
                                warp_insts: stats.warp_instructions,
                                sm_cycles: outcome.result.cycles * u64::from(config.gpu.num_sms),
                            };
                            if let Some(c) = collector_name(&config.gpu.collector) {
                                add(sums.by_collector.entry(c).or_default(), launch);
                            }
                            add(sums.by_kernel.entry(bench.name()).or_default(), launch);
                            sums.cycles += outcome.result.cycles;
                            sums.run_ns += run_ns;
                            sums.launch_ms.push(run_ns as f64 / 1e6);
                            let record = RunRecord {
                                label: config.label.clone(),
                                benchmark: bench.name().to_string(),
                                outcome,
                                compiler: report.clone(),
                            };
                            std::hint::black_box(tr.leaf("bow.record_to_json", || {
                                record.to_json().to_string_compact()
                            }));
                            record
                        })
                    });
                    tr.unwind_to(depth);
                    cells[base + ci * group.benches.len() + bi] = Some(cell);
                }
            }
            all_prepared.push(prepared);
            base += group.cells();
        }
    });
    TracedPass {
        wall_s: start.elapsed().as_secs_f64(),
        cells: cells
            .into_iter()
            .map(|c| c.expect("every cell was visited"))
            .collect(),
        prepared: all_prepared,
    }
}

/// The pass-by-pass compile of the traced path must produce what
/// `prepare_kernel` does; returns the cells where it does not.
fn prepare_mismatches(inputs: &Inputs, prepared: &[Prepared]) -> Vec<String> {
    let mut wrong = Vec::new();
    for (group, prepared) in inputs.groups.iter().zip(prepared) {
        for (key, (kernel, _)) in prepared {
            let config = group
                .configs
                .iter()
                .find(|c| PrepKey::of(key.bench, c) == *key)
                .expect("the key came from one of the configs");
            let bench = group.benches[key.bench].as_ref();
            if prepare_kernel(bench, config).0 != *kernel {
                wrong.push(format!("{} under {}", bench.name(), config.label));
            }
        }
    }
    wrong
}

fn add(sum: &mut LaunchSum, launch: LaunchSum) {
    sum.run_ns += launch.run_ns;
    sum.warp_insts += launch.warp_insts;
    sum.sm_cycles += launch.sm_cycles;
}

fn traced(name: &str, plan: &Plan, inputs: &Inputs, opts: &RunOpts, out: &mut RunOutput) {
    let clock = PassClock::start(opts);
    let mut tr = Tracer::new();
    let mut sums = TraceSums::default();
    let (mut own_walls, mut twin_walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut overhead_share = Vec::new();
    let mut reference = None;
    let mut first: Option<Vec<RunRecord>> = None;
    let mut twin_matches = true;
    let mut rounds = 0;
    while clock.another(rounds) {
        rounds += 1;
        // Untraced, through Suite: the base the traced wall is compared
        // with, and where Suite's own overhead is read.
        match caught(|| suite_pass(inputs, plan.sim_threads, 1)) {
            Ok(pass) => {
                own_walls.push(pass.wall_s);
                overhead_share.push(100.0 * pass.overhead_s() / pass.wall_s);
                let reference = reference_for(&mut reference, inputs, &pass.cells);
                absorb(out, inputs, reference, &pass.cells);
                first.get_or_insert(pass.cells);
            }
            Err(message) => attribute_panic(out, inputs, plan.sim_threads, &message),
        }
        let twin = match plan.twin {
            Twin::None => None,
            Twin::Threads(t) if nproc() >= 2 => Some((t, 1)),
            Twin::Jobs if nproc() >= 2 => Some((plan.sim_threads, nproc())),
            Twin::Threads(_) | Twin::Jobs => None,
        };
        if let Some((threads, jobs)) = twin {
            match caught(|| suite_pass(inputs, threads, jobs)) {
                Ok(pass) => {
                    twin_walls.push(pass.wall_s);
                    if let Some(f) = &first {
                        twin_matches &= pass
                            .cells
                            .iter()
                            .zip(f)
                            .all(|(a, b)| fingerprint(a) == fingerprint(b));
                    }
                }
                Err(message) => {
                    twin_matches = false;
                    out.failures.push(format!("twin pass panicked: {message}"));
                }
            }
        }
        let pass = traced_pass(&mut tr, inputs, plan.sim_threads, &mut sums);
        traced_walls.push(pass.wall_s);
        if rounds == 1 {
            for m in prepare_mismatches(inputs, &pass.prepared) {
                out.failures
                    .push(format!("{m}: traced compile differs from prepare_kernel"));
            }
        }
        if let Some(f) = &first {
            for (i, (cell, twin)) in pass.cells.iter().zip(f).enumerate() {
                match cell {
                    Ok(c) if fingerprint(c) == fingerprint(twin) => {}
                    Ok(_) => out.failures.push(format!(
                        "{}: traced cell differs from the Suite cell",
                        cell_label(inputs, i)
                    )),
                    Err(e) => out.failures.push(format!(
                        "{}: traced cell panicked: {e}",
                        cell_label(inputs, i)
                    )),
                }
            }
        }
    }
    out.passes = rounds as u64;
    let mut v = std::mem::take(&mut out.values);
    if !own_walls.is_empty() {
        v.set("bow.suite_overhead_pct", fastest(&overhead_share));
        if !twin_walls.is_empty() {
            let (own, twin) = (fastest(&own_walls), fastest(&twin_walls));
            match plan.twin {
                Twin::Threads(_) => {
                    let (serial, threaded) = if plan.sim_threads == 1 {
                        (own, twin)
                    } else {
                        (twin, own)
                    };
                    v.set("sim.parallel_speedup_t2", serial / threaded);
                    v.set(
                        "sim.parallel_fingerprint_match",
                        f64::from(u8::from(twin_matches)),
                    );
                }
                Twin::Jobs => v.set("bow.suite_speedup_jobs2", own / twin),
                Twin::None => {}
            }
        }
    }
    for (collector, s) in &sums.by_collector {
        if s.warp_insts > 0 {
            v.set(
                format!("sim.ns_per_winst.{collector}"),
                s.run_ns as f64 / s.warp_insts as f64,
            );
            v.set(
                format!("sim.ns_per_smcycle.{collector}"),
                s.run_ns as f64 / s.sm_cycles as f64,
            );
        }
    }
    if name != "corpus_sweep" {
        for (kernel, s) in &sums.by_kernel {
            v.set(
                format!("sim.kwips.{kernel}"),
                s.warp_insts as f64 / 1e3 / (s.run_ns as f64 / 1e9),
            );
        }
    }
    if sums.run_ns > 0 {
        v.set(
            "sim.kcps",
            sums.cycles as f64 / 1e3 / (sums.run_ns as f64 / 1e9),
        );
        v.set("sim.launch_ms_p50", percentile(&sums.launch_ms, 50));
        let t = tail(&sums.launch_ms);
        v.set("sim.launch_ms_p99", t.value);
        out.note(
            "sim.launch_ms_p50 sim.launch_ms_p99",
            t.samples,
            Some(t.rank),
        );
    }
    if let Some(first) = &first {
        exact_counts(&mut v, first);
    }
    out.values = v;
    finish_trace(
        out,
        &tr,
        opts,
        &TraceEnd {
            workload: name,
            root: "bench.pass",
            traced_walls: &traced_walls,
            untraced_walls: &own_walls,
            compiled_insts: sums.compiled_insts,
        },
    );
}

/// The counts a speed-only or simplicity change must leave identical:
/// sums over every cell of one pass.
fn exact_counts(v: &mut Values, cells: &[RunRecord]) {
    let mut sum = SimStats::default();
    let (mut cycles, mut xor) = (0u64, 0u64);
    for cell in cells {
        let stats = &cell.outcome.result.stats;
        sum.merge(stats);
        cycles += cell.outcome.result.cycles;
        xor ^= stats.fingerprint();
    }
    let pct = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (hits + misses) as f64
        }
    };
    for (name, value) in [
        ("sim.cycles", cycles),
        ("sim.warp_insts", sum.warp_instructions),
        ("sim.thread_insts", sum.thread_instructions),
        ("sim.stall_no_collector", sum.stall_no_collector),
        ("sim.stall_scoreboard", sum.stall_scoreboard),
        ("sim.rf_reads", sum.rf.reads),
        ("sim.rf_writes", sum.rf.writes),
        ("sim.rf_read_conflicts", sum.rf.read_conflicts),
        ("sim.bypassed_reads", sum.bypassed_reads),
        ("sim.bypassed_writes", sum.bypassed_writes),
        ("sim.boc_writes", sum.boc_writes),
        ("sim.forced_evictions", sum.forced_evictions),
        ("sim.oc_cycles_mem", sum.oc_cycles_mem),
        ("sim.oc_cycles_nonmem", sum.oc_cycles_nonmem),
        ("sim.retired_completions", sum.retired_completions),
        ("sim.fingerprint_lo32", xor & 0xffff_ffff),
        ("mem.loads", sum.mem.loads),
        ("mem.stores", sum.mem.stores),
        ("mem.transactions", sum.mem.transactions),
        ("mem.dram_accesses", sum.mem.dram_accesses),
    ] {
        v.set(name, value as f64);
    }
    v.set("mem.l1_hit_pct", pct(sum.mem.l1.hits, sum.mem.l1.misses));
    v.set("mem.l2_hit_pct", pct(sum.mem.l2.hits, sum.mem.l2.misses));
    v.set("mem.avg_latency_cyc", sum.mem.avg_latency());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, trace: bool) -> RunOpts {
        RunOpts {
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            out_dir: std::env::temp_dir()
                .join(format!("bow-benchmark-test-{}", std::process::id())),
        }
    }

    #[test]
    fn the_seed_only_reorders_the_fixed_matrices() {
        let sizing = Sizing::of(&smoke(1, false));
        let plan = plan_of("fig_pascal");
        let a = set_up("fig_pascal", &plan, &smoke(1, false), &sizing);
        let b = set_up("fig_pascal", &plan, &smoke(1, false), &sizing);
        let c = set_up("fig_pascal", &plan, &smoke(2, false), &sizing);
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, c.order);
        assert_eq!(a.cells(), 60);
        // Whatever the order, results land at their canonical index.
        let pa = suite_pass(&a, 1, 1);
        let pc = suite_pass(&c, 1, 1);
        let fa: Vec<u64> = pa.cells.iter().map(fingerprint).collect();
        let fc: Vec<u64> = pc.cells.iter().map(fingerprint).collect();
        assert_eq!(fa, fc);
        assert_eq!(pa.cells[0].label, "baseline");
        assert_eq!(pa.cells[2 * 15].label, "bow-wr iw3");
        assert_eq!(pa.cells[2 * 15 + 1].benchmark, "lps");
    }

    #[test]
    fn a_wrong_fingerprint_or_check_is_a_failed_operation() {
        let opts = smoke(3, false);
        let sizing = Sizing::of(&opts);
        let inputs = set_up("chip_serial", &plan_of("chip_serial"), &opts, &sizing);
        let reference = inputs
            .reference
            .clone()
            .expect("chip set-up keeps a reference");
        let mut pass = suite_pass(&inputs, 2, 1);
        let mut out = RunOutput::default();
        absorb(&mut out, &inputs, &reference, &pass.cells);
        assert_eq!((out.attempted, out.failed), (7, 0), "{:?}", out.failures);
        pass.cells[1].outcome.checked = Err("planted".to_string());
        pass.cells[2].outcome.result.completed = false;
        pass.cells[3].outcome.result.stats.cycles += 1;
        let mut out = RunOutput::default();
        absorb(&mut out, &inputs, &reference, &pass.cells);
        assert_eq!((out.attempted, out.failed), (7, 3));
        assert!(
            out.failures[0].contains("wp under bow-wr iw3"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn traced_compile_matches_prepare_kernel_on_every_path() {
        let mut tr = Tracer::new();
        let bench = by_name("btree", Scale::Test).expect("btree");
        for config in [
            ConfigBuilder::baseline().build(),
            ConfigBuilder::bow_wr(3).build(),
            ConfigBuilder::bow_wr(3).verify(true).reorder(true).build(),
            ConfigBuilder::bow_wr(3)
                .core_model(CoreModelKind::Modern)
                .divergence(DivergenceModel::Barrier)
                .build(),
        ] {
            let (kernel, report, _) = traced_prepare(&mut tr, bench.as_ref(), &config);
            let (want_kernel, want_report) = prepare_kernel(bench.as_ref(), &config);
            assert_eq!(kernel, want_kernel, "{}", config.label);
            assert_eq!(report, want_report, "{}", config.label);
        }
        let names: std::collections::BTreeSet<&str> = tr.spans().iter().map(|s| s.name).collect();
        for want in [
            "workloads.kernel_build",
            "compiler.reorder",
            "compiler.annotate",
            "compiler.annotate_checked",
            "compiler.lower_to_barriers",
            "compiler.emit_ctrl",
        ] {
            assert!(names.contains(want), "no {want} span");
        }
    }
}
