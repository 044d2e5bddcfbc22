//! The kernel-file commands: `asm` assembles a kernel and summarizes it,
//! `compile` runs the hint pass over it, `encode` and `decode` take it to
//! the binary format and back, and `trace` runs it with pipeline tracing.

use crate::{err, Args, Subcommand};
use bow::api::config_from_json;
use bow::error::BowError;
use bow::experiment::CompilePlan;
use bow::prelude::*;
use std::fmt::Write as _;

/// `asm`: assemble a kernel file and summarize it.
pub const ASM: Subcommand = Subcommand {
    name: "asm",
    synopsis: "  bow-cli asm <file.s>\n",
    run: asm,
};

/// `compile`: the §IV-B hint pass (and optionally the footnote-1
/// scheduler) over a kernel file, printed as annotated assembly.
pub const COMPILE: Subcommand = Subcommand {
    name: "compile",
    synopsis: "  bow-cli compile <file.s> [--window N] [--reorder]\n",
    run: compile,
};

/// `trace`: run a kernel file with pipeline tracing and print the
/// timeline.
pub const TRACE: Subcommand = Subcommand {
    name: "trace",
    synopsis: "  bow-cli trace <file.s> [--collector C] [--window N] [--limit N]\n",
    run: trace,
};

/// `encode`: a kernel file in the binary format, one hex word a line.
pub const ENCODE: Subcommand = Subcommand {
    name: "encode",
    synopsis: "  bow-cli encode <file.s>\n",
    run: encode,
};

/// `decode`: hex words back to assembly.
pub const DECODE: Subcommand = Subcommand {
    name: "decode",
    synopsis: "  bow-cli decode <file.hex>\n",
    run: decode,
};

/// Reads and assembles a kernel file.
fn read_kernel(path: &str) -> Result<Kernel, BowError> {
    let text = std::fs::read_to_string(path).map_err(|e| BowError::io(path, e))?;
    bow_isa::asm::parse_kernel(&text).map_err(|e| err(e.to_string()))
}

fn asm(args: &Args) -> Result<String, BowError> {
    let k = read_kernel(args.positional("file")?)?;
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

fn compile(args: &Args) -> Result<String, BowError> {
    let plan = CompilePlan::of(&args.config()?);
    let (annotated, report) = plan.apply(read_kernel(args.positional("file")?)?)?;
    let (Some(window), Some(report)) = (plan.hints, report) else {
        unreachable!("the CLI's design, BOW-WR, runs the hint pass")
    };
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

fn trace(args: &Args) -> Result<String, BowError> {
    let design = args.design()?;
    let path = args.positional("file")?;
    let limit = args.number("--limit")?.unwrap_or(120);
    let cfg = config_from_json(&design)?;
    let (kernel, _) = CompilePlan::of(&cfg).apply(read_kernel(path)?)?;
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

fn encode(args: &Args) -> Result<String, BowError> {
    let words = bow_isa::encode_kernel(&read_kernel(args.positional("file")?)?);
    let mut out = String::with_capacity(words.len() * 9);
    for w in words {
        writeln!(out, "{w:08x}").unwrap();
    }
    Ok(out)
}

fn decode(args: &Args) -> Result<String, BowError> {
    let path = args.positional("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| BowError::io(path, e))?;
    let words: Result<Vec<u32>, _> = text
        .split_whitespace()
        .map(|t| u32::from_str_radix(t, 16))
        .collect();
    let words = words.map_err(|e| err(format!("bad hex word: {e}")))?;
    let k = bow_isa::decode_kernel("decoded", &words).map_err(|e| err(e.to_string()))?;
    Ok(k.disassemble())
}
