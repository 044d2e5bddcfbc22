//! `bow-benchmark`: see `benchmark/README.md`. `benchmark/run.sh` builds
//! this binary and hands it its arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use bow_benchmark::report;
use bow_benchmark::workloads::RunOpts;

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--seconds S] [--smoke]
           every workload, each in its own process, untraced then traced;
           prints every metric and writes benchmark/out/latest.json
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
           one run; the last line of stdout is the result object
       benchmark/run.sh --check A.json B.json
           compares two run sets against the bounds in BENCHMARK.json
       benchmark/run.sh --selfcheck [--seed N] [--seconds S] [--smoke]
           runs everything twice, then checks the two sets against each other";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    check: Option<(PathBuf, PathBuf)>,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: bow_benchmark::metrics::spec().run_seconds as f64,
        trace: false,
        smoke: false,
        selfcheck: false,
        check: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--check" => {
                args.check = Some((
                    PathBuf::from(value("two run-set files")?),
                    PathBuf::from(value("two run-set files")?),
                ));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out_dir,
    };
    let ok = if let Some((a, b)) = &args.check {
        report::check_files(a, b)
    } else if let Some(workload) = &args.workload {
        report::single(workload, &opts)
    } else if args.selfcheck {
        report::selfcheck(&opts)
    } else {
        report::all(&opts, "latest.json", None).is_some()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
