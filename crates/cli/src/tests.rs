//! The command line end to end: each test runs command lines through
//! [`run`], the entry point `main.rs` calls, or splits one with
//! [`Args`], grouped by the family module that owns the command.

use super::*;
use bow_util::json::Json;
use std::path::PathBuf;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Runs one command line.
fn cli(line: &str) -> Result<String, BowError> {
    run(&argv(line))
}

/// A fresh temp directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bow_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `text` to `<dir>/<file>` and returns the path.
fn write(dir: &std::path::Path, file: &str, text: &str) -> String {
    let path = dir.join(file);
    std::fs::write(&path, text).unwrap();
    path.display().to_string()
}

// ---- The index and `Args` ----

#[test]
fn flag_spec_rejects_typos_and_missing_values_and_places_positionals() {
    // The CLI twin of the server's unknown-key 4xx: a typo'd flag used to
    // be ignored, silently running the default collector.
    let e = cli("run lps --colector bow").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    let msg = e.to_string();
    assert!(msg.contains("unknown flag `--colector`"), "{msg}");
    assert!(msg.contains("--collector"), "lists the valid flags: {msg}");
    // A value flag with no value used to be ignored too.
    let e = cli("run lps --window").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("`--window` needs a value"), "{e}");
    assert!(cli("run lps --window --reorder").is_err());
    // A value flag's value is never the positional: this used to look up
    // benchmark `bow`.
    let out = cli("run --collector bow lps").unwrap();
    assert!(out.starts_with("lps under bow iw3: OK"), "{out}");
    // So the path / benchmark / verb need not lead any more.
    let dir = scratch("placement");
    let k = write(&dir, "k.s", ".kernel k\n    mov r0, 7\n    exit\n");
    let out = cli(&format!("lint --window 4 {k}")).unwrap();
    assert!(out.contains("linted 1 kernel(s) at IW4"), "{out}");
    let submit = Args::new("submit", &["--collector", "bow", "lps"]).unwrap();
    assert_eq!(
        (submit.target, submit.text("--collector", "")),
        (Some("lps"), "bow")
    );
    let out = cli(&format!("corpus --count 3 --dir {} gen", dir.display())).unwrap();
    assert!(out.contains("3 generated candidates"), "{out}");
    // Surplus positionals, another subcommand's flag and another verb's
    // flag are all rejected.
    assert!(cli("run lps btree").is_err());
    assert!(cli("fuzz lps").is_err());
    assert!(cli("suite --jobs 2").is_err());
    assert!(cli("corpus gen --limit 3").is_err());
    assert_eq!(flag_spec("frobnicate").map(|lines| lines.len()), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_synopsis_line_is_its_own_grammar() {
    // Each line as the parser reads it: `row | positional | flags | bare
    // flags`, a flag that takes a value marked `=`. An axis flag is written
    // bare in the synopsis and takes a value.
    let want = "\
suite |  |  |
run | <bench> | --collector= --window= --scale= --reorder --core-model= --divergence= --sanitize |
compare | <bench> | --scale= --jobs= --core-model= --divergence= |
asm | <file.s> |  |
compile | <file.s> | --window= --reorder |
sweep | <bench> | --scale= --jobs= --core-model= --divergence= |
figure | <name|all|list> | --scale= --model= --jobs= --out= |
fuzz |  | --cases= --seed= --jobs= --size= --out= --smoke --core-model= --divergence= |
lint | <file.s> | --window= --deny-warnings --json= --core-model= --divergence= |
lint |  | --all-workloads --window= --deny-warnings --json= --core-model= --divergence= | --all-workloads
lint |  | --mutate --smoke --jobs= --json= --divergence= | --mutate
lint | [B0xx] | --explain | --explain
trace | <file.s> | --collector= --window= --limit= |
encode | <file.s> |  |
decode | <file.hex> |  |
serve |  | --addr= --workers= --store= --port-file= |
submit | <bench> | --asm= --collector= --window= --scale= --addr= --no-wait |
submit |  | --job= --fetch= --health --shutdown --addr= | --job --fetch --health --shutdown
corpus gen | gen | --count= --seed= --dir= |
corpus stats | stats | --dir= |
corpus sweep | sweep | --dir= --limit= --jobs= --core-model= --divergence= --addr= --out= |
corpus sanitize | sanitize | --count= --seed= --jobs= --smoke --out= |
";
    let got: Vec<(&str, Line)> = COMMANDS
        .iter()
        .flat_map(|c| {
            flag_spec(c.name)
                .unwrap()
                .into_iter()
                .map(|line| (c.name, line))
        })
        .collect();
    let shown: String = got
        .iter()
        .map(|(name, line)| {
            let flags: Vec<String> = line
                .flags
                .iter()
                .map(|&(flag, value)| format!("{flag}{}", if value { "=" } else { "" }))
                .collect();
            let positional = line.positional.unwrap_or("");
            let (flags, modes) = (flags.join(" "), line.modes.join(" "));
            let row = format!("{name} | {positional} | {flags} | {modes}");
            format!("{}\n", row.trim_end())
        })
        .collect();
    assert_eq!(shown, want);

    // Each line accepts exactly its own flags and positional: a flag only
    // another line of the command lists is refused beside its mode (a
    // mode flag of another line selects that line instead).
    for (name, line) in &got {
        let mut base: Vec<&str> = Vec::new();
        if let Some(&mode) = line.modes.first() {
            base.push(mode);
            if line.flags.contains(&(mode, true)) {
                base.push("1");
            }
        }
        let mode = line
            .modes
            .first()
            .copied()
            .or(line.positional)
            .unwrap_or(name);
        let lines = flag_spec(name).unwrap();
        for &(flag, takes_value) in lines.iter().flat_map(|l| &l.flags) {
            if lines.iter().any(|l| l != line && l.modes.contains(&flag)) {
                continue;
            }
            let mut argv = base.clone();
            argv.push(flag);
            if takes_value {
                argv.push("1");
            }
            let parsed = Args::new(name, &argv);
            let alternative = line.modes.contains(&flag) && Some(&flag) != line.modes.first();
            if line.lists(flag) && !alternative {
                assert!(parsed.is_ok(), "{name} {argv:?}");
            } else {
                let e = parsed
                    .err()
                    .unwrap_or_else(|| panic!("{name} {argv:?} parsed"));
                let want = format!("{name}: `{flag}` cannot be combined with `{mode}`");
                assert_eq!(e.to_string(), want, "{argv:?}");
            }
        }
        let mut argv = base.clone();
        argv.push("x");
        match (line.positional, line.modes.first()) {
            (Some(_), _) => assert!(Args::new(name, &argv).is_ok(), "{name} {argv:?}"),
            (None, Some(mode)) => {
                let e = Args::new(name, &argv)
                    .err()
                    .expect("a positional beside a mode");
                let want = format!("{name}: `{mode}` takes no argument, got `x`");
                assert_eq!(e.to_string(), want);
            }
            (None, None) => assert!(Args::new(name, &argv).is_err(), "{name} {argv:?}"),
        }
    }
    // A flag has one arity under every corpus verb, so the split that
    // finds the verb reads each flag's value as its verb will.
    let (corpus, _) = Args::split("corpus", &[]).unwrap();
    for line in flag_spec("corpus").unwrap() {
        assert!(
            line.flags.iter().all(|f| corpus.flags.contains(f)),
            "{line:?}"
        );
    }
    assert_eq!(corpus.flags.len(), 10);
}

#[test]
fn the_index_is_the_help_text_and_every_row_its_own_grammar() {
    // `help` is the title, every row's synopsis in index order, the
    // shared prose; a row's synopsis names its own command on each line.
    let help = cli("help").unwrap();
    assert_eq!(cli("").unwrap(), help);
    let synopses: String = COMMANDS.iter().map(Subcommand::usage).collect();
    assert!(help.contains(&format!("USAGE:\n{synopses}\nCOLLECTORS:")));
    for (i, c) in COMMANDS.iter().enumerate() {
        assert!(c.synopsis.ends_with('\n'), "{}", c.name);
        for line in c.synopsis.lines().filter(|l| l.starts_with("  bow-cli")) {
            let rest = line.strip_prefix("  bow-cli ").unwrap();
            assert!(rest.starts_with(c.name), "{}: {line}", c.name);
        }
        assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
    }
    // The axis value lists in `help` are the axes' own tables.
    for (flag, values) in AXES {
        assert!(help.contains(&format!("[{flag} {}]", values())), "{flag}");
    }
    assert!(help.contains("(pascal|modern, stack|barrier, test|paper,\nscaled|titan-x)"));
    assert!(
        help.contains("COLLECTORS:\n  baseline | bow | bow-wr | bow-wr-half | bow-flex | rfc\n")
    );
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "`suite` reads `--jobs`, which its synopsis does not list")]
fn reading_a_flag_the_synopsis_does_not_list_panics() {
    Args::new("suite", &[]).unwrap().jobs().ok();
}

#[test]
fn parse_rejects_unknown() {
    for (line, code) in [
        ("frobnicate", 2),
        ("run", 2),
        ("run x --scale huge", 2),
        ("corpus prune", 2),
    ] {
        assert_eq!(cli(line).unwrap_err().exit_code(), code, "{line}");
    }
}

#[test]
fn axis_names_round_trip_through_flag_wire_and_label() {
    use bow::api::{canonical_config_json, config_from_json};
    use bow::experiment::Collector;
    let wire = |key: &'static str, value: &str| {
        config_from_json(&Json::obj([(key, Json::from(value))])).unwrap()
    };
    // The first line of `run vectoradd <flags>`: the design's label.
    let label = |flags: &str| {
        let out = cli(&format!("run vectoradd {flags}")).unwrap();
        let first = out.lines().next().unwrap().to_string();
        first["vectoradd under ".len()..first.find(':').unwrap()].to_string()
    };
    for v in CoreModelKind::ALL {
        let name = v.name();
        assert_eq!(CoreModelKind::parse(name), Ok(v));
        let cfg = wire("core_model", name);
        assert_eq!(cfg.gpu.core_model, v);
        let bow_wr = ConfigBuilder::bow_wr(3).core_model(v).build();
        assert_eq!(label(&format!("--core-model {name}")), bow_wr.label);
        let suffix = format!("+{name}");
        assert_eq!(cfg.label.ends_with(&suffix), v != CoreModelKind::default());
        let canon = canonical_config_json(&cfg);
        assert_eq!(canon.get("core_model").and_then(Json::as_str), Some(name));
    }
    for v in DivergenceModel::ALL {
        let name = v.name();
        assert_eq!(DivergenceModel::parse(name), Ok(v));
        let cfg = wire("divergence", name);
        assert_eq!(cfg.gpu.divergence, v);
        let bow_wr = ConfigBuilder::bow_wr(3).divergence(v).build();
        assert_eq!(label(&format!("--divergence {name}")), bow_wr.label);
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
        let args = Args::new("run", &["lps", "--scale", name]).unwrap();
        assert_eq!(args.axis().unwrap(), Some(v));
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
    // Collector specs: `--collector` resolves every spec to the design the
    // wire's `collector` names. A `bow-flex` buffer holds 4 x `--window`
    // values; the wire's default capacity, 12, is that at window 3.
    let flagged = |flags: &[&str]| Args::new("run", flags).unwrap().config().unwrap();
    for (spec, design, half) in Collector::SPECS {
        assert_eq!(Collector::parse_spec(spec), Ok((design, half)));
        let cli = flagged(&["lps", "--collector", spec]);
        let wired = wire("collector", spec);
        assert_eq!(
            (cli.label, cli.gpu, cli.hints),
            (wired.label, wired.gpu, wired.hints),
            "{spec}"
        );
    }
    let flex = flagged(&["lps", "--collector", "bow-flex", "--window", "5"]);
    assert_eq!(flex.label, "bow-flex c20");
    assert_eq!(wire("collector", "bow-flex").label, "bow-flex c12");
    // Unknown names list the table, on both surfaces.
    let e = cli("run lps --core-model volta").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("(valid: pascal, modern)"), "{e}");
    let e = config_from_json(&Json::obj([("divergence", Json::from("ipdom"))])).unwrap_err();
    assert_eq!(e.kind(), "config");
    assert!(e.to_string().contains("(valid: stack, barrier)"), "{e}");
}

// ---- bench: suite, run, compare, sweep ----

#[test]
fn parse_run_with_options() {
    let out = cli("run btree --collector bow --window 4 --scale test --reorder").unwrap();
    assert!(out.starts_with("btree under bow+sched iw4: OK"), "{out}");
    // Flags in any order, the benchmark last.
    assert_eq!(
        cli("run --reorder --window 4 --scale test --collector bow btree").unwrap(),
        out
    );
    // `--scale` reaches the benchmark: paper-scale vectoradd is 64x the
    // work.
    let paper = cli("run vectoradd --scale paper").unwrap();
    assert!(paper.contains("warp instructions  8192"), "{paper}");
    let e = cli("run btree --window lots").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("bad window `lots`"), "{e}");
}

#[test]
fn parse_defaults() {
    let out = cli("run vectoradd").unwrap();
    assert!(out.starts_with("vectoradd under bow-wr iw3: OK"), "{out}");
    assert!(out.contains("warp instructions  128"), "test scale: {out}");
    assert!(!out.contains("sanitizer"), "{out}");
    let explicit = "run vectoradd --collector bow-wr --window 3 --scale test \
                    --core-model pascal --divergence stack";
    assert_eq!(cli(explicit).unwrap(), out);
}

#[test]
fn parse_sweep() {
    let out = cli("sweep vectoradd --scale test --jobs 2").unwrap();
    assert_eq!(
        cli("sweep vectoradd").unwrap(),
        out,
        "test scale by default"
    );
    let args = Args::new("sweep", &["nw", "--scale", "test", "--jobs", "2"]).unwrap();
    assert_eq!(args.jobs().unwrap(), 2);
    let gpu = args.config().unwrap().gpu;
    assert_eq!((gpu.core_model, gpu.divergence), Default::default());
}

#[test]
fn parse_jobs_defaults_to_all_cores() {
    let args = Args::new("compare", &["nw", "--scale", "test"]).unwrap();
    assert_eq!(args.jobs().unwrap(), 0);
    assert_eq!(cli("sweep nw --jobs lots").unwrap_err().exit_code(), 2);
}

#[test]
fn sweep_runs_all_windows() {
    let out = cli("sweep vectoradd --scale test --jobs 2").unwrap();
    assert!(out.contains("IW1") && out.contains("IW7"), "{out}");
}

#[test]
fn compare_lists_all_collectors() {
    let out = cli("compare vectoradd --scale test --jobs 2").unwrap();
    for label in ["baseline", "bow iw3", "bow-wr iw3", "bow-flex c12", "rfc"] {
        assert!(out.contains(label), "missing {label} in:\n{out}");
    }
}

#[test]
fn suite_lists_benchmarks() {
    let out = cli("suite").unwrap();
    assert!(out.contains("btree"));
    assert!(out.contains("vectoradd"));
}

#[test]
fn run_vectoradd_reports_verified() {
    let out = cli("run vectoradd --collector bow-wr --window 3").unwrap();
    assert!(out.contains("OK (results verified)"), "{out}");
    assert!(out.contains("IPC"));
}

#[test]
fn unknown_benchmark_is_an_error() {
    let e = cli("run nope --collector bow").unwrap_err();
    assert_eq!(e.exit_code(), 3);
    assert!(e.to_string().contains("unknown benchmark"));
}

#[test]
fn every_collector_spec_resolves_on_both_cores() {
    for (spec, ..) in Collector::SPECS {
        for core in CoreModelKind::ALL {
            let line = ["lps", "--collector", spec, "--core-model", core.name()];
            let cfg = Args::new("run", &line).unwrap().config();
            assert_eq!(cfg.map(|c| c.gpu.core_model), Ok(core), "{spec}");
        }
    }
    let e = cli("run lps --collector warp-drive").unwrap_err();
    assert_eq!(e.exit_code(), 3, "{e}");
}

#[test]
fn the_cli_and_the_wire_agree_on_every_design() {
    // One meaning for the design flags: the config `run` resolves and the
    // document `submit` posts key the same request, for every collector
    // spec, window and model. `submit`'s line has no model flags, so the
    // models ride along as the wire keys a client adds.
    let kernel = || KernelSpec::Workload {
        name: "vectoradd".to_string(),
        scale: Scale::Test,
    };
    for (spec, ..) in Collector::SPECS {
        for window in ["1", "3", "5"] {
            let flags = ["vectoradd", "--collector", spec, "--window", window];
            let posted = Args::new("submit", &flags).unwrap().design().unwrap();
            for core in CoreModelKind::ALL {
                for div in DivergenceModel::ALL {
                    let models = ["--core-model", core.name(), "--divergence", div.name()];
                    let line = [&flags[..], &models].concat();
                    let config = Args::new("run", &line).unwrap().config().unwrap();
                    let local = RunRequest {
                        kernel: kernel(),
                        config,
                    };
                    let mut doc = posted.clone();
                    if let Json::Obj(fields) = &mut doc {
                        fields.push(("core_model".to_string(), Json::from(core.name())));
                        fields.push(("divergence".to_string(), Json::from(div.name())));
                    }
                    let body = Json::obj([
                        ("kernel", Json::obj([("workload", Json::from("vectoradd"))])),
                        ("config", doc),
                    ]);
                    let wire = RunRequest::from_json(&body).unwrap();
                    let case = format!("{spec} --window {window} {core:?} {div:?}");
                    assert_eq!(local.fingerprint(), wire.fingerprint(), "{case}");
                }
            }
        }
    }
}

#[test]
fn parse_core_model_flag() {
    let out = cli("run vectoradd --core-model modern").unwrap();
    assert!(
        out.starts_with("vectoradd under bow-wr iw3+modern: OK"),
        "{out}"
    );
    let fuzz = Args::new("fuzz", &["--smoke", "--core-model", "modern"]).unwrap();
    assert_eq!(fuzz.config().unwrap().gpu.core_model, CoreModelKind::Modern);
    assert_eq!(
        cli("run vectoradd --core-model volta")
            .unwrap_err()
            .exit_code(),
        2
    );
}

#[test]
fn run_on_the_modern_core_reports_verified() {
    let out = cli("run vectoradd --core-model modern").unwrap();
    assert!(out.contains("bow-wr iw3+modern"), "{out}");
    assert!(out.contains("OK (results verified)"), "{out}");
}

#[test]
fn compare_on_the_modern_core_labels_every_row() {
    let out = cli("compare vectoradd --scale test --jobs 2 --core-model modern").unwrap();
    for label in ["baseline+modern", "bow iw3+modern", "rfc+modern"] {
        assert!(out.contains(label), "missing {label} in:\n{out}");
    }
}

#[test]
fn parse_divergence_flag() {
    let out = cli("run vectoradd --divergence barrier").unwrap();
    assert!(
        out.starts_with("vectoradd under bow-wr iw3+barrier: OK"),
        "{out}"
    );
    let models = |command, rest: &[&str]| {
        let gpu = Args::new(command, rest).unwrap().config().unwrap().gpu;
        (gpu.core_model, gpu.divergence)
    };
    let fuzz = &[
        "--smoke",
        "--divergence",
        "barrier",
        "--core-model",
        "modern",
    ];
    assert_eq!(
        models("fuzz", fuzz),
        (CoreModelKind::Modern, DivergenceModel::Barrier)
    );
    let sweep = models("corpus sweep", &["sweep", "--divergence", "barrier"]);
    assert_eq!(sweep.1, DivergenceModel::Barrier);
    assert_eq!(
        cli("run vectoradd --divergence ipdom")
            .unwrap_err()
            .exit_code(),
        2
    );
}

#[test]
fn run_under_barrier_divergence_reports_verified() {
    // bfs is divergent at test scale, so this exercises real split/join
    // traffic end to end through the CLI path.
    let out = cli("run bfs --divergence barrier").unwrap();
    assert!(out.contains("bow-wr iw3+barrier"), "{out}");
    assert!(out.contains("OK (results verified)"), "{out}");
    // With the sanitizer attached, bfs's known benign cross-warp race is
    // still found under barrier divergence: the probe rides the same
    // event stream whatever the reconvergence bookkeeping, and findings
    // surface as the usual exit-code-5 Verify error.
    let err = match cli("run bfs --divergence barrier --sanitize") {
        Err(BowError::Verify(msg)) => msg,
        other => panic!("expected sanitizer findings, got {other:?}"),
    };
    assert!(err.contains("race: global word"), "{err}");
}

#[test]
fn run_with_sanitizer_reports_clean() {
    let out = cli("run vectoradd --sanitize").unwrap();
    assert!(out.contains("sanitizer          clean"), "{out}");
}

// ---- kernel: asm, compile, encode, decode, trace ----

#[test]
fn encode_decode_roundtrip_via_files() {
    let dir = scratch("encode");
    let asm = write(
        &dir,
        "k.s",
        ".kernel k\n    mov r0, 7\n    iadd r1, r0, 1\n    exit\n",
    );
    let hex = write(&dir, "k.hex", &cli(&format!("encode {asm}")).unwrap());
    let text = cli(&format!("decode {hex}")).unwrap();
    assert!(text.contains("mov r0, 7"));
    assert!(text.contains("iadd r1, r0, 1"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- check: fuzz, lint ----

#[test]
fn parse_fuzz_flags_and_smoke() {
    let dir = scratch("fuzz_flags");
    // The instruction count a session checks depends on every case, so on
    // the seed and the size.
    let checked = |flags: &str| {
        let line = format!("fuzz --cases 2 --jobs 2 --out {} {flags}", dir.display());
        let out = cli(&line).unwrap();
        assert!(out.starts_with("fuzz: 2 cases x 5 configs, "), "{out}");
        out.split(", ").nth(1).unwrap().to_string()
    };
    let base = checked("--seed 42 --size 8");
    // Hex seeds round-trip from repro headers and the docs.
    assert_eq!(checked("--seed 0x2a --size 8"), base);
    assert_ne!(checked("--seed 43 --size 8"), base);
    assert_ne!(checked("--seed 42 --size 16"), base);
    // --smoke fixes cases/seed/size: one of them beside it is a parse
    // error naming it, where it used to be silently ignored. --jobs, --out
    // and the models still apply.
    for flag in ["--cases 9999", "--seed 7", "--size 8"] {
        let e = cli(&format!("fuzz --smoke {flag}")).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let name = flag.split(' ').next().unwrap();
        let want = format!("fuzz: `{name}` cannot be combined with `--smoke`");
        assert!(e.to_string().contains(&want), "{e}");
    }
    let rest = [
        "--smoke",
        "--jobs",
        "3",
        "--out",
        "d",
        "--core-model",
        "modern",
    ];
    let smoke = Args::new("fuzz", &rest).unwrap();
    assert!(smoke
        .pins("--smoke", &["--cases", "--seed", "--size"])
        .unwrap());
    assert_eq!(cli("fuzz --cases many").unwrap_err().exit_code(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_command_runs_clean() {
    let dir = scratch("fuzz");
    let line = format!(
        "fuzz --cases 2 --seed 7 --jobs 2 --size 10 --out {}",
        dir.display()
    );
    let out = cli(&line).unwrap();
    assert!(out.starts_with("fuzz: 2 cases x 5 configs, "), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_lint_flags() {
    let dir = scratch("lint_flags");
    let json = dir.join("out.json").display().to_string();
    let out = cli(&format!(
        "lint --all-workloads --deny-warnings --window 4 --json {json}"
    ))
    .unwrap();
    assert!(out.contains("linted 15 kernel(s) at IW4: clean"), "{out}");
    let doc = bow::util::json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(doc.as_arr().unwrap().len(), 15);
    // A bare `lint` has nothing to lint.
    assert_eq!(cli("lint").unwrap_err().exit_code(), 2);
    let mutate = Args::new("lint", &["--mutate", "--smoke", "--jobs", "2"]).unwrap();
    assert!(mutate.flag("--mutate") && mutate.flag("--smoke"));
    assert_eq!(mutate.jobs().unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_all_workloads_is_clean_under_deny_warnings() {
    let dir = scratch("lint");
    let json = dir.join("lint.json").display().to_string();
    let out = cli(&format!(
        "lint --all-workloads --deny-warnings --json {json}"
    ))
    .unwrap();
    assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
    let doc = std::fs::read_to_string(&json).unwrap();
    let parsed = bow::util::json::parse(&doc).unwrap();
    assert_eq!(parsed.as_arr().unwrap().len(), 15);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_on_the_modern_core_emits_and_judges_control_bits() {
    // --core-model modern routes every workload kernel through the
    // control-bit emitter before linting, so the sidecar lints
    // (B013/B014) exercise real compiler output — and it is clean.
    let out = cli("lint --all-workloads --deny-warnings --core-model modern").unwrap();
    assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
}

#[test]
fn lint_all_workloads_under_barriers_is_clean() {
    // --divergence barrier lowers every workload kernel to
    // convergence-barrier form before linting; the barrier-form structure
    // checks and B017/B018 must all come back clean.
    let out = cli("lint --all-workloads --deny-warnings --divergence barrier").unwrap();
    assert!(out.contains("linted 15 kernel(s) at IW3: clean"), "{out}");
}

#[test]
fn lint_flags_an_unsound_file_and_maps_source_lines() {
    let dir = scratch("lint_file");
    // A hand-annotated kernel: the BocOnly value is evicted (window 3 runs
    // out) before the distant read, and r9 is read uninitialized.
    let asm = write(
        &dir,
        "bad.s",
        ".kernel bad\n\
         \x20   mov r0, 7 .wb.boc\n\
         \x20   nop\n\
         \x20   nop\n\
         \x20   nop\n\
         \x20   iadd r1, r0, 1\n\
         \x20   iadd r2, r9, 1\n\
         \x20   exit\n",
    );
    let e = cli(&format!("lint {asm}")).unwrap_err();
    assert_eq!(e.exit_code(), 5);
    let e = e.to_string();
    assert!(e.contains("error[B010]"), "{e}");
    assert!(e.contains("warning[B001]"), "{e}");
    // Source-line spans, not raw pcs: `mov r0` sits on line 2.
    assert!(e.contains("bad:2"), "{e}");
    assert!(e.contains("linted 1 kernel(s) at IW3: 1 failing"), "{e}");
    assert!(e.contains("\nbad under bow-wr iw3: "), "{e}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_annotates_bare_kernels_before_judging_hints() {
    let dir = scratch("lint_bare");
    let asm = write(
        &dir,
        "ok.s",
        ".kernel ok\n\
         \x20   mov r0, 7\n\
         \x20   iadd r1, r0, 1\n\
         \x20   stg [r1], r0\n\
         \x20   exit\n",
    );
    let out = cli(&format!("lint {asm} --deny-warnings")).unwrap();
    assert!(out.contains("linted 1 kernel(s) at IW3: clean"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_explain_prints_docs_and_rejects_unknown_codes() {
    let out = cli("lint --explain B015").unwrap();
    assert!(out.starts_with("B015:"), "{out}");
    assert!(out.contains("error"), "{out}");
    // The code may come first too.
    assert_eq!(cli("lint B015 --explain").unwrap(), out);
    // Unknown codes are a usage error: exit code 2 for scripts.
    let e = cli("lint --explain B999").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("B999"), "{e}");
}

#[test]
fn lint_explain_with_no_code_lists_every_code() {
    // A bare `--explain` lists the whole catalog instead of erroring.
    let out = cli("lint --explain").unwrap();
    for code in ["B001", "B010", "B017", "B018"] {
        assert!(out.contains(code), "missing {code} in:\n{out}");
    }
    assert!(out.contains("severity"), "{out}");
    // One directly followed by another flag does not take the flag for its
    // code, and refuses it: `--explain` takes no other flag.
    let e = cli("lint --explain --window 3").unwrap_err();
    assert_eq!(e.exit_code(), 2);
    let text = e.to_string();
    assert!(
        text.contains("`--window` cannot be combined with `--explain`"),
        "{text}"
    );
}

// ---- corpus: gen, stats, sweep, sanitize ----

#[test]
fn parse_corpus_verbs() {
    let dir = scratch("corpus_verbs");
    let pop = dir.join("pop").display().to_string();
    let out = cli(&format!("corpus gen --count 64 --seed 0x2a --dir {pop}")).unwrap();
    assert!(
        out.starts_with("corpus: seed 0x2a, 64 generated candidates, "),
        "{out}"
    );
    assert!(out.contains(&format!(" → {pop}/manifest.json\n")), "{out}");
    let out = cli(&format!("corpus stats --dir {pop}")).unwrap();
    assert!(out.starts_with("corpus: seed 0x2a, count 64, "), "{out}");
    // The defaults: the default corpus, under `corpus/`.
    let default = dir.join("default").display().to_string();
    let out = cli(&format!("corpus gen --dir {default}")).unwrap();
    let want = format!(
        "corpus: seed {:#x}, {} generated candidates",
        bow::corpus::DEFAULT_SEED,
        bow::corpus::DEFAULT_COUNT
    );
    assert!(out.starts_with(&want), "{out}");
    let e = cli("corpus stats").unwrap_err();
    assert!(e.to_string().starts_with("corpus/manifest.json: "), "{e}");
    let dist = dir.join("d.json").display().to_string();
    let line =
        format!("corpus sweep --limit 2 --jobs 2 --core-model modern --dir {pop} --out {dist}");
    let out = cli(&line).unwrap();
    assert!(out.contains("\"core_model\": \"modern\""), "{out}");
    assert!(out.contains("\"kernels\": 2"), "{out}");
    assert_eq!(std::fs::read_to_string(&dist).unwrap(), out);
    let sweep = Args::new("corpus sweep", &["sweep", "--addr", "127.0.0.1:9"]).unwrap();
    assert_eq!(sweep.opt("--addr"), Some("127.0.0.1:9"));
    for line in [
        "corpus",
        "corpus prune",
        "corpus gen --seed banana",
        "corpus gen --count some",
    ] {
        assert_eq!(cli(line).unwrap_err().exit_code(), 2, "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_gen_then_stats_roundtrip() {
    let dir = scratch("corpus");
    let dir = dir.display().to_string();
    let gen = || {
        cli(&format!("corpus gen --count 18 --seed 0x5eed --dir {dir}")).unwrap();
        std::fs::read_to_string(format!("{dir}/manifest.json")).unwrap()
    };
    let first = gen();
    let second = gen();
    assert_eq!(first, second, "manifest is byte-identical across runs");
    assert!(first.ends_with('\n'));

    let out = cli(&format!("corpus stats --dir {dir}")).unwrap();
    assert!(out.contains("seed 0x5eed"), "{out}");
    for stratum in ["mixed", "divergent", "mem-heavy", "adversarial"] {
        assert!(out.contains(stratum), "missing {stratum} in:\n{out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(cli(&format!("corpus stats --dir {dir}")).is_err());
}

#[test]
fn corpus_sweep_emits_distributions() {
    let dir = scratch("corpus_sweep");
    let dir = dir.display().to_string();
    cli(&format!("corpus gen --count 9 --seed 0xd157 --dir {dir}")).unwrap();
    let out_file = format!("{dir}/dist.json");
    let line = format!("corpus sweep --dir {dir} --limit 4 --jobs 2 --out {out_file}");
    let out = cli(&line).unwrap();
    for key in ["ipc_gain", "read_bypass_rate", "\"core_model\": \"pascal\""] {
        assert!(out.contains(key), "missing {key} in:\n{out}");
    }
    assert_eq!(std::fs::read_to_string(&out_file).unwrap(), out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_sanitize_flags() {
    // The fuzzer always sanitizes (its sanitizer check), so `--sanitize` is
    // not one of its flags, and the error lists the ones that are.
    let e = cli("fuzz --smoke --sanitize").unwrap_err();
    assert_eq!(e.exit_code(), 2, "{e}");
    let msg = e.to_string();
    assert!(
        msg.contains("unknown flag `--sanitize`") && msg.contains("--smoke, --core-model"),
        "{msg}"
    );
    let dir = scratch("sanitize_flags");
    let kernels = |flags: &str, file: &str| {
        let path = dir.join(file).display().to_string();
        let out = cli(&format!("corpus sanitize --jobs 2 --out {path} {flags}")).unwrap();
        assert!(out.ends_with(&format!("report → {path}\n")), "{out}");
        let doc = bow::util::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        doc.get("kernels").and_then(Json::as_f64).unwrap()
    };
    // --count and --seed reach the campaign (the adversarial stratum rides
    // along), and hex seeds read as decimal ones.
    let six = kernels("--count 6 --seed 0x2a", "six.json");
    assert_eq!(kernels("--count 6 --seed 42", "again.json"), six);
    assert!(kernels("--count 32 --seed 0x2a", "more.json") > six);
    // --smoke fixes the CI campaign: --count or --seed beside it is a
    // parse error naming it, where it used to be silently ignored. --jobs
    // and --out still apply.
    for flag in ["--count 9999", "--seed 7"] {
        let e = cli(&format!("corpus sanitize --smoke {flag}")).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let name = flag.split(' ').next().unwrap();
        let want = format!("corpus sanitize: `{name}` cannot be combined with `--smoke`");
        assert!(e.to_string().contains(&want), "{e}");
    }
    let smoke = bow::sanitize_campaign::CampaignOptions::smoke();
    let pinned = kernels("--smoke", "smoke.json");
    assert!(pinned >= smoke.count as f64 && pinned > six, "{pinned}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_sanitize_writes_the_campaign_artifact() {
    let dir = scratch("corpus_sanitize");
    let out_file = dir.join("campaign.json").display().to_string();
    let line = format!("corpus sanitize --count 6 --seed 0xdeca --jobs 2 --out {out_file}");
    let out = cli(&line).unwrap();
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
    let root = scratch("corpus_server");
    let dir = root.join("pop").display().to_string();
    cli(&format!("corpus gen --count 9 --seed 0xcafe --dir {dir}")).unwrap();

    let server = bow_server::Server::bind(&bow_server::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: root.join("store"),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let out = cli(&format!("corpus sweep --dir {dir} --limit 2 --addr {addr}")).unwrap();
    assert!(out.contains("ipc_gain"), "{out}");
    assert!(out.contains("\"kernels\": 2"), "{out}");
    // The server path measures IPC only (memory-oracle runs with synthetic
    // parameters); it must not fabricate bypass numbers.
    assert!(!out.contains("read_bypass_rate"), "{out}");

    let resp = bow_server::client::post(&addr, "/v1/shutdown", "{}").expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&root);
}

// ---- figures: figure ----

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
    cli(&format!("figure {args}"))
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
    // Title, blank, header, rule, 15 benchmarks, the average, blank, three
    // lines of prose.
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
    // `all` blesses `results/` unless told otherwise; a name writes only
    // under `--out`; the committed tables are paper scale.
    let out_of = |rest: &[&str]| {
        let args = Args::new("figure", rest).unwrap();
        let (_, tier, out) = figures::figure_args(&args).unwrap();
        (out.map(String::from), tier.scale)
    };
    assert_eq!(out_of(&["all"]), (Some("results".into()), Scale::Paper));
    assert_eq!(
        out_of(&["all", "--out", "x"]),
        (Some("x".into()), Scale::Paper)
    );
    assert_eq!(
        out_of(&["fig10_ipc", "--scale", "test"]),
        (None, Scale::Test)
    );
}

#[test]
fn figure_model_reaches_every_sweep_and_suffixes_its_files() {
    // The full-chip tier used to reach three figures only; fig11 was one
    // of those that silently ran 2 SMs and overwrote the un-suffixed
    // export. (At test scale the 56-SM numbers equal the 2-SM ones;
    // `chip_tier_selects_the_full_titan_x` pins the config.)
    let dir = scratch("figure");
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
    // Write-back: the window consolidates r1's double update, r0's double
    // update and r2's load+shift pair.
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
