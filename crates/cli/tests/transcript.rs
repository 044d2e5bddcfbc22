//! The command line's traffic, pinned: each command line below runs the
//! built `bow-cli` and the golden `tests/golden/transcript.txt` holds its
//! exact stdout, or `exit <code>: <error text>` when it fails. Temp paths
//! print as `<tmp>`. Commands whose output carries wall time are left
//! out. Bless an intentional change with `BOW_BLESS=1`.

#[path = "../../bow/tests/common/mod.rs"]
mod common;

use std::fmt::Write as _;
use std::process::Command;

/// A small kernel the file-taking commands share: SAXPY.
const KERNEL: &str = "\
.kernel saxpy
    s2r   r0, %tid.x
    s2r   r1, %ctaid.x
    s2r   r2, %ntid.x
    imad  r0, r1, r2, r0
    shl   r3, r0, 2
    ldc   r4, c[0]
    iadd  r4, r4, r3
    ldg   r5, [r4]
    ldc   r6, c[4]
    iadd  r6, r6, r3
    ldg   r7, [r6]
    ldc   r8, c[8]
    ffma  r5, r5, r8, r7
    stg   [r6], r5
    exit
";

/// Every command line, in transcript order; `<tmp>` is the temp dir.
/// `decode` reads the hex words `encode` printed.
const LINES: &[&str] = &[
    "help",
    "suite",
    "figure list",
    "lint --explain",
    "lint --explain B010",
    "asm <tmp>/k.s",
    "compile <tmp>/k.s --reorder",
    "encode <tmp>/k.s",
    "decode <tmp>/k.hex",
    "lint <tmp>/k.s",
    "run vectoradd",
    "run vectoradd --core-model modern --divergence barrier",
    "compare vectoradd --jobs 2",
    "sweep vectoradd --jobs 2",
    "trace <tmp>/k.s --limit 20",
    // The error paths.
    "frobnicate",
    "run vectoradd --colector bow",
    "run vectoradd --window",
    "run vectoradd btree",
    "run vectoradd --core-model volta",
    "figure fig99",
    "lint --explain B999",
    "run nope",
    "fuzz --smoke --cases 9999",
    "corpus sanitize --smoke --count 9999",
];

#[test]
fn transcript_matches_the_golden() {
    let tmp = std::env::temp_dir().join(format!("bow_cli_transcript_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    std::fs::write(tmp.join("k.s"), KERNEL).expect("write kernel");
    let tmp_text = tmp.display().to_string();

    let mut transcript = String::new();
    for line in LINES {
        let args = line.replace("<tmp>", &tmp_text);
        let out = Command::new(env!("CARGO_BIN_EXE_bow-cli"))
            .args(args.split_whitespace())
            .output()
            .expect("run bow-cli");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if line.starts_with("encode ") {
            std::fs::write(tmp.join("k.hex"), &stdout).expect("write hex");
        }
        writeln!(transcript, "$ bow-cli {line}").unwrap();
        match out.status.code() {
            Some(0) => transcript.push_str(&stdout),
            code => {
                let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
                let text = stderr.trim_end().trim_start_matches("error: ");
                writeln!(transcript, "exit {}: {text}", code.unwrap_or(-1)).unwrap();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    common::check_golden("transcript.txt", &transcript.replace(&tmp_text, "<tmp>"));
}
