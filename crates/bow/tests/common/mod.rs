//! The one golden harness: every snapshot under `tests/golden/` is
//! compared, or re-blessed, here. Each test target compiles its own copy
//! and none uses every function.
#![allow(dead_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Compares `got` with the snapshot `tests/golden/<file>`, or writes it
/// there under `BOW_BLESS=1` (exactly that value: `BOW_BLESS=0` compares).
pub fn check_golden(file: &str, got: &str) {
    if std::env::var_os("BOW_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(golden_path(file), got).expect("write golden");
    } else {
        assert_golden(file, got);
    }
}

/// Panics with a line diff, including a length mismatch, unless `got` is
/// the snapshot `tests/golden/<file>` byte for byte. Never writes: what a
/// test derives from a snapshot it does not own is compared with this.
pub fn assert_golden(file: &str, got: &str) {
    let path = golden_path(file);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless with BOW_BLESS=1)", path.display()));
    if got == want {
        return;
    }
    let mut diff = String::new();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            writeln!(diff, "  line {}:\n    got  {g}\n    want {w}", i + 1)
                .expect("write to String");
        }
    }
    let (g, w) = (got.lines().count(), want.lines().count());
    if g != w {
        writeln!(diff, "  line counts differ: got {g}, want {w}").expect("write to String");
    }
    panic!(
        "{} no longer matches (bless an intentional change with BOW_BLESS=1):\n{diff}",
        path.display()
    );
}
