//! What the benchmark ran on: the provenance block, and the process's
//! own peak memory.

use std::path::Path;
use std::process::Command;

use bow_util::json::Json;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    // `git` looks for a repository in every parent directory; a checkout
    // that is not one must not be described as whatever lies above it.
    if let Some(above) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        command.env("GIT_CEILING_DIRECTORIES", above);
    }
    command
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host, toolchain and source identity. `git describe` reads "unknown"
/// in a checkout that is not a git repository.
pub fn provenance() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        (
            "cpu_model",
            Json::from(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_describe",
            Json::from(command_line("git", &["describe", "--always", "--dirty"])),
        ),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "dev (not a measurement build)"
            } else {
                "release (debug = true, codegen-units = 1)"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_a_plausible_size() {
        let mb = peak_rss_mb().expect("/proc/self/status has VmHWM");
        assert!(mb > 0.5 && mb < 65536.0, "{mb} MB");
    }

    #[test]
    fn provenance_has_every_field() {
        let p = provenance();
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "git_describe",
            "build_profile",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
        assert!(p.req_u64("nproc").expect("nproc") >= 1);
    }
}
