//! The machine record printed with every result, so runs from different
//! boxes or builds are never compared unknowingly.

use std::path::Path;

use crate::json_object;

/// `nproc`, `rustc -V`, cargo profile, CPU model, git commit and seed.
pub fn record(seed: u64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let entries = [
        ("nproc", nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_owned()),
        (
            "profile",
            format!(
                "{} (opt-level {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL")
            ),
        ),
        ("cpu", cpu_model()),
        (
            "commit",
            git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_owned()),
        ),
        ("seed", seed.to_string()),
    ];
    entries
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

pub fn record_json(seed: u64) -> String {
    json_object(&record(seed))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in `root`, read from `.git` directly (a
/// checkout without `.git` has no commit to report).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}
