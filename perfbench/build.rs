//! Records the compiler version and build profile for the machine record.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PERFBENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rerun-if-changed=build.rs");
}
