//! Records the toolchain and the source commit for the benchmark's
//! environment record. The commit is read from `../.git` directly (no `git`
//! process); a checkout without git metadata records `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=HVDB_BENCH_RUSTC={version}");

    let git = Path::new("../.git");
    let head_path = git.join("HEAD");
    let mut watched = vec![head_path.clone()];
    let commit = std::fs::read_to_string(&head_path)
        .ok()
        .and_then(|head| {
            let head = head.trim();
            match head.strip_prefix("ref: ") {
                Some(name) => {
                    watched.push(git.join(name));
                    watched.push(git.join("packed-refs"));
                    resolve_ref(git, name)
                }
                None => Some(head.to_string()),
            }
        })
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=HVDB_BENCH_COMMIT={commit}");

    // Watch only paths that exist: cargo re-runs a build script on every
    // build when a watched path is missing.
    println!("cargo:rerun-if-changed=build.rs");
    for p in watched.iter().filter(|p| p.exists()) {
        println!("cargo:rerun-if-changed={}", p.display());
    }
}

fn resolve_ref(git: &Path, name: &str) -> Option<String> {
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, r) = line.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}
