//! Hashes the sources a cached result depends on into
//! `GSIM_SOURCE_HASH`, which `cache::SOURCE_HASH` puts in every cache
//! key: after any edit to simulator code, old entries miss.
//!
//! The hash covers the `.rs` files under `src/`, any `build.rs`, and the
//! `Cargo.toml` of this crate and of every workspace crate it depends
//! on, directly or not. Files go in sorted path order, each as its path
//! relative to `crates/` followed by its bytes, so the hash does not
//! depend on where the checkout lives. The hash function is FNV-1a 64,
//! a copy of `cache::fnv1a` (a build script cannot use its own crate).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `gsim-*` names in the `[dependencies]` table of a manifest.
fn gsim_deps(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && line.starts_with("gsim-") {
            let name = line.split(['.', ' ', '=']).next().unwrap_or_default();
            deps.push(name.to_string());
        }
    }
    deps
}

/// The package name a manifest declares.
fn package_name(manifest: &str) -> Option<String> {
    manifest
        .lines()
        .map(str::trim)
        .find_map(|l| l.strip_prefix("name = \""))
        .and_then(|rest| rest.split('"').next())
        .map(str::to_string)
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let here = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = here.parent().expect("the harness lives under crates/");

    let mut dirs: BTreeMap<String, PathBuf> = BTreeMap::new();
    for entry in fs::read_dir(crates).expect("readable crates/").flatten() {
        if let Ok(manifest) = fs::read_to_string(entry.path().join("Cargo.toml")) {
            if let Some(name) = package_name(&manifest) {
                dirs.insert(name, entry.path());
            }
        }
    }

    let mut deps: BTreeSet<String> = BTreeSet::new();
    let mut todo = vec!["gsim-harness".to_string()];
    while let Some(name) = todo.pop() {
        let dir = &dirs[&name];
        if deps.insert(name) {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
            todo.extend(gsim_deps(&manifest));
        }
    }

    let mut files = Vec::new();
    for name in &deps {
        let dir = &dirs[name];
        files.push(dir.join("Cargo.toml"));
        if dir.join("build.rs").exists() {
            files.push(dir.join("build.rs"));
        }
        rs_files(&dir.join("src"), &mut files);
    }
    files.sort();

    let mut h = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        println!("cargo:rerun-if-changed={}", file.display());
        let rel = file.strip_prefix(crates).expect("under crates/");
        h = fnv1a(h, rel.to_string_lossy().as_bytes());
        h = fnv1a(h, &fs::read(file).expect("readable source"));
    }
    println!("cargo:rustc-env=GSIM_SOURCE_HASH={h:016x}");
}
