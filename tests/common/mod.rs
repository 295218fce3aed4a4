//! Shared by the golden-stats pins: compare a fresh snapshot with its
//! committed golden file, or rewrite the file when `GSIM_BLESS_GOLDEN`
//! is set.

/// Asserts `got` equals the golden at `rel_path` (relative to the
/// package root), failing with `drift` on the first line that differs;
/// with `GSIM_BLESS_GOLDEN` set, writes `got` there instead.
pub fn check_golden(rel_path: &str, got: &str, drift: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var("GSIM_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {rel_path} ({e}); bless it first"));
    if got != want {
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "{drift}");
        }
        panic!("{drift} (length)");
    }
}
