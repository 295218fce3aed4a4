//! The result cache never serves a result that other sources computed.
//!
//! A sweep, then an edit to the simulator, then the same sweep must
//! recompute. Rewriting the stored entry's source hash stands in for the
//! edit; its stats are rewritten too, so a wrongly served entry shows.

use gpu_denovo::harness::{cell_key, matrix_of, run_cells, ResultCache, SOURCE_HASH};
use gpu_denovo::{ProtocolConfig, Scale};

#[test]
fn an_entry_from_other_sources_is_recomputed() {
    let dir = std::env::temp_dir().join(format!("gsim-stale-src-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let cells = matrix_of(&["FAM_G"], &[ProtocolConfig::Gd], Scale::Tiny);
    let fresh = run_cells(&cells, 1, Some(&cache)).unwrap();
    assert!(!fresh[0].from_cache);

    // The entry as a build of other sources would have left it.
    let path = dir.join(format!(
        "{:016x}.json",
        cell_key(&cells[0]).unwrap().fingerprint()
    ));
    let text = std::fs::read_to_string(&path).unwrap();
    let cycles = fresh[0].stats.cycles;
    let stale = text
        .replace(&format!("src={SOURCE_HASH}"), "src=0123456789abcdef")
        .replacen(
            &format!("\"cycles\":{cycles}"),
            &format!("\"cycles\":{}", cycles + 1),
            1,
        );
    assert!(stale.contains("src=0123456789abcdef"), "{text}");
    assert!(
        stale.contains(&format!("\"cycles\":{}", cycles + 1)),
        "{text}"
    );
    std::fs::write(&path, stale).unwrap();

    let again = run_cells(&cells, 1, Some(&cache)).unwrap();
    assert!(
        !again[0].from_cache,
        "an entry from other sources was served"
    );
    assert_eq!(again[0].stats, fresh[0].stats);
    // The recomputed entry replaced the stale one.
    let third = run_cells(&cells, 1, Some(&cache)).unwrap();
    assert!(third[0].from_cache);
    assert_eq!(third[0].stats, fresh[0].stats);
    let _ = std::fs::remove_dir_all(&dir);
}
