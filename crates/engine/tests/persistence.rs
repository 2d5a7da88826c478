//! Cross-process π-table persistence: a fresh engine pointed at a spill
//! directory left behind by an earlier engine must serve every table from
//! disk — zero recomputation, bit-identical landscapes.

use std::path::PathBuf;

use zeroconf_cost::paper;
use zeroconf_engine::{Engine, EngineConfig, GridSpec, SweepRequest};

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "zeroconf-persistence-test-{}-{label}",
        std::process::id()
    ))
}

fn engine(workers: usize, dir: &std::path::Path) -> Engine {
    Engine::new(EngineConfig {
        workers,
        cache_tables: 256,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

#[test]
fn second_engine_serves_every_table_from_disk() {
    let dir = scratch("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = paper::figure2_scenario().unwrap();
    let request = SweepRequest::new(scenario, GridSpec::linspace(16, 0.1, 30.0, 48));

    let cold = {
        let engine = engine(2, &dir);
        let response = engine.evaluate(&request).unwrap();
        assert_eq!(engine.stats().cache_misses, 48, "cold run computes all");
        response
    };
    // A brand-new engine — fresh in-memory cache, same spill directory.
    let warm_engine = engine(2, &dir);
    let warm = warm_engine.evaluate(&request).unwrap();
    let stats = warm_engine.stats();
    assert_eq!(stats.cache_misses, 0, "every table must come from disk");
    assert_eq!(stats.cache_hits, 48);
    assert_eq!(cold.landscape, warm.landscape, "spilled tables bit-match");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn larger_sweep_upgrades_spills_for_later_engines() {
    let dir = scratch("upgrade");
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = paper::figure2_scenario().unwrap();
    let small = SweepRequest::new(scenario.clone(), GridSpec::linspace(8, 0.1, 30.0, 24));
    let large = SweepRequest::new(scenario, GridSpec::linspace(64, 0.1, 30.0, 24));

    engine(1, &dir).evaluate(&small).unwrap();
    // The larger sweep finds the short tables on disk, recomputes, and
    // must upgrade the spills rather than leave the short ones behind.
    let grower = engine(1, &dir);
    grower.evaluate(&large).unwrap();
    assert_eq!(grower.stats().cache_misses, 24, "short spills recompute");

    let reader = engine(1, &dir);
    reader.evaluate(&large).unwrap();
    assert_eq!(
        reader.stats().cache_misses,
        0,
        "upgraded spills cover the larger sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_is_created_and_garbage_is_tolerated() {
    let dir = scratch("garbage").join("nested/deeper");
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = paper::figure2_scenario().unwrap();
    let request = SweepRequest::new(scenario, GridSpec::linspace(8, 0.5, 5.0, 6));

    let first = engine(1, &dir);
    let a = first.evaluate(&request).unwrap();
    // Corrupt one spill in place; the next engine must treat it as a
    // miss, recompute, and still return identical numbers.
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .expect("at least one spill file")
        .unwrap()
        .path();
    std::fs::write(&spill, b"not a pi table").unwrap();

    let second = engine(1, &dir);
    let b = second.evaluate(&request).unwrap();
    assert_eq!(a.landscape, b.landscape);
    assert_eq!(
        second.stats().cache_misses,
        1,
        "exactly the corrupted spill recomputes"
    );
    let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
}
