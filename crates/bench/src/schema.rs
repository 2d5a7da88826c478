//! The `BENCH_engine.json` row schema — single source of truth.
//!
//! `BENCH_engine.json` is a machine-read artifact: CI trend tooling and
//! the DESIGN.md performance tables key on its row labels and field
//! names, so a silently renamed row or field breaks consumers without
//! failing any test. Every fixed row label and every field name is
//! therefore a named constant defined here and nowhere else; the audit's
//! `const-drift` rule pins each definition to this file and bans stray
//! literal copies, exactly as it does for the wire version and the spill
//! magic. Rows whose label embeds a runtime parameter (thread counts,
//! pipeline depths) are built by the `row_*` helpers below from the same
//! stems.
//!
//! [`row_json`] is the one serializer: `cargo bench -p zeroconf-bench
//! --bench engine_throughput` formats every row through it, so the field
//! order and spelling in the artifact are witnessed by the tests in this
//! module.

use crate::harness::BenchRecord;

/// Row label: the blocked batch kernel, cold (π-tables recomputed each
/// iteration).
pub const ROW_KERNEL_BLOCK: &str = "kernel/block/columns";
/// Row label: the single-pass column kernel over precomputed π-tables.
pub const ROW_KERNEL_SINGLE_PASS: &str = "kernel/single-pass/columns";
/// Row label: the legacy per-`n` closed forms over the same π-tables.
pub const ROW_KERNEL_LEGACY: &str = "kernel/legacy-per-n/columns";
/// Row label: the blocked batch kernel on the widest detected SIMD tier
/// (exact mode — bit-identical to [`ROW_KERNEL_BLOCK`]'s results).
pub const ROW_KERNEL_BLOCK_SIMD: &str = "kernel/block/simd";
/// Row label: a fresh engine's first sweep served entirely from spill
/// files an earlier engine wrote (zero π recomputation).
pub const ROW_ENGINE_SPILL_START: &str = "engine/spill-start/threads=1";
/// Row label: a 64×64 `(E, c)` Pareto frontier against the warm
/// sufficient-statistic cache (zero π recomputation).
pub const ROW_FRONTIER_WARM: &str = "engine/frontier/warm";
/// Row label: the same frontier evaluated the naive way — a full
/// π-table + grid recomputation per parameter point.
pub const ROW_FRONTIER_RECOMPUTE: &str = "engine/frontier/per-point-recompute";
/// Row label: closed-form `E*` calibration against the warm
/// sufficient-statistic cache.
pub const ROW_CALIBRATE_WARM: &str = "engine/calibrate/warm";

/// Row label: `WireResponse::to_line` on a warm 32×100 sweep answer
/// (about 330 KB), normalized per cell.
pub const ROW_WIRE_ENCODE_SWEEP: &str = "wire/encode/sweep";
/// Row label: `wire::parse_json` on that same response line, normalized
/// per cell.
pub const ROW_WIRE_DECODE_SWEEP: &str = "wire/decode/sweep";

/// Stem of the parameterized cold/warm engine rows
/// (`engine/<cache>/threads=<k>`).
pub const ROW_STEM_ENGINE: &str = "engine";
/// Stem of the parameterized session rows
/// (`engine/session/<mode>/…/threads=<k>`).
pub const ROW_STEM_SESSION: &str = "engine/session";
/// Stem of the socket-measured serve rows (`engine/serve/conns=<k>`):
/// warm sweeps round-tripped through the reactor daemon over a Unix
/// socket by `k` concurrent `zeroconf-client` connections.
pub const ROW_STEM_SERVE: &str = "engine/serve";
/// Row label: admission throughput at the `--max-conns` ceiling — a
/// full house of admitted connections answering one sweep each while
/// the surplus is refused structurally.
pub const ROW_SERVE_OVERLOAD: &str = "engine/serve/overload/max-conns";

/// Field name: the row label itself.
pub const FIELD_ID: &str = "id";
/// Field name: cache regime (`cold`, `warm`, `spill-start`).
pub const FIELD_CACHE: &str = "cache";
/// Field name: worker threads used by the run.
pub const FIELD_THREADS: &str = "threads";
/// Field name: probe-count grid extent.
pub const FIELD_N_MAX: &str = "n_max";
/// Field name: listening-period grid extent.
pub const FIELD_R_POINTS: &str = "r_points";
/// Field name: median nanoseconds per iteration.
pub const FIELD_MEDIAN_NS: &str = "median_ns";
/// Field name: fastest sample's nanoseconds per iteration.
pub const FIELD_MIN_NS: &str = "min_ns";
/// Field name: mean nanoseconds per iteration.
pub const FIELD_MEAN_NS: &str = "mean_ns";
/// Field name: `(n, r)` evaluations per second at the median.
pub const FIELD_CELLS_PER_SEC: &str = "cells_per_sec";
/// Field name: timed samples collected.
pub const FIELD_SAMPLES: &str = "samples";
/// Field name: iterations per sample after calibration.
pub const FIELD_ITERS_PER_SAMPLE: &str = "iters_per_sample";
/// Field name: optional free-text caveat (single-CPU hosts etc.).
pub const FIELD_NOTE: &str = "note";

/// The engine cold/warm row label for `threads` workers.
#[must_use]
pub fn row_engine(cache: &str, threads: usize) -> String {
    format!("{ROW_STEM_ENGINE}/{cache}/threads={threads}")
}

/// The serial-session row label for `threads` workers.
#[must_use]
pub fn row_session_serial(threads: usize) -> String {
    format!("{ROW_STEM_SESSION}/serial/threads={threads}")
}

/// The pipelined-session row label for `depth` in flight on `threads`
/// workers.
#[must_use]
pub fn row_session_pipelined(depth: usize, threads: usize) -> String {
    format!("{ROW_STEM_SESSION}/pipelined/depth={depth}/threads={threads}")
}

/// The serve row label for `conns` concurrent client connections.
#[must_use]
pub fn row_serve_conns(conns: usize) -> String {
    format!("{ROW_STEM_SERVE}/conns={conns}")
}

/// One `BENCH_engine.json` row. `cells` is the number of `(n, r)`
/// evaluations a single iteration performs, so
/// `cells_per_sec = cells / median`.
#[must_use]
pub fn row_json(
    record: &BenchRecord,
    threads: usize,
    cache: &str,
    n_max: u32,
    r_points: usize,
    cells: usize,
    note: Option<&str>,
) -> String {
    let cells_per_sec = cells as f64 * 1e9 / record.median_ns;
    let note_field = match note {
        Some(note) => format!(",\"{FIELD_NOTE}\":{note:?}"),
        None => String::new(),
    };
    format!(
        "{{\"{FIELD_ID}\":{:?},\"{FIELD_CACHE}\":{:?},\"{FIELD_THREADS}\":{},\
         \"{FIELD_N_MAX}\":{},\"{FIELD_R_POINTS}\":{},\"{FIELD_MEDIAN_NS}\":{},\
         \"{FIELD_MIN_NS}\":{},\"{FIELD_MEAN_NS}\":{},\"{FIELD_CELLS_PER_SEC}\":{:.1},\
         \"{FIELD_SAMPLES}\":{},\"{FIELD_ITERS_PER_SAMPLE}\":{}{}}}",
        record.id,
        cache,
        threads,
        n_max,
        r_points,
        record.median_ns,
        record.min_ns,
        record.mean_ns,
        cells_per_sec,
        record.samples,
        record.iters_per_sample,
        note_field
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            id: ROW_KERNEL_BLOCK.to_owned(),
            median_ns: 2e6,
            min_ns: 1.5e6,
            mean_ns: 2.1e6,
            samples: 7,
            iters_per_sample: 3,
            first_iter_ns: 3e6,
        }
    }

    #[test]
    fn row_json_spells_every_field_once() {
        let row = row_json(&record(), 2, "cold", 200, 200, 40_000, None);
        for field in [
            FIELD_ID,
            FIELD_CACHE,
            FIELD_THREADS,
            FIELD_N_MAX,
            FIELD_R_POINTS,
            FIELD_MEDIAN_NS,
            FIELD_MIN_NS,
            FIELD_MEAN_NS,
            FIELD_CELLS_PER_SEC,
            FIELD_SAMPLES,
            FIELD_ITERS_PER_SAMPLE,
        ] {
            assert_eq!(
                row.matches(&format!("\"{field}\":")).count(),
                1,
                "field {field} in {row}"
            );
        }
        assert!(!row.contains(FIELD_NOTE), "{row}");
        // 40_000 cells at 2ms median = 20M cells/sec.
        assert!(row.contains("\"cells_per_sec\":20000000.0"), "{row}");
    }

    #[test]
    fn notes_are_escaped_json_strings() {
        let row = row_json(&record(), 1, "warm", 32, 40, 1280, Some("quote \" here"));
        assert!(row.contains("\"note\":\"quote \\\" here\""), "{row}");
    }

    #[test]
    fn parameterized_rows_build_from_the_pinned_stems() {
        assert_eq!(row_engine("cold", 4), "engine/cold/threads=4");
        assert_eq!(row_session_serial(1), "engine/session/serial/threads=1");
        assert_eq!(
            row_session_pipelined(4, 2),
            "engine/session/pipelined/depth=4/threads=2"
        );
        assert_eq!(row_serve_conns(64), "engine/serve/conns=64");
        assert!(ROW_STEM_SERVE.starts_with(ROW_STEM_ENGINE));
        assert!(ROW_SERVE_OVERLOAD.starts_with(ROW_STEM_SERVE));
        assert!(ROW_ENGINE_SPILL_START.starts_with(ROW_STEM_ENGINE));
        assert!(ROW_KERNEL_BLOCK_SIMD.starts_with("kernel/block/"));
        assert!(ROW_FRONTIER_WARM.starts_with(ROW_STEM_ENGINE));
        assert!(ROW_FRONTIER_RECOMPUTE.starts_with(ROW_STEM_ENGINE));
        assert!(ROW_CALIBRATE_WARM.starts_with(ROW_STEM_ENGINE));
    }
}
