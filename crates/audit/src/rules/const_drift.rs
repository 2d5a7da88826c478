//! Rule 3 — cross-boundary constants have exactly one source of truth.
//!
//! Three formats cross process (and machine) boundaries: the JSON-lines
//! protocol version (`"v":1`, [`zeroconf_engine::wire::WIRE_VERSION`]),
//! the π-table spill header (`ZCPITAB2` magic + 32-byte header,
//! `SPILL_MAGIC` / `SPILL_HEADER_LEN` in `engine/cache.rs`), and the
//! `BENCH_engine.json` row schema (row labels and field names in
//! `bench/schema.rs`, keyed on by trend tooling). A literal copy of any
//! of these that drifts from the constant corrupts data silently — a
//! reader accepts a header the writer never produced, a response claims
//! a version the codec does not speak, a renamed bench row vanishes from
//! a trend chart. This rule pins each constant to one definition site
//! and bans literal copies elsewhere:
//!
//! - the named constants must each be defined exactly once, in their
//!   designated file;
//! - each pinned literal (the `ZCPITAB` magic, the fixed bench row
//!   labels, the distinctive bench field names) may appear in exactly
//!   one non-test string literal — its own definition;
//! - no non-test string literal may hardcode a `"v":<digit>` version —
//!   JSON templates must interpolate `WIRE_VERSION`.
//!
//! Test code is exempt: fixture literals that deliberately spell out the
//! bytes are how drift *tests* work (see `crates/engine/tests/
//! spill_format.rs`, this rule's runtime twin).

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// The single-source-of-truth constants: `(name, defining file)`.
pub const PINNED_CONSTS: &[(&str, &str)] = &[
    ("RULE_CODES", "crates/audit/src/rules/mod.rs"),
    ("SPILL_MAGIC", "crates/engine/src/cache.rs"),
    ("SPILL_HEADER_LEN", "crates/engine/src/cache.rs"),
    ("WIRE_VERSION", "crates/engine/src/wire.rs"),
    ("VERB_CALIBRATE", "crates/engine/src/wire.rs"),
    ("VERB_FRONTIER", "crates/engine/src/wire.rs"),
    ("ROW_KERNEL_BLOCK", BENCH_SCHEMA),
    ("ROW_KERNEL_SINGLE_PASS", BENCH_SCHEMA),
    ("ROW_KERNEL_LEGACY", BENCH_SCHEMA),
    ("ROW_KERNEL_BLOCK_SIMD", BENCH_SCHEMA),
    ("ROW_ENGINE_SPILL_START", BENCH_SCHEMA),
    ("ROW_FRONTIER_WARM", BENCH_SCHEMA),
    ("ROW_FRONTIER_RECOMPUTE", BENCH_SCHEMA),
    ("ROW_CALIBRATE_WARM", BENCH_SCHEMA),
    ("ROW_WIRE_ENCODE_SWEEP", BENCH_SCHEMA),
    ("ROW_WIRE_DECODE_SWEEP", BENCH_SCHEMA),
    ("ROW_STEM_ENGINE", BENCH_SCHEMA),
    ("ROW_STEM_SESSION", BENCH_SCHEMA),
    ("ROW_STEM_SERVE", BENCH_SCHEMA),
    ("ROW_SERVE_OVERLOAD", BENCH_SCHEMA),
    ("FIELD_ID", BENCH_SCHEMA),
    ("FIELD_CACHE", BENCH_SCHEMA),
    ("FIELD_THREADS", BENCH_SCHEMA),
    ("FIELD_N_MAX", BENCH_SCHEMA),
    ("FIELD_R_POINTS", BENCH_SCHEMA),
    ("FIELD_MEDIAN_NS", BENCH_SCHEMA),
    ("FIELD_MIN_NS", BENCH_SCHEMA),
    ("FIELD_MEAN_NS", BENCH_SCHEMA),
    ("FIELD_CELLS_PER_SEC", BENCH_SCHEMA),
    ("FIELD_SAMPLES", BENCH_SCHEMA),
    ("FIELD_ITERS_PER_SAMPLE", BENCH_SCHEMA),
    ("FIELD_NOTE", BENCH_SCHEMA),
];

/// Home of the `BENCH_engine.json` row-schema constants.
pub const BENCH_SCHEMA: &str = "crates/bench/src/schema.rs";

/// Literals that may appear in exactly one non-test string literal —
/// their own definition: `(needle, const name, defining file)`. Only
/// needles distinctive enough not to occur in unrelated literals belong
/// here (`"id"` would match every wire template; `"cells_per_sec"`
/// matches nothing else).
pub const PINNED_LITERALS: &[(&str, &str, &str)] = &[
    (MAGIC_PREFIX, "SPILL_MAGIC", "crates/engine/src/cache.rs"),
    ("kernel/block/columns", "ROW_KERNEL_BLOCK", BENCH_SCHEMA),
    (
        "kernel/single-pass/columns",
        "ROW_KERNEL_SINGLE_PASS",
        BENCH_SCHEMA,
    ),
    (
        "kernel/legacy-per-n/columns",
        "ROW_KERNEL_LEGACY",
        BENCH_SCHEMA,
    ),
    ("kernel/block/simd", "ROW_KERNEL_BLOCK_SIMD", BENCH_SCHEMA),
    (
        "engine/spill-start/threads=1",
        "ROW_ENGINE_SPILL_START",
        BENCH_SCHEMA,
    ),
    ("engine/frontier/warm", "ROW_FRONTIER_WARM", BENCH_SCHEMA),
    (
        "engine/frontier/per-point-recompute",
        "ROW_FRONTIER_RECOMPUTE",
        BENCH_SCHEMA,
    ),
    ("engine/calibrate/warm", "ROW_CALIBRATE_WARM", BENCH_SCHEMA),
    ("wire/encode/sweep", "ROW_WIRE_ENCODE_SWEEP", BENCH_SCHEMA),
    ("wire/decode/sweep", "ROW_WIRE_DECODE_SWEEP", BENCH_SCHEMA),
    // `engine/serve` itself is not pinnable: the stem is a substring of
    // the overload label's definition, so a contains() scan would count
    // the same schema line twice. The overload prefix is distinctive.
    ("engine/serve/overload", "ROW_SERVE_OVERLOAD", BENCH_SCHEMA),
    ("cells_per_sec", "FIELD_CELLS_PER_SEC", BENCH_SCHEMA),
    ("iters_per_sample", "FIELD_ITERS_PER_SAMPLE", BENCH_SCHEMA),
    ("median_ns", "FIELD_MEDIAN_NS", BENCH_SCHEMA),
];

/// The spill magic prefix that may appear in exactly one non-test literal.
pub const MAGIC_PREFIX: &str = "ZCPITAB";

/// The audit's own sources are exempt from the literal scans: the rule
/// definitions (this file's [`MAGIC_PREFIX`] among them) necessarily
/// name the bytes they hunt for.
fn self_exempt(path: &str) -> bool {
    path.starts_with("crates/audit/")
}

pub fn check(files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pinned literals: exactly one occurrence each, in the defining file.
    for &(needle, const_name, home) in PINNED_LITERALS {
        let mut sites: Vec<(&str, u32)> = Vec::new();
        for file in files {
            if self_exempt(&file.path) {
                continue;
            }
            for t in &file.tokens {
                if t.kind == TokenKind::Literal
                    && t.text.contains(needle)
                    && !file.in_test_region(t.line)
                {
                    sites.push((&file.path, t.line));
                }
            }
        }
        match sites.as_slice() {
            [] => findings.push(Finding::deny(
                "const-drift",
                home,
                0,
                format!("the `{needle}…` literal (const {const_name}) is missing"),
            )),
            [(path, line)] if *path != home => findings.push(Finding::deny(
                "const-drift",
                path,
                *line,
                format!("the `{needle}…` literal belongs in {home} alone"),
            )),
            [_] => {}
            sites => {
                for &(path, line) in sites {
                    if !(path == home && sites.iter().filter(|(p, _)| *p == home).count() == 1) {
                        findings.push(Finding::deny(
                            "const-drift",
                            path,
                            line,
                            format!(
                                "duplicate `{needle}…` literal — reference \
                                 `{const_name}` from {home} instead"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Pinned constants: defined exactly once, in the designated file.
    for &(name, home) in PINNED_CONSTS {
        let mut sites: Vec<(&str, u32)> = Vec::new();
        for file in files {
            let toks = file.code_tokens();
            for i in 1..toks.len() {
                if toks[i].kind == TokenKind::Ident
                    && toks[i].text == name
                    && toks[i - 1].text == "const"
                    && !file.in_test_region(toks[i].line)
                {
                    sites.push((&file.path, toks[i].line));
                }
            }
        }
        match sites.as_slice() {
            [] => findings.push(Finding::deny(
                "const-drift",
                home,
                0,
                format!("`const {name}` is missing — it must be defined (once) in {home}"),
            )),
            [(path, line)] if *path != home => findings.push(Finding::deny(
                "const-drift",
                path,
                *line,
                format!("`const {name}` must live in {home}, its single source of truth"),
            )),
            [_] => {}
            sites => {
                for &(path, line) in sites.iter().filter(|(p, _)| *p != home) {
                    findings.push(Finding::deny(
                        "const-drift",
                        path,
                        line,
                        format!("`const {name}` redefined — the single source of truth is {home}"),
                    ));
                }
                let in_home = sites.iter().filter(|(p, _)| *p == home).count();
                if in_home > 1 {
                    for &(path, line) in sites.iter().filter(|(p, _)| *p == home).skip(1) {
                        findings.push(Finding::deny(
                            "const-drift",
                            path,
                            line,
                            format!("`const {name}` defined twice in its own module"),
                        ));
                    }
                }
            }
        }
    }

    // Hardcoded protocol versions in JSON templates.
    for file in files {
        if self_exempt(&file.path) {
            continue;
        }
        for t in &file.tokens {
            if t.kind != TokenKind::Literal || file.in_test_region(t.line) {
                continue;
            }
            if has_hardcoded_version(&t.text) {
                findings.push(Finding::deny(
                    "const-drift",
                    &file.path,
                    t.line,
                    "string literal hardcodes the wire version (`\"v\":<digit>`) — \
                     interpolate `WIRE_VERSION` instead"
                        .to_owned(),
                ));
            }
        }
    }

    findings
}

/// Whether a literal's raw source text contains `"v":` (escaped or raw)
/// followed directly by a digit.
fn has_hardcoded_version(raw: &str) -> bool {
    for marker in ["\\\"v\\\":", "\"v\":"] {
        let mut rest = raw;
        while let Some(at) = rest.find(marker) {
            let after = &rest[at + marker.len()..];
            if after.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                return true;
            }
            rest = after;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal tree where every pinned constant is correctly defined.
    fn healthy() -> Vec<ScannedFile> {
        vec![
            ScannedFile::new(
                "crates/audit/src/rules/mod.rs",
                "pub const RULE_CODES: &[&str] = &[\"no-panic\"];\n",
            ),
            ScannedFile::new(
                "crates/engine/src/cache.rs",
                "pub const SPILL_MAGIC: &[u8; 8] = b\"ZCPITAB2\";\n\
                 pub const SPILL_HEADER_LEN: usize = 32;\n",
            ),
            ScannedFile::new(
                "crates/engine/src/wire.rs",
                "pub const WIRE_VERSION: u64 = 1;\n\
                 pub const VERB_CALIBRATE: &str = \"calibrate\";\n\
                 pub const VERB_FRONTIER: &str = \"frontier\";\n\
                 fn emit(out: &mut String) { out.push_str(&format!(\"{{\\\"v\\\":{WIRE_VERSION}}}\")); }\n",
            ),
            ScannedFile::new(
                BENCH_SCHEMA,
                "pub const ROW_FRONTIER_WARM: &str = \"engine/frontier/warm\";\n\
                 pub const ROW_FRONTIER_RECOMPUTE: &str = \"engine/frontier/per-point-recompute\";\n\
                 pub const ROW_CALIBRATE_WARM: &str = \"engine/calibrate/warm\";\n\
                 pub const ROW_WIRE_ENCODE_SWEEP: &str = \"wire/encode/sweep\";\n\
                 pub const ROW_WIRE_DECODE_SWEEP: &str = \"wire/decode/sweep\";\n\
                 pub const ROW_KERNEL_BLOCK: &str = \"kernel/block/columns\";\n\
                 pub const ROW_KERNEL_SINGLE_PASS: &str = \"kernel/single-pass/columns\";\n\
                 pub const ROW_KERNEL_LEGACY: &str = \"kernel/legacy-per-n/columns\";\n\
                 pub const ROW_KERNEL_BLOCK_SIMD: &str = \"kernel/block/simd\";\n\
                 pub const ROW_ENGINE_SPILL_START: &str = \"engine/spill-start/threads=1\";\n\
                 pub const ROW_STEM_ENGINE: &str = \"engine\";\n\
                 pub const ROW_STEM_SESSION: &str = \"engine/session\";\n\
                 pub const ROW_STEM_SERVE: &str = \"engine/serve\";\n\
                 pub const ROW_SERVE_OVERLOAD: &str = \"engine/serve/overload/max-conns\";\n\
                 pub const FIELD_ID: &str = \"id\";\n\
                 pub const FIELD_CACHE: &str = \"cache\";\n\
                 pub const FIELD_THREADS: &str = \"threads\";\n\
                 pub const FIELD_N_MAX: &str = \"n_max\";\n\
                 pub const FIELD_R_POINTS: &str = \"r_points\";\n\
                 pub const FIELD_MEDIAN_NS: &str = \"median_ns\";\n\
                 pub const FIELD_MIN_NS: &str = \"min_ns\";\n\
                 pub const FIELD_MEAN_NS: &str = \"mean_ns\";\n\
                 pub const FIELD_CELLS_PER_SEC: &str = \"cells_per_sec\";\n\
                 pub const FIELD_SAMPLES: &str = \"samples\";\n\
                 pub const FIELD_ITERS_PER_SAMPLE: &str = \"iters_per_sample\";\n\
                 pub const FIELD_NOTE: &str = \"note\";\n",
            ),
        ]
    }

    #[test]
    fn a_healthy_tree_is_clean() {
        assert!(check(&healthy()).is_empty());
    }

    #[test]
    fn a_second_magic_literal_is_denied() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/engine/src/pool.rs",
            "fn sniff(h: &[u8]) -> bool { h.starts_with(b\"ZCPITAB2\") }\n",
        ));
        let findings = check(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/engine/src/pool.rs");
        assert!(findings[0].message.contains("duplicate"));
    }

    #[test]
    fn magic_literals_in_test_modules_are_exempt() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/engine/src/other.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    const M: &[u8] = b\"ZCPITAB2\";\n}\n",
        ));
        assert!(check(&files).is_empty());
    }

    #[test]
    fn a_redefined_constant_is_denied() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/cli/src/lib.rs",
            "const WIRE_VERSION: u64 = 2;\n",
        ));
        let findings = check(&files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("redefined"));
        assert_eq!(findings[0].path, "crates/cli/src/lib.rs");
    }

    #[test]
    fn a_missing_constant_is_denied() {
        let files = vec![ScannedFile::new(
            "crates/engine/src/cache.rs",
            "pub const SPILL_MAGIC: &[u8; 8] = b\"ZCPITAB2\";\n",
        )];
        let findings = check(&files);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("SPILL_HEADER_LEN") && f.message.contains("missing")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("WIRE_VERSION") && f.message.contains("missing")));
    }

    #[test]
    fn a_stray_bench_row_label_literal_is_denied() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/cli/src/lib.rs",
            "fn trend(row: &str) -> bool { row == \"kernel/single-pass/columns\" }\n",
        ));
        let findings = check(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/cli/src/lib.rs");
        assert!(findings[0].message.contains("ROW_KERNEL_SINGLE_PASS"));
    }

    #[test]
    fn a_stray_bench_field_name_literal_is_denied() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/plot/src/lib.rs",
            "fn key() -> &'static str { \"cells_per_sec\" }\n",
        ));
        let findings = check(&files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("FIELD_CELLS_PER_SEC"));
    }

    #[test]
    fn a_missing_bench_schema_names_every_lost_constant() {
        let mut files = healthy();
        files.retain(|f| f.path != BENCH_SCHEMA);
        let findings = check(&files);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("ROW_ENGINE_SPILL_START")
                    && f.message.contains("missing"))
        );
        assert!(findings
            .iter()
            .any(|f| f.message.contains("FIELD_MEDIAN_NS") && f.message.contains("missing")));
        assert!(findings.iter().all(|f| f.path == BENCH_SCHEMA));
    }

    #[test]
    fn hardcoded_wire_versions_in_json_templates_are_denied() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/engine/src/pipeline.rs",
            "fn emit(out: &mut String) { out.push_str(\"{\\\"v\\\":1,\\\"id\\\":\\\"x\\\"}\"); }\n",
        ));
        let findings = check(&files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("WIRE_VERSION"));
    }

    #[test]
    fn interpolated_wire_versions_pass() {
        // `"v":{WIRE_VERSION}` has `{`, not a digit, after the colon.
        assert!(!has_hardcoded_version("\"{\\\"v\\\":{WIRE_VERSION}}\""));
        assert!(has_hardcoded_version("\"{\\\"v\\\":1}\""));
        assert!(has_hardcoded_version("r#\"{\"v\":2}\"#"));
    }

    #[test]
    fn the_audit_crates_own_rule_sources_are_exempt() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/audit/src/rules/const_drift.rs",
            "pub const MAGIC_PREFIX: &str = \"ZCPITAB\";\n",
        ));
        assert!(check(&files).is_empty());
    }

    #[test]
    fn hardcoded_versions_in_test_fixtures_are_exempt() {
        let mut files = healthy();
        files.push(ScannedFile::new(
            "crates/engine/src/session.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    const REQ: &str = \"{\\\"v\\\":1}\";\n}\n",
        ));
        assert!(check(&files).is_empty());
    }
}
