//! Rule 8 — the vendored FFI surface is manifested, with errno
//! conventions noted.
//!
//! The workspace links libc directly through hand-written `extern "C"`
//! declarations (no `libc` crate), so every foreign signature is a
//! trusted assertion the compiler cannot check — a wrong parameter type
//! or a misread error convention is silent UB or a silently swallowed
//! errno. This rule keeps that surface enumerable: every `extern "C"`
//! function — block declarations (`extern "C" { fn epoll_wait(...); }`) and
//! definitions (`extern "C" fn on_termination(...)`) alike — must appear
//! in [`MANIFEST_PATH`], one per line:
//!
//! ```text
//! <workspace-relative path> | <symbol> | <errno convention> | <note>
//! ```
//!
//! The errno-convention field records how failure is signalled
//! (`neg-ret+errno`, `SIG_ERR`, `callback` for
//! exported definitions, …) so each call site's `check`/`last_os_error`
//! handling can be reviewed against it. Symbols missing from the manifest
//! are denials; manifest entries whose symbol is gone are warnings
//! (fatal under `--deny-warnings`).

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// Workspace-relative path of the FFI-surface manifest.
pub const MANIFEST_PATH: &str = "crates/audit/ffi-manifest.txt";

/// One parsed manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfiEntry {
    pub path: String,
    pub symbol: String,
    pub errno: String,
    pub note: String,
    /// 1-based line in the manifest file.
    pub line: u32,
}

/// Parses the FFI manifest. Malformed lines become findings.
pub fn parse_manifest(text: &str) -> (Vec<FfiEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index as u32 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split('|').map(str::trim).collect();
        match fields.as_slice() {
            [path, symbol, errno, note] if !errno.is_empty() && !symbol.is_empty() => {
                entries.push(FfiEntry {
                    path: (*path).to_owned(),
                    symbol: (*symbol).to_owned(),
                    errno: (*errno).to_owned(),
                    note: (*note).to_owned(),
                    line: line_no,
                });
            }
            _ => findings.push(Finding::deny(
                "ffi-surface",
                MANIFEST_PATH,
                line_no,
                "malformed FFI manifest entry; expected \
                 `path | symbol | errno convention | note`"
                    .to_owned(),
            )),
        }
    }
    (entries, findings)
}

/// An `extern "C"` function found in the sources.
#[derive(Debug)]
struct ExternFn {
    path: String,
    name: String,
    line: u32,
}

/// Collects every `extern "C"` function — block declarations and
/// definitions — from a scanned file's non-test code.
fn extern_fns(file: &ScannedFile) -> Vec<ExternFn> {
    let toks = file.code_tokens();
    let mut found = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_extern_c = toks[i].kind == TokenKind::Ident
            && toks[i].text == "extern"
            && toks[i + 1].kind == TokenKind::Literal
            && toks[i + 1].text == "\"C\"";
        if !is_extern_c || file.in_test_region(toks[i].line) {
            i += 1;
            continue;
        }
        match toks.get(i + 2).map(|t| t.text.as_str()) {
            // Definition: `extern "C" fn name(...) { ... }`.
            Some("fn") => {
                if let Some(name) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                    found.push(ExternFn {
                        path: file.path.clone(),
                        name: name.text.clone(),
                        line: name.line,
                    });
                }
                i += 4;
            }
            // Declaration block: `extern "C" { fn a(...); fn b(...); }`.
            Some("{") => {
                let mut depth = 0i64;
                let mut j = i + 2;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "fn" if toks[j].kind == TokenKind::Ident => {
                            if let Some(name) =
                                toks.get(j + 1).filter(|t| t.kind == TokenKind::Ident)
                            {
                                found.push(ExternFn {
                                    path: file.path.clone(),
                                    name: name.text.clone(),
                                    line: name.line,
                                });
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ => i += 2,
        }
    }
    found
}

/// Runs the FFI-surface rule over the scanned sources.
pub fn check(files: &[ScannedFile], manifest: &[FfiEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used = vec![false; manifest.len()];
    for file in files {
        for ext in extern_fns(file) {
            let entry = manifest
                .iter()
                .position(|e| e.path == ext.path && e.symbol == ext.name);
            match entry {
                Some(index) => used[index] = true,
                None => findings.push(Finding::deny(
                    "ffi-surface",
                    &ext.path,
                    ext.line,
                    format!(
                        "`extern \"C\"` fn `{}` is not in the FFI manifest ({}) — add it \
                         with its errno convention so the foreign signature is reviewed",
                        ext.name, MANIFEST_PATH
                    ),
                )),
            }
        }
    }
    for (entry, used) in manifest.iter().zip(used) {
        if !used {
            findings.push(Finding::warn(
                "ffi-surface",
                MANIFEST_PATH,
                entry.line,
                format!(
                    "unused FFI manifest entry for {} `{}` — the declaration is gone; \
                     remove the entry",
                    entry.path, entry.symbol
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reactor(src: &str) -> ScannedFile {
        ScannedFile::new("crates/serve/src/reactor.rs", src)
    }

    #[test]
    fn an_unmanifested_block_declaration_is_denied() {
        let files = vec![reactor(
            "extern \"C\" {\n    fn epoll_wait(epfd: i32) -> i32;\n}\n",
        )];
        let findings = check(&files, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "ffi-surface");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("epoll_wait"));
    }

    #[test]
    fn a_manifested_declaration_passes_and_is_marked_used() {
        let files = vec![reactor(
            "extern \"C\" {\n    fn eventfd(i: u32, f: i32) -> i32;\n}\n",
        )];
        let (manifest, parse_findings) =
            parse_manifest("crates/serve/src/reactor.rs | eventfd | neg-ret+errno | wakeup fd\n");
        assert!(parse_findings.is_empty());
        assert!(check(&files, &manifest).is_empty());
    }

    #[test]
    fn extern_fn_definitions_are_also_gated() {
        let files = vec![ScannedFile::new(
            "crates/engine/src/signal.rs",
            "pub(super) extern \"C\" fn on_termination(signum: i32) {}\n",
        )];
        let findings = check(&files, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("on_termination"));
    }

    #[test]
    fn multiple_fns_in_one_block_are_each_checked() {
        let files = vec![reactor(
            "extern \"C\" {\n    fn read(fd: i32) -> isize;\n    fn write(fd: i32) -> isize;\n}\n",
        )];
        let (manifest, _) =
            parse_manifest("crates/serve/src/reactor.rs | read | neg-ret+errno | drain\n");
        let findings = check(&files, &manifest);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`write`"));
    }

    #[test]
    fn non_c_abis_and_test_regions_are_ignored() {
        let src = "\
extern \"Rust\" {\n    fn not_ffi();\n}\n\
#[cfg(test)]\n\
mod tests {\n\
    extern \"C\" {\n        fn in_tests_only();\n    }\n\
}\n";
        assert!(check(&[reactor(src)], &[]).is_empty());
    }

    #[test]
    fn unused_manifest_entries_warn() {
        let (manifest, _) =
            parse_manifest("crates/serve/src/reactor.rs | gone | neg-ret+errno | stale\n");
        let findings = check(&[reactor("fn nothing() {}\n")], &manifest);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, crate::report::Severity::Warn);
    }

    #[test]
    fn malformed_manifest_lines_are_denied() {
        let (entries, findings) = parse_manifest("a | b\np | s | | note\n");
        assert!(entries.is_empty());
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn the_word_extern_in_strings_is_ignored() {
        let files = vec![reactor("fn f() { let s = \"extern \\\"C\\\"\"; }\n")];
        assert!(check(&files, &[]).is_empty());
    }
}
