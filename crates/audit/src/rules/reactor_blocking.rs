//! Rule 7 — nothing reachable from the reactor event loop may block.
//!
//! The serve crate runs one event-loop thread per endpoint; every
//! connection's progress multiplexes through it. A single blocking call
//! — a parked mutex, a channel receive, a `thread::sleep` — stalls every
//! connection on that endpoint, and no tier-1 test notices because the
//! stall is load-dependent. This rule makes the no-blocking contract
//! static:
//!
//! - The call graph of the serve crate is extracted from the token
//!   stream (an identifier followed by `(` that names a function defined
//!   in `crates/serve/src/` is an edge — method and free-call forms
//!   alike, matched by name, the conservative union).
//! - From the pinned [`ENTRY_POINTS`] (the event loop itself and the
//!   per-connection callbacks it dispatches to), every reachable
//!   function body is scanned for the blocking denylist: `thread::sleep`,
//!   `.lock(…)`, Condvar `.wait(…)`/`.wait_timeout(…)`, channel
//!   `.recv(…)`/`.recv_timeout(…)`, `.join(…)`, and the blocking I/O
//!   helpers (`.read_to_end`, `.read_to_string`, `.read_exact`,
//!   `.read_line`, `.write_all`).
//! - Each hit must carry a justified allowlist entry
//!   ([`ALLOWLIST_PATH`]); unused entries warn (fatal under
//!   `--deny-warnings`).
//!
//! Calls that leave the serve crate (the engine's `poll_completions`,
//! `submit_work`, …) are out of this rule's scope; the cross-crate
//! contract is documented in DESIGN.md ("Concurrency invariants") and
//! held by the engine's own audit rules:
//!
//! - completions are *polled* (`try_recv` after an eventfd wakeup),
//!   never waited on;
//! - `FairBudget` is the daemon's only admission decision. The daemon
//!   has one executor team whose depth equals the budget's capacity,
//!   every ticket on it holds a permit (a connection holds one per
//!   pending request, not per distinct wire id), and an executor frees
//!   a ticket's team slot before its completion (and so its permit) can
//!   be observed. The team's gate therefore never binds, and the
//!   reactor never blocks in `submit_work`.
//!
//! Allowlist format, one justified site per line:
//!
//! ```text
//! <workspace-relative path> | <function> | <operation> | <why it cannot stall the loop>
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::report::Finding;
use crate::scan::{ScannedFile, TokenKind};

/// Workspace-relative path of the justified-blocking allowlist.
pub const ALLOWLIST_PATH: &str = "crates/audit/reactor-allowlist.txt";

/// The directory whose functions form the reachability universe.
pub const SERVE_PREFIX: &str = "crates/serve/src/";

/// The event-loop entry points: `(file, function)` pairs the reactor
/// thread runs directly. `run` is the loop itself; the `conn.rs`
/// callbacks are what it dispatches per readiness event; the reactor
/// wakeup/poll shims run inline in the loop.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/serve/src/listener.rs", "run"),
    ("crates/serve/src/conn.rs", "on_readable"),
    ("crates/serve/src/conn.rs", "on_writable"),
    ("crates/serve/src/conn.rs", "on_hangup"),
    ("crates/serve/src/conn.rs", "pump"),
    ("crates/serve/src/conn.rs", "begin_drain"),
    ("crates/serve/src/conn.rs", "close"),
    ("crates/serve/src/reactor.rs", "wait"),
    ("crates/serve/src/reactor.rs", "notify"),
    ("crates/serve/src/reactor.rs", "drain"),
];

/// Method names whose call parks or loops the calling thread.
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "wait",
    "wait_timeout",
    "recv",
    "recv_timeout",
    "join",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "read_line",
    "write_all",
];

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub path: String,
    pub function: String,
    pub operation: String,
    pub justification: String,
    /// 1-based line in the allowlist file.
    pub line: u32,
}

/// Parses the allowlist text. Malformed lines become findings.
pub fn parse_allowlist(text: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
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
            [path, function, operation, justification] if !justification.is_empty() => {
                entries.push(AllowEntry {
                    path: (*path).to_owned(),
                    function: (*function).to_owned(),
                    operation: (*operation).to_owned(),
                    justification: (*justification).to_owned(),
                    line: line_no,
                });
            }
            _ => findings.push(Finding::deny(
                "reactor-blocking",
                ALLOWLIST_PATH,
                line_no,
                "malformed reactor allowlist entry; expected \
                 `path | function | operation | why it cannot stall the loop`"
                    .to_owned(),
            )),
        }
    }
    (entries, findings)
}

/// A function definition in the reachability universe.
struct FnDef<'a> {
    file: &'a ScannedFile,
    name: String,
    body: (usize, usize),
}

/// Runs the reactor-blocking rule over the scanned sources.
pub fn check(files: &[ScannedFile], allowlist: &[AllowEntry]) -> Vec<Finding> {
    let mut findings = Vec::new();

    // The universe: every function defined under the serve crate.
    let mut defs: Vec<FnDef<'_>> = Vec::new();
    for file in files {
        if !file.path.starts_with(SERVE_PREFIX) {
            continue;
        }
        for span in file.fn_spans() {
            if file.in_test_region(span.line) {
                continue;
            }
            defs.push(FnDef {
                file,
                name: span.name,
                body: span.body,
            });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (index, def) in defs.iter().enumerate() {
        by_name.entry(&def.name).or_default().push(index);
    }

    // BFS from the entry points over name-resolved call edges.
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for &(file, name) in ENTRY_POINTS {
        for (index, def) in defs.iter().enumerate() {
            if def.file.path == file && def.name == name && reached.insert(index) {
                queue.push(index);
            }
        }
    }
    while let Some(index) = queue.pop() {
        let def = &defs[index];
        let toks = def.file.code_tokens();
        for i in def.body.0..def.body.1 {
            let t = toks[i];
            if t.kind != TokenKind::Ident || toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
                continue;
            }
            if let Some(callees) = by_name.get(t.text.as_str()) {
                for &callee in callees {
                    if reached.insert(callee) {
                        queue.push(callee);
                    }
                }
            }
        }
    }

    // Scan every reached body for the blocking denylist.
    let mut used = vec![false; allowlist.len()];
    for &index in &reached {
        let def = &defs[index];
        let toks = def.file.code_tokens();
        for i in def.body.0..def.body.1 {
            let t = toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let operation = if t.text == "sleep"
                && i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && toks[i - 3].text == "thread"
            {
                Some("thread::sleep".to_owned())
            } else if BLOCKING_METHODS.contains(&t.text.as_str())
                && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
                && i >= 1
                && toks[i - 1].text == "."
            {
                Some(format!(".{}()", t.text))
            } else {
                None
            };
            let Some(operation) = operation else { continue };
            let allowed = allowlist.iter().position(|e| {
                e.path == def.file.path && e.function == def.name && e.operation == operation
            });
            match allowed {
                Some(entry) => used[entry] = true,
                None => findings.push(Finding::deny(
                    "reactor-blocking",
                    &def.file.path,
                    t.line,
                    format!(
                        "`{operation}` in `{}`, which is reachable from the reactor event \
                         loop — a blocking call here stalls every connection on the \
                         endpoint; make it nonblocking or justify it in {}",
                        def.name, ALLOWLIST_PATH
                    ),
                )),
            }
        }
    }
    for (entry, used) in allowlist.iter().zip(used) {
        if !used {
            findings.push(Finding::warn(
                "reactor-blocking",
                ALLOWLIST_PATH,
                entry.line,
                format!(
                    "unused reactor allowlist entry for {} `{}` ({}) — the call is gone; \
                     remove the entry",
                    entry.path, entry.function, entry.operation
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listener(src: &str) -> ScannedFile {
        ScannedFile::new("crates/serve/src/listener.rs", src)
    }

    #[test]
    fn a_blocking_call_in_the_loop_itself_is_denied() {
        let files = vec![listener("fn run(&mut self) { thread::sleep(TICK); }\n")];
        let findings = check(&files, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("thread::sleep"));
    }

    #[test]
    fn a_blocking_call_reachable_through_helpers_is_denied() {
        let files = vec![
            listener("fn run(&mut self) { helper(); }\nfn helper() { deep(); }\n"),
            ScannedFile::new(
                "crates/serve/src/budget.rs",
                "fn deep() { let g = m.lock(); }\n",
            ),
        ];
        let findings = check(&files, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/serve/src/budget.rs");
        assert!(findings[0].message.contains(".lock()"));
    }

    #[test]
    fn unreachable_functions_may_block() {
        let files = vec![listener(
            "fn run(&mut self) { ok(); }\nfn ok() {}\nfn cold() { thread::sleep(D); }\n",
        )];
        assert!(check(&files, &[]).is_empty());
    }

    #[test]
    fn functions_outside_the_serve_crate_are_out_of_scope() {
        let files = vec![
            listener("fn run(&mut self) { poll_completions(); }\n"),
            ScannedFile::new(
                "crates/engine/src/pipeline.rs",
                "fn poll_completions() { self.completions.recv(); }\n",
            ),
        ];
        assert!(check(&files, &[]).is_empty());
    }

    #[test]
    fn an_allowlisted_site_passes_and_is_marked_used() {
        let files = vec![listener(
            "fn run(&mut self) { thread::sleep(ACCEPT_ERROR_BACKOFF); }\n",
        )];
        let (allowlist, parse_findings) = parse_allowlist(
            "crates/serve/src/listener.rs | run | thread::sleep | bounded 50ms backoff after \
             accept errors, deliberate\n",
        );
        assert!(parse_findings.is_empty());
        assert!(check(&files, &allowlist).is_empty());
    }

    #[test]
    fn channel_recv_and_condvar_wait_are_denied() {
        let files = vec![listener(
            "fn run(&mut self) { self.rx.recv(); cv.wait_timeout(g, d); }\n",
        )];
        let findings = check(&files, &[]);
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn unused_allowlist_entries_warn() {
        let (allowlist, _) =
            parse_allowlist("crates/serve/src/conn.rs | gone | .lock() | was justified once\n");
        let files = vec![listener("fn run(&mut self) {}\n")];
        let findings = check(&files, &allowlist);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, crate::report::Severity::Warn);
    }

    #[test]
    fn malformed_allowlist_lines_are_denied() {
        let (entries, findings) = parse_allowlist("a | b | c\nx | y | z |\n");
        assert!(entries.is_empty());
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn test_regions_do_not_join_the_universe() {
        let src = "\
fn run(&mut self) {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn run(&mut self) { thread::sleep(D); }\n\
}\n";
        assert!(check(&[listener(src)], &[]).is_empty());
    }
}
