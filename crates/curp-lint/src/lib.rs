//! `curp-lint`: the workspace's own static pass (see DESIGN.md invariant 6
//! and ISSUE history). Complements the runtime lock auditor in the
//! parking_lot shim: the auditor proves the discipline holds on executed
//! paths; this pass keeps the source free of constructs the auditor cannot
//! see (unranked locks, raw `std::sync`, real clocks in deterministic
//! code, unaudited unwraps, ack-before-fsync orderings, scratch paths
//! hand-built under the shared temp root).
//!
//! Run with `cargo run -p curp-lint` from anywhere in the workspace; CI
//! runs it beside clippy. Exit status 1 means findings were printed, one
//! `path:line: rule: message` per line.

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rules::{Allowlist, FileCtx, Finding};

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace root)
/// with all rules, and `crates/*/{tests,benches}/**/*.rs` with the
/// `temp-dir` rule only, applying `allow` and returning the surviving
/// findings sorted by path and line.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<Vec<Finding>> {
    // crate dir -> its source files; and every test/bench file.
    let mut by_crate: BTreeMap<PathBuf, Vec<PathBuf>> = BTreeMap::new();
    let mut harness_files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let crate_dir = entry?.path();
        for harness in ["tests", "benches"] {
            let dir = crate_dir.join(harness);
            if dir.is_dir() {
                collect_rs(&dir, &mut harness_files)?;
            }
        }
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        by_crate.insert(crate_dir, files);
    }
    let rel_path =
        |f: &Path| f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");

    let mut findings = Vec::new();
    for (crate_dir, files) in &by_crate {
        // curp-lint itself hosts the rule fixtures as test data; linting
        // the linter is what its own unit tests are for.
        if crate_dir.file_name().is_some_and(|n| n == "curp-lint") {
            continue;
        }
        let sources: Vec<(String, lexer::Lexed)> = files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f)?;
                Ok((rel_path(f), lexer::lex(&text)))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let lexed_refs: Vec<&lexer::Lexed> = sources.iter().map(|(_, l)| l).collect();
        let crate_has_ranked_locks = rules::has_ranked_locks(&lexed_refs);
        for (rel, lexed) in &sources {
            let test_tokens = rules::test_token_mask(lexed);
            let ctx =
                FileCtx { path: rel, lexed, test_tokens: &test_tokens, crate_has_ranked_locks };
            rules::run_all(&ctx, &mut findings);
        }
    }
    for f in &harness_files {
        let lexed = lexer::lex(&std::fs::read_to_string(f)?);
        let test_tokens = rules::test_token_mask(&lexed);
        let path = rel_path(f);
        let ctx = FileCtx {
            path: &path,
            lexed: &lexed,
            test_tokens: &test_tokens,
            crate_has_ranked_locks: false,
        };
        rules::rule_temp_dir(&ctx, &mut findings);
    }
    rules::dedup(&mut findings);
    findings.retain(|f| !allow.allows(f));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads `crates/curp-lint/allow.list` from `root` (missing file = empty).
pub fn load_allowlist(root: &Path) -> Allowlist {
    let path = root.join("crates/curp-lint/allow.list");
    match std::fs::read_to_string(path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    }
}
