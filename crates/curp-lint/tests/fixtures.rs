//! Self-tests: every rule must (a) flag its seeded fixture with the right
//! file:line diagnostics and (b) stay quiet on the marked/test/benign
//! lines in the same fixture.

use curp_lint::lexer;
use curp_lint::rules::{self, Allowlist, FileCtx, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Lints fixture `name` as if it lived at `as_path`.
fn lint_fixture(name: &str, as_path: &str, crate_has_ranked_locks: bool) -> Vec<Finding> {
    let src = fixture(name);
    let lexed = lexer::lex(&src);
    let test_tokens = rules::test_token_mask(&lexed);
    let ctx =
        FileCtx { path: as_path, lexed: &lexed, test_tokens: &test_tokens, crate_has_ranked_locks };
    let mut out = Vec::new();
    rules::run_all(&ctx, &mut out);
    rules::dedup(&mut out);
    out
}

fn lines_for(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn std_sync_fixture_fails_with_file_line() {
    let f = lint_fixture("std_sync.rs", "crates/x/src/std_sync.rs", false);
    assert_eq!(lines_for(&f, "std-sync"), vec![4, 7], "grouped import + direct path");
    assert!(f.iter().all(|x| x.path == "crates/x/src/std_sync.rs"));
}

#[test]
fn unranked_fixture_fails_only_when_crate_ranks_locks() {
    let f = lint_fixture("unranked.rs", "crates/x/src/unranked.rs", true);
    assert_eq!(lines_for(&f, "unranked-mutex"), vec![9, 13]);
    // The same file in a crate with no ranked locks is legal.
    let quiet = lint_fixture("unranked.rs", "crates/x/src/unranked.rs", false);
    assert_eq!(lines_for(&quiet, "unranked-mutex"), Vec::<u32>::new());
}

#[test]
fn ranked_lock_detection_reads_the_token_stream() {
    let lexed = lexer::lex(&fixture("unranked.rs"));
    assert!(rules::has_ranked_locks(&[&lexed]));
    let plain = lexer::lex("fn f() { let m = Mutex::new(0); }");
    assert!(!rules::has_ranked_locks(&[&plain]));
}

#[test]
fn std_time_fixture_fails_with_file_line() {
    let f = lint_fixture("std_time.rs", "crates/x/src/std_time.rs", false);
    assert_eq!(lines_for(&f, "std-time"), vec![3, 6], "Instant in group + SystemTime direct");
}

#[test]
fn unwrap_fixture_fails_only_in_fast_path_crates() {
    let f = lint_fixture("unwrap.rs", "crates/curp-core/src/unwrap.rs", false);
    assert_eq!(lines_for(&f, "unwrap-expect"), vec![6, 10]);
    // Same content outside the audited crates: quiet.
    let quiet = lint_fixture("unwrap.rs", "crates/curp-sim/src/unwrap.rs", false);
    assert_eq!(lines_for(&quiet, "unwrap-expect"), Vec::<u32>::new());
}

#[test]
fn ack_fsync_fixture_fails_only_under_durable_names() {
    let f = lint_fixture("ack_fsync.rs", "crates/curp-core/src/backup.rs", false);
    assert_eq!(
        lines_for(&f, "ack-before-fsync"),
        vec![5, 18],
        "an ack above a helper fsync is flagged; marked + after-fsync acks stay quiet"
    );
    // A non-durable module name disables the heuristic.
    let quiet = lint_fixture("ack_fsync.rs", "crates/curp-core/src/client.rs", false);
    assert_eq!(lines_for(&quiet, "ack-before-fsync"), Vec::<u32>::new());
}

#[test]
fn temp_dir_fixture_fails_everywhere_but_tempdir_rs() {
    let f = lint_fixture("temp_dir.rs", "crates/x/tests/temp_dir.rs", false);
    let rendered: Vec<String> = f
        .iter()
        .filter(|x| x.rule == "temp-dir")
        .map(|x| x.to_string().split(": ").take(2).collect::<Vec<_>>().join(": "))
        .collect();
    assert_eq!(
        rendered,
        [
            "crates/x/tests/temp_dir.rs:3: temp-dir",
            "crates/x/tests/temp_dir.rs:6: temp-dir",
            "crates/x/tests/temp_dir.rs:18: temp-dir",
        ],
        "grouped import, direct call, and test code are all flagged"
    );
    // The `TempDir` implementation itself is the one sanctioned caller.
    let quiet = lint_fixture("temp_dir.rs", "crates/curp-storage/src/tempdir.rs", false);
    assert_eq!(lines_for(&quiet, "temp-dir"), Vec::<u32>::new());
}

#[test]
fn allowlist_suppresses_by_rule_and_suffix() {
    let allow = Allowlist::parse(
        "# comment\n\nunwrap-expect curp-core/src/unwrap.rs\nstd-sync some/other.rs\n",
    );
    let f = lint_fixture("unwrap.rs", "crates/curp-core/src/unwrap.rs", false);
    let surviving: Vec<_> = f.into_iter().filter(|x| !allow.allows(x)).collect();
    assert_eq!(lines_for(&surviving, "unwrap-expect"), Vec::<u32>::new());
}

#[test]
fn findings_render_as_path_line_rule_message() {
    let f = lint_fixture("unwrap.rs", "crates/curp-core/src/unwrap.rs", false);
    let first = f.first().expect("fixture has findings");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/curp-core/src/unwrap.rs:6: unwrap-expect: "),
        "got {rendered}"
    );
}

#[test]
fn the_workspace_itself_is_clean() {
    // The repo must lint clean with its checked-in allowlist — the same
    // invocation CI runs. Walk up from this crate to the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow = curp_lint::load_allowlist(&root);
    let findings = curp_lint::lint_workspace(&root, &allow).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "curp-lint found {} issue(s):\n{}",
        findings.len(),
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
