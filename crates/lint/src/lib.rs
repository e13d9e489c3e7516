//! # qbm-lint
//!
//! In-tree static-analysis pass for the buffer-management workspace.
//! The reproduction's headline property is *bit-for-bit determinism*:
//! Propositions 1–3 are checked with exact integer-nanosecond
//! arithmetic, and the parallel campaign runner is only correct because
//! per-cell seeds are pure and stats merges are commutative. One stray
//! wall-clock read, entropy-seeded RNG, unordered-container iteration
//! in a merge path, or raw-`f64` shortcut in a policy silently breaks
//! that. This crate makes those invariants *enforced* instead of
//! aspirational.
//!
//! The scanner is hand-rolled and dependency-free (no `syn`) so it
//! builds offline like the rest of the workspace. It is lexical: string
//! and char-literal contents are blanked and comments stripped before
//! rules run, and `#[cfg(test)]` items are exempt (invariants guard
//! shipping library code; see [`rules`] for the rule table).
//!
//! Suppression: append `qbm-lint: allow(<rule>)` in a plain `//`
//! comment on the offending line (or the line just above). Suppressions
//! are themselves counted and reported, so the allow-surface stays
//! visible. File-level allowances for the `float-cast` rule live in
//! [`rules::FLOAT_CAST_ALLOW`] with a recorded justification each.
//!
//! Run it three ways:
//! * `cargo run -p qbm-lint` — the standalone driver binary;
//! * `cargo test -q` — the workspace-root `lint_gate` test runs the
//!   same pass, so tier-1 testing catches regressions;
//! * CI — the `lint` job fails the build on any unsuppressed finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod emit;
pub mod model;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A single rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repository-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// What was matched, verbatim enough to locate.
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// A finding that was silenced — either by an inline
/// `qbm-lint: allow(...)` pragma or by a file-level allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Repository-relative path, forward slashes.
    pub file: String,
    /// 1-based line number of the silenced match.
    pub line: usize,
    /// The rule that would have fired.
    pub rule: &'static str,
    /// `"pragma"`, `"allowlist"`, `"cold"` (a `qbm-lint: cold(...)`
    /// pragma pruned the function from a transitive audit), or
    /// `"baseline"` (the finding is covered by the committed baseline).
    pub via: &'static str,
}

/// Outcome of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Unsuppressed violations.
    pub findings: Vec<Finding>,
    /// Silenced matches (still reported in the summary).
    pub suppressions: Vec<Suppression>,
}

/// Outcome of a whole-repository pass.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed violations, ordered by (file, line).
    pub findings: Vec<Finding>,
    /// All silenced matches, ordered by (file, line).
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan one file's source text under its repository-relative path.
///
/// This is the unit the fixture tests drive directly; [`run_repo`] is a
/// directory walk over it.
pub fn scan_file(rel: &str, src: &str) -> FileScan {
    let lines = scan::preprocess(src);
    // Pragmas on line N silence matches on lines N and N+1.
    let mut allowed: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    for (i, line) in lines.iter().enumerate() {
        for rule in scan::pragma_rules(&line.comment) {
            allowed[i].push(rule.clone());
            if i + 1 < lines.len() {
                allowed[i + 1].push(rule);
            }
        }
    }

    let mut out = FileScan::default();
    let emit = |file_scan: &mut FileScan, lineno: usize, rule, message: String, hint| {
        if allowed[lineno].iter().any(|r| r == rule) {
            file_scan.suppressions.push(Suppression {
                file: rel.to_string(),
                line: lineno + 1,
                rule,
                via: "pragma",
            });
        } else if let Some((_, _reason)) =
            rules::float_cast_allowance(rel).filter(|_| rule == rules::FLOAT_CAST)
        {
            file_scan.suppressions.push(Suppression {
                file: rel.to_string(),
                line: lineno + 1,
                rule,
                via: "allowlist",
            });
        } else {
            file_scan.findings.push(Finding {
                file: rel.to_string(),
                line: lineno + 1,
                rule,
                message,
                hint,
            });
        }
    };

    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();

        if rules::determinism_applies(rel) {
            for pat in rules::WALL_CLOCK_PATTERNS {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::WALL_CLOCK,
                        format!("`{pat}` in a determinism-critical crate"),
                        rules::WALL_CLOCK_HINT,
                    );
                }
            }
            for pat in rules::NONDET_RNG_PATTERNS {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::NONDET_RNG,
                        format!("`{pat}` in a determinism-critical crate"),
                        rules::NONDET_RNG_HINT,
                    );
                }
            }
        }

        if rules::unordered_applies(rel) {
            for pat in ["HashMap", "HashSet"] {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::UNORDERED,
                        format!(
                            "`{pat}` in qbm-sim (stats/merge paths must iterate in a fixed order)"
                        ),
                        rules::UNORDERED_HINT,
                    );
                }
            }
        }

        for (col, op) in rules::float_eq_matches(code) {
            emit(
                &mut out,
                i,
                rules::FLOAT_EQ,
                format!("float `{op}` comparison at column {col}"),
                rules::FLOAT_EQ_HINT,
            );
        }

        if rules::float_cast_applies(rel) {
            for pat in ["as f64", "as f32"] {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::FLOAT_CAST,
                        format!("`{pat}` outside the sanctioned unit boundary"),
                        rules::FLOAT_CAST_HINT,
                    );
                }
            }
        }

        if rules::sched_float_applies(rel) {
            for pat in rules::SCHED_FLOAT_PATTERNS {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::SCHED_FLOAT,
                        format!("`{pat}` virtual-time state in a production scheduler"),
                        rules::SCHED_FLOAT_HINT,
                    );
                }
            }
        }

        if rules::print_applies(rel) {
            for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::PRINT,
                        format!("`{pat}` in library code"),
                        rules::PRINT_HINT,
                    );
                }
            }
        }

        if rules::obs_wall_applies(rel) {
            for pat in rules::WALL_CLOCK_PATTERNS {
                if rules::find_word(code, pat) {
                    emit(
                        &mut out,
                        i,
                        rules::OBS_HYGIENE,
                        format!("`{pat}` outside the sanctioned profiling module"),
                        rules::OBS_WALL_HINT,
                    );
                }
            }
        }

        if rules::obs_trace_applies(rel) && rules::find_word(code, "writeln!") {
            emit(
                &mut out,
                i,
                rules::OBS_HYGIENE,
                "`writeln!` — ad-hoc trace emission in the simulator".to_string(),
                rules::OBS_TRACE_HINT,
            );
        }
    }

    if rules::is_crate_root(rel) {
        for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !lines.iter().any(|l| l.code.trim() == attr) {
                emit(
                    &mut out,
                    0,
                    rules::HYGIENE,
                    format!("crate root is missing `{attr}`"),
                    rules::HYGIENE_HINT,
                );
            }
        }
    }

    out
}

/// Reference material the exhaustiveness cross-checks read: the
/// equivalence suite, the differential tests, the generated rule docs,
/// and the fixture-corpus directory listing. A `None` field skips the
/// checks that need it (partial fixture workspaces); `Some("")` — what
/// [`run_repo`] produces when a reference file is *missing* — makes
/// them all fire, so deleting the suite is maximal drift, not silence.
#[derive(Debug, Default)]
pub struct RefSet {
    /// `tests/determinism.rs` — the 56-combo suite and golden snapshots.
    pub suite: Option<String>,
    /// `crates/sched/tests/differential.rs` — float-reference coverage.
    pub differential: Option<String>,
    /// `RULES.md` — the generated rule documentation.
    pub rules_md: Option<String>,
    /// Directory names under `crates/lint/tests/fixtures/`.
    pub fixture_ids: Option<Vec<String>>,
}

/// The workspace-level analysis pass: item model → call graph →
/// transitive hot-path/panic/index audit, sharding-safety audit, and
/// the exhaustiveness cross-checks. Complements the per-file
/// [`scan_file`] rules; [`run_repo`] runs both.
pub fn analyze_workspace(files: &[(String, String)], refs: &RefSet) -> FileScan {
    let ws = model::Workspace::build(files);
    let graph = callgraph::Graph::build(&ws);
    let hot = callgraph::reach(&ws, &graph, rules::HOT_ROOTS);
    let shard = callgraph::reach(&ws, &graph, rules::SHARD_ROOTS);
    let mut out = FileScan::default();

    // Root drift is a hard error with no pragma escape: a root that
    // matches nothing silently disarms everything downstream of it.
    let mut drifted: Vec<&String> = hot.unmatched.iter().chain(shard.unmatched.iter()).collect();
    drifted.sort();
    drifted.dedup();
    for desc in drifted {
        out.findings.push(Finding {
            file: "crates/lint/src/rules.rs".to_string(),
            line: 1,
            rule: rules::ROOT_DRIFT,
            message: format!("audit root `{desc}` matches no live function"),
            hint: rules::ROOT_DRIFT_HINT,
        });
    }

    // Cold-pruned functions are a visible suppression surface, exactly
    // like pragmas: the audit deliberately looked away.
    for (pruned, rule) in [
        (&hot.cold_pruned, rules::HOT_PATH_ALLOC),
        (&shard.cold_pruned, rules::SHARD_SAFETY),
    ] {
        for &fi in pruned.iter() {
            let f = &ws.fns[fi];
            out.suppressions.push(Suppression {
                file: ws.files[f.file].rel.clone(),
                line: f.first_line + 1,
                rule,
                via: "cold",
            });
        }
    }

    // Line pass over every fn the audits reach.
    for fm in &ws.files {
        let mut allowed: Vec<Vec<String>> = vec![Vec::new(); fm.lines.len()];
        for (i, line) in fm.lines.iter().enumerate() {
            for rule in scan::pragma_rules(&line.comment) {
                allowed[i].push(rule.clone());
                if i + 1 < fm.lines.len() {
                    allowed[i + 1].push(rule);
                }
            }
        }
        for (li, line) in fm.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some(fni) = fm.fn_of_line[li] else {
                continue;
            };
            let mut emit = |rule: &'static str, message: String, hint: &'static str| {
                if allowed[li].iter().any(|r| r == rule) {
                    out.suppressions.push(Suppression {
                        file: fm.rel.clone(),
                        line: li + 1,
                        rule,
                        via: "pragma",
                    });
                } else {
                    out.findings.push(Finding {
                        file: fm.rel.clone(),
                        line: li + 1,
                        rule,
                        message,
                        hint,
                    });
                }
            };
            let qn = ws.fns[fni].qname();
            let code = line.code.as_str();
            if hot.reachable[fni] {
                for pat in rules::HOT_PATH_ALLOC_PATTERNS {
                    if rules::find_word(code, pat) {
                        emit(
                            rules::HOT_PATH_ALLOC,
                            format!("`{pat}` in hot-path fn `{qn}`"),
                            rules::HOT_PATH_ALLOC_HINT,
                        );
                    }
                }
                for pat in rules::PANIC_METHOD_PATTERNS {
                    if code.contains(pat) {
                        emit(
                            rules::HOT_PATH_PANIC,
                            format!("`{pat}…)` in hot-path fn `{qn}`"),
                            rules::HOT_PATH_PANIC_HINT,
                        );
                    }
                }
                for pat in rules::PANIC_MACRO_PATTERNS {
                    if rules::find_word(code, pat) {
                        emit(
                            rules::HOT_PATH_PANIC,
                            format!("`{pat}` in hot-path fn `{qn}`"),
                            rules::HOT_PATH_PANIC_HINT,
                        );
                    }
                }
                for _ in 0..rules::index_exprs(code) {
                    emit(
                        rules::HOT_PATH_INDEX,
                        format!("indexing expression in hot-path fn `{qn}`"),
                        rules::HOT_PATH_INDEX_HINT,
                    );
                }
            }
            if shard.reachable[fni] {
                for pat in rules::SHARD_SAFETY_PATTERNS {
                    if rules::find_word(code, pat) {
                        emit(
                            rules::SHARD_SAFETY,
                            format!("`{pat}` in sharded fn `{qn}`"),
                            rules::SHARD_SAFETY_HINT,
                        );
                    }
                }
                if rules::find_word(code, "static mut") {
                    emit(
                        rules::SHARD_SAFETY,
                        format!("`static mut` in sharded fn `{qn}`"),
                        rules::SHARD_SAFETY_HINT,
                    );
                }
                if rules::has_atomic_token(code) {
                    emit(
                        rules::SHARD_SAFETY,
                        format!("`Atomic*` type in sharded fn `{qn}`"),
                        rules::SHARD_SAFETY_HINT,
                    );
                }
            }
        }
    }

    exhaustiveness(&ws, refs, &mut out);
    out.findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// The cross-file exhaustiveness checks (tentpole part 2): scheduler
/// and policy coverage in the equivalence suite, source dispatch
/// coverage, and the linter's own doc/fixture coverage.
fn exhaustiveness(ws: &model::Workspace, refs: &RefSet, out: &mut FileScan) {
    if let Some(suite) = refs.suite.as_deref() {
        let differential = refs.differential.as_deref();
        for im in ws
            .impls
            .iter()
            .filter(|im| im.trait_name.as_deref() == Some("Scheduler") && !im.in_test)
        {
            let is_reference = im.type_name.ends_with("Reference");
            let (hay, home) = if is_reference {
                // Float baselines live in the differential tests, not
                // the production suite.
                match differential {
                    Some(d) => (d, "crates/sched/tests/differential.rs"),
                    None => continue,
                }
            } else {
                (suite, "tests/determinism.rs")
            };
            if !rules::find_word(hay, &im.type_name) {
                out.findings.push(Finding {
                    file: ws.files[im.file].rel.clone(),
                    line: im.line + 1,
                    rule: rules::EXHAUSTIVE_SCHED,
                    message: format!(
                        "`impl Scheduler for {}` is not exercised by {home}",
                        im.type_name
                    ),
                    hint: rules::EXHAUSTIVE_SCHED_HINT,
                });
            }
        }
        for (ename, rule, hint) in [
            (
                "SchedKind",
                rules::EXHAUSTIVE_SCHED,
                rules::EXHAUSTIVE_SCHED_HINT,
            ),
            (
                "PolicyKind",
                rules::EXHAUSTIVE_POLICY,
                rules::EXHAUSTIVE_POLICY_HINT,
            ),
            (
                "SourceKind",
                rules::EXHAUSTIVE_SOURCE,
                rules::EXHAUSTIVE_SOURCE_HINT,
            ),
        ] {
            let Some(e) = ws.enum_def(ename) else {
                continue;
            };
            for (v, vline) in &e.variants {
                if !rules::find_word(suite, &format!("{ename}::{v}")) {
                    out.findings.push(Finding {
                        file: ws.files[e.file].rel.clone(),
                        line: vline + 1,
                        rule,
                        message: format!(
                            "enum variant `{ename}::{v}` never appears in tests/determinism.rs"
                        ),
                        hint,
                    });
                }
            }
        }
    }

    // Source dispatch coverage is workspace-internal: the enum, the
    // dispatch fn, and the impls are all in the tree being analyzed.
    if let Some(e) = ws.enum_def("SourceKind") {
        let kind_file = &ws.files[e.file];
        // Both dispatch surfaces must spell every variant out: a
        // wildcard arm in `next_emission` silently emits nothing, one
        // in `on_feedback` silently opens the variant's control loop.
        for fn_name in ["next_emission", "on_feedback"] {
            let dispatch = ws
                .fns
                .iter()
                .find(|f| f.name == fn_name && f.owner.as_deref() == Some("SourceKind") && !f.decl);
            match dispatch {
                Some(d) => {
                    let body: String = ws.files[d.file].lines[d.first_line..=d.last_line]
                        .iter()
                        .map(|l| l.code.as_str())
                        .collect::<Vec<_>>()
                        .join("\n");
                    for (v, vline) in &e.variants {
                        if !body.contains(&format!("SourceKind::{v}")) {
                            out.findings.push(Finding {
                                file: kind_file.rel.clone(),
                                line: vline + 1,
                                rule: rules::EXHAUSTIVE_SOURCE,
                                message: format!(
                                    "variant `SourceKind::{v}` is not dispatched in {fn_name} (wildcard arm?)"
                                ),
                                hint: rules::EXHAUSTIVE_SOURCE_HINT,
                            });
                        }
                    }
                }
                None => out.findings.push(Finding {
                    file: kind_file.rel.clone(),
                    line: 1,
                    rule: rules::EXHAUSTIVE_SOURCE,
                    message: format!("`SourceKind` has no `{fn_name}` dispatch impl"),
                    hint: rules::EXHAUSTIVE_SOURCE_HINT,
                }),
            }
        }
        let kind_code: String = kind_file
            .lines
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for im in ws.impls.iter().filter(|im| {
            im.trait_name.as_deref() == Some("Source")
                && !im.in_test
                && im.type_name != "SourceKind"
        }) {
            if !rules::find_word(&kind_code, &im.type_name) {
                out.findings.push(Finding {
                    file: ws.files[im.file].rel.clone(),
                    line: im.line + 1,
                    rule: rules::EXHAUSTIVE_SOURCE,
                    message: format!(
                        "`impl Source for {}` is not wired into the SourceKind dispatch enum",
                        im.type_name
                    ),
                    hint: rules::EXHAUSTIVE_SOURCE_HINT,
                });
            }
        }
    }

    // The linter checks itself: every registry entry needs its RULES.md
    // section and its fixture pair.
    if let Some(md) = refs.rules_md.as_deref() {
        for m in rules::REGISTRY {
            if !rules::find_word(md, m.id) {
                out.findings.push(Finding {
                    file: "RULES.md".to_string(),
                    line: 1,
                    rule: rules::EXHAUSTIVE_RULE_DOC,
                    message: format!("rule `{}` has no RULES.md entry", m.id),
                    hint: rules::EXHAUSTIVE_RULE_DOC_HINT,
                });
            }
        }
    }
    if let Some(ids) = &refs.fixture_ids {
        for m in rules::REGISTRY {
            if !ids.iter().any(|i| i == m.id) {
                out.findings.push(Finding {
                    file: "crates/lint/tests/fixtures".to_string(),
                    line: 1,
                    rule: rules::EXHAUSTIVE_RULE_DOC,
                    message: format!("rule `{}` has no fixture pair under tests/fixtures/", m.id),
                    hint: rules::EXHAUSTIVE_RULE_DOC_HINT,
                });
            }
        }
    }
}

/// Walk `<root>/crates` and `<root>/src`, scan every `.rs` file, run
/// the workspace analysis over the collected set, and aggregate.
/// `tests/`, `benches/` and `target/` directories are skipped: the
/// rules guard shipping library code, and integration tests are all
/// test code by construction (the exhaustiveness pass reads the test
/// suites as *reference text* via [`RefSet`], not as lint subjects).
pub fn run_repo(root: &Path) -> io::Result<Report> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(path)?));
    }

    let mut report = Report::default();
    for (rel, src) in &files {
        let scan = scan_file(rel, src);
        report.findings.extend(scan.findings);
        report.suppressions.extend(scan.suppressions);
        report.files_scanned += 1;
    }

    let refs = RefSet {
        suite: Some(read_or_empty(&root.join("tests/determinism.rs"))),
        differential: Some(read_or_empty(
            &root.join("crates/sched/tests/differential.rs"),
        )),
        rules_md: Some(read_or_empty(&root.join("RULES.md"))),
        fixture_ids: Some(list_dirs(&root.join("crates/lint/tests/fixtures"))),
    };
    let ws_scan = analyze_workspace(&files, &refs);
    report.findings.extend(ws_scan.findings);
    report.suppressions.extend(ws_scan.suppressions);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Read a reference file, mapping *absence* to the empty string so the
/// dependent exhaustiveness checks all fire (deleting the suite is the
/// loudest possible drift, not a silent skip).
fn read_or_empty(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Sorted subdirectory names (the fixture corpus layout is one
/// directory per rule ID).
fn list_dirs(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == "tests" || name == "benches" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_of(rel: &str, src: &str) -> Vec<&'static str> {
        scan_file(rel, src)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_flagged_in_sim_not_in_bench() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/sim/src/event.rs", src),
            vec![rules::WALL_CLOCK]
        );
        assert!(findings_of("crates/bench/src/figures.rs", src).is_empty());
    }

    #[test]
    fn entropy_rng_flagged() {
        let src = "fn t() { let mut r = rand::thread_rng(); }\n";
        assert_eq!(
            findings_of("crates/traffic/src/onoff.rs", src),
            vec![rules::NONDET_RNG]
        );
        let src2 = "fn t() { let r = ChaCha8Rng::from_entropy(); }\n";
        assert_eq!(
            findings_of("crates/core/src/flow.rs", src2),
            vec![rules::NONDET_RNG]
        );
    }

    #[test]
    fn pattern_in_string_or_comment_is_ignored() {
        let src = "fn t() { let s = \"thread_rng is banned\"; } // mentions Instant::now\n";
        assert!(findings_of("crates/sim/src/event.rs", src).is_empty());
    }

    #[test]
    fn unordered_container_flagged_only_in_sim() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            findings_of("crates/sim/src/stats.rs", src),
            vec![rules::UNORDERED]
        );
        assert!(findings_of("crates/core/src/flow.rs", src).is_empty());
    }

    #[test]
    fn float_eq_flagged_everywhere() {
        assert_eq!(
            findings_of(
                "crates/fluid/src/mux.rs",
                "fn t(x: f64) -> bool { x == 0.0 }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
        assert_eq!(
            findings_of(
                "crates/cli/src/report.rs",
                "fn t(x: f64) -> bool { 1.5 != x }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
        assert_eq!(
            findings_of(
                "crates/sim/src/stats.rs",
                "fn t(x: f64) -> bool { x == f64::EPSILON }\n"
            ),
            vec![rules::FLOAT_EQ]
        );
    }

    #[test]
    fn integer_and_field_comparisons_pass() {
        let src = "fn t(x: u64, p: (u64, u64)) -> bool { x == 0 && p.0 == p.1 && self_0.0 == 3 }\n";
        assert!(findings_of("crates/core/src/units.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "pub fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(x: f64) -> bool { x == 0.0 }\n\
                   fn clock() { let _ = std::time::Instant::now(); }\n\
                   }\n";
        assert!(findings_of("crates/sim/src/event.rs", src).is_empty());
    }

    #[test]
    fn float_cast_flagged_in_policy_allowlisted_in_red() {
        let src = "fn t(x: u64) -> f64 { x as f64 }\n";
        assert_eq!(
            findings_of("crates/core/src/policy/none.rs", src),
            vec![rules::FLOAT_CAST]
        );
        let red = scan_file("crates/core/src/policy/red.rs", src);
        assert!(red.findings.is_empty());
        assert_eq!(red.suppressions.len(), 1);
        assert_eq!(red.suppressions[0].via, "allowlist");
        // Outside the audited dirs the cast is free.
        assert!(findings_of("crates/fluid/src/mux.rs", src).is_empty());
    }

    #[test]
    fn sched_float_flagged_outside_reference_only() {
        let src = "pub struct S { vtime: f64 }\n";
        assert_eq!(
            findings_of("crates/sched/src/wfq.rs", src),
            vec![rules::SCHED_FLOAT]
        );
        // The retained float baselines are the sanctioned home.
        assert!(findings_of("crates/sched/src/reference.rs", src).is_empty());
        // Other crates are out of scope (policy floats have their own rule).
        assert!(findings_of("crates/core/src/flow.rs", src).is_empty());
        // Identifier boundaries: `as_secs_f64` is not a bare f64 token.
        let method = "fn t(d: Dur) { let _ = d.as_secs_f64(); }\n";
        assert!(findings_of("crates/sched/src/vclock.rs", method).is_empty());
        // Test modules keep their float assertion helpers.
        let test_src = "#[cfg(test)]\nmod tests {\n fn secs(x: u64) -> f64 { x as f64 }\n}\n";
        assert!(findings_of("crates/sched/src/vclock.rs", test_src).is_empty());
    }

    #[test]
    fn float_cast_in_sched_allowlisted_only_in_reference() {
        let src = "fn t(x: u64) -> f64 { x as f64 }\n";
        let r = scan_file("crates/sched/src/reference.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressions.len(), 1);
        assert_eq!(r.suppressions[0].via, "allowlist");
        // A production scheduler gets both the cast and the float ban.
        let w = findings_of("crates/sched/src/wfq.rs", src);
        assert!(w.contains(&rules::FLOAT_CAST));
        assert!(w.contains(&rules::SCHED_FLOAT));
    }

    #[test]
    fn pragma_suppresses_and_is_counted() {
        let same_line = "fn t(x: f64) -> bool { x == 0.0 } // qbm-lint: allow(float-eq)\n";
        let s = scan_file("crates/fluid/src/mux.rs", same_line);
        assert!(s.findings.is_empty());
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].via, "pragma");

        let line_above = "// qbm-lint: allow(float-eq)\n\
                          fn t(x: f64) -> bool { x == 0.0 }\n";
        let s2 = scan_file("crates/fluid/src/mux.rs", line_above);
        assert!(s2.findings.is_empty());
        assert_eq!(s2.suppressions.len(), 1);

        // A pragma for the wrong rule does not silence the finding.
        let wrong = "fn t(x: f64) -> bool { x == 0.0 } // qbm-lint: allow(wall-clock)\n";
        assert_eq!(
            findings_of("crates/fluid/src/mux.rs", wrong),
            vec![rules::FLOAT_EQ]
        );
    }

    #[test]
    fn crate_root_hygiene_enforced() {
        let bare = "//! Docs.\npub fn f() {}\n";
        let f = findings_of("crates/sim/src/lib.rs", bare);
        assert_eq!(f, vec![rules::HYGIENE, rules::HYGIENE]);
        let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert!(findings_of("crates/sim/src/lib.rs", good).is_empty());
        // Non-root files don't need the attributes.
        assert!(findings_of("crates/sim/src/event.rs", bare).is_empty());
    }

    #[test]
    fn print_hygiene_spares_binaries() {
        let src = "fn t() { println!(\"x\"); }\n";
        assert_eq!(
            findings_of("crates/sim/src/stats.rs", src),
            vec![rules::PRINT]
        );
        assert!(findings_of("crates/cli/src/bin/qbm.rs", src).is_empty());
        assert!(findings_of("crates/lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn dbg_macro_flagged() {
        let src = "fn t(x: u64) -> u64 { dbg!(x) }\n";
        assert_eq!(
            findings_of("crates/core/src/flow.rs", src),
            vec![rules::PRINT]
        );
    }

    #[test]
    fn findings_carry_location_and_hint() {
        let src = "fn a() {}\nfn t() { let _ = std::time::Instant::now(); }\n";
        let s = scan_file("crates/sim/src/event.rs", src);
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!((f.file.as_str(), f.line), ("crates/sim/src/event.rs", 2));
        assert!(!f.hint.is_empty());
        let shown = f.to_string();
        assert!(shown.contains("crates/sim/src/event.rs:2"));
        assert!(shown.contains(rules::WALL_CLOCK));
    }

    #[test]
    fn cfg_test_on_single_item_scopes_to_that_item() {
        // The attribute on one fn must not exempt the following fn.
        let src = "#[cfg(test)]\n\
                   fn helper(x: f64) -> bool { x == 0.0 }\n\
                   fn live(x: f64) -> bool { x == 1.0 }\n";
        let f = scan_file("crates/fluid/src/mux.rs", src).findings;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn obs_crate_obeys_the_wall_clock_and_rng_bans() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/obs/src/tracer.rs", src),
            vec![rules::WALL_CLOCK]
        );
        let src2 = "fn t() { let r = ChaCha8Rng::from_entropy(); }\n";
        assert_eq!(
            findings_of("crates/obs/src/probe.rs", src2),
            vec![rules::NONDET_RNG]
        );
    }

    #[test]
    fn cli_wall_clock_pinned_to_profile_module() {
        let src = "fn t() { let x = std::time::Instant::now(); }\n";
        assert_eq!(
            findings_of("crates/cli/src/report.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        assert_eq!(
            findings_of("crates/cli/src/bin/qbm.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        // The profiling module is the one sanctioned wall-clock site.
        assert!(findings_of("crates/cli/src/profile.rs", src).is_empty());
    }

    #[test]
    fn ad_hoc_writeln_traces_flagged_in_sim_and_obs() {
        let src = "fn t(w: &mut String) { writeln!(w, \"ev\").unwrap(); }\n";
        assert_eq!(
            findings_of("crates/sim/src/router.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        assert_eq!(
            findings_of("crates/obs/src/tracer.rs", src),
            vec![rules::OBS_HYGIENE]
        );
        // The report layer and binaries may write freely.
        assert!(findings_of("crates/cli/src/report.rs", src).is_empty());
        assert!(findings_of("crates/lint/src/main.rs", src).is_empty());
    }

    fn analyze(files: &[(&str, &str)], refs: &RefSet) -> FileScan {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        analyze_workspace(&owned, refs)
    }

    const NO_REFS: RefSet = RefSet {
        suite: None,
        differential: None,
        rules_md: None,
        fixture_ids: None,
    };

    fn rules_hit(scan: &FileScan, rule: &str) -> Vec<usize> {
        scan.findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn hot_path_alloc_is_transitive_two_calls_deep() {
        // The acceptance scenario: a `vec!` two calls below `run_inner`
        // must fire even though neither helper is named in any root.
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner(&mut self) { helper_a(); } }\n\
                 fn helper_a() { helper_b(); }\n\
                 fn helper_b() { let v = vec![1, 2]; }\n\
                 fn unrelated() { let v = vec![3]; }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![3]);
    }

    #[test]
    fn hot_path_panic_flags_unwrap_in_scheduler_dequeue() {
        let scan = analyze(
            &[(
                "crates/sched/src/wfq.rs",
                "impl Scheduler for Wfq {\n\
                     fn dequeue(&mut self, now: Time) -> Option<PacketRef> {\n\
                         let head = self.heap.peek().unwrap();\n\
                         Some(head.pkt)\n\
                     }\n\
                 }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_PANIC), vec![3]);
    }

    #[test]
    fn hot_path_index_counts_expressions_not_attributes() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "#[inline]\n\
                 fn advance(&mut self) {\n\
                     let x = lanes.pending[f];\n\
                     let y = [0u64; 4];\n\
                 }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_INDEX), vec![3]);
    }

    #[test]
    fn shard_safety_flags_interior_mutability_under_advance_level() {
        let scan = analyze(
            &[(
                "crates/sim/src/fabric.rs",
                "fn advance_level(engines: &mut [E]) { per_shard(); }\n\
                 fn per_shard() { let c = RefCell::new(0); }\n\
                 fn outside() { let c = RefCell::new(0); }\n",
            )],
            &NO_REFS,
        );
        assert_eq!(rules_hit(&scan, rules::SHARD_SAFETY), vec![2]);
    }

    #[test]
    fn cold_pragma_prunes_and_is_counted() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner(&mut self) { setup(); step(); } }\n\
                 // qbm-lint: cold(one-time table build)\n\
                 fn setup() { let v = vec![0; 64]; }\n\
                 fn step() { let b = Box::new(1); }\n",
            )],
            &NO_REFS,
        );
        // The cold fn's alloc is silent; the hot callee still fires.
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![4]);
        assert!(scan
            .suppressions
            .iter()
            .any(|s| s.via == "cold" && s.line == 3));
    }

    #[test]
    fn workspace_rules_honor_allow_pragmas() {
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "fn advance(&mut self) {\n\
                     // qbm-lint: allow(hot-path-alloc) — amortized growth\n\
                     let v: Vec<u32> = (0..4).collect();\n\
                     let b = Box::new(v);\n\
                 }\n",
            )],
            &NO_REFS,
        );
        // The pragma covers line 3 (`collect`) but not line 4.
        assert_eq!(rules_hit(&scan, rules::HOT_PATH_ALLOC), vec![4]);
        assert!(scan
            .suppressions
            .iter()
            .any(|s| s.via == "pragma" && s.line == 3));
    }

    #[test]
    fn root_drift_is_a_hard_error() {
        // router.rs exists but `run_inner` was renamed away.
        let scan = analyze(
            &[(
                "crates/sim/src/router.rs",
                "impl Router { fn run_inner_v2(&mut self) {} }\n\
                 fn advance() {}\n\
                 fn start_transmission() {}\n\
                 fn deliver() {}\n",
            )],
            &NO_REFS,
        );
        let drift = rules_hit(&scan, rules::ROOT_DRIFT);
        assert_eq!(drift.len(), 1);
        assert!(scan
            .findings
            .iter()
            .any(|f| f.rule == rules::ROOT_DRIFT && f.message.contains("run_inner")));
    }

    #[test]
    fn exhaustive_sched_flags_missing_suite_coverage() {
        let files = [(
            "crates/sched/src/fancy.rs",
            "impl Scheduler for Fancy {\n fn name(&self) -> &'static str { \"fancy\" }\n}\n",
        )];
        let covered = RefSet {
            suite: Some("(\"fancy\", SchedKind::Fancy { x: 1 }), Fancy".to_string()),
            differential: Some(String::new()),
            ..Default::default()
        };
        assert!(rules_hit(&analyze(&files, &covered), rules::EXHAUSTIVE_SCHED).is_empty());
        // Deleting the scheduler from the suite text → finding.
        let dropped = RefSet {
            suite: Some("(\"wfq\", SchedKind::Wfq)".to_string()),
            differential: Some(String::new()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&files, &dropped), rules::EXHAUSTIVE_SCHED),
            vec![1]
        );
    }

    #[test]
    fn exhaustive_sched_routes_references_to_differential() {
        let files = [(
            "crates/sched/src/reference.rs",
            "impl Scheduler for WfqReference {\n fn name(&self) -> &'static str { \"r\" }\n}\n",
        )];
        let ok = RefSet {
            suite: Some(String::new()),
            differential: Some("check(WfqReference::new())".to_string()),
            ..Default::default()
        };
        assert!(rules_hit(&analyze(&files, &ok), rules::EXHAUSTIVE_SCHED).is_empty());
        let missing = RefSet {
            suite: Some("WfqReference mentioned here does not count".to_string()),
            differential: Some(String::new()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&files, &missing), rules::EXHAUSTIVE_SCHED),
            vec![1]
        );
    }

    #[test]
    fn exhaustive_policy_flags_unlisted_variants() {
        let files = [(
            "crates/core/src/policy/mod.rs",
            "pub enum PolicyKind {\n    Threshold,\n    Red { seed: u64 },\n}\n",
        )];
        let partial = RefSet {
            suite: Some("PolicyKind::Threshold".to_string()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&files, &partial), rules::EXHAUSTIVE_POLICY),
            vec![3]
        );
    }

    #[test]
    fn exhaustive_source_flags_wildcard_dispatch_and_unwired_impls() {
        let scan = analyze(
            &[
                (
                    "crates/traffic/src/kind.rs",
                    "pub enum SourceKind {\n\
                         Cbr(CbrSource),\n\
                         Poisson(PoissonSource),\n\
                     }\n\
                     impl Source for SourceKind {\n\
                         fn next_emission(&mut self) -> Option<Emission> {\n\
                             match self {\n\
                                 SourceKind::Cbr(s) => s.next_emission(),\n\
                                 _ => None,\n\
                             }\n\
                         }\n\
                         fn on_feedback(&mut self, now: Time, fb: Feedback) -> Option<Time> {\n\
                             match self {\n\
                                 SourceKind::Cbr(s) => s.on_feedback(now, fb),\n\
                                 _ => None,\n\
                             }\n\
                         }\n\
                     }\n",
                ),
                (
                    "crates/traffic/src/burst.rs",
                    "impl Source for BurstSource {\n\
                         fn next_emission(&mut self) -> Option<Emission> { None }\n\
                     }\n",
                ),
            ],
            &NO_REFS,
        );
        let f = rules_hit(&scan, rules::EXHAUSTIVE_SOURCE);
        // Poisson falls into both wildcard arms (next_emission and
        // on_feedback); BurstSource is unwired.
        assert_eq!(f.len(), 3);
        assert!(scan
            .findings
            .iter()
            .any(|x| x.message.contains("SourceKind::Poisson")));
        assert!(scan
            .findings
            .iter()
            .any(|x| x.message.contains("BurstSource")));
    }

    #[test]
    fn exhaustive_rule_doc_covers_registry() {
        let all_ids: Vec<String> = rules::REGISTRY.iter().map(|m| m.id.to_string()).collect();
        let full_md = all_ids
            .iter()
            .map(|i| format!("## `{i}`"))
            .collect::<Vec<_>>()
            .join("\n");
        let ok = RefSet {
            rules_md: Some(full_md.clone()),
            fixture_ids: Some(all_ids.clone()),
            ..Default::default()
        };
        assert!(rules_hit(&analyze(&[], &ok), rules::EXHAUSTIVE_RULE_DOC).is_empty());
        // Empty docs/fixtures → one finding per registry entry each.
        let none = RefSet {
            rules_md: Some(String::new()),
            fixture_ids: Some(Vec::new()),
            ..Default::default()
        };
        assert_eq!(
            rules_hit(&analyze(&[], &none), rules::EXHAUSTIVE_RULE_DOC).len(),
            2 * rules::REGISTRY.len()
        );
    }

    #[test]
    fn raw_strings_and_chars_do_not_confuse_the_scanner() {
        let src = "fn t() -> (char, &'static str) { ('\"', r#\"Instant::now HashMap\"#) }\n";
        assert!(findings_of("crates/sim/src/stats.rs", src).is_empty());
    }
}
