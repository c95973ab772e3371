//! The deep lint tier: interprocedural determinism taint analysis.
//!
//! The shallow line rules catch a wall-clock read *inside* a serialization
//! function, but not one laundered through a helper: `fn now_ms()` reads
//! the clock, `fn render_report()` calls it, and every line looks innocent
//! on its own. This pass closes that hole. It classifies nondeterminism
//! *sources* (wall-clock reads, ambient RNG, hash-ordered iteration,
//! thread-id/env reads, address-as-value casts), marks artifact *sinks*
//! (report/JSON serializers, wire/snapshot encoders, golden writers —
//! `rules::is_deep_sink`), and walks the workspace
//! call graph ([`crate::graph`]) from each source's enclosing function up
//! through its callers. Any sink that can reach the source is a diagnostic,
//! anchored at the source site with the full witness chain.
//!
//! Escape hatches are deliberately separate from the shallow tier's: a
//! shallow `allow(wall-clock-in-sim)` says "this read is justified where
//! it happens"; it says nothing about where the value flows. Only
//! `allow(tainted-artifact-path)` at the source (or the sink declaration),
//! `allow-file(tainted-artifact-path)`, or a
//! `sanitize(tainted-artifact-path)` barrier on an intermediate function
//! silences the deep tier.

use crate::context::FileContext;
use crate::graph::CallGraph;
use crate::rules::{self, ChainHop, Violation, DEEP_RULE};
use crate::scrub::{scrub, Scrubbed};
use std::collections::VecDeque;

/// What kind of nondeterminism a source site introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant::now` / `SystemTime::now`.
    WallClock,
    /// `thread_rng` / `rand::random` / `from_entropy`.
    AmbientRng,
    /// Iteration over a hash-ordered map/set binding.
    HashIter,
    /// Thread identity or environment read.
    ThreadEnv,
    /// Pointer/address cast to an integer value.
    AddrCast,
}

impl SourceKind {
    fn describe(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock read",
            SourceKind::AmbientRng => "ambient randomness",
            SourceKind::HashIter => "hash-ordered iteration",
            SourceKind::ThreadEnv => "thread/env read",
            SourceKind::AddrCast => "address-as-value cast",
        }
    }
}

/// One nondeterminism source site.
#[derive(Debug, Clone)]
pub struct Source {
    /// What kind of nondeterminism this site introduces.
    pub kind: SourceKind,
    /// Index into the analysis' file list.
    pub file: usize,
    /// 0-based line.
    pub line: usize,
    /// The matched token / identifier, for the diagnostic.
    pub what: String,
}

/// Aggregate counters for `lint --stats`.
#[derive(Debug, Default, Clone)]
pub struct DeepStats {
    /// Files analyzed.
    pub files: usize,
    /// Source lines analyzed.
    pub lines: usize,
    /// Functions in the call graph.
    pub functions: usize,
    /// Call sites extracted.
    pub call_sites: usize,
    /// Resolved (deduplicated) call edges.
    pub edges: usize,
    /// Source sites found (after allow filtering).
    pub sources: usize,
    /// Artifact-sink functions.
    pub sinks: usize,
}

/// Result of the deep pass over a set of files.
pub struct DeepAnalysis {
    /// Confirmed source→sink flows, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Flows or sources silenced by a `tainted-artifact-path` allow:
    /// (workspace-relative file, 0-based line the allow matched at).
    pub suppressed: Vec<(String, usize)>,
    /// Aggregate counters for `--stats`.
    pub stats: DeepStats,
}

/// Wall-clock source tokens (same set the shallow rule matches).
const WALL_CLOCK: &[&str] = &["Instant::now(", "SystemTime::now("];
/// Ambient-RNG source tokens.
const AMBIENT_RNG: &[&str] = &["thread_rng(", "rand::random", "from_entropy("];
/// Thread-identity / environment reads: each makes the value depend on the
/// host or scheduler, not on (config, seed).
const THREAD_ENV: &[&str] = &[
    "env::var(",
    "env::var_os(",
    "available_parallelism(",
    "thread::current(",
];

/// Run the deep analysis over `(workspace-relative path, source)` pairs.
/// This is the in-memory entry point the fixture tests use;
/// [`crate::lint_workspace_deep`] feeds it the real tree.
pub fn analyze(files: &[(String, String)]) -> DeepAnalysis {
    let scrubbed: Vec<(String, Scrubbed)> =
        files.iter().map(|(p, s)| (p.clone(), scrub(s))).collect();
    let contexts: Vec<FileContext> = scrubbed
        .iter()
        .map(|(_, s)| FileContext::build(s))
        .collect();
    let graph = CallGraph::build(&scrubbed);

    let mut stats = DeepStats {
        files: files.len(),
        lines: scrubbed.iter().map(|(_, s)| s.code.lines().count()).sum(),
        functions: graph.fns.len(),
        call_sites: graph.calls.len(),
        edges: graph.edges.len(),
        ..DeepStats::default()
    };

    let mut suppressed = Vec::new();
    let sources = find_sources(&scrubbed, &contexts, &mut suppressed);
    stats.sources = sources.len();

    // Per-function flags, computed once.
    let file_index = |path: &str| scrubbed.iter().position(|(p, _)| p == path);
    let mut is_sink = vec![false; graph.fns.len()];
    let mut is_barrier = vec![false; graph.fns.len()];
    let mut sink_allowed = vec![false; graph.fns.len()];
    for (i, f) in graph.fns.iter().enumerate() {
        is_sink[i] = !f.in_tests && rules::is_deep_sink(&f.file, &f.name);
        if let Some(fi) = file_index(&f.file) {
            let ctx = &contexts[fi];
            // Test functions consume artifacts rather than produce them, so
            // chains neither start in, end at, nor pass through them.
            is_barrier[i] = f.in_tests || ctx.is_sanitized(DEEP_RULE, f.decl_line);
            sink_allowed[i] = ctx.is_allowed(DEEP_RULE, f.decl_line);
        }
    }
    stats.sinks = is_sink.iter().filter(|s| **s).count();

    let mut violations = Vec::new();
    for src in &sources {
        let (path, _) = &scrubbed[src.file];
        let Some(origin) = graph.fn_at(path, src.line) else {
            // A source outside any function body (e.g. a const initializer)
            // has no call chain to walk.
            continue;
        };
        if is_barrier[origin] || graph.fns[origin].in_tests {
            // The enclosing function is declared a sanitizer (it consumes
            // the nondeterminism without leaking it) or is a test.
            continue;
        }
        flows_from(
            src,
            origin,
            &graph,
            &is_sink,
            &is_barrier,
            &sink_allowed,
            &mut violations,
            &mut suppressed,
        );
    }
    violations.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    DeepAnalysis {
        violations,
        suppressed,
        stats,
    }
}

/// Scan every file for source sites. Sites already justified with a
/// `tainted-artifact-path` allow are recorded as suppressed (they consume
/// the allow for `--stats`) and dropped.
fn find_sources(
    scrubbed: &[(String, Scrubbed)],
    contexts: &[FileContext],
    suppressed: &mut Vec<(String, usize)>,
) -> Vec<Source> {
    let mut sources = Vec::new();
    for (fi, (path, s)) in scrubbed.iter().enumerate() {
        let ctx = &contexts[fi];
        for (idx, line) in s.code.lines().enumerate() {
            let mut sites: Vec<(SourceKind, String)> = Vec::new();
            for (kind, tokens) in [
                (SourceKind::WallClock, WALL_CLOCK),
                (SourceKind::AmbientRng, AMBIENT_RNG),
                (SourceKind::ThreadEnv, THREAD_ENV),
            ] {
                for token in tokens {
                    if let Some(pos) = line.find(token) {
                        if rules::starts_token(line, pos) {
                            sites.push((kind, token.trim_end_matches('(').to_string()));
                        }
                    }
                }
            }
            for ident in rules::hash_iteration_idents(line, ctx) {
                sites.push((SourceKind::HashIter, ident.to_string()));
            }
            if addr_as_value(line) {
                sites.push((SourceKind::AddrCast, "pointer-to-integer cast".to_string()));
            }
            for (kind, what) in sites {
                if ctx.is_allowed(DEEP_RULE, idx) {
                    suppressed.push((path.clone(), idx));
                } else {
                    sources.push(Source {
                        kind,
                        file: fi,
                        line: idx,
                        what,
                    });
                }
            }
        }
    }
    sources
}

/// Does this line cast a pointer/address to an integer? Addresses vary per
/// run under ASLR, so an address used as a value (hash input, tie-breaker,
/// id) is nondeterministic even with everything else pinned.
fn addr_as_value(line: &str) -> bool {
    let casts_int = line.contains(" as usize") || line.contains(" as u64");
    let pointerish = line.contains("as_ptr(") || line.contains("*const") || line.contains("*mut");
    casts_int && pointerish
}

/// BFS the reverse call graph from the source's enclosing function; every
/// sink reached yields one diagnostic with its witness chain.
#[allow(clippy::too_many_arguments)]
fn flows_from(
    src: &Source,
    origin: usize,
    graph: &CallGraph,
    is_sink: &[bool],
    is_barrier: &[bool],
    sink_allowed: &[bool],
    violations: &mut Vec<Violation>,
    suppressed: &mut Vec<(String, usize)>,
) {
    // prev[f] = (callee we came from, 0-based call line in f) — the BFS
    // tree, used to reconstruct the witness chain.
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; graph.fns.len()];
    let mut visited = vec![false; graph.fns.len()];
    let mut queue = VecDeque::new();
    visited[origin] = true;
    queue.push_back(origin);
    while let Some(f) = queue.pop_front() {
        if is_sink[f] {
            if sink_allowed[f] {
                suppressed.push((graph.fns[f].file.clone(), graph.fns[f].decl_line));
            } else {
                violations.push(diagnose(src, origin, f, &prev, graph));
            }
            // A sink's callers may be sinks too; keep walking.
        }
        for &(caller, call_line) in &graph.reverse[f] {
            if visited[caller] || is_barrier[caller] {
                continue;
            }
            visited[caller] = true;
            prev[caller] = Some((f, call_line));
            queue.push_back(caller);
        }
    }
}

/// Build the diagnostic for one source→sink flow.
fn diagnose(
    src: &Source,
    origin: usize,
    sink: usize,
    prev: &[Option<(usize, usize)>],
    graph: &CallGraph,
) -> Violation {
    // Walk sink -> origin through the BFS tree, then flip so the chain
    // reads source-outward.
    let mut hops = Vec::new();
    let mut at = sink;
    while at != origin {
        let (from, call_line) = prev[at].expect("BFS tree reaches origin");
        hops.push(ChainHop {
            function: graph.fns[at].display_name(),
            file: graph.fns[at].file.clone(),
            line: call_line + 1,
        });
        at = from;
    }
    hops.push(ChainHop {
        function: graph.fns[origin].display_name(),
        file: graph.fns[origin].file.clone(),
        line: src.line + 1,
    });
    hops.reverse();
    let sink_def = &graph.fns[sink];
    let origin_def = &graph.fns[origin];
    let via = if hops.len() > 2 {
        format!(" via {} call(s)", hops.len() - 1)
    } else {
        String::new()
    };
    Violation {
        rule: DEEP_RULE,
        file: origin_def.file.clone(),
        line: src.line + 1,
        message: format!(
            "{} `{}` in `{}` reaches artifact sink `{}` ({}:{}){via} — thread the value \
             from (config, seed) or justify with allow({DEEP_RULE})",
            src.kind.describe(),
            src.what,
            origin_def.display_name(),
            sink_def.display_name(),
            sink_def.file,
            sink_def.decl_line + 1,
        ),
        chain: hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> DeepAnalysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze(&owned)
    }

    #[test]
    fn direct_source_in_sink_is_flagged() {
        let a = run(&[(
            "crates/a/src/report.rs",
            "pub fn render_report() {\n    let t = Instant::now();\n}\n",
        )]);
        assert_eq!(a.violations.len(), 1);
        let v = &a.violations[0];
        assert_eq!(v.rule, DEEP_RULE);
        assert_eq!(v.line, 2);
        assert_eq!(v.chain.len(), 1);
    }

    #[test]
    fn one_hop_laundering_is_flagged_with_chain() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "fn now_ms() -> u64 {\n    Instant::now().elapsed().as_millis() as u64\n}\npub fn render_report() {\n    let t = now_ms();\n}\n",
        )]);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        let v = &a.violations[0];
        assert_eq!(v.chain.len(), 2);
        assert_eq!(v.chain[0].function, "now_ms");
        assert_eq!(v.chain[1].function, "render_report");
    }

    #[test]
    fn source_with_no_path_to_sink_is_clean() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "fn jitter() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\nfn poll_loop() {\n    let j = jitter();\n}\n",
        )]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn allow_at_source_suppresses_and_is_recorded() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "fn now_ms() -> u64 {\n    // probenet-lint: allow(tainted-artifact-path) bench wall time is deliberately host data\n    Instant::now().elapsed().as_millis() as u64\n}\npub fn render_report() {\n    let t = now_ms();\n}\n",
        )]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.suppressed.len(), 1);
    }

    #[test]
    fn shallow_allow_does_not_silence_deep() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "fn now_ms() -> u64 {\n    // probenet-lint: allow(wall-clock-in-sim) observability\n    Instant::now().elapsed().as_millis() as u64\n}\npub fn render_report() {\n    let t = now_ms();\n}\n",
        )]);
        assert_eq!(
            a.violations.len(),
            1,
            "shallow allow must not leak into deep tier"
        );
    }

    #[test]
    fn sanitize_barrier_blocks_propagation() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "fn now_ms() -> u64 {\n    Instant::now().elapsed().as_millis() as u64\n}\n// probenet-lint: sanitize(tainted-artifact-path) logs to stderr only\nfn log_progress() {\n    let t = now_ms();\n}\npub fn render_report() {\n    log_progress();\n}\n",
        )]);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn env_and_hash_sources_are_detected() {
        let a = run(&[(
            "crates/a/src/lib.rs",
            "pub fn snapshot_counts(m: &HashMap<u32, u32>) {\n    let threads = std::env::var(\"T\");\n    let counts: HashMap<u32, u32> = HashMap::new();\n    for k in counts.keys() {\n    }\n}\n",
        )]);
        let kinds: Vec<&str> = a
            .violations
            .iter()
            .map(|v| v.message.split(' ').next().unwrap())
            .collect();
        assert!(a.violations.len() >= 2, "{kinds:?}");
    }

    #[test]
    fn cross_file_chain_reports_hops_in_order() {
        let a = run(&[
            (
                "crates/a/src/clockish.rs",
                "pub fn stamp() -> u64 {\n    SystemTime::now().elapsed().unwrap().as_secs()\n}\n",
            ),
            (
                "crates/b/src/report.rs",
                "pub fn write_summary() {\n    let s = probenet_a::stamp();\n}\n",
            ),
        ]);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        let v = &a.violations[0];
        assert_eq!(v.file, "crates/a/src/clockish.rs");
        assert_eq!(v.chain[0].file, "crates/a/src/clockish.rs");
        assert_eq!(v.chain[1].file, "crates/b/src/report.rs");
    }
}
