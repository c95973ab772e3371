//! The `probenet-lint` rules: six shallow line rules plus the deep
//! interprocedural `tainted-artifact-path` tier (see [`crate::taint`]).
//!
//! Each rule has a stable kebab-case id (used in diagnostics and in
//! `probenet-lint: allow(<id>)` escape comments), a one-line summary, and
//! a longer `--explain` text with the invariant it protects and an example
//! fix. Matching runs over scrubbed source (no strings/comments) with the
//! per-file context from [`crate::context`].

use crate::context::FileContext;
use crate::scrub::Scrubbed;

/// A single rule violation, ready to print as `file:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Why this site is a violation.
    pub message: String,
    /// Deep tier only: the witness call chain from the source's enclosing
    /// function up to the artifact sink. Empty for shallow line rules.
    pub chain: Vec<ChainHop>,
}

/// One hop of a deep-tier witness chain.
#[derive(Debug, Clone)]
pub struct ChainHop {
    /// Function display name (`Type::name` or `name`).
    pub function: String,
    /// Workspace-relative file holding the function.
    pub file: String,
    /// 1-based line: the source site for the first hop, the call site of
    /// the previous hop's function for every later hop.
    pub line: usize,
}

/// Description of one lint rule.
pub struct RuleInfo {
    /// Stable kebab-case id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form rationale + example fix, printed by `--explain`.
    pub explain: &'static str,
}

/// All rules, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondeterministic-iteration",
        summary: "no HashMap/HashSet iteration in code that feeds serialization, digests, or golden artifacts",
        explain: "\
Golden traces, collector reports and FNV record digests are byte-compared
across runs and across PROBENET_THREADS settings, so any map iteration on
their data path must have a deterministic order. `HashMap`/`HashSet`
iteration order is randomized per process; one unordered loop feeding a
report silently breaks byte-identity the next time the hasher seed moves.

The rule fires on `.iter()/.keys()/.values()/.into_iter()/.drain()` (and
`for .. in &m`) over hash-typed bindings inside serialization contexts:
functions whose names look like serialization (`to_json`, `snapshot`,
`render`, `report`, `digest`, `write_*`, `fmt`, ...) or files on the
report/wire path.

Fix: use `BTreeMap`/`BTreeSet`, or collect and sort explicitly before
iterating:

    let mut keys: Vec<_> = map.keys().collect();
    keys.sort();
    for k in keys { ... }

If the iteration provably cannot affect ordering (e.g. it only sums a
commutative integer), annotate the line:

    // probenet-lint: allow(nondeterministic-iteration) <why it is safe>",
    },
    RuleInfo {
        id: "wall-clock-in-sim",
        summary: "no Instant::now/SystemTime outside the wall-clock allowlist",
        explain: "\
The simulator, the analysis pipeline and every artifact renderer must be a
pure function of (config, seed): DESIGN.md pins replay equality at
PROBENET_THREADS in {1,4,8} and byte-stable golden traces. A stray
`Instant::now()`/`SystemTime::now()` smuggles wall-clock time into that
function and the divergence only shows up when a golden test flakes.

Legitimate wall-clock sites exist: the real-UDP probe tool genuinely
timestamps packets (`crates/netdyn/src/udp.rs`), and the engine/bench
harness reports wall-time statistics that are observability, not data
(`crates/sim/src/engine.rs`, `crates/bench`). Those sites carry an
annotation naming their justification:

    // probenet-lint: allow(wall-clock-in-sim) real probe timestamps
    let epoch = Instant::now();

Fix for everything else: thread simulated time (`SimTime`) or an explicit
timestamp parameter through instead of reading the host clock.",
    },
    RuleInfo {
        id: "ambient-rng",
        summary: "no thread_rng/rand::random; randomness flows from seeded splitmix64 streams",
        explain: "\
Every random draw in probenet comes from a per-(port, purpose) splitmix64
stream derived from the experiment seed, so a campaign replays bit-for-bit
(DESIGN.md). `rand::thread_rng()`, `rand::random()` and `from_entropy()`
are ambient entropy: they cannot be replayed, and a single call anywhere
in a sim path destroys determinism for the whole artifact chain.

Fix: take an explicit `&mut` RNG (or a seed) as a parameter and derive it
from the experiment seed, e.g.

    let mut rng = SplitMix64::new(seed ^ PORT_SALT);

Tests that genuinely want ambient entropy (none today) must annotate:

    // probenet-lint: allow(ambient-rng) <why replay does not matter here>",
    },
    RuleInfo {
        id: "order-sensitive-float-fold",
        summary: "f64 sum/fold in merge/snapshot paths must declare reduction-order safety",
        explain: "\
`EstimatorBank::merge` must equal the serial fold bitwise (DESIGN.md
§11) — that is what lets multi-host shards combine exactly. Float addition
is not associative, so an `f64` `.sum()`/`.fold()` inside a merge or
snapshot path is only correct if its reduction order is fixed (a `Vec` in
stored order) — never if the order depends on thread completion or map
iteration.

The rule fires on `.sum()`/`.fold()` in functions whose name contains
`merge` or `snapshot` when the element type is floating (or not provably
integral). Make integer reductions explicit with a turbofish —
`.sum::<u64>()` — and annotate float reductions whose order is fixed:

    // probenet-lint: allow(order-sensitive-float-fold) Vec order is stored order
    let total: f64 = self.parts.iter().sum::<f64>();

If the order is NOT fixed, restructure: fold in key order (BTreeMap), or
keep per-shard partials and combine them in a canonical sequence.",
    },
    RuleInfo {
        id: "truncating-cast-in-wire",
        summary: "no lossy `as` casts in wire codecs or report serialization",
        explain: "\
Wire codecs round-trip and golden artifacts are byte-compared; a lossy
`value as u16` silently wraps out-of-range values instead of failing, and
the corruption ships in the encoded bytes. In `crates/wire`, the merge
daemon (`crates/merged`), the queueing/traffic model crates (their
outputs feed the reproduction's tables), and the report serialization
files the rule flags `as u8/u16/u32/i8/i16/i32`.

Fix: use the checked conversions —

    let len = u16::try_from(payload.len()).expect(\"datagram fits u16\");

— or, where truncation IS the specified wire behavior (checksum folding,
splitting a u48 into u16/u32 halves), annotate it:

    // probenet-lint: allow(truncating-cast-in-wire) checksum folds mod 2^16
    !(sum as u16)",
    },
    RuleInfo {
        id: "unordered-partition-merge",
        summary: "cross-partition merges must declare their fixed partition order",
        explain: "\
The parallel engine's contract is byte-identity with the serial run at any
partition count (DESIGN.md §13): after the partitions quiesce, their
per-partition results are concatenated into one outcome, and that merge is
only reproducible if it iterates partitions in a fixed order independent
of thread completion. An `.extend(..)`/`.append(..)` that collects
per-partition data in whatever order workers finish silently reorders
deliveries and breaks every downstream golden artifact.

The rule fires on `.extend(`/`.extend_from_slice(`/`.append(` inside
partition-merge contexts: functions whose name mentions `partition`, or
merge functions in the parallel module.

Fix: iterate the partition results by ascending partition index (or
another order fixed at partition time), then declare it:

    // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
    deliveries.extend(e.deliveries().iter().cloned());

The annotation is the declaration — an undeclared merge is assumed
scheduling-dependent until proven otherwise.",
    },
    RuleInfo {
        id: "tainted-artifact-path",
        summary: "deep tier: no call chain from a nondeterminism source to an artifact sink",
        explain: "\
This is the interprocedural tier (`cargo xtask lint --deep`): a from-
scratch lexer and call-graph walk over the whole workspace, classifying
nondeterminism *sources* (wall-clock reads, ambient RNG, HashMap/HashSet
iteration, thread-id/env reads, address-as-value casts) and artifact
*sinks* (report/JSON serializers, wire::snapshot encoders, golden
writers), and reporting every source that can reach a sink through the
call graph — the laundered-through-a-helper case the shallow
line rules provably cannot see.

The diagnostic anchors at the source site and prints the full call chain
to the sink. Shallow per-rule allows do NOT silence this rule: a wall-
clock read justified as \"observability only\" is exactly the site whose
value must not flow into a byte-compared artifact, so the deep tier keeps
watching it.

Fix: thread the value through as an explicit parameter derived from
(config, seed), or cut the chain. If the flow is intentional (real probe
timestamps ARE the measurement; bench wall-times are deliberately
host-dependent output), justify it where it originates:

    // probenet-lint: allow(tainted-artifact-path) probe timestamps are the data
    let epoch = Instant::now();

or mark a function that consumes nondeterminism without leaking it into
its return value or output parameters as a barrier:

    // probenet-lint: sanitize(tainted-artifact-path) logs wall time to stderr only
    fn log_progress(...) { ... }

`allow-file(tainted-artifact-path)` scopes the justification to a whole
module (the pattern used by crates/live/src/clock.rs).",
    },
];

/// Rule id of the deep interprocedural tier.
pub const DEEP_RULE: &str = "tainted-artifact-path";

/// Look up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Function-name fragments that mark a serialization/digest context for
/// `nondeterministic-iteration`.
const SERIALIZATION_FNS: &[&str] = &[
    "to_json",
    "to_wire",
    "to_bytes",
    "serialize",
    "render",
    "report",
    "snapshot",
    "digest",
    "golden",
    "encode",
    "emit",
    "write",
    "fmt",
    "to_csv",
];

/// File stems that are always serialization context (the report/wire path).
const SERIALIZATION_FILES: &[&str] = &["report.rs", "trace.rs", "csv.rs", "collector.rs"];

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn in_wire_crate(path: &str) -> bool {
    // The merge daemon folds decoded wire state and re-renders byte-compared
    // reports, so it is held to the same no-lossy-cast bar as the codecs.
    // The mesh crate encodes hop-annotated frames and renders the golden
    // mesh artifact, which puts it on the same byte-compared path.
    // The live reactor encodes probe packets onto real sockets and tags
    // sequence numbers into a packed lane/slot wire format — a lossy cast
    // there corrupts the probe stream itself.
    path.contains("crates/wire/src")
        || path.contains("crates/merged/src")
        || path.contains("crates/mesh/src")
        || path.contains("crates/live/src")
}

/// Queueing/traffic model crates: their outputs (workload estimates, batch
/// parameters, interarrival streams) feed the reproduction's tables and
/// golden artifacts, so the lossy-cast and partition-merge rules extend to
/// them even though they hold no wire codecs themselves.
fn in_model_crate(path: &str) -> bool {
    path.contains("crates/queueing/src") || path.contains("crates/traffic/src")
}

fn is_serialization_file(path: &str) -> bool {
    in_wire_crate(path) || SERIALIZATION_FILES.contains(&file_name(path))
}

fn is_serialization_fn(name: &str) -> bool {
    !name.is_empty() && SERIALIZATION_FNS.iter().any(|f| name.contains(f))
}

/// Artifact-sink predicate for the deep tier: functions whose output is (or
/// feeds) a byte-compared artifact — report/JSON serializers, wire/snapshot
/// encoders, golden writers. Name fragments are shared with
/// the shallow serialization-context rule; file scope is the report/wire
/// path only (NOT the whole live/mesh cast scope — a reactor poll loop is
/// not a sink just because its crate holds codecs).
pub(crate) fn is_deep_sink(path: &str, fn_name: &str) -> bool {
    is_serialization_fn(fn_name)
        || SERIALIZATION_FILES.contains(&file_name(path))
        || path.contains("crates/wire/src")
}

/// Byte-boundary check: `code[at]` starts a standalone token (not the tail
/// of a longer identifier).
pub(crate) fn starts_token(code: &str, at: usize) -> bool {
    at == 0 || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_'
}

/// Hits from one file: the violations to report plus the hits an allow
/// directive suppressed (0-based line), which feed the `--stats` consumed/
/// unused-allow accounting.
#[derive(Default)]
pub struct CheckOutcome {
    /// Violations to report.
    pub violations: Vec<Violation>,
    /// Hits silenced by an allow directive: (rule id, 0-based line).
    pub suppressed: Vec<(&'static str, usize)>,
}

/// Collector threaded through the matchers so a suppressed hit is
/// recorded instead of dropped.
struct Hits<'a> {
    out: &'a mut CheckOutcome,
}

/// Run every rule over one scrubbed file. `path` is workspace-relative.
pub fn check_file(path: &str, s: &Scrubbed, ctx: &FileContext) -> Vec<Violation> {
    check_file_full(path, s, ctx).violations
}

/// Like [`check_file`] but also returns the allow-suppressed hits.
pub fn check_file_full(path: &str, s: &Scrubbed, ctx: &FileContext) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let mut hits = Hits { out: &mut outcome };
    for (idx, line) in s.code.lines().enumerate() {
        nondeterministic_iteration(path, idx, line, ctx, &mut hits);
        wall_clock_in_sim(path, idx, line, ctx, &mut hits);
        ambient_rng(path, idx, line, ctx, &mut hits);
        order_sensitive_float_fold(path, idx, line, ctx, &mut hits);
        truncating_cast_in_wire(path, idx, line, ctx, &mut hits);
        unordered_partition_merge(path, idx, line, ctx, &mut hits);
    }
    outcome
}

fn push(
    out: &mut Hits<'_>,
    ctx: &FileContext,
    rule: &'static str,
    path: &str,
    idx: usize,
    message: String,
) {
    if ctx.is_allowed(rule, idx) {
        out.out.suppressed.push((rule, idx));
    } else {
        out.out.violations.push(Violation {
            rule,
            file: path.to_string(),
            line: idx + 1,
            message,
            chain: Vec::new(),
        });
    }
}

fn nondeterministic_iteration(
    path: &str,
    idx: usize,
    line: &str,
    ctx: &FileContext,
    out: &mut Hits<'_>,
) {
    const RULE: &str = "nondeterministic-iteration";
    if !(is_serialization_file(path) || is_serialization_fn(ctx.fn_at(idx))) {
        return;
    }
    for ident in hash_iteration_idents(line, ctx) {
        push(
            out,
            ctx,
            RULE,
            path,
            idx,
            format!(
                "iteration over hash-ordered `{ident}` in serialization context \
                 `{}` — use BTreeMap/BTreeSet or sort first",
                ctx.fn_at(idx)
            ),
        );
    }
}

/// Hash-typed identifiers iterated on this line, one entry per iteration
/// site. Shared by the shallow serialization-context rule above and the
/// deep taint pass's source scan (which matches anywhere, not just in
/// serialization contexts).
pub(crate) fn hash_iteration_idents<'a>(line: &str, ctx: &'a FileContext) -> Vec<&'a str> {
    const ITER_CALLS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
    ];
    let mut found = Vec::new();
    for ident in &ctx.hash_idents {
        // `m.iter()`, `self.m.keys()`, ... with a token boundary before m.
        for call in ITER_CALLS {
            let needle = format!("{ident}{call}");
            let mut from = 0;
            while let Some(pos) = line[from..].find(&needle) {
                let at = from + pos;
                from = at + ident.len();
                if starts_token(line, at) {
                    found.push(ident.as_str());
                }
            }
        }
        // `for x in &m`, `for (k, v) in &mut self.m`, `for x in m`, ...
        for pat in [
            format!("in &{ident}"),
            format!("in &mut {ident}"),
            format!("in &self.{ident}"),
            format!("in &mut self.{ident}"),
            format!("in self.{ident}"),
            format!("in {ident}"),
        ] {
            if let Some(pos) = line.find(&pat) {
                let end = pos + pat.len();
                let boundary = line
                    .as_bytes()
                    .get(end)
                    .is_none_or(|b| !b.is_ascii_alphanumeric() && *b != b'_')
                    && starts_token(line, pos);
                if boundary {
                    found.push(ident.as_str());
                }
            }
        }
    }
    found
}

fn wall_clock_in_sim(path: &str, idx: usize, line: &str, ctx: &FileContext, out: &mut Hits<'_>) {
    const RULE: &str = "wall-clock-in-sim";
    for token in ["Instant::now(", "SystemTime::now("] {
        if let Some(pos) = line.find(token) {
            if starts_token(line, pos) {
                push(
                    out,
                    ctx,
                    RULE,
                    path,
                    idx,
                    format!(
                        "wall-clock read `{}` — sim/analysis paths must be pure in (config, seed); \
                         annotate genuine wall-clock sites with a justification",
                        token.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

fn ambient_rng(path: &str, idx: usize, line: &str, ctx: &FileContext, out: &mut Hits<'_>) {
    const RULE: &str = "ambient-rng";
    for token in ["thread_rng(", "rand::random", "from_entropy("] {
        if let Some(pos) = line.find(token) {
            if starts_token(line, pos) {
                push(
                    out,
                    ctx,
                    RULE,
                    path,
                    idx,
                    format!(
                        "ambient randomness `{}` — all randomness must flow from seeded \
                         splitmix64 streams so campaigns replay bit-for-bit",
                        token.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

fn order_sensitive_float_fold(
    path: &str,
    idx: usize,
    line: &str,
    ctx: &FileContext,
    out: &mut Hits<'_>,
) {
    const RULE: &str = "order-sensitive-float-fold";
    let fn_name = ctx.fn_at(idx);
    if !(fn_name.contains("merge") || fn_name.contains("snapshot")) {
        return;
    }
    // `.sum::<f64>()` / `.sum::<f32>()` — definitely float.
    for t in [".sum::<f64>()", ".sum::<f32>()"] {
        if line.contains(t) {
            push(
                out,
                ctx,
                RULE,
                path,
                idx,
                format!(
                    "float reduction `{t}` in `{fn_name}` — reduction order must be fixed for \
                     bitwise merge equality; annotate why the order is deterministic"
                ),
            );
        }
    }
    // Bare `.sum()` — type unknown; require an integer turbofish to prove
    // the reduction commutes exactly.
    let mut from = 0;
    while let Some(pos) = line[from..].find(".sum()") {
        let at = from + pos;
        from = at + ".sum()".len();
        push(
            out,
            ctx,
            RULE,
            path,
            idx,
            format!(
                "`.sum()` with inferred element type in `{fn_name}` — use an integer turbofish \
                 (e.g. `.sum::<u64>()`) or annotate the float reduction order"
            ),
        );
    }
    // `.fold(init, ...)` with a float-looking init.
    let mut from = 0;
    while let Some(pos) = line[from..].find(".fold(") {
        let at = from + pos;
        from = at + ".fold(".len();
        let args = &line[at + ".fold(".len()..];
        let init: String = args.chars().take_while(|c| *c != ',').collect();
        let floaty = init.contains("f64") || init.contains("f32") || {
            let b = init.as_bytes();
            b.windows(3)
                .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
        };
        if floaty {
            push(
                out,
                ctx,
                RULE,
                path,
                idx,
                format!(
                    "float `.fold({init}, ..)` in `{fn_name}` — reduction order must be fixed \
                     for bitwise merge equality; annotate why the order is deterministic"
                ),
            );
        }
    }
}

fn unordered_partition_merge(
    path: &str,
    idx: usize,
    line: &str,
    ctx: &FileContext,
    out: &mut Hits<'_>,
) {
    const RULE: &str = "unordered-partition-merge";
    let fn_name = ctx.fn_at(idx);
    // Partition-merge context: a function reducing per-partition results.
    // Mailbox posts, wire encoders etc. use the same Vec verbs but combine
    // data from a single partition, so they stay out of scope.
    let in_scope = fn_name.contains("partition")
        || (file_name(path) == "parallel.rs" && fn_name.contains("merge"))
        // Mesh campaign reducers combine per-pair / per-vantage results
        // into byte-compared artifacts — same bar as partition merges.
        || (path.contains("crates/mesh/src")
            && (fn_name.contains("fold") || fn_name.contains("merge")
                || fn_name.contains("campaign")))
        // Live-reactor reducers fold per-session outcomes (which finish in
        // network-completion order) into reports and record streams; the
        // fold must declare a fixed session order or it inherits the
        // network's.
        || (path.contains("crates/live/src")
            && (fn_name.contains("merge") || fn_name.contains("drain")
                || fn_name.contains("outcome")))
        // Queueing/traffic reducers fold per-stream or per-batch model
        // results that feed the reproduction's tables; same fixed-order
        // bar as the engine partition merges.
        || (in_model_crate(path)
            && (fn_name.contains("merge") || fn_name.contains("fold")
                || fn_name.contains("partition")));
    if !in_scope {
        return;
    }
    for call in [".extend(", ".extend_from_slice(", ".append("] {
        if line.contains(call) {
            push(
                out,
                ctx,
                RULE,
                path,
                idx,
                format!(
                    "cross-partition `{}..)` in `{fn_name}` — the merged output feeds \
                     byte-compared artifacts, so the reduction must iterate partitions in a \
                     fixed order; declare it with an allow annotation naming that order",
                    call.trim_end_matches('(')
                ),
            );
        }
    }
}

fn truncating_cast_in_wire(
    path: &str,
    idx: usize,
    line: &str,
    ctx: &FileContext,
    out: &mut Hits<'_>,
) {
    const RULE: &str = "truncating-cast-in-wire";
    if !(is_serialization_file(path) || in_model_crate(path)) {
        return;
    }
    for target in ["u8", "u16", "u32", "i8", "i16", "i32"] {
        let needle = format!(" as {target}");
        let mut from = 0;
        while let Some(pos) = line[from..].find(&needle) {
            let at = from + pos;
            from = at + needle.len();
            let end = at + needle.len();
            let boundary = line
                .as_bytes()
                .get(end)
                .is_none_or(|b| !b.is_ascii_alphanumeric() && *b != b'_');
            // `u16::MAX as usize` style widenings don't match (target is
            // the narrow side here by construction); a match means source
            // expr is cast *to* a ≤32-bit integer.
            if boundary {
                push(
                    out,
                    ctx,
                    RULE,
                    path,
                    idx,
                    format!(
                        "lossy `as {target}` cast on the wire/report path — use \
                         `{target}::try_from(..)` or annotate intentional truncation"
                    ),
                );
            }
        }
    }
}
