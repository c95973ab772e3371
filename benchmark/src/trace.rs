//! Spans around the calls into each layer, kept in memory and written out
//! when the run ends.
//!
//! The benchmark measures every layer from outside, so a span is opened and
//! closed by the benchmark around one public call. Where a callee's time is
//! known but its interval is not — the engine's `EngineStats.wall` inside
//! `SimExperiment::run`, or a child re-timed on the call's products — it is
//! recorded as an *imputed* child: a duration charged against the parent's
//! self time.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the root span of one iteration; its self time is the residual
/// (benchmark glue between the layer calls).
pub const ROOT: &str = "iteration";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, or [`ROOT`].
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The iteration the span belongs to (shared by all its spans).
    pub iteration: u64,
    /// Duration known, interval not (see the module docs).
    pub imputed: bool,
    /// Time covered by child spans so far.
    children_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's duration minus the part its children cover.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.children_ns)
    }

    /// The layer a span is charged to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The in-memory span log.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Switch recording on or off between iterations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of iteration `id`.
    pub fn begin_iteration(&mut self, id: u64) -> SpanId {
        self.iteration = id;
        self.open(ROOT)
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            imputed: false,
            children_ns: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans closed out of order");
        let now = self.now_ns();
        self.spans[index].end_ns = now;
        let duration = self.spans[index].duration_ns();
        if let Some(parent) = self.spans[index].parent {
            self.spans[parent].children_ns += duration;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Charge `duration` of the innermost open span to an imputed child.
    pub fn impute(&mut self, name: &'static str, duration: Duration) {
        if let Some(&parent) = self.open.last() {
            self.spans[parent].end_ns = self.now_ns();
            self.impute_into(SpanId(Some(parent)), name, duration);
        }
    }

    /// Charge `duration` of span `parent` (open or closed) to an imputed
    /// child. The charge is capped at what is left of the parent's self
    /// time, so self times still add up to the parent's duration.
    pub fn impute_into(&mut self, parent: SpanId, name: &'static str, duration: Duration) {
        let Some(parent) = parent.0 else { return };
        let p = &self.spans[parent];
        let charged = (duration.as_nanos() as u64).min(p.self_ns());
        let start_ns = p.start_ns + p.children_ns;
        let iteration = p.iteration;
        self.spans[parent].children_ns += charged;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + charged,
            parent: Some(parent),
            iteration,
            imputed: true,
            children_ns: 0,
        });
    }

    /// Self time per layer over every recorded iteration, as shares of the
    /// summed root-span durations. The root's own self time is reported
    /// under [`ROOT`]; all shares add up to 1.
    pub fn layer_shares(&self) -> BTreeMap<&'static str, f64> {
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let mut shares = BTreeMap::new();
        if wall == 0 {
            return shares;
        }
        for span in &self.spans {
            *shares.entry(span.layer()).or_insert(0.0) += span.self_ns() as f64 / wall as f64;
        }
        shares
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The span log as JSON: one object per span, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"iteration\":{},\"imputed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration, s.imputed
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut tr = Tracer::new(true);
        let root = tr.begin_iteration(0);
        let a = tr.open("sim.run");
        std::thread::sleep(Duration::from_millis(2));
        tr.impute("traffic.generate", Duration::from_millis(1));
        // More than is left: capped, never negative.
        tr.impute("core.analysis", Duration::from_secs(5));
        tr.close(a);
        tr.time("wire.encode", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        tr.close(root);
        let shares = tr.layer_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(shares[ROOT] >= 0.0 && shares["traffic"] > 0.0);
        // The imputed children ate the span up to the second `impute`; only
        // the instants from there to `close` are left to it.
        assert!(shares["sim"] < 0.01, "sim keeps {}", shares["sim"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.begin_iteration(0);
        tr.time("sim.run", || ());
        tr.impute("sim.engine", Duration::from_millis(1));
        tr.close(root);
        assert_eq!(tr.len(), 0);
    }
}
