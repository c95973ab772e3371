//! The per-session estimator bank: every streaming estimator the collector
//! maintains for one probe session, fed record-by-record and summarized as
//! one JSON-ready snapshot.

use crate::acf::WindowedAcf;
use crate::fnv::fnv1a_u64s;
use crate::lindley::{workload_layout, StreamingWorkload, WorkloadSnapshot, WorkloadWireState};
use crate::loss::{LossSnapshot, LossWireState, StreamingLoss};
use crate::phase::{PhaseDensity, PhaseSnapshot, PhaseWireState};
use crate::quantile::LogQuantileSketch;
use crate::record::StreamRecord;
use probenet_stats::{Histogram, Moments, MomentsState};
use serde::{Deserialize, Serialize};

/// Layout and model parameters of an [`EstimatorBank`]. Two banks merge only
/// if their configs are identical (same bin layouts, same μ).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankConfig {
    /// Probe interval δ in ms.
    pub delta_ms: f64,
    /// Probe wire size in bytes (the paper's `P`, as bytes).
    pub wire_bytes: u32,
    /// Receiver clock resolution in ns (drives workload histogram binning).
    pub clock_resolution_ns: u64,
    /// Assumed bottleneck rate μ in bits/s.
    pub mu_bps: f64,
    /// Workload/interarrival histogram upper edge (ms).
    pub workload_max_ms: f64,
    /// RTT histogram lower edge (ms).
    pub rtt_lo_ms: f64,
    /// RTT histogram upper edge (ms).
    pub rtt_hi_ms: f64,
    /// RTT histogram bin count.
    pub rtt_bins: usize,
    /// ACF ring capacity (sessions shorter than this reproduce the batch
    /// ACF bit-for-bit).
    pub acf_window: usize,
    /// Maximum ACF lag reported in snapshots.
    pub acf_max_lag: usize,
    /// Phase grid lower edge (ms).
    pub phase_lo_ms: f64,
    /// Phase grid upper edge (ms).
    pub phase_hi_ms: f64,
    /// Phase grid bins per axis.
    pub phase_bins: usize,
}

/// The complete raw state of an [`EstimatorBank`], as per-estimator wire
/// states plus the shared config — the in-memory bridge the snapshot wire
/// codec (`probenet-wire`) encodes and decodes. `from_wire_state(wire_state())`
/// reproduces the bank bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct BankWireState {
    /// Layout and model parameters (drives every derived layout below).
    pub config: BankConfig,
    /// Loss-process segment summary.
    pub loss: LossWireState,
    /// Delivered-RTT moments accumulator (ms).
    pub moments: MomentsState,
    /// Delivered-RTT histogram bin counts (layout derived from config).
    pub rtt_counts: Vec<u64>,
    /// RTT histogram underflow gutter.
    pub rtt_underflow: u64,
    /// RTT histogram overflow gutter.
    pub rtt_overflow: u64,
    /// Bucket index of `sketch_counts[0]` (the sketch's lowest non-empty
    /// bucket; 0 when empty).
    pub sketch_first: usize,
    /// Quantile sketch bucket counts (ns domain) over its occupied span.
    pub sketch_counts: Vec<u64>,
    /// Samples evicted from the ACF ring.
    pub acf_evicted: u64,
    /// ACF ring contents, oldest first (ms).
    pub acf_samples: Vec<f64>,
    /// Workload estimator state (params duplicate the config).
    pub workload: WorkloadWireState,
    /// Phase-density grid state (layout duplicates the config).
    pub phase: PhaseWireState,
}

impl BankConfig {
    /// The workload histogram bin count this config derives (the
    /// [`workload_layout`] rule), exposed so decoders can verify a claimed
    /// bin count without allocating it first.
    pub fn workload_bins(&self) -> usize {
        workload_layout(self.workload_max_ms, self.clock_resolution_ns).1
    }

    /// Check every constructor precondition the bank's estimators assert,
    /// returning `Err` instead of panicking — the total-decoder gate for
    /// configs arriving off the wire.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.delta_ms.is_finite() {
            return Err("config: bad delta");
        }
        if !(self.mu_bps.is_finite() && self.mu_bps > 0.0) {
            return Err("config: bad mu");
        }
        if !(self.workload_max_ms.is_finite() && self.workload_max_ms > 0.0) {
            return Err("config: bad workload range");
        }
        if !(self.rtt_lo_ms.is_finite()
            && self.rtt_hi_ms.is_finite()
            && self.rtt_lo_ms < self.rtt_hi_ms)
        {
            return Err("config: bad rtt range");
        }
        if self.rtt_bins == 0 {
            return Err("config: zero rtt bins");
        }
        if self.acf_window < 2 {
            return Err("config: acf window below two");
        }
        if !(self.phase_lo_ms.is_finite()
            && self.phase_hi_ms.is_finite()
            && self.phase_lo_ms < self.phase_hi_ms)
        {
            return Err("config: bad phase range");
        }
        if self.phase_bins == 0 {
            return Err("config: zero phase bins");
        }
        Ok(())
    }
}

impl BankConfig {
    /// The defaults used throughout this repo's Bolot scenarios: μ = 128
    /// kb/s, RTT range `[0, 2000)` ms × 400 bins, workload histogram up to
    /// `max(4δ, 100)` ms, an 8192-sample ACF window reported to lag 20, and
    /// a 64×64 phase grid over the RTT range.
    ///
    /// Per-session memory: the two histograms are allocated whole; the ACF
    /// ring grows to its 8192 samples (64 KiB) only as delivered probes
    /// arrive; the quantile sketch and the phase grid (32 KiB when dense)
    /// store only their occupied span.
    pub fn bolot(delta_ms: f64, wire_bytes: u32, clock_resolution_ns: u64) -> Self {
        BankConfig {
            delta_ms,
            wire_bytes,
            clock_resolution_ns,
            mu_bps: 128_000.0,
            workload_max_ms: (4.0 * delta_ms).max(100.0),
            rtt_lo_ms: 0.0,
            rtt_hi_ms: 2000.0,
            rtt_bins: 400,
            acf_window: 8192,
            acf_max_lag: 20,
            phase_lo_ms: 0.0,
            phase_hi_ms: 2000.0,
            phase_bins: 64,
        }
    }
}

/// All streaming estimators for one session, updated in O(1) per record.
#[derive(Debug, Clone)]
pub struct EstimatorBank {
    config: BankConfig,
    loss: StreamingLoss,
    moments: Moments,
    rtt_hist: Histogram,
    sketch: LogQuantileSketch,
    acf: WindowedAcf,
    workload: StreamingWorkload,
    phase: PhaseDensity,
}

/// Delay summary of the delivered probes (absent when none arrived, so the
/// snapshot never carries NaN/∞ — which the vendored JSON writer rejects).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RttSummary {
    /// Mean RTT (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub std_dev_ms: f64,
    /// Minimum RTT (ms).
    pub min_ms: f64,
    /// Maximum RTT (ms).
    pub max_ms: f64,
    /// Median from the quantile sketch (ms, relative error ≤ 2⁻⁷).
    pub p50_ms: f64,
    /// 90th percentile from the sketch (ms).
    pub p90_ms: f64,
    /// 99th percentile from the sketch (ms).
    pub p99_ms: f64,
    /// FNV-1a digest of the RTT histogram bin counts.
    pub hist_fnv1a: String,
}

/// One session's full streaming summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BankSnapshot {
    /// Probes pushed.
    pub sent: u64,
    /// Probes delivered.
    pub received: u64,
    /// Probes lost.
    pub lost: u64,
    /// Loss-process metrics (batch-exact).
    pub loss: LossSnapshot,
    /// Delay summary, `None` when nothing was delivered.
    pub rtt: Option<RttSummary>,
    /// ACF of the (windowed) delivered-RTT series up to the configured lag.
    pub acf: Vec<f64>,
    /// Delivered samples the ACF ring has evicted (0 ⇒ the ACF is exactly
    /// the batch ACF of the full series).
    pub acf_evicted: u64,
    /// Interarrival/workload summary.
    pub workload: WorkloadSnapshot,
    /// Phase-plot density summary.
    pub phase: PhaseSnapshot,
}

impl EstimatorBank {
    /// A fresh bank with the given layout.
    pub fn new(config: BankConfig) -> Self {
        let workload = StreamingWorkload::new(
            config.delta_ms,
            config.wire_bytes,
            config.clock_resolution_ns,
            config.mu_bps,
            config.workload_max_ms,
        );
        EstimatorBank {
            loss: StreamingLoss::new(),
            moments: Moments::new(),
            rtt_hist: Histogram::new(config.rtt_lo_ms, config.rtt_hi_ms, config.rtt_bins),
            sketch: LogQuantileSketch::new(),
            acf: WindowedAcf::new(config.acf_window),
            phase: PhaseDensity::new(config.phase_lo_ms, config.phase_hi_ms, config.phase_bins),
            workload,
            config,
        }
    }

    /// The bank's configuration.
    pub fn config(&self) -> &BankConfig {
        &self.config
    }

    /// Fold one record (records must arrive in sequence order).
    pub fn push(&mut self, r: &StreamRecord) {
        self.loss.push(r.rtt_ns.is_none());
        if let Some(ns) = r.rtt_ns {
            let ms = ns as f64 / 1e6;
            self.moments.push(ms);
            self.rtt_hist.add(ms);
            self.sketch.push(ns);
            self.acf.push(ms);
        }
        self.workload.push(r.rtt_ns);
        self.phase.push(r.rtt_ns);
    }

    /// Fold `other` — the estimators of the records immediately following
    /// this bank's — into `self`. Integer state merges exactly; float
    /// accumulators (moments, workload sum) to reassociation ε.
    ///
    /// # Panics
    /// Panics if the configs differ.
    pub fn merge(&mut self, other: &EstimatorBank) {
        assert!(self.config == other.config, "bank configs differ");
        self.loss.merge(&other.loss);
        self.moments.merge(&other.moments);
        self.rtt_hist.merge(&other.rtt_hist);
        self.sketch.merge(&other.sketch);
        self.acf.merge(&other.acf);
        self.workload.merge(&other.workload);
        self.phase.merge(&other.phase);
    }

    /// Probes pushed so far.
    pub fn sent(&self) -> u64 {
        self.loss.sent()
    }

    /// The loss estimator (for differential tests).
    pub fn loss(&self) -> &StreamingLoss {
        &self.loss
    }

    /// The delivered-RTT moments (ms).
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// The delivered-RTT histogram (ms).
    pub fn rtt_hist(&self) -> &Histogram {
        &self.rtt_hist
    }

    /// The delivered-RTT quantile sketch (ns).
    pub fn sketch(&self) -> &LogQuantileSketch {
        &self.sketch
    }

    /// The workload estimator.
    pub fn workload(&self) -> &StreamingWorkload {
        &self.workload
    }

    /// The phase-density grid.
    pub fn phase(&self) -> &PhaseDensity {
        &self.phase
    }

    /// The windowed ACF ring.
    pub fn acf(&self) -> &WindowedAcf {
        &self.acf
    }

    /// The bank's complete raw state, for serialization.
    pub fn wire_state(&self) -> BankWireState {
        BankWireState {
            config: self.config.clone(),
            loss: self.loss.wire_state(),
            moments: self.moments.state(),
            rtt_counts: self.rtt_hist.counts().to_vec(),
            rtt_underflow: self.rtt_hist.underflow(),
            rtt_overflow: self.rtt_hist.overflow(),
            sketch_first: self.sketch.first_bucket(),
            sketch_counts: self.sketch.counts().to_vec(),
            acf_evicted: self.acf.evicted(),
            acf_samples: self.acf.samples().collect(),
            workload: self.workload.wire_state(),
            phase: self.phase.wire_state(),
        }
    }

    /// Rebuild a bank from a previously captured [`BankWireState`].
    ///
    /// Total, and deliberately strict: beyond each estimator's own checks,
    /// the layouts duplicated in the workload/phase states must equal the
    /// config-derived ones (otherwise a later `merge` with a freshly built
    /// bank would panic), and the delivered-probe count must agree across
    /// every estimator fed from it — which is what makes a decoded bank's
    /// `snapshot()` safe (the sketch is non-empty whenever the moments
    /// are, so its `quantile()` lookups cannot fail).
    pub fn from_wire_state(s: BankWireState) -> Result<Self, &'static str> {
        s.config.validate()?;
        let config = s.config;

        // Workload params are fully derived from the config; a frame that
        // disagrees with its own config is corrupt.
        let w = &s.workload;
        if w.delta_ms != config.delta_ms
            || w.mu_bps != config.mu_bps
            || w.p_bits != f64::from(config.wire_bytes) * 8.0
            || w.hist_hi != config.workload_max_ms
            || w.hist_counts.len() != config.workload_bins()
        {
            return Err("bank: workload state disagrees with config");
        }
        let p = &s.phase;
        if p.lo != config.phase_lo_ms || p.hi != config.phase_hi_ms || p.bins != config.phase_bins {
            return Err("bank: phase state disagrees with config");
        }
        if s.rtt_counts.len() != config.rtt_bins {
            return Err("bank: rtt histogram shape mismatch");
        }

        // The same records feed every estimator, so their boundary views
        // must agree: the workload and phase trackers hold the identical
        // first/last RTTs, and the loss flags are their loss indicators.
        if s.workload.first != s.phase.first || s.workload.last != s.phase.last {
            return Err("bank: boundary records disagree");
        }
        if s.workload.first.map(|r| r.is_none()) != s.loss.first
            || s.workload.last.map(|r| r.is_none()) != s.loss.last
        {
            return Err("bank: boundary records disagree with loss flags");
        }
        if s.workload.pairs != s.phase.pairs {
            return Err("bank: pair counts disagree");
        }

        let loss = StreamingLoss::from_wire_state(s.loss)?;
        let moments = Moments::from_state(s.moments)?;
        let rtt_hist = Histogram::from_parts(
            config.rtt_lo_ms,
            config.rtt_hi_ms,
            s.rtt_counts,
            s.rtt_underflow,
            s.rtt_overflow,
        )?;
        let sketch = LogQuantileSketch::from_span(s.sketch_first, s.sketch_counts)?;
        let acf = WindowedAcf::from_samples(config.acf_window, s.acf_evicted, s.acf_samples)?;
        let workload = StreamingWorkload::from_wire_state(s.workload)?;
        let phase = PhaseDensity::from_wire_state(s.phase)?;

        // Every delivered probe reaches the moments, histogram, sketch and
        // ACF ring exactly once.
        let received = loss.sent() - loss.lost();
        if moments.count() != received || sketch.total() != received {
            return Err("bank: delivered-count mismatch");
        }
        let mut hist_offered = rtt_hist.underflow().checked_add(rtt_hist.overflow());
        for &c in rtt_hist.counts() {
            hist_offered = hist_offered.and_then(|t| t.checked_add(c));
        }
        if hist_offered.ok_or("bank: rtt count overflow")? != received {
            return Err("bank: delivered-count mismatch");
        }
        let acf_seen = acf
            .evicted()
            .checked_add(acf.len() as u64)
            .ok_or("bank: acf count overflow")?;
        if acf_seen != received {
            return Err("bank: delivered-count mismatch");
        }

        Ok(EstimatorBank {
            config,
            loss,
            moments,
            rtt_hist,
            sketch,
            acf,
            workload,
            phase,
        })
    }

    /// Current summary of every estimator.
    pub fn snapshot(&self) -> BankSnapshot {
        let received = self.moments.count();
        let rtt = if received == 0 {
            None
        } else {
            Some(RttSummary {
                mean_ms: self.moments.mean(),
                std_dev_ms: self.moments.std_dev(),
                min_ms: self.moments.min(),
                max_ms: self.moments.max(),
                p50_ms: self.sketch.quantile(0.5).expect("non-empty") as f64 / 1e6,
                p90_ms: self.sketch.quantile(0.9).expect("non-empty") as f64 / 1e6,
                p99_ms: self.sketch.quantile(0.99).expect("non-empty") as f64 / 1e6,
                hist_fnv1a: fnv1a_u64s(self.rtt_hist.counts().iter().copied()),
            })
        };
        BankSnapshot {
            sent: self.loss.sent(),
            received,
            lost: self.loss.lost(),
            loss: self.loss.snapshot(),
            rtt,
            acf: self.acf.snapshot(self.config.acf_max_lag),
            acf_evicted: self.acf.evicted(),
            workload: self.workload.snapshot(),
            phase: self.phase.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, rtt_ms: Option<f64>) -> StreamRecord {
        StreamRecord {
            seq,
            sent_at_ns: seq * 20_000_000,
            rtt_ns: rtt_ms.map(|ms| (ms * 1e6) as u64),
        }
    }

    #[test]
    fn empty_bank_snapshot_is_json_safe() {
        let bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        let snap = bank.snapshot();
        assert!(snap.rtt.is_none());
        assert!(snap.acf.is_empty());
        // The vendored writer errors on NaN/∞; this must serialize.
        serde_json::to_string(&snap).expect("JSON-safe");
    }

    #[test]
    fn counts_line_up() {
        let mut bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        for i in 0..50 {
            bank.push(&record(
                i,
                if i % 5 == 0 {
                    None
                } else {
                    Some(140.0 + i as f64)
                },
            ));
        }
        let snap = bank.snapshot();
        assert_eq!(snap.sent, 50);
        assert_eq!(snap.lost, 10);
        assert_eq!(snap.received, 40);
        assert_eq!(snap.loss.sent, 50);
        let rtt = snap.rtt.expect("delivered probes");
        assert!(rtt.min_ms >= 140.0 && rtt.max_ms < 200.0);
    }

    #[test]
    fn merge_matches_sequential_for_integer_state() {
        let records: Vec<StreamRecord> = (0..300)
            .map(|i| {
                record(
                    i,
                    if i % 9 == 2 {
                        None
                    } else {
                        Some(100.0 + (i as f64 * 0.7).sin() * 40.0)
                    },
                )
            })
            .collect();
        let mut whole = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        for r in &records {
            whole.push(r);
        }
        let mut a = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        let mut b = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        for r in &records[..137] {
            a.push(r);
        }
        for r in &records[137..] {
            b.push(r);
        }
        a.merge(&b);
        let (sa, sw) = (a.snapshot(), whole.snapshot());
        assert_eq!(
            serde_json::to_string(&sa.loss).unwrap(),
            serde_json::to_string(&sw.loss).unwrap()
        );
        assert_eq!(sa.phase.grid_fnv1a, sw.phase.grid_fnv1a);
        assert_eq!(sa.workload.hist_fnv1a, sw.workload.hist_fnv1a);
        assert_eq!(a.sketch(), whole.sketch());
        assert_eq!(sa.acf, sw.acf);
        assert!((sa.rtt.unwrap().mean_ms - sw.rtt.unwrap().mean_ms).abs() < 1e-9);
    }
}
