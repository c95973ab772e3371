//! One-stop analysis: the paper's three readings of one series in one
//! structure — what you run on a series you just collected (real or
//! simulated) to get the §4 phase-plot bottleneck and workload and the §5
//! loss metrics at once.

use probenet_netdyn::RttSeries;
use serde::{Deserialize, Serialize};

use crate::loss::{analyze_losses, LossAnalysis};
use crate::phase::{BottleneckEstimate, PhasePlot};
use crate::workload::{analyze_workload, WorkloadAnalysis};

/// Basic facts about the measurement itself.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MeasurementSummary {
    /// Probes sent.
    pub sent: usize,
    /// Probes returned.
    pub received: usize,
    /// Probe interval δ, ms.
    pub interval_ms: f64,
    /// Probe wire size, bytes.
    pub wire_bytes: u32,
    /// Clock resolution, ms (0 = ideal).
    pub clock_resolution_ms: f64,
    /// Reordered probe pairs (arrival-order inversions).
    pub reordering: u64,
}

/// The paper's readings of one series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullReport {
    /// The measurement's vitals.
    pub measurement: MeasurementSummary,
    /// Loss metrics (§5).
    pub loss: LossAnalysis,
    /// Phase-plot bottleneck estimate (§4), when compression exists.
    pub bottleneck: Option<BottleneckEstimate>,
    /// Workload analysis (§4, Figures 8–9) using the estimated or supplied
    /// bottleneck rate; absent when no rate is known.
    pub workload: Option<WorkloadAnalysis>,
}

/// Run every applicable analysis. `mu_bps_hint` supplies the bottleneck
/// rate when known; otherwise the phase-plot estimate is used, and the
/// workload analysis is skipped if neither is available. Peaks are labeled
/// against a 512-byte bulk packet.
pub fn full_report(series: &RttSeries, mu_bps_hint: Option<f64>) -> FullReport {
    let plot = PhasePlot::from_series(series);
    let bottleneck = plot.bottleneck_estimate(10);
    let mu = mu_bps_hint.or(bottleneck.map(|b| b.mu_bps));
    let delta_ms = series.interval().as_millis_f64();
    let workload =
        mu.map(|mu| analyze_workload(series, mu, 512.0 * 8.0, (4.0 * delta_ms).max(100.0)));
    FullReport {
        measurement: MeasurementSummary {
            sent: series.len(),
            received: series.received(),
            interval_ms: delta_ms,
            wire_bytes: series.wire_bytes,
            clock_resolution_ms: series.clock_resolution_ns as f64 / 1e6,
            reordering: series.reordering_count(),
        },
        loss: analyze_losses(series),
        bottleneck,
        workload,
    }
}

/// An optional reading at `precision` decimals, or `n/a` when absent.
fn or_na(value: Option<f64>, precision: usize) -> String {
    value.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.precision$}"))
}

/// Render a report as human-readable text.
pub fn render_report(r: &FullReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let m = &r.measurement;
    let _ = writeln!(
        s,
        "measurement: {} probes at {} ms ({} wire bytes, clock {} ms), {} received, {} reordered pairs",
        m.sent, m.interval_ms, m.wire_bytes, m.clock_resolution_ms, m.received, m.reordering
    );
    let _ = writeln!(
        s,
        "loss: ulp {:.3}, clp {}, gap {} (Palm {}), random? {}",
        r.loss.ulp,
        or_na(r.loss.clp, 3),
        or_na(r.loss.plg_measured, 3),
        or_na(r.loss.plg_palm, 3),
        r.loss.losses_look_random(0.01)
    );
    match &r.bottleneck {
        Some(b) => {
            let _ = writeln!(
                s,
                "bottleneck: {:.1} kb/s from the compression line (intercept {:.1} ms, bounds [{:.0}, {:.0}] kb/s, {} pairs)",
                b.mu_bps / 1e3,
                b.intercept_ms,
                b.mu_lo_bps / 1e3,
                b.mu_hi_bps / 1e3,
                b.compression_points
            );
        }
        None => {
            let _ = writeln!(s, "bottleneck: no probe compression detected");
        }
    }
    if let Some(w) = &r.workload {
        let _ = writeln!(
            s,
            "workload: {} peaks; mean per-interval estimate {:.0} B; inferred bulk packet {} B",
            w.peaks.len(),
            w.mean_workload_bytes(),
            or_na(w.inferred_bulk_bytes(), 0)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PaperScenario;
    use probenet_netdyn::{ExperimentConfig, RttRecord};
    use probenet_sim::SimDuration;

    fn scenario_series(seed: u64) -> RttSeries {
        let sc = PaperScenario::inria_umd(seed);
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(20))
            .with_count(4500)
            .with_clock(SimDuration::ZERO);
        sc.run(&cfg).series
    }

    #[test]
    fn full_report_populates_every_section_in_simulation() {
        let series = scenario_series(1);
        let r = full_report(&series, None);
        assert_eq!(r.measurement.sent, 4500);
        assert_eq!(r.measurement.reordering, 0);
        assert!(r.loss.ulp > 0.0);
        assert!(r.bottleneck.is_some(), "compression expected at 20 ms");
        assert!(r.workload.is_some(), "mu known via the phase estimate");
    }

    #[test]
    fn mu_hint_overrides_the_estimate() {
        let series = scenario_series(2);
        let r = full_report(&series, Some(128_000.0));
        let w = r.workload.expect("workload with hint");
        assert_eq!(w.mu_bps, 128_000.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let series = scenario_series(3);
        let r = full_report(&series, Some(128_000.0));
        let text = render_report(&r);
        for needle in ["measurement:", "loss:", "bottleneck:", "workload:"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn missing_readings_render_as_not_available() {
        // No loss: clp and both gaps are undefined.
        let records = (0..20u64)
            .map(|n| RttRecord {
                seq: n,
                sent_at: n * 50_000_000,
                echoed_at: None,
                rtt: Some(140_000_000),
            })
            .collect();
        let series = RttSeries::new(SimDuration::from_millis(50), 72, SimDuration::ZERO, records);
        let text = render_report(&full_report(&series, None));
        assert!(
            text.contains("clp n/a, gap n/a (Palm n/a)"),
            "missing n/a in:\n{text}"
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let series = scenario_series(4);
        let r = full_report(&series, None);
        let json = serde_json::to_string(&r).expect("serializable");
        assert!(json.contains("\"ulp\""));
        assert!(json.contains("\"measurement\""));
    }
}
