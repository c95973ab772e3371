//! Terminal rendering of the streaming layer's (`probenet-stream`)
//! per-session snapshots.

use probenet_stream::{BankSnapshot, SessionKey};

/// A compact terminal rendering of one session's streaming snapshot —
/// the collector-side counterpart of this crate's batch report lines.
pub fn render_stream_snapshot(key: &SessionKey, snap: &BankSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{key}: sent {} received {} lost {} (ulp {:.4})\n",
        snap.sent, snap.received, snap.lost, snap.loss.ulp
    ));
    match (snap.loss.clp, snap.loss.plg_measured) {
        (Some(clp), Some(plg)) => {
            out.push_str(&format!("  loss: clp {clp:.4} plg {plg:.2}"));
            if let Some(palm) = snap.loss.plg_palm {
                out.push_str(&format!(" (palm {palm:.2})"));
            }
            out.push('\n');
        }
        _ => out.push_str("  loss: too few losses to condition\n"),
    }
    if let Some(rtt) = &snap.rtt {
        out.push_str(&format!(
            "  rtt: mean {:.2} ms sd {:.2} min {:.2} max {:.2} p50 {:.2} p90 {:.2} p99 {:.2}\n",
            rtt.mean_ms, rtt.std_dev_ms, rtt.min_ms, rtt.max_ms, rtt.p50_ms, rtt.p90_ms, rtt.p99_ms
        ));
    } else {
        out.push_str("  rtt: no probes delivered\n");
    }
    out.push_str(&format!(
        "  workload: mean {:.1} B over {} pairs; phase: {} cells ({} pairs)\n",
        snap.workload.mean_workload_bytes,
        snap.workload.pairs,
        snap.phase.nonzero_cells,
        snap.phase.pairs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_stream::{BankConfig, EstimatorBank, StreamRecord};

    #[test]
    fn render_is_total_for_empty_and_lossless_sessions() {
        let key = SessionKey::new("render", 20, 7);
        let empty = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        let text = render_stream_snapshot(&key, &empty.snapshot());
        assert!(text.contains("no probes delivered"));

        let mut ok = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
        for i in 0..10 {
            ok.push(&StreamRecord {
                seq: i,
                sent_at_ns: i * 20_000_000,
                rtt_ns: Some(140_000_000),
            });
        }
        let text = render_stream_snapshot(&key, &ok.snapshot());
        assert!(text.contains("too few losses"));
        assert!(text.contains("mean 140.00"));
    }
}
