//! The paper's probing model (its Figure 3).
//!
//! A constant delay `D` models the fixed round-trip component; one FIFO
//! server of rate μ models the bottleneck. Two streams feed the queue:
//! the **probe stream** (one `P`-bit packet every δ seconds) and the
//! **Internet stream**, lumped as `b_n` bits arriving `t_n` seconds after
//! probe `n` (all at once — "batch deterministic" arrivals, §6).
//!
//! Applying Lindley's recurrence twice per interval (the paper's eqs. 4–5):
//!
//! ```text
//! wb_n    = (w_n + P/μ − t_n)⁺                 // the batch's wait
//! w_{n+1} = (wb_n + b_n/μ − (δ − t_n))⁺        // the next probe's wait
//! ```
//!
//! and, whenever the buffer does not empty during the interval, the
//! composition collapses to `w_{n+1} = w_n + (P + b_n)/μ − δ`, which inverts
//! to the paper's **equation (6)**:
//!
//! ```text
//! b_n = μ (w_{n+1} − w_n + δ) − P
//! ```
//!
//! — the estimator that turns probe delays into a measurement of the
//! Internet workload. It is written once, as `probenet_stream::workload_bytes`;
//! `tests/model_vs_sim.rs` checks it against this model's waits.

/// One interval's Internet contribution: `bits` arriving `offset` seconds
/// after the probe of that interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batch {
    /// Workload of the batch in bits (`b_n`).
    pub bits: f64,
    /// Arrival offset `t_n` within the interval, `0 ≤ offset ≤ δ`.
    pub offset: f64,
}

/// The paper's Figure-3 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BolotModel {
    /// Bottleneck service rate μ in bits/s.
    pub mu_bps: f64,
    /// Probe packet size P in bits.
    pub probe_bits: f64,
    /// Probe interval δ in seconds.
    pub delta: f64,
    /// Fixed round-trip component D in seconds.
    pub fixed_rtt: f64,
}

impl BolotModel {
    /// A model instance.
    ///
    /// # Panics
    /// Panics unless all parameters are positive and `P/μ < δ` (otherwise
    /// the probe stream alone saturates the queue, which the paper rules
    /// out: "it is reasonable to keep δ < P/μ in all experiments" — sic,
    /// meaning the probe service time must stay below the interval).
    pub fn new(mu_bps: f64, probe_bits: f64, delta: f64, fixed_rtt: f64) -> Self {
        assert!(
            mu_bps > 0.0 && probe_bits > 0.0 && delta > 0.0,
            "positive parameters"
        );
        assert!(fixed_rtt >= 0.0, "fixed RTT cannot be negative");
        let m = BolotModel {
            mu_bps,
            probe_bits,
            delta,
            fixed_rtt,
        };
        assert!(
            m.probe_service() < delta,
            "probe stream alone saturates the bottleneck (P/mu >= delta)"
        );
        m
    }

    /// Probe service time `P/μ`.
    pub fn probe_service(&self) -> f64 {
        self.probe_bits / self.mu_bps
    }

    /// One interval of the two-stage Lindley recurrence (eqs. 4–5): from
    /// probe `n`'s wait and the interval's batch, the next probe's wait.
    ///
    /// # Panics
    /// Panics if the batch offset lies outside `[0, δ]` or bits < 0.
    pub fn step(&self, w_n: f64, batch: Batch) -> f64 {
        assert!(
            (0.0..=self.delta).contains(&batch.offset),
            "batch offset outside the probe interval"
        );
        assert!(batch.bits >= 0.0, "negative workload");
        let wb = (w_n + self.probe_service() - batch.offset).max(0.0);
        (wb + batch.bits / self.mu_bps - (self.delta - batch.offset)).max(0.0)
    }

    /// Waiting times `w_0..w_N` of `batches.len() + 1` probes, starting from
    /// an empty queue (`w_0 = 0`).
    pub fn waiting_times(&self, batches: &[Batch]) -> Vec<f64> {
        let mut w = Vec::with_capacity(batches.len() + 1);
        let mut cur = 0.0;
        w.push(cur);
        for &b in batches {
            cur = self.step(cur, b);
            w.push(cur);
        }
        w
    }

    /// Round-trip delay of a probe with waiting time `w`:
    /// `rtt = D + w + P/μ` (the paper's decomposition in §4).
    pub fn rtt(&self, w: f64) -> f64 {
        self.fixed_rtt + w + self.probe_service()
    }

    /// Map waiting times to round-trip delays.
    pub fn rtts(&self, waits: &[f64]) -> Vec<f64> {
        waits.iter().map(|&w| self.rtt(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lindley::waiting_times_from_arrivals;
    use proptest::prelude::*;

    /// The paper's setting: 128 kb/s bottleneck, 72-byte probes (the P the
    /// paper uses in its eq. 6 arithmetic), δ = 20 ms.
    fn paper_model() -> BolotModel {
        BolotModel::new(128_000.0, 72.0 * 8.0, 0.020, 0.140)
    }

    #[test]
    fn no_internet_traffic_keeps_queue_empty() {
        let m = paper_model();
        let batches = vec![
            Batch {
                bits: 0.0,
                offset: 0.01
            };
            100
        ];
        let w = m.waiting_times(&batches);
        assert!(w.iter().all(|&x| x == 0.0));
        // RTT is then exactly D + P/μ.
        assert!((m.rtt(0.0) - (0.140 + 0.0045)).abs() < 1e-12);
    }

    #[test]
    fn ftp_batch_delays_next_probe() {
        let m = paper_model();
        // One 512-byte FTP packet (4096 bits -> 32 ms of work) lands right
        // after probe 0 clears (offset 5 ms > P/mu = 4.5 ms).
        let w1 = m.step(
            0.0,
            Batch {
                bits: 4096.0,
                offset: 0.005,
            },
        );
        // Next probe arrives 15 ms after the batch; 32 ms of work remain
        // minus those 15 ms: w1 = 17 ms.
        assert!((w1 - 0.017).abs() < 1e-12, "w1 {w1}");
    }

    #[test]
    fn two_stage_recurrence_matches_general_lindley() {
        // The closed recurrence must agree with a plain Lindley queue fed
        // by the merged arrival sequence (probe at nδ, batch at nδ + t_n).
        let m = paper_model();
        let batches: Vec<Batch> = (0..40)
            .map(|i| Batch {
                bits: ((i * 37) % 7) as f64 * 1200.0,
                offset: 0.002 + 0.0005 * (i % 20) as f64,
            })
            .collect();
        let w_model = m.waiting_times(&batches);

        let mut arrivals = Vec::new();
        let mut services = Vec::new();
        let mut probe_idx = Vec::new();
        for n in 0..=batches.len() {
            probe_idx.push(arrivals.len());
            arrivals.push(n as f64 * m.delta);
            services.push(m.probe_service());
            if n < batches.len() {
                arrivals.push(n as f64 * m.delta + batches[n].offset);
                services.push(batches[n].bits / m.mu_bps);
            }
        }
        let w_all = waiting_times_from_arrivals(&arrivals, &services);
        for (n, &pi) in probe_idx.iter().enumerate() {
            assert!(
                (w_all[pi] - w_model[n]).abs() < 1e-9,
                "probe {n}: general {} vs model {}",
                w_all[pi],
                w_model[n]
            );
        }
    }

    #[test]
    #[should_panic(expected = "saturates")]
    fn saturating_probe_rate_panics() {
        // P/μ = 4.5 ms but δ = 4 ms.
        BolotModel::new(128_000.0, 72.0 * 8.0, 0.004, 0.140);
    }

    #[test]
    #[should_panic(expected = "offset outside")]
    fn bad_offset_panics() {
        let m = paper_model();
        m.step(
            0.0,
            Batch {
                bits: 0.0,
                offset: 0.5,
            },
        );
    }

    proptest! {
        #[test]
        fn prop_waits_are_nonnegative(
            bits in proptest::collection::vec(0.0f64..20_000.0, 1..100),
            offs in proptest::collection::vec(0.0f64..1.0, 1..100),
        ) {
            let m = paper_model();
            let n = bits.len().min(offs.len());
            let batches: Vec<Batch> = (0..n)
                .map(|i| Batch { bits: bits[i], offset: offs[i] * m.delta })
                .collect();
            let w = m.waiting_times(&batches);
            prop_assert!(w.iter().all(|&x| x >= 0.0));
        }

        #[test]
        fn prop_two_stage_equals_general_lindley(
            bits in proptest::collection::vec(0.0f64..15_000.0, 1..60),
            offs in proptest::collection::vec(0.0f64..1.0, 1..60),
        ) {
            let m = paper_model();
            let n = bits.len().min(offs.len());
            let batches: Vec<Batch> = (0..n)
                .map(|i| Batch { bits: bits[i], offset: offs[i] * m.delta })
                .collect();
            let w_model = m.waiting_times(&batches);
            let mut arrivals = Vec::new();
            let mut services = Vec::new();
            let mut probe_idx = Vec::new();
            for k in 0..=batches.len() {
                probe_idx.push(arrivals.len());
                arrivals.push(k as f64 * m.delta);
                services.push(m.probe_service());
                if k < batches.len() {
                    arrivals.push(k as f64 * m.delta + batches[k].offset);
                    services.push(batches[k].bits / m.mu_bps);
                }
            }
            // Merged arrivals can be locally out of order when offset ≈ δ;
            // the model assumes batch-before-next-probe, so sort stably.
            let mut order: Vec<usize> = (0..arrivals.len()).collect();
            order.sort_by(|&a, &b| arrivals[a].partial_cmp(&arrivals[b])
                .expect("finite").then(a.cmp(&b)));
            let sorted_arr: Vec<f64> = order.iter().map(|&i| arrivals[i]).collect();
            let sorted_srv: Vec<f64> = order.iter().map(|&i| services[i]).collect();
            let w_all = waiting_times_from_arrivals(&sorted_arr, &sorted_srv);
            for (k, &pi) in probe_idx.iter().enumerate() {
                let pos = order.iter().position(|&i| i == pi).expect("present");
                prop_assert!((w_all[pos] - w_model[k]).abs() < 1e-9,
                    "probe {k}: {} vs {}", w_all[pos], w_model[k]);
            }
        }
    }
}
