//! Shared experiment plumbing for the `repro` harness and the integration
//! tests: one function per paper artifact, so a figure is regenerated the
//! same way whether it is being printed, checked against a golden, or
//! tested.

use probenet_core::{
    analyze_losses, analyze_workload, delta_sweep, impairment_scenario, LossAnalysis,
    PaperScenario, PhasePlot, SweepRow, WorkloadAnalysis,
};
use probenet_netdyn::{collect_sessions, EchoServer, ExperimentConfig, RttSeries, UMD_CLOCK};
use probenet_sim::{discover_route, Path, SimDuration};
use probenet_traffic::FTP_PACKET_BYTES;
use serde::Serialize;

/// Default probing span per experiment. The paper ran 10 minutes; two
/// minutes is enough to reproduce every shape and keeps the full harness
/// fast.
pub const DEFAULT_SPAN_SECS: u64 = 120;

/// Number of probes for a span at interval δ.
fn count_for(span: SimDuration, delta: SimDuration) -> usize {
    (span.as_nanos() / delta.as_nanos()) as usize
}

/// Run the INRIA–UMd scenario at interval δ (ms) for `span_secs`.
pub fn run_inria_umd(delta_ms: u64, span_secs: u64, seed: u64) -> RttSeries {
    let scenario = PaperScenario::inria_umd(seed);
    let delta = SimDuration::from_millis(delta_ms);
    let config = ExperimentConfig::paper(delta)
        .with_count(count_for(SimDuration::from_secs(span_secs), delta));
    scenario.run(&config).series
}

/// Run the UMd–Pittsburgh scenario at interval δ (ms) for `span_secs`,
/// with the 3 ms UMd source clock of the paper's Figures 5–6.
pub fn run_umd_pitt(delta_ms: u64, span_secs: u64, seed: u64) -> RttSeries {
    let scenario = PaperScenario::umd_pitt(seed);
    let delta = SimDuration::from_millis(delta_ms);
    let config = ExperimentConfig::paper(delta)
        .with_count(count_for(SimDuration::from_secs(span_secs), delta))
        .with_clock(UMD_CLOCK);
    scenario.run(&config).series
}

/// Table 1: the INRIA → UMd route via TTL probing.
pub fn table1_route() -> Vec<String> {
    discover_route(&Path::inria_umd_1992(), SimDuration::from_millis(500))
}

/// Table 2: the UMd → Pittsburgh route via TTL probing.
pub fn table2_route() -> Vec<String> {
    discover_route(&Path::umd_pitt_1993(), SimDuration::from_millis(200))
}

/// Table 3: the δ sweep with loss metrics.
pub fn table3_rows(span_secs: u64, seed: u64) -> Vec<SweepRow> {
    let scenario = PaperScenario::inria_umd(seed);
    delta_sweep(&scenario, SimDuration::from_secs(span_secs))
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

/// Figure 1: the δ = 50 ms time series (`rtt_n`, zeros marking losses).
pub fn figure1_series(span_secs: u64, seed: u64) -> RttSeries {
    run_inria_umd(50, span_secs, seed)
}

/// Figure 2 analysis bundle: phase plot + loss metrics of the δ = 50 ms
/// INRIA–UMd run.
pub fn figure2_phase(span_secs: u64, seed: u64) -> (PhasePlot, LossAnalysis) {
    let series = run_inria_umd(50, span_secs, seed);
    (PhasePlot::from_series(&series), analyze_losses(&series))
}

/// Figure 4: the δ = 500 ms INRIA–UMd phase plot.
pub fn figure4_phase(span_secs: u64, seed: u64) -> PhasePlot {
    PhasePlot::from_series(&run_inria_umd(500, span_secs, seed))
}

/// Figure 5: the δ = 8 ms UMd–Pitt phase plot (3 ms clock).
pub fn figure5_phase(span_secs: u64, seed: u64) -> PhasePlot {
    PhasePlot::from_series(&run_umd_pitt(8, span_secs, seed))
}

/// Figure 6: the δ = 50 ms UMd–Pitt phase plot (3 ms clock).
pub fn figure6_phase(span_secs: u64, seed: u64) -> PhasePlot {
    PhasePlot::from_series(&run_umd_pitt(50, span_secs, seed))
}

/// Run the INRIA–UMd scenario with an ideal (unquantized) measurement
/// clock. The paper's Figures 8–9 resolve structure finer than the
/// DECstation tick (peaks 4.5 ms apart), so the workload figures are
/// regenerated with the ideal clock; the clock-banding phenomenon itself
/// is reproduced separately in Figures 5–6.
pub fn run_inria_umd_ideal_clock(delta_ms: u64, span_secs: u64, seed: u64) -> RttSeries {
    let scenario = PaperScenario::inria_umd(seed);
    let delta = SimDuration::from_millis(delta_ms);
    let config = ExperimentConfig::paper(delta)
        .with_count(count_for(SimDuration::from_secs(span_secs), delta))
        .with_clock(SimDuration::ZERO);
    scenario.run(&config).series
}

/// Figure 8: workload analysis of the δ = 20 ms INRIA–UMd run.
pub fn figure8_workload(span_secs: u64, seed: u64) -> WorkloadAnalysis {
    let series = run_inria_umd_ideal_clock(20, span_secs, seed);
    analyze_workload(&series, 128_000.0, FTP_PACKET_BYTES as f64 * 8.0, 100.0)
}

/// Figure 9: workload analysis of the δ = 100 ms INRIA–UMd run.
pub fn figure9_workload(span_secs: u64, seed: u64) -> WorkloadAnalysis {
    let series = run_inria_umd_ideal_clock(100, span_secs, seed);
    analyze_workload(&series, 128_000.0, FTP_PACKET_BYTES as f64 * 8.0, 200.0)
}

// ---------------------------------------------------------------------------
// Golden impairment traces
// ---------------------------------------------------------------------------

/// The impairment scenario pinned by the golden-trace suite.
pub const GOLDEN_SCENARIO: &str = "bursty-transatlantic";

/// Seeds with checked-in golden reports under `tests/golden/`.
pub const GOLDEN_SEEDS: [u64; 2] = [1993, 4021];

/// The `(δ ms, span s)` slices each golden report covers: the paper's
/// bursty regime (δ = 8 ms, clp ≫ ulp) and its independent-loss regime
/// (δ = 500 ms, losses pass the lag-1 randomness test).
pub const GOLDEN_SLICES: [(u64, u64); 2] = [(8, 60), (500, 300)];

/// Directory of the checked-in golden reports. Resolved at compile time
/// relative to this crate, so `repro --check` works from any working
/// directory of the same checkout.
pub fn golden_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")
}

/// Path of the golden report pinned to `seed`.
pub fn golden_path(seed: u64) -> String {
    format!("{}/{GOLDEN_SCENARIO}-seed{seed}.json", golden_dir())
}

/// One δ-slice of a golden report: the headline loss and ordering metrics
/// plus a digest over every per-probe record, so any behavioral drift —
/// a single RTT one nanosecond off — changes the artifact byte-for-byte.
#[derive(Debug, Serialize)]
pub struct GoldenSlice {
    /// Probe interval δ in ms.
    pub delta_ms: u64,
    /// Probing span in seconds.
    pub span_secs: u64,
    /// Probes sent.
    pub sent: usize,
    /// Probes delivered.
    pub received: usize,
    /// Unconditional loss probability.
    pub ulp: f64,
    /// Conditional loss probability (absent without consecutive data).
    pub clp: Option<f64>,
    /// Palm-identity packet loss gap `1 / (1 − clp)`.
    pub plg_palm: Option<f64>,
    /// Loss-run-length histogram (`run_lengths[k]` = runs of k+1 losses).
    pub run_lengths: Vec<usize>,
    /// Lag-1 χ² independence verdict at α = 0.05.
    pub losses_look_random: bool,
    /// Arrival-order inversions among delivered probes.
    pub reordering: u64,
    /// Probes dropped by the impairment pipeline (burst/flap/corruption).
    pub probe_impair_drops: u64,
    /// FNV-1a 64 digest of the serialized per-probe record vector.
    pub records_fnv1a: String,
}

/// A golden impairment report: one pinned scenario + seed, measured over
/// [`GOLDEN_SLICES`].
#[derive(Debug, Serialize)]
pub struct GoldenReport {
    /// Scenario name, as accepted by `repro --impair`.
    pub scenario: String,
    /// Master seed of every slice.
    pub seed: u64,
    /// Per-δ results, in [`GOLDEN_SLICES`] order.
    pub slices: Vec<GoldenSlice>,
}

/// Measure one `(δ ms, span s)` slice of a named impairment scenario.
pub fn impair_slice(
    sc: &probenet_core::ImpairedScenario,
    seed: u64,
    delta_ms: u64,
    span_secs: u64,
) -> GoldenSlice {
    let out = sc.run(
        seed,
        SimDuration::from_millis(delta_ms),
        SimDuration::from_secs(span_secs),
    );
    let loss = analyze_losses(&out.series);
    let looks_random = loss.losses_look_random(0.05);
    let records = serde_json::to_string(&out.series.records).expect("serializable records");
    GoldenSlice {
        delta_ms,
        span_secs,
        sent: out.series.len(),
        received: out.series.received(),
        ulp: loss.ulp,
        clp: loss.clp,
        plg_palm: loss.plg_palm,
        run_lengths: loss.run_lengths,
        losses_look_random: looks_random,
        reordering: out.series.reordering_count(),
        probe_impair_drops: out.probe_impair_drops,
        records_fnv1a: fnv1a_hex(records.as_bytes()),
    }
}

/// Measure a named scenario over `slices`, scheduled on `threads` pool
/// workers. Slices come back in input order whatever the thread count, so
/// the report is byte-identical for any `threads` — the determinism
/// contract `repro --check` enforces. `None` for an unknown scenario name.
pub fn impair_report(
    name: &str,
    seed: u64,
    slices: &[(u64, u64)],
    threads: usize,
) -> Option<GoldenReport> {
    let sc = impairment_scenario(name)?;
    let slices =
        probenet_core::sched::par_map_threads(threads, slices.to_vec(), |(delta_ms, span_secs)| {
            impair_slice(&sc, seed, delta_ms, span_secs)
        });
    Some(GoldenReport {
        scenario: name.to_string(),
        seed,
        slices,
    })
}

/// Render the golden report for `seed` with its slices scheduled on
/// `threads` pool workers. Slices come back in [`GOLDEN_SLICES`] order
/// whatever the thread count, so the output is byte-identical for any
/// `threads` — the determinism contract `repro --check` enforces.
pub fn golden_report_threads(seed: u64, threads: usize) -> String {
    let report = impair_report(GOLDEN_SCENARIO, seed, &GOLDEN_SLICES, threads)
        .expect("pinned scenario exists");
    let mut body = serde_json::to_string_pretty(&report).expect("serializable golden report");
    body.push('\n');
    body
}

/// [`golden_report_threads`] on a single thread — the canonical rendering
/// the checked-in artifacts were generated with.
pub fn golden_report(seed: u64) -> String {
    golden_report_threads(seed, 1)
}

// ---------------------------------------------------------------------------
// Streaming collector: golden snapshots
// ---------------------------------------------------------------------------

use probenet_stream::{
    fnv1a_hex, BankConfig, Collector, CollectorConfig, CollectorReport, SessionKey, SessionProducer,
};
use probenet_wire::snapshot::SessionFrame;

/// Path of the checked-in streaming-collector snapshot artifact.
pub fn stream_golden_path() -> String {
    format!("{}/stream-snapshots.json", golden_dir())
}

/// Number of simulated collectors the checked-in frame shards model: the
/// golden sessions are split round-robin across this many frame streams.
pub const GOLDEN_FRAME_SHARDS: usize = 2;

/// Path of one checked-in collector frame-stream shard.
pub fn stream_frames_path(shard: usize) -> String {
    format!("{}/stream-frames-c{shard}.bin", golden_dir())
}

/// Path of the checked-in mesh-campaign artifact (`repro mesh`): the
/// [`probenet_mesh::MeshReport`] of `MeshSpec::golden()`.
pub fn mesh_golden_path() -> String {
    format!("{}/mesh-report.json", golden_dir())
}

/// The streaming golden sessions: every `(seed, δ, span)` combination of
/// [`GOLDEN_SEEDS`] × [`GOLDEN_SLICES`] over [`GOLDEN_SCENARIO`].
pub fn stream_session_tasks() -> Vec<(u64, u64, u64)> {
    GOLDEN_SEEDS
        .iter()
        .flat_map(|&seed| {
            GOLDEN_SLICES
                .iter()
                .map(move |&(delta_ms, span_secs)| (seed, delta_ms, span_secs))
        })
        .collect()
}

/// Render the streaming-collector golden report: run every
/// [`stream_session_tasks`] session of the pinned scenario (series
/// generation scheduled on `threads` pool workers), feed them all into one
/// `Collector` ([`collect_sessions`]), and return the report JSON.
///
/// Each session's records are folded in sequence order into its own bank
/// and the report is sorted by session key, so the bytes are identical
/// whatever `threads` or the producer/collector interleaving — the same
/// determinism contract `repro --check` enforces for the batch goldens.
pub fn stream_report_threads(threads: usize) -> String {
    let mut body = stream_collector_report(threads).to_json();
    body.push('\n');
    body
}

/// The report behind [`stream_report_threads`], before JSON rendering —
/// the fleet tooling encodes its sessions as snapshot frames.
pub fn stream_collector_report(threads: usize) -> CollectorReport {
    let sc = impairment_scenario(GOLDEN_SCENARIO).expect("pinned scenario exists");
    let tasks = stream_session_tasks();
    let series_by_task = probenet_core::sched::par_map_threads(
        threads,
        tasks.clone(),
        |(seed, delta_ms, span_secs)| {
            sc.run(
                seed,
                SimDuration::from_millis(delta_ms),
                SimDuration::from_secs(span_secs),
            )
            .series
        },
    );
    let sessions: Vec<(SessionKey, &RttSeries)> = tasks
        .iter()
        .zip(&series_by_task)
        .map(|(&(seed, delta_ms, _), series)| {
            (SessionKey::new(GOLDEN_SCENARIO, delta_ms, seed), series)
        })
        .collect();
    collect_sessions(
        CollectorConfig {
            channel_capacity: 256,
            snapshot_every: 0,
        },
        &sessions,
    )
}

/// Split a report's sessions round-robin across `shards` simulated
/// collectors and encode each collector's back-to-back frame stream —
/// the whole-session sharding whose `probenet-merged` fold is
/// byte-identical to the single-process report.
pub fn frame_shards(report: &CollectorReport, shards: usize) -> Vec<Vec<u8>> {
    assert!(shards > 0, "at least one shard");
    let mut out = vec![Vec::new(); shards];
    for (i, session) in report.sessions.iter().enumerate() {
        out[i % shards].extend_from_slice(&SessionFrame::from_report(session).encode());
    }
    out
}

/// [`stream_report_threads`] on a single thread — the canonical rendering
/// the checked-in artifact was generated with.
pub fn stream_report() -> String {
    stream_report_threads(1)
}

// ---------------------------------------------------------------------------
// Live reactor: loopback engine measurement (`repro live`)
// ---------------------------------------------------------------------------

/// One live-reactor loopback measurement: the payload behind `repro live`.
#[derive(Serialize)]
pub struct LiveEngineRun {
    /// Concurrent probe sessions driven.
    pub sessions: u64,
    /// Lane sockets the sessions were multiplexed onto.
    pub lanes: u64,
    /// Probe interval δ per session, ms.
    pub delta_ms: u64,
    /// Probes scheduled per session.
    pub probes_per_session: u64,
    /// Wall time of the run (including the straggler drain), ms.
    pub wall_ms: f64,
    /// Aggregate probe send rate across all sessions, probes/sec.
    pub aggregate_pps: f64,
    /// Sessions per reactor core. The reactor is a single thread, so this
    /// equals `sessions` — reported explicitly because it is the paper's
    /// scale-out claim ("thousands of concurrent sessions per core").
    pub sessions_per_core: u64,
    /// Timer-wheel fires over the run.
    pub timers_fired: u64,
    /// Median timer-wheel lateness (fire − deadline), µs.
    pub lateness_p50_us: u64,
    /// 90th-percentile timer-wheel lateness, µs.
    pub lateness_p90_us: u64,
    /// 99th-percentile timer-wheel lateness, µs.
    pub lateness_p99_us: u64,
    /// Worst timer-wheel lateness, µs.
    pub lateness_max_us: u64,
    /// Whether `sendmmsg`/`recvmmsg` batching was used (false = the
    /// per-datagram fallback ladder).
    pub used_batching: bool,
    /// Probes handed to the kernel.
    pub probes_sent: u64,
    /// Valid echo replies folded into sessions.
    pub replies_received: u64,
    /// Receive submissions (`recvmmsg` calls plus fallback `recv_from`s).
    pub recv_submissions: u64,
    /// Epoll waits the reactor made. Each ends on a firing tick or a ready
    /// lane, so `timers_fired + recv_submissions` bounds it on a run that
    /// never fills a socket buffer; a reactor that spins exceeds it.
    pub poll_waits: u64,
    /// Records the reactor produced (one per scheduled probe).
    pub produced: u64,
    /// Records the stream collector folded.
    pub records: u64,
    /// Records the bounded SPSC rings rejected (counted, never silent).
    pub dropped: u64,
}

impl LiveEngineRun {
    /// The drop-accounting identity every live run must satisfy: each
    /// produced record is either folded or counted as dropped.
    pub fn accounting_balanced(&self) -> bool {
        self.produced == self.records + self.dropped
    }
}

/// Drive `sessions` concurrent loopback probe sessions (interval
/// `delta_ms`, `probes_per_session` probes each, start offsets staggered
/// across one δ) from a single reactor thread against an in-process
/// [`EchoServer`], stream every record into one collector over bounded
/// SPSC rings, and report rates, lateness percentiles and the
/// drop-accounting identity. Returns the collector report alongside the
/// measurement so callers (`repro live --stream`) can render the
/// estimator banks.
pub fn live_engine_run(
    sessions: usize,
    delta_ms: u64,
    probes_per_session: usize,
) -> std::io::Result<(LiveEngineRun, CollectorReport)> {
    use std::time::Duration;

    assert!(sessions > 0, "live run needs at least one session");
    assert!(delta_ms > 0, "probe interval must be positive");
    let server = EchoServer::spawn("127.0.0.1:0")?;
    let delta = Duration::from_millis(delta_ms);
    let specs: Vec<probenet_live::SessionSpec> = (0..sessions)
        .map(|i| probenet_live::SessionSpec {
            key: SessionKey::new("bench/live", delta_ms, i as u64),
            target: server.local_addr(),
            interval: delta,
            count: probes_per_session,
            // Spread session starts across one δ so sends interleave
            // instead of arriving as a synchronized burst each interval.
            start_offset: Duration::from_nanos(
                delta.as_nanos() as u64 * i as u64 / sessions as u64,
            ),
            clock_resolution_ns: 0,
        })
        .collect();

    // A finished session offers its whole record vector in one burst, so
    // each ring holds one session's probes: nothing is dropped for want of
    // room, whatever the session length.
    let mut collector = Collector::new(CollectorConfig {
        channel_capacity: probes_per_session.max(1),
        snapshot_every: 0,
    });
    // One producer per session, indexed by the seed the spec carries.
    let mut producers: Vec<Option<SessionProducer>> = (0..sessions as u64)
        .map(|s| {
            Some(collector.add_session(
                SessionKey::new("bench/live", delta_ms, s),
                BankConfig::bolot(delta_ms as f64, 72, 0),
            ))
        })
        .collect();
    let running = collector.start();

    let mut produced = 0u64;
    let report = probenet_live::run_sessions(
        specs,
        &probenet_live::LiveConfig::default(),
        |outcome: probenet_live::SessionOutcome| {
            let producer = producers
                .get_mut(outcome.key.seed as usize)
                .and_then(Option::take)
                .expect("one outcome per session");
            for record in outcome.records {
                produced += 1;
                // Non-blocking offer: a rejection (the collector gone)
                // lands in the session's drop counter — the identity
                // below stays exact.
                producer.offer(record);
            }
        },
    )?;
    drop(producers);
    let collected = running.join();

    let run = LiveEngineRun {
        sessions: report.sessions as u64,
        lanes: report.lanes as u64,
        delta_ms,
        probes_per_session: probes_per_session as u64,
        wall_ms: report.wall_ns as f64 / 1e6,
        aggregate_pps: report.aggregate_pps(),
        sessions_per_core: report.sessions as u64,
        timers_fired: report.timers_fired,
        lateness_p50_us: report.lateness_p50_us,
        lateness_p90_us: report.lateness_p90_us,
        lateness_p99_us: report.lateness_p99_us,
        lateness_max_us: report.lateness_max_us,
        used_batching: report.used_batching,
        probes_sent: report.stats.probes_sent,
        replies_received: report.stats.replies_received,
        recv_submissions: report.stats.batched_recv_calls + report.stats.fallback_recv_datagrams,
        poll_waits: report.stats.poll_waits,
        produced,
        records: collected.total_records(),
        dropped: collected.total_dropped(),
    };
    Ok((run, collected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_match_paper_tables() {
        let t1 = table1_route();
        assert_eq!(t1.len(), 10);
        assert_eq!(t1[0], "tom.inria.fr");
        let t2 = table2_route();
        assert_eq!(t2.len(), 13);
        assert_eq!(t2[12], "hub-eh.gw.pitt.edu");
    }

    #[test]
    fn figure2_bundle_is_consistent() {
        let (plot, loss) = figure2_phase(30, 1);
        assert!(!plot.points.is_empty());
        assert_eq!(plot.delta_ms, 50.0);
        assert!(loss.sent > 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_engine_run_balances_drop_accounting() {
        let (run, report) = live_engine_run(8, 5, 4).expect("loopback live run");
        assert_eq!(run.sessions, 8);
        assert_eq!(run.produced, 8 * 4);
        assert!(run.accounting_balanced(), "produced != records + dropped");
        assert_eq!(report.sessions.len(), 8);
        assert!(run.aggregate_pps > 0.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_engine_run_folds_sessions_longer_than_the_default_ring() {
        // 1 500 probes per session arrive as one burst, more than a
        // default 1 024-slot ring holds; the identity balances either way,
        // so only `dropped` shows a ring that is too small.
        let (run, _) = live_engine_run(2, 1, 1_500).expect("loopback live run");
        assert_eq!(run.produced, 2 * 1_500);
        assert_eq!(run.dropped, 0, "the ring must hold a whole session");
        assert_eq!(run.records, run.produced);
    }
}
