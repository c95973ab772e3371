//! The mesh campaign: simulate every probe pair, collect per-vantage
//! sessions, fold the fleet through the merge daemon, and decompose
//! end-to-end loss/queueing onto shared links.
//!
//! Pipeline (every stage order-fixed, so the report is byte-identical
//! at any thread count):
//!
//! 1. [`MeshSpec::pairs`] enumerates the O(N²) probe paths; each pair's
//!    linear path is simulated independently
//!    ([`probenet_netdyn::SimExperiment`]), on the engine its thread
//!    recycled from the pair before, with cross traffic whose
//!    streams are seeded **per global link** — every path crossing a
//!    shared link sees the same load. Each link's streams are generated
//!    once per campaign, and every pair that crosses it shares them by
//!    reference: its engine reads them in place.
//! 2. One [`Collector`](probenet_stream::Collector) per vantage host folds
//!    that host's sessions ([`collect_sessions`]);
//!    shard keys carry `(src, dst, δ, seed)` via
//!    [`SessionKey::mesh`](probenet_stream::SessionKey::mesh).
//! 3. Each vantage's report is encoded as a snapshot-frame stream with
//!    per-hop [`HopAnnotation`]s (the `TAG_HOPS` section, tag 11) and all
//!    streams are folded through [`MergeService::ingest_reader`] — the
//!    same incremental path a real fleet daemon runs.
//! 4. Ground truth (per-link probe drops) is read back from the
//!    *decoded* frame annotations, proving the tag-11 section survives the
//!    wire; the tomography pass ([`crate::tomography`]) infers the same
//!    quantities from end-to-end loss alone and the report compares the
//!    two within the loosest of [`TOLERANCE_REL`], [`TOLERANCE_ABS`] and
//!    [`TOLERANCE_RATE`].

use std::io::Cursor;
use std::sync::Arc;

use probenet_core::sched::par_map_threads;
use probenet_merged::{MergeError, MergeService};
use probenet_netdyn::{collect_sessions, recycle_run, ExperimentConfig, RttSeries, SimExperiment};
use probenet_sim::{Direction, FlowClass, SimDuration};
use probenet_stream::{fnv1a_hex, CollectorConfig, CollectorReport, SessionKey};
use probenet_traffic::{Arrival, InternetMix};
use probenet_wire::snapshot::{decode_frames, HopAnnotation, SessionFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::tomography::{
    attribute_losses, infer_link_exponents, rate_from_exponent, PathObservation,
};
use crate::topology::{splitmix64, LinkKind, MeshSpec, MeshTopology};

/// Cross-traffic utilization offered to each backbone link (fraction of
/// its bandwidth), matching the paper scenarios' calibrated mix.
const CROSS_UTILIZATION: f64 = 0.5;

/// Relative slack of the tomography-vs-ground-truth check: per link,
/// attributed loss must land within this fraction of the true drop
/// count (or within one of the absolute slacks below, whichever is
/// loosest). Loss attribution splits each path's losses by *inferred
/// rates*, while the truth realizes finite-sample noise on a few
/// hundred probes per path, so exact agreement is not expected; see
/// DESIGN.md §15.
pub const TOLERANCE_REL: f64 = 0.35;

/// Absolute slack of the tomography check, in probes. Covers links whose
/// true drop counts are small enough that relative error is meaningless.
pub const TOLERANCE_ABS: f64 = 25.0;

/// Rate-unit slack: 0.25% of the link's probe-traversal volume (every
/// path crossing it, out and back). The solver's error is naturally a
/// *rate* error — a low-loss link estimated by differencing paths that
/// all cross the 128 kb/s bottleneck inherits a few tenths of a percent
/// of absolute rate uncertainty regardless of its own loss — so the
/// loss-count slack must scale with how many traversals that rate
/// multiplies.
pub const TOLERANCE_RATE: f64 = 0.0025;

/// Everything measured about one probe pair's path.
#[derive(Debug)]
pub struct PathOutcome {
    /// Source (vantage) host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// The session's shard key.
    pub key: SessionKey,
    /// The measured RTT series.
    pub series: RttSeries,
    /// Global link ids in hop order.
    pub link_ids: Vec<u32>,
    /// Ground-truth probe drops per hop (aligned with `link_ids`),
    /// from the simulator's drop records.
    pub hop_probe_drops: Vec<u64>,
    /// No-load round trip of the path, ms.
    pub base_rtt_ms: f64,
}

/// Cross traffic of every global link, by id: the outbound and inbound
/// streams of each backbone link, `None` for access links.
type LinkStreams = Vec<Option<[Arc<[Arrival]>; 2]>>;

/// Generate each backbone link's two streams once for the campaign. They
/// are seeded by the *global* link id: every path crossing a shared link
/// competes with the identical load, which is what correlates their
/// losses.
fn link_streams(spec: &MeshSpec, topo: &MeshTopology, threads: usize) -> LinkStreams {
    let horizon = SimDuration::from_secs(spec.span_secs + 2);
    par_map_threads(threads, topo.links.iter().collect(), |link| {
        if !matches!(link.kind, LinkKind::Backbone { .. }) {
            return None;
        }
        let mix = InternetMix::calibrated(link.spec.bandwidth_bps, CROSS_UTILIZATION, 0.2, 3.0);
        Some([0u64, 1].map(|salt| {
            let stream_seed =
                splitmix64(spec.seed ^ 0xc055_0000 ^ (u64::from(link.id) << 8) ^ salt);
            Arc::from(mix.generate(&mut StdRng::seed_from_u64(stream_seed), horizon))
        }))
    })
}

/// Simulate one pair of the mesh.
fn run_pair(
    spec: &MeshSpec,
    topo: &MeshTopology,
    streams: &LinkStreams,
    src: usize,
    dst: usize,
) -> PathOutcome {
    let (path, link_ids) = topo.path_between(src, dst);
    let delta = SimDuration::from_millis(spec.delta_ms);
    let config = ExperimentConfig::quick(delta, spec.probes_per_pair());
    let wire_bytes = config.wire_bytes();
    let pair_seed =
        splitmix64(spec.seed ^ 0x7061_6972_0000_0000 ^ ((src as u64) << 20) ^ dst as u64);
    let mut experiment = SimExperiment::new(config, path.clone(), pair_seed);
    for (local, &gid) in link_ids.iter().enumerate() {
        let Some([outbound, inbound]) = &streams[gid as usize] else {
            continue;
        };
        experiment = experiment
            .with_cross_traffic(local, Direction::Outbound, Arc::clone(outbound))
            .with_cross_traffic(local, Direction::Inbound, Arc::clone(inbound));
    }
    let (series, run) = experiment.run();
    let mut hop_probe_drops = vec![0u64; link_ids.len()];
    for d in &run.drops {
        if d.class != FlowClass::Probe {
            continue;
        }
        // Port convention: outbound `0..links`, inbound `links..2·links`
        // — both directions belong to the same hop.
        let local = if d.port < run.links {
            d.port
        } else {
            d.port - run.links
        };
        hop_probe_drops[local] += 1;
    }
    // The next pair on this thread resets this engine onto its own path.
    recycle_run(run);
    PathOutcome {
        src,
        dst,
        key: SessionKey::mesh(mesh_name(spec), src, dst, spec.delta_ms, spec.seed),
        series,
        link_ids,
        hop_probe_drops,
        base_rtt_ms: path.base_rtt(wire_bytes).as_millis_f64(),
    }
}

/// The mesh's scenario name, embedded in every shard key.
pub fn mesh_name(spec: &MeshSpec) -> String {
    format!("mesh{}-s{}", spec.hosts, spec.seed)
}

/// The raw products of a campaign, before report rendering.
pub struct MeshRun {
    /// Per-pair outcomes, in [`MeshSpec::pairs`] order.
    pub outcomes: Vec<PathOutcome>,
    /// One encoded frame stream per vantage host (hosts with no
    /// sessions — the last host — contribute an empty stream).
    pub host_streams: Vec<Vec<u8>>,
    /// The fleet report folded from every host stream through the
    /// merge daemon's incremental reader.
    pub fleet: CollectorReport,
    /// The daemon's staging high-water mark while folding.
    pub ingest_peak_buffer_bytes: usize,
    /// Largest single encoded frame across all streams.
    pub max_frame_bytes: usize,
}

/// Run the campaign for `spec`, simulating pairs on `threads` pool
/// workers. Output is byte-identical for any `threads`.
pub fn run_campaign(spec: &MeshSpec, threads: usize) -> Result<MeshRun, MergeError> {
    let topo = spec.topology();
    let streams = link_streams(spec, &topo, threads);
    let outcomes = par_map_threads(threads, spec.pairs(), |(src, dst)| {
        run_pair(spec, &topo, &streams, src, dst)
    });

    // One collector per vantage host: host i owns every session it
    // sourced. Sessions register in pair order, so each vantage's
    // report and frame stream are order-fixed.
    let mut host_streams: Vec<Vec<u8>> = Vec::with_capacity(spec.hosts);
    let mut max_frame_bytes = 0usize;
    for host in 0..spec.hosts {
        let own: Vec<&PathOutcome> = outcomes.iter().filter(|o| o.src == host).collect();
        let mut stream = Vec::new();
        if !own.is_empty() {
            let sessions: Vec<(SessionKey, &RttSeries)> =
                own.iter().map(|oc| (oc.key.clone(), &oc.series)).collect();
            let report = collect_sessions(
                CollectorConfig {
                    channel_capacity: 256,
                    snapshot_every: 0,
                },
                &sessions,
            );
            for session in &report.sessions {
                let oc = own
                    .iter()
                    .find(|o| o.key == session.key)
                    .expect("every session maps to an outcome");
                let mut frame = SessionFrame::from_report(session);
                frame.hops = oc
                    .link_ids
                    .iter()
                    .zip(&oc.hop_probe_drops)
                    .map(|(&link, &probe_drops)| HopAnnotation {
                        link,
                        name: topo.links[link as usize].name.clone(),
                        probe_drops,
                    })
                    .collect();
                let bytes = frame.encode();
                max_frame_bytes = max_frame_bytes.max(bytes.len());
                stream.extend_from_slice(&bytes); // probenet-lint: allow(unordered-partition-merge) frames appended in the collector report's key-sorted session order
            }
        }
        host_streams.push(stream);
    }

    // Fold every vantage's stream through the daemon's incremental
    // reader — the same code path a TCP fan-in exercises.
    let mut service = MergeService::new();
    for stream in &host_streams {
        service.ingest_reader(&mut Cursor::new(stream))?;
    }
    let ingest_peak_buffer_bytes = service.peak_buffer_bytes();
    let fleet = service.into_report()?;

    Ok(MeshRun {
        outcomes,
        host_streams,
        fleet,
        ingest_peak_buffer_bytes,
        max_frame_bytes,
    })
}

/// One link's row of the mesh report: configuration, ground truth, and
/// what the tomography inferred from end-to-end observations alone.
#[derive(Debug, Serialize)]
pub struct LinkRow {
    /// Global link id.
    pub id: u32,
    /// Link name (as carried in the hop annotations).
    pub name: String,
    /// `"access"` or `"backbone"`.
    pub kind: String,
    /// Configured bandwidth, bits/s.
    pub bandwidth_bps: u64,
    /// Configured per-traversal random-loss probability.
    pub configured_random_loss: f64,
    /// Ground truth: probes dropped on this link, summed over every
    /// path's simulation — read back from the decoded tag-11 hop
    /// annotations, not from in-process state.
    pub truth_probe_drops: u64,
    /// Loss attributed to this link by the tomography decomposition,
    /// summed over paths.
    pub attributed_loss: f64,
    /// Inferred per-traversal loss exponent `x_l`.
    pub inferred_exponent: f64,
    /// Inferred per-traversal loss rate `1 - e^{-x_l}`.
    pub inferred_rate: f64,
    /// Mean queueing delay attributed to this link, ms (split of each
    /// path's `mean_rtt - base_rtt` by the same inferred weights).
    pub attributed_queueing_ms: f64,
    /// Did `attributed_loss` land within tolerance of the truth?
    pub within_tolerance: bool,
}

/// One probe path's row of the mesh report.
#[derive(Debug, Serialize)]
pub struct PathRow {
    /// The session shard key, rendered.
    pub key: String,
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Probes sent / delivered / lost end to end.
    pub sent: u64,
    /// Probes delivered.
    pub received: u64,
    /// Probes lost.
    pub lost: u64,
    /// No-load round trip, ms.
    pub base_rtt_ms: f64,
    /// Mean measured round trip, ms (absent if nothing was delivered).
    pub mean_rtt_ms: Option<f64>,
    /// Global link ids in hop order.
    pub links: Vec<u32>,
    /// Loss attributed to each hop (aligned with `links`); sums to
    /// `lost` by construction.
    pub attributed: Vec<f64>,
}

/// The golden mesh artifact: topology, per-path measurements, per-link
/// decomposition and its ground-truth validation.
#[derive(Debug, Serialize)]
pub struct MeshReport {
    /// The campaign specification.
    pub spec: MeshSpec,
    /// Per-link rows, by global id.
    pub links: Vec<LinkRow>,
    /// Per-path rows, in pair order.
    pub paths: Vec<PathRow>,
    /// Sessions in the folded fleet report.
    pub fleet_sessions: usize,
    /// FNV-1a digest of the folded fleet report's JSON rendering.
    pub fleet_fnv1a: String,
    /// The merge daemon's staging high-water mark while folding the
    /// host streams.
    pub ingest_peak_buffer_bytes: u64,
    /// Largest single frame on any host stream (the bound the ingest
    /// buffer must respect).
    pub max_frame_bytes: u64,
    /// Did every link's attribution land within tolerance?
    pub all_links_within_tolerance: bool,
}

impl MeshReport {
    /// Run the campaign and assemble the report.
    pub fn generate(spec: &MeshSpec, threads: usize) -> Result<Self, MergeError> {
        let topo = spec.topology();
        let run = run_campaign(spec, threads)?;

        // Ground truth comes from the *decoded* hop annotations: the tag-11
        // section must survive encode → daemon fan-in → decode.
        let mut truth = vec![0u64; topo.links.len()];
        for stream in &run.host_streams {
            for frame in decode_frames(stream).expect("own streams decode") {
                for hop in &frame.hops {
                    truth[hop.link as usize] += hop.probe_drops;
                }
            }
        }

        let observations: Vec<PathObservation> = run
            .outcomes
            .iter()
            .map(|oc| PathObservation {
                sent: run
                    .fleet
                    .sessions
                    .iter()
                    .find(|s| s.key == oc.key)
                    .map(|s| s.snapshot.sent)
                    .expect("every pair folds into the fleet report"),
                received: run
                    .fleet
                    .sessions
                    .iter()
                    .find(|s| s.key == oc.key)
                    .map(|s| s.snapshot.received)
                    .expect("every pair folds into the fleet report"),
                link_ids: oc.link_ids.clone(),
            })
            .collect();
        let exponents = infer_link_exponents(&observations, topo.links.len());
        let attribution = attribute_losses(&observations, &exponents);

        // Queueing-delay decomposition: each path's mean excess over its
        // no-load RTT, split by the same inferred weights as its losses.
        let mut queueing = vec![0.0f64; topo.links.len()];
        let mut queueing_paths = vec![0u64; topo.links.len()];
        for (oc, obs) in run.outcomes.iter().zip(&observations) {
            let rtts = oc.series.delivered_rtts_ms();
            if rtts.is_empty() {
                continue;
            }
            let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
            let excess = (mean - oc.base_rtt_ms).max(0.0);
            let weights: Vec<f64> = obs
                .link_ids
                .iter()
                .map(|&l| exponents[l as usize])
                .collect();
            let total: f64 = weights.iter().sum();
            for (&l, &w) in obs.link_ids.iter().zip(&weights) {
                let share = if total > 0.0 {
                    w / total
                } else {
                    1.0 / weights.len() as f64
                };
                queueing[l as usize] += excess * share;
                queueing_paths[l as usize] += 1;
            }
        }

        let mut attributed_per_link = vec![0.0f64; topo.links.len()];
        for (obs, row) in observations.iter().zip(&attribution) {
            for (&l, &a) in obs.link_ids.iter().zip(row) {
                attributed_per_link[l as usize] += a;
            }
        }

        // Probe-traversal volume per link: 2·sent for every path that
        // crosses it — the scale the rate-unit slack multiplies.
        let mut volume = vec![0.0f64; topo.links.len()];
        for obs in &observations {
            for &l in &obs.link_ids {
                volume[l as usize] += 2.0 * obs.sent as f64;
            }
        }

        let mut all_within = true;
        let links: Vec<LinkRow> = topo
            .links
            .iter()
            .map(|link| {
                let l = link.id as usize;
                let truth_drops = truth[l];
                let slack = TOLERANCE_ABS
                    .max(TOLERANCE_REL * truth_drops as f64)
                    .max(TOLERANCE_RATE * volume[l]);
                let within = (attributed_per_link[l] - truth_drops as f64).abs() <= slack;
                all_within &= within;
                LinkRow {
                    id: link.id,
                    name: link.name.clone(),
                    kind: match link.kind {
                        LinkKind::Access { .. } => "access".to_string(),
                        LinkKind::Backbone { .. } => "backbone".to_string(),
                    },
                    bandwidth_bps: link.spec.bandwidth_bps,
                    configured_random_loss: link.spec.random_loss,
                    truth_probe_drops: truth_drops,
                    attributed_loss: attributed_per_link[l],
                    inferred_exponent: exponents[l],
                    inferred_rate: rate_from_exponent(exponents[l]),
                    attributed_queueing_ms: if queueing_paths[l] > 0 {
                        queueing[l] / queueing_paths[l] as f64
                    } else {
                        0.0
                    },
                    within_tolerance: within,
                }
            })
            .collect();

        let paths: Vec<PathRow> = run
            .outcomes
            .iter()
            .zip(&observations)
            .zip(&attribution)
            .map(|((oc, obs), row)| {
                let rtts = oc.series.delivered_rtts_ms();
                PathRow {
                    key: oc.key.to_string(),
                    src: oc.src,
                    dst: oc.dst,
                    sent: obs.sent,
                    received: obs.received,
                    lost: obs.lost(),
                    base_rtt_ms: oc.base_rtt_ms,
                    mean_rtt_ms: (!rtts.is_empty())
                        .then(|| rtts.iter().sum::<f64>() / rtts.len() as f64),
                    links: obs.link_ids.clone(),
                    attributed: row.clone(),
                }
            })
            .collect();

        Ok(MeshReport {
            spec: *spec,
            links,
            paths,
            fleet_sessions: run.fleet.sessions.len(),
            fleet_fnv1a: fnv1a_hex(run.fleet.to_json().as_bytes()),
            ingest_peak_buffer_bytes: run.ingest_peak_buffer_bytes as u64,
            max_frame_bytes: run.max_frame_bytes as u64,
            all_links_within_tolerance: all_within,
        })
    }

    /// Render as pretty JSON with a trailing newline — the golden
    /// artifact format.
    pub fn to_json(&self) -> String {
        let mut body = serde_json::to_string_pretty(self).expect("serializable mesh report");
        body.push('\n');
        body
    }
}
