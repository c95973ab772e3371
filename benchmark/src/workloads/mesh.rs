//! `mesh_campaign`: the offline end-to-end trace in one call — simulate
//! every host pair, collect per vantage, encode frames, fold through the
//! merge service, solve the per-link tomography, render the report.

use super::{timed, Iteration, Size, Workload};
use crate::stats::Fnv;
use crate::trace::Tracer;
use probenet_merged::MergeService;
use probenet_mesh::campaign::run_campaign;
use probenet_mesh::{infer_link_exponents, MeshReport, MeshSpec, PathObservation};
use probenet_stream::{BankConfig, Collector, CollectorConfig};
use probenet_wire::snapshot::decode_frames;
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// The stages of a campaign that can be timed again, from outside, on the
/// products `run_campaign` returns. `MeshReport::generate` is one call, so
/// its trace charges these as imputed children and leaves the rest — the
/// simulation itself — as the mesh layer's residual.
#[derive(Debug, Clone, Copy)]
pub struct Children {
    /// Per-vantage `Collector` fold of every pair's series.
    pub stream_fold: Duration,
    /// `SessionFrame::encode` of every frame.
    pub wire_encode: Duration,
    /// `decode_frames` over every host stream.
    pub wire_decode: Duration,
    /// `MergeService::ingest_reader` over every host stream plus
    /// `into_report` (decode included).
    pub merged_fold: Duration,
    /// `infer_link_exponents` on the campaign's observations.
    pub nnls: Duration,
}

/// Run the campaign for `spec` once more and time its stages.
pub fn retime(spec: &MeshSpec) -> Children {
    let run = run_campaign(spec, 1).expect("campaign folds");

    let started = Instant::now();
    for host in 0..spec.hosts {
        let own: Vec<_> = run.outcomes.iter().filter(|o| o.src == host).collect();
        if own.is_empty() {
            continue;
        }
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 256,
            snapshot_every: 0,
        });
        let producers: Vec<_> = own
            .iter()
            .map(|oc| {
                let bank = BankConfig::bolot(
                    spec.delta_ms as f64,
                    oc.series.wire_bytes,
                    oc.series.clock_resolution_ns,
                );
                collector.add_session(oc.key.clone(), bank)
            })
            .collect();
        let running = collector.start();
        for (producer, oc) in producers.into_iter().zip(&own) {
            for r in &oc.series.records {
                assert!(producer.push(r.to_stream()), "collector exited early");
            }
        }
        black_box(running.join());
    }
    let stream_fold = started.elapsed();

    let started = Instant::now();
    let frames: Vec<_> = run
        .host_streams
        .iter()
        .flat_map(|s| decode_frames(s).expect("own frames decode"))
        .collect();
    let wire_decode = started.elapsed();

    let started = Instant::now();
    for frame in &frames {
        black_box(frame.encode());
    }
    let wire_encode = started.elapsed();

    let started = Instant::now();
    let mut service = MergeService::new();
    for stream in &run.host_streams {
        service
            .ingest_reader(&mut Cursor::new(stream))
            .expect("own frames ingest");
    }
    black_box(service.into_report().expect("disjoint sessions fold"));
    let merged_fold = started.elapsed();

    let observations: Vec<PathObservation> = run
        .outcomes
        .iter()
        .map(|oc| {
            let session = run
                .fleet
                .sessions
                .iter()
                .find(|s| s.key == oc.key)
                .expect("every pair folds into the fleet report");
            PathObservation {
                sent: session.snapshot.sent,
                received: session.snapshot.received,
                link_ids: oc.link_ids.clone(),
            }
        })
        .collect();
    let links = spec.topology().links.len();
    let started = Instant::now();
    black_box(infer_link_exponents(&observations, links));
    let nnls = started.elapsed();

    Children {
        stream_fold,
        wire_encode,
        wire_decode,
        merged_fold,
        nnls,
    }
}

/// The workload: a spec, re-seeded per iteration.
pub struct MeshCampaign {
    spec: MeshSpec,
}

impl MeshCampaign {
    /// 10 hosts (45 pairs), δ = 20 ms for 30 s each (quick: 6 hosts, 10 s).
    pub fn new(seed: u64, size: Size) -> MeshCampaign {
        let (hosts, span_secs) = match size {
            Size::Full => (10, 30),
            Size::Quick => (6, 10),
        };
        MeshCampaign {
            spec: MeshSpec {
                hosts,
                seed,
                delta_ms: 20,
                span_secs,
            },
        }
    }
}

impl Workload for MeshCampaign {
    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration {
        let spec = MeshSpec {
            seed: self.spec.seed.wrapping_add(iteration),
            ..self.spec
        };
        let ((report, span), timing) = timed(tr, iteration, |tr, _| {
            let span = tr.open("mesh.generate");
            let report = MeshReport::generate(&spec, 1).expect("campaign folds");
            tr.close(span);
            (report, span)
        });
        if tr.enabled() {
            let c = retime(&spec);
            tr.impute_into(span, "stream.fold", c.stream_fold);
            tr.impute_into(span, "wire.encode", c.wire_encode);
            tr.impute_into(span, "wire.decode", c.wire_decode);
            tr.impute_into(
                span,
                "merged.fold",
                c.merged_fold.saturating_sub(c.wire_decode),
            );
        }

        let pairs = spec.pairs().len() as u64;
        let probes = pairs * spec.probes_per_pair() as u64;
        let mut it = timing.iteration(probes, probes);
        // Accounting, not accuracy: whether every link's attribution lands
        // within tolerance of the ground truth depends on the seed (see
        // README.md, "Baseline facts"), so it is reported as a count.
        it.check(report.fleet_sessions as u64 == pairs, || {
            format!(
                "{} sessions folded for {pairs} pairs",
                report.fleet_sessions
            )
        });
        let per_pair = spec.probes_per_pair() as u64;
        it.check(
            report
                .paths
                .iter()
                .all(|p| p.sent == per_pair && p.received + p.lost == p.sent),
            || "a path's sent / received / lost do not add up".to_string(),
        );
        it.check(
            report
                .paths
                .iter()
                .all(|p| (p.attributed.iter().sum::<f64>() - p.lost as f64).abs() < 1e-6),
            || "a path's per-link attribution does not sum to its loss".to_string(),
        );
        let outside = report.links.iter().filter(|l| !l.within_tolerance).count();
        let mut digest = Fnv::default();
        digest.bytes(report.to_json().as_bytes());
        it.counts = vec![
            ("probes", probes),
            ("pairs", pairs),
            ("links_outside_tolerance", outside as u64),
            ("max_frame_bytes", report.max_frame_bytes),
            ("merged_peak_buffer_bytes", report.ingest_peak_buffer_bytes),
            ("report_digest", digest.finish()),
        ];
        it
    }
}
