//! `live_loopback`: the live path at the documented headline size. An
//! in-process `EchoServer` on 127.0.0.1 (the host's loopback interface, not
//! a real link), thousands of open-loop probe sessions on one reactor
//! thread, every finished session offered into one collector.

use super::{timed, Iteration, Size, Workload};
use crate::stats::highest_supported_percentile;
use crate::trace::Tracer;
use probenet_live::{run_sessions, LiveConfig, LiveReport, SessionSpec};
use probenet_netdyn::EchoServer;
use probenet_stream::{
    BankConfig, Collector, CollectorConfig, LogQuantileSketch, SessionKey, SessionProducer,
};
use std::hint::black_box;
use std::time::Duration;

/// Size of one live run. The offered rate is `sessions / δ` probes per
/// second whatever the system does with them: an open loop.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Probe interval δ of every session, ms.
    pub delta_ms: u64,
    /// Probes per session.
    pub probes: usize,
    /// Echo hosts the sessions are spread across, round-robin.
    pub echo_hosts: usize,
}

impl Shape {
    /// 4 000 sessions at δ = 125 ms (32 k probes/s offered) for `seconds`
    /// (quick: 200 sessions at δ = 25 ms, 8 probes).
    pub fn of(size: Size, seconds: f64) -> Shape {
        match size {
            Size::Full => Shape {
                probes: ((seconds * 1000.0 / 125.0) as usize).max(4),
                ..Shape::headline(4)
            },
            Size::Quick => Shape {
                sessions: 200,
                delta_ms: 25,
                probes: 8,
                echo_hosts: 2,
            },
        }
    }

    /// The headline session count and rate for `probes` probes each.
    pub fn headline(probes: usize) -> Shape {
        Shape {
            sessions: 4000,
            delta_ms: 125,
            probes,
            echo_hosts: 16,
        }
    }
}

/// The workload: an echo host and the session specs; the collector is
/// built in set-up and rebuilt for any further run.
pub struct LiveLoopback {
    shape: Shape,
    echoes: Vec<EchoServer>,
    specs: Vec<SessionSpec>,
    collector: Option<(Collector, Vec<Option<SessionProducer>>)>,
}

impl LiveLoopback {
    /// Spawn the echo host and lay out the sessions. The seed rotates which
    /// session gets which start offset within the first δ.
    pub fn new(seed: u64, shape: Shape) -> LiveLoopback {
        let echoes: Vec<EchoServer> = (0..shape.echo_hosts)
            .map(|_| EchoServer::spawn("127.0.0.1:0").expect("bind loopback echo host"))
            .collect();
        let delta = Duration::from_millis(shape.delta_ms);
        let n = shape.sessions as u64;
        let specs = (0..n)
            .map(|i| SessionSpec {
                key: SessionKey::new("live-loopback", shape.delta_ms, i),
                target: echoes[i as usize % echoes.len()].local_addr(),
                interval: delta,
                count: shape.probes,
                start_offset: Duration::from_nanos(
                    delta.as_nanos() as u64 * ((i + seed % n) % n) / n,
                ),
                clock_resolution_ns: 0,
            })
            .collect();
        let mut live = LiveLoopback {
            shape,
            echoes,
            specs,
            collector: None,
        };
        live.collector = Some(live.build_collector());
        live
    }

    /// `(echoed, dropped)` summed over the echo hosts.
    fn echo_stats(&self) -> (u64, u64) {
        self.echoes
            .iter()
            .map(|e| e.stats())
            .fold((0, 0), |(e, d), s| (e + s.echoed, d + s.dropped))
    }

    fn build_collector(&self) -> (Collector, Vec<Option<SessionProducer>>) {
        let mut collector = Collector::new(CollectorConfig {
            channel_capacity: 1024,
            snapshot_every: 0,
        });
        let producers = self
            .specs
            .iter()
            .map(|spec| {
                Some(collector.add_session(
                    spec.key.clone(),
                    BankConfig::bolot(self.shape.delta_ms as f64, 72, 0),
                ))
            })
            .collect();
        (collector, producers)
    }
}

/// Counters the sink gathers across session outcomes.
#[derive(Default)]
struct SinkTotals {
    outcomes: u64,
    produced: u64,
    decode_errors: u64,
}

impl Workload for LiveLoopback {
    fn single_shot(&self) -> bool {
        true
    }

    fn iterate(&mut self, iteration: u64, tr: &mut Tracer) -> Iteration {
        let (collector, mut producers) = self
            .collector
            .take()
            .unwrap_or_else(|| self.build_collector());
        let echo_before = self.echo_stats();
        let specs = self.specs.clone();
        let mut totals = SinkTotals::default();

        let ((live, collected), timing) = timed(tr, iteration, |tr, _| {
            let running = collector.start();
            let span = tr.open("live.run_sessions");
            let live: LiveReport = run_sessions(specs, &LiveConfig::default(), |outcome| {
                let offer = tr.open("stream.offer");
                let producer = producers
                    .get_mut(outcome.key.seed as usize)
                    .and_then(Option::take)
                    .expect("one outcome per session");
                totals.outcomes += 1;
                totals.decode_errors += outcome.decode_errors;
                for record in outcome.records {
                    totals.produced += 1;
                    // Non-blocking: a full ring rejects and counts.
                    producer.offer(record);
                }
                tr.close(offer);
            })
            .expect("live run on loopback");
            tr.close(span);
            producers.clear();
            let collected = tr.time("stream.join", || running.join());
            tr.time("stream.report_json", || {
                black_box(collected.to_json());
            });
            (live, collected)
        });
        let echo_after = self.echo_stats();

        let produced = totals.produced;
        let (records, dropped) = (collected.total_records(), collected.total_dropped());
        let received: u64 = collected.sessions.iter().map(|s| s.snapshot.received).sum();
        let lost: u64 = collected.sessions.iter().map(|s| s.snapshot.lost).sum();
        let echoed = echo_after.0 - echo_before.0;

        let mut it = timing.iteration(received, produced);
        it.failed = lost + dropped;
        it.check(totals.outcomes == self.shape.sessions as u64, || {
            format!(
                "{} outcomes for {} sessions",
                totals.outcomes, self.shape.sessions
            )
        });
        it.check(records + dropped == produced, || {
            format!("records {records} + dropped {dropped} != produced {produced}")
        });
        it.check(
            live.stats.stray_datagrams == 0 && totals.decode_errors == 0,
            || {
                format!(
                    "{} stray datagrams, {} decode errors",
                    live.stats.stray_datagrams, totals.decode_errors
                )
            },
        );
        it.check(echoed >= live.stats.replies_received, || {
            format!(
                "echo host echoed {echoed} < {} replies",
                live.stats.replies_received
            )
        });
        it.check((lost + dropped) * 100 < produced.max(1), || {
            format!("{lost} lost + {dropped} dropped of {produced} is 1 % or more")
        });

        let mut sketch = LogQuantileSketch::new();
        for session in &collected.sessions {
            sketch.merge(session.bank.sketch());
        }
        let rtt_us = |q: f64| sketch.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
        let hi = highest_supported_percentile(sketch.total());
        let sent = live.stats.probes_sent.max(1) as f64;
        let s = &live.stats;
        let syscalls = s.batched_send_calls
            + s.fallback_send_datagrams
            + s.batched_recv_calls
            + s.fallback_recv_datagrams;
        it.layer = vec![
            (
                "live.delivered_pps",
                received as f64 / it.wall.as_secs_f64(),
            ),
            (
                "live.cpu_us_per_probe",
                it.cpu.cpu().as_secs_f64() * 1e6 / sent,
            ),
            ("live.cpu_sys_share", it.cpu.sys_share()),
            ("live.syscalls_per_probe", syscalls as f64 / sent),
            ("live.lateness_p50_us", live.lateness_p50_us as f64),
            ("live.lateness_p90_us", live.lateness_p90_us as f64),
            ("live.lateness_p99_us", live.lateness_p99_us as f64),
            ("live.lateness_max_us", live.lateness_max_us as f64),
            ("live.rtt_p50_us", rtt_us(0.5)),
            ("live.rtt_hi_us", rtt_us(hi)),
            (
                "live.backpressure_deferrals",
                s.backpressure_deferrals as f64,
            ),
            ("live.stray_datagrams", s.stray_datagrams as f64),
            (
                "live.used_batching",
                f64::from(u8::from(live.used_batching)),
            ),
            ("netdyn.echo_echoed", echoed as f64),
            ("netdyn.echo_dropped", (echo_after.1 - echo_before.1) as f64),
        ];
        it.counts = vec![
            ("produced", produced),
            ("dropped", dropped),
            ("sessions", self.shape.sessions as u64),
            ("lanes", live.lanes as u64),
        ];
        it
    }
}
