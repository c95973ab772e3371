//! Partitioned-parallel equivalence matrix: the conservative-lookahead
//! engine must be **byte-identical** to the serial engine at every
//! partition width, through every consumer layer — raw series records,
//! the stream records handed to ingest, and port statistics. The widths
//! mirror the CI determinism matrix (`PROBENET_THREADS` ∈ {1, 4, 8});
//! these tests pin the width in-process so they are independent of the
//! environment.

use probenet::netdyn::{ExperimentConfig, RttRecord, SimExperiment};
use probenet::sim::{Direction, Path, SimDuration};
use probenet::traffic::InternetMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's transatlantic path, loaded in both directions.
fn experiment(width: usize) -> SimExperiment {
    let cfg = ExperimentConfig::paper(SimDuration::from_millis(20)).with_count(1500);
    let mix = InternetMix::calibrated(128_000, 0.62, 0.10, 3.0);
    let horizon = SimDuration::from_secs(35);
    let out = mix.generate(&mut StdRng::seed_from_u64(21), horizon);
    let back = mix.generate(&mut StdRng::seed_from_u64(22), horizon);
    SimExperiment::new(cfg, Path::inria_umd_1992(), 1993)
        .with_cross_traffic(5, Direction::Outbound, out)
        .with_cross_traffic(5, Direction::Inbound, back)
        .with_partitions(width)
}

#[test]
fn series_and_port_stats_identical_at_all_widths() {
    let (serial_series, serial_run) = experiment(1).run();
    assert_eq!(serial_run.partitions, 1);
    let serial_json = serde_json::to_string(&serial_series.records).expect("serialize");
    let serial_ports: Vec<String> = serial_run
        .port_stats
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    for width in [4usize, 8] {
        let (series, run) = experiment(width).run();
        assert!(run.partitions > 1, "width {width} did not partition");
        assert_eq!(
            serde_json::to_string(&series.records).expect("serialize"),
            serial_json,
            "records diverged at width {width}"
        );
        let ports: Vec<String> = run.port_stats.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(ports, serial_ports, "port stats diverged at width {width}");
        assert_eq!(
            run.now, serial_run.now,
            "final clock diverged at width {width}"
        );
    }
}

#[test]
fn streaming_sink_sees_identical_records_at_all_widths() {
    // The hand-off to streaming ingest is the series' records through
    // `RttRecord::to_stream`, in sequence order.
    let handed_off = |width: usize| {
        let (series, _) = experiment(width).run();
        series
            .records
            .iter()
            .map(RttRecord::to_stream)
            .collect::<Vec<_>>()
    };
    let serial = handed_off(1);
    assert!(serial.iter().map(|r| r.seq).eq(0..1500));
    for width in [4usize, 8] {
        assert_eq!(
            handed_off(width),
            serial,
            "stream records diverged at width {width}"
        );
    }
}

#[test]
fn impaired_path_identical_at_all_widths() {
    // umd_pitt_1993 carries per-link random loss, exercising the per-port
    // RNG streams across partition boundaries.
    let run_at = |width: usize| {
        let cfg = ExperimentConfig::paper(SimDuration::from_millis(10)).with_count(2000);
        let (series, run) = SimExperiment::new(cfg, Path::umd_pitt_1993(), 4021)
            .with_partitions(width)
            .run();
        let mut drops: Vec<(u64, u64, u8, u64)> = run
            .drops
            .iter()
            .map(|d| (d.id.0, d.seq, d.reason as u8, d.at.as_nanos()))
            .collect();
        drops.sort_unstable();
        (
            serde_json::to_string(&series.records).expect("serialize"),
            drops,
        )
    };
    let serial = run_at(1);
    for width in [4usize, 8] {
        assert_eq!(
            run_at(width),
            serial,
            "impaired run diverged at width {width}"
        );
    }
}
