//! Real networking: the NetDyn probe tool over actual UDP sockets.
//!
//! Spawns the echo server on loopback, runs a probing experiment against
//! it, and analyzes the result with the same pipeline used on simulated
//! data. Pass an address to probe a remote echo server instead, or
//! `--serve <addr>` to run only the echo side on a real host:
//!
//! ```sh
//! cargo run --release --example udp_echo                     # loopback demo
//! cargo run --release --example udp_echo -- --serve 0.0.0.0:9900   # echo host
//! cargo run --release --example udp_echo -- 192.0.2.1:9900   # probe a host
//! ```

use std::time::Duration;

use probenet::core::analyze_loss_flags;
use probenet::netdyn::{run_probes, EchoServer, ExperimentConfig};
use probenet::sim::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--serve") {
        let addr = args.get(1).map(String::as_str).unwrap_or("0.0.0.0:9900");
        let server = EchoServer::spawn(addr).expect("bind echo server");
        println!("echo server listening on {}", server.local_addr());
        println!("press Ctrl-C to stop");
        loop {
            std::thread::sleep(Duration::from_secs(5));
            let s = server.stats();
            println!(
                "echoed {} | dropped {} | decode errors {}",
                s.echoed, s.dropped, s.decode_errors
            );
        }
    }

    // Default: loopback demo with fault injection so losses are visible.
    let (server, target) = match args.first() {
        Some(addr) => (None, addr.parse().expect("server address")),
        None => {
            let server =
                EchoServer::spawn_with_loss("127.0.0.1:0", 0.10, 3).expect("bind echo server");
            println!(
                "spawned loopback echo server on {} with 10% fault injection",
                server.local_addr()
            );
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };

    // 500 probes of 32 bytes, 20 ms apart — one of the paper's settings,
    // compressed into a 10-second run.
    let config = ExperimentConfig::quick(SimDuration::from_millis(20), 500);
    println!(
        "sending {} probes to {target} at {} intervals...",
        config.count, config.interval
    );
    let (series, stats) =
        run_probes(target, &config, Duration::from_millis(500)).expect("probe run");

    println!(
        "\nsent {} | received {} | lost {} | duplicates {}",
        series.len(),
        series.received(),
        series.lost(),
        stats.duplicates
    );
    if let Some(min) = series.min_rtt_ms() {
        let rtts = series.delivered_rtts_ms();
        let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
        let max = rtts.iter().copied().fold(0.0f64, f64::max);
        println!("rtt: min {min:.3} ms | mean {mean:.3} ms | max {max:.3} ms");
    }
    // clp and the gap are undefined when no probe is lost.
    let loss = analyze_loss_flags(&series.loss_flags());
    let or_na = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.3}"));
    println!(
        "loss: ulp {:.3}, clp {}, gap {}, random? {}",
        loss.ulp,
        or_na(loss.clp),
        or_na(loss.plg_measured),
        loss.losses_look_random(0.01)
    );
    drop(server);
}
