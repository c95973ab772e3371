//! Linear multi-hop path topologies.
//!
//! The paper studies one connection at a time: a sequence of nodes joined by
//! point-to-point links, traversed out to an echo host and back. [`Path`]
//! captures exactly that, plus two named topologies calibrated to the routes
//! the paper measured (its Tables 1 and 2).

use crate::impair::ImpairmentSpec;
use crate::time::SimDuration;

/// How much a port may buffer before drop-tail kicks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferLimit {
    /// At most this many packets queued (not counting the one in service).
    Packets(usize),
    /// At most this many bytes queued (not counting the one in service).
    Bytes(u64),
    /// No limit (lossless queue).
    Unbounded,
}

impl BufferLimit {
    /// Would a queue currently holding `pkts` packets / `bytes` bytes accept
    /// one more packet of `size` bytes?
    pub fn admits(self, pkts: usize, bytes: u64, size: u32) -> bool {
        match self {
            BufferLimit::Packets(k) => pkts < k,
            BufferLimit::Bytes(b) => bytes + size as u64 <= b,
            BufferLimit::Unbounded => true,
        }
    }
}

/// Static description of one point-to-point link. Each direction is served
/// by its own drop-tail FIFO port (the paper's Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Transmission rate in bits per second (the μ of the paper when this is
    /// the bottleneck link).
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Buffer limit of the transmit queue feeding this link (each direction
    /// has its own queue with this limit).
    pub buffer: BufferLimit,
    /// Probability that a packet entering this link is lost at random
    /// (faulty-interface model; applied independently per packet and per
    /// direction).
    pub random_loss: f64,
    /// Fault-injection pipeline of this link (bursty loss, reordering,
    /// duplication, corruption, flaps, route shifts). Inert by default;
    /// applies to both directions, each with its own RNG stream.
    pub impair: ImpairmentSpec,
}

impl LinkSpec {
    /// A link with the given rate and propagation delay, a 64-packet buffer
    /// and no random loss.
    pub fn new(bandwidth_bps: u64, propagation: SimDuration) -> Self {
        LinkSpec {
            bandwidth_bps,
            propagation,
            buffer: BufferLimit::Packets(64),
            random_loss: 0.0,
            impair: ImpairmentSpec::none(),
        }
    }

    /// Replace the buffer limit.
    pub fn with_buffer(mut self, buffer: BufferLimit) -> Self {
        self.buffer = buffer;
        self
    }

    /// Replace the random-loss probability.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_random_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.random_loss = p;
        self
    }

    /// Replace the fault-injection pipeline (see [`crate::impair`]).
    pub fn with_impairments(mut self, impair: ImpairmentSpec) -> Self {
        self.impair = impair;
        self
    }
}

/// A linear path: `nodes[0]` is the probe source (and, as in the paper,
/// also the destination), `nodes.last()` is the echo host, and `links[i]`
/// joins `nodes[i]` to `nodes[i+1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node names, source first, echo host last.
    pub nodes: Vec<String>,
    /// Links; `links.len() == nodes.len() - 1`.
    pub links: Vec<LinkSpec>,
}

impl Path {
    /// Build a path from node names and link specs.
    ///
    /// # Panics
    /// Panics unless there are at least two nodes and exactly
    /// `nodes.len() - 1` links.
    pub fn new(nodes: Vec<String>, links: Vec<LinkSpec>) -> Self {
        assert!(nodes.len() >= 2, "a path needs at least two nodes");
        assert_eq!(
            links.len(),
            nodes.len() - 1,
            "a path of n nodes needs n-1 links"
        );
        Path { nodes, links }
    }

    /// Start building a path at the named source node.
    pub fn builder(source: impl Into<String>) -> PathBuilder {
        PathBuilder {
            nodes: vec![source.into()],
            links: Vec::new(),
        }
    }

    /// Number of links (hops) one way.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Index and spec of the slowest link — the bottleneck μ of the paper.
    pub fn bottleneck(&self) -> (usize, &LinkSpec) {
        self.links
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.bandwidth_bps)
            .expect("path has at least one link")
    }

    /// The fixed round-trip component `D`: twice the propagation plus the
    /// per-hop transmission time of a `probe_size`-byte packet in each
    /// direction, with no queueing anywhere.
    ///
    /// This is what the cluster near `(D, D)` in the paper's phase plots
    /// measures.
    pub fn base_rtt(&self, probe_size: u32) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for link in &self.links {
            let one_way =
                link.propagation + SimDuration::transmission(probe_size, link.bandwidth_bps);
            total += one_way * 2;
        }
        total
    }

    /// The route between INRIA and the University of Maryland as measured by
    /// `traceroute` in July 1992 (the paper's Table 1).
    ///
    /// The transatlantic link between `icm-sophia.icp.net` (node 4) and
    /// `Ithaca.NY.NSS.NSF.NET` (node 5) is the 128 kb/s bottleneck.
    /// Propagation delays are calibrated so the no-queueing round-trip time
    /// of a 32-byte probe is ≈ 140 ms, the `D` the paper reads off Figure 2.
    pub fn inria_umd_1992() -> Path {
        let eth = 10_000_000; // 10 Mb/s campus/regional segments
        let t1 = 1_544_000; // T1 backbone segments
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        Path::new(
            vec![
                "source.inria.fr".into(), // the DECstation 5000 source host
                "tom.inria.fr".into(),
                "t8-gw.inria.fr".into(),
                "sophia-gw.atlantic.fr".into(),
                "icm-sophia.icp.net".into(),
                "Ithaca.NY.NSS.NSF.NET".into(),
                "Ithaca1.NY.NSS.NSF.NET".into(),
                "nss-SURA-eth.sura.net".into(),
                "sura8-umd-c1.sura.net".into(),
                "csc2hub-gw.umd.edu".into(),
                "avwhub-gw.umd.edu".into(), // echo host at UMd
            ],
            vec![
                LinkSpec::new(eth, us(200)),
                LinkSpec::new(eth, us(300)),
                LinkSpec::new(t1, ms(2)),
                LinkSpec::new(t1, us(500)),
                // Transatlantic 128 kb/s bottleneck between icm-sophia and
                // Ithaca (the paper's nodes 4 and 5); its finite buffer is
                // where overflow losses happen. Propagation calibrated so
                // the no-load RTT of a 72-byte wire probe is ≈ 140 ms (D in
                // the paper's Figure 2). The buffer is slot-limited, as
                // early-90s router queues were: 22 slots of 512-byte bulk
                // packets drain in ~700 ms, bracketing the paper's observed
                // maximum queueing delay of ~620 ms (its §4).
                LinkSpec::new(128_000, us(49_750)).with_buffer(BufferLimit::Packets(22)),
                LinkSpec::new(t1, ms(2)),
                // SURA regional segment: carries the random loss the paper
                // attributes to faulty interface cards (ref [17], "up to
                // 3%"); two lossy interfaces crossed twice put the random
                // floor near the paper's ~10% ulp plateau.
                LinkSpec::new(eth, ms(8)).with_random_loss(0.022),
                LinkSpec::new(eth, ms(2)).with_random_loss(0.022),
                LinkSpec::new(eth, us(300)),
                LinkSpec::new(eth, us(200)),
            ],
        )
    }

    /// The route between the University of Maryland and the University of
    /// Pittsburgh in May 1993 (the paper's Table 2): a T3 (45 Mb/s) ANSnet
    /// backbone path whose bottleneck is far faster than the INRIA–UMd
    /// transatlantic link.
    pub fn umd_pitt_1993() -> Path {
        let eth = 10_000_000;
        let fddi = 100_000_000; // campus FDDI backbone segments
        let t3 = 45_000_000;
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        Path::new(
            vec![
                "lena.cs.umd.edu".into(),
                "avw1hub-gw.umd.edu".into(),
                "csc2hub-gw.umd.edu".into(),
                "192.221.38.5".into(),
                "en-0.enss136.t3.nsf.net".into(),
                "t3-1.Washington-DC-cnss58.t3.ans.net".into(),
                "t3-3.Washington-DC-cnss56.t3.ans.net".into(),
                "t3-0.New-York-cnss32.t3.ans.net".into(),
                "t3-1.Cleveland-cnss40.t3.ans.net".into(),
                "t3-0.Cleveland-cnss41.t3.ans.net".into(),
                "t3-0.enss132.t3.ans.net".into(),
                "externals.gw.pitt.edu".into(),
                "136.142.2.54".into(),
                "hub-eh.gw.pitt.edu".into(), // echo host at Pitt
            ],
            vec![
                LinkSpec::new(fddi, us(200)),
                LinkSpec::new(fddi, us(200)),
                LinkSpec::new(fddi, us(300)),
                LinkSpec::new(t3, ms(1)),
                LinkSpec::new(t3, us(300)),
                LinkSpec::new(t3, us(300)),
                LinkSpec::new(t3, ms(2)),
                LinkSpec::new(t3, ms(3)),
                LinkSpec::new(t3, us(300)),
                LinkSpec::new(t3, ms(1)),
                // The Pittsburgh campus Ethernet: the unique (if unproven —
                // "it is not clear which link in the path is the
                // bottleneck") slowest link of this path.
                LinkSpec::new(eth, us(500)).with_buffer(BufferLimit::Packets(50)),
                LinkSpec::new(eth, us(300)),
                LinkSpec::new(eth, us(200)),
            ],
        )
    }
}

/// Incremental [`Path`] construction.
#[derive(Debug)]
pub struct PathBuilder {
    nodes: Vec<String>,
    links: Vec<LinkSpec>,
}

impl PathBuilder {
    /// Append a link to a new node.
    pub fn hop(mut self, link: LinkSpec, node: impl Into<String>) -> Self {
        self.links.push(link);
        self.nodes.push(node.into());
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if no hop was added.
    pub fn build(self) -> Path {
        Path::new(self.nodes, self.links)
    }
}

/// A minimal two-node path realizing the paper's Figure-3 model directly:
/// a fixed delay `fixed_rtt` (split evenly over propagation of the single
/// link, both directions) and one FIFO bottleneck of rate `mu_bps` with the
/// given buffer, between a source and an echo host.
///
/// The return direction gets an effectively infinite-rate, lossless queue so
/// that *all* queueing happens at the single modelled bottleneck, exactly as
/// in the paper's analysis.
pub fn figure3_model(mu_bps: u64, fixed_rtt: SimDuration, buffer: BufferLimit) -> Path {
    // One link traversed twice: propagation per direction = fixed_rtt / 2.
    Path::new(
        vec!["source".into(), "echo".into()],
        vec![LinkSpec::new(mu_bps, fixed_rtt / 2).with_buffer(buffer)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn buffer_limit_admits() {
        assert!(BufferLimit::Packets(2).admits(1, 999, 100));
        assert!(!BufferLimit::Packets(2).admits(2, 0, 1));
        assert!(BufferLimit::Bytes(100).admits(5, 68, 32));
        assert!(!BufferLimit::Bytes(100).admits(0, 69, 32));
        assert!(BufferLimit::Unbounded.admits(usize::MAX - 1, u64::MAX - 1, 1));
    }

    #[test]
    fn builder_matches_new() {
        let p = Path::builder("a")
            .hop(LinkSpec::new(1_000_000, SimDuration::from_millis(1)), "b")
            .hop(LinkSpec::new(2_000_000, SimDuration::from_millis(2)), "c")
            .build();
        assert_eq!(p.nodes, vec!["a", "b", "c"]);
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    #[should_panic(expected = "n-1 links")]
    fn mismatched_links_panic() {
        Path::new(vec!["a".into(), "b".into()], vec![]);
    }

    #[test]
    fn inria_umd_matches_table1() {
        let p = Path::inria_umd_1992();
        // Table 1 lists 10 nodes after the source.
        assert_eq!(p.nodes.len(), 11);
        assert_eq!(p.hop_count(), 10);
        let (i, b) = p.bottleneck();
        assert_eq!(b.bandwidth_bps, 128_000);
        assert_eq!(p.nodes[i], "icm-sophia.icp.net");
        assert_eq!(p.nodes[i + 1], "Ithaca.NY.NSS.NSF.NET");
    }

    #[test]
    fn inria_umd_base_rtt_near_140ms() {
        // The paper reads D ≈ 140 ms off the phase plot for a 32-byte probe.
        let d = Path::inria_umd_1992().base_rtt(32).as_millis_f64();
        assert!(
            (135.0..=145.0).contains(&d),
            "base RTT {d} ms not within calibration band"
        );
    }

    #[test]
    fn umd_pitt_matches_table2() {
        let p = Path::umd_pitt_1993();
        // Table 2 lists 14 nodes including the source host.
        assert_eq!(p.nodes.len(), 14);
        assert_eq!(p.hop_count(), 13);
        let (_, b) = p.bottleneck();
        // Far faster bottleneck than the 128 kb/s transatlantic link.
        assert!(b.bandwidth_bps >= 10_000_000);
    }

    #[test]
    fn figure3_model_base_rtt_is_fixed_plus_service() {
        let p = figure3_model(
            128_000,
            SimDuration::from_millis(140),
            BufferLimit::Packets(30),
        );
        // D + two 2 ms transmissions of the 32-byte probe (out and back).
        assert_eq!(p.base_rtt(32), SimDuration::from_millis(144));
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bad_loss_probability_panics() {
        let _ = LinkSpec::new(1, SimDuration::ZERO).with_random_loss(1.5);
    }
}
