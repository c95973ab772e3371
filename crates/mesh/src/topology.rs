//! Deterministic shared-link mesh topologies.
//!
//! An N-host mesh attaches two hosts to each of ⌈N/2⌉ routers, and joins
//! the routers into a chain backbone. Every unordered host pair probes
//! the other end over the unique route through the chain, so the O(N²)
//! probe paths *share* backbone links — the structure the per-link
//! tomography ([`crate::tomography`]) exploits. The existing linear
//! [`Path`] stays the unit of simulation: [`MeshTopology::path_between`]
//! extracts each pair's per-path view from the graph.
//!
//! Two hosts per router is the smallest arrangement that makes every
//! link identifiable from end-to-end loss alone: a same-router pair
//! observes `x_a + x_b` over its two access links, and cross-router
//! pairs difference those sums against the backbone terms. With one
//! host per router, the access link and the first backbone segment only
//! ever appear together, and no set of path measurements separates them.
//!
//! Everything is derived from the mesh seed via splitmix64 — same spec,
//! same topology, byte-for-byte.

use probenet_sim::{BufferLimit, LinkSpec, Path, SimDuration, DEFAULT_TTL};

/// A full mesh campaign specification: the topology and the probing
/// session every host pair runs over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct MeshSpec {
    /// Number of probe hosts (vantage points). At least 2.
    pub hosts: usize,
    /// Master seed: link parameters, cross-traffic streams and per-pair
    /// simulator seeds all derive from it.
    pub seed: u64,
    /// Probe interval δ in milliseconds.
    pub delta_ms: u64,
    /// Probing span per pair, seconds.
    pub span_secs: u64,
}

impl MeshSpec {
    /// The mesh pinned by the golden artifact: 6 hosts (3 routers, 15
    /// probe paths over 8 links), δ = 20 ms for 30 s per pair.
    pub fn golden() -> Self {
        MeshSpec {
            hosts: 6,
            seed: 2026,
            delta_ms: 20,
            span_secs: 60,
        }
    }

    /// Probes each pair sends.
    pub fn probes_per_pair(&self) -> usize {
        usize::try_from(self.span_secs * 1000 / self.delta_ms).expect("probe count fits usize")
    }

    /// The unordered host pairs `(src, dst)`, `src < dst`, in
    /// lexicographic order — the canonical path enumeration every stage
    /// of the campaign shares.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.hosts {
            for j in (i + 1)..self.hosts {
                out.push((i, j));
            }
        }
        out
    }

    /// Build the topology this spec describes.
    pub fn topology(&self) -> MeshTopology {
        MeshTopology::generate(self)
    }
}

/// splitmix64: the seed mixer used throughout (finalizer of Steele et
/// al.'s SplittableRandom). One call maps any 64-bit input to a
/// well-distributed output, so per-link and per-pair streams derived
/// from `(seed, index)` never collide structurally.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What role a mesh link plays. (Rendered as a plain string in the
/// mesh report; the vendored serde derive has no struct-variant
/// support.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Host `host`'s attachment to its router.
    Access {
        /// The attached host.
        host: usize,
    },
    /// Backbone chain segment `segment` (router `segment` to
    /// `segment + 1`).
    Backbone {
        /// The chain segment index.
        segment: usize,
    },
}

/// One link of the mesh, with its stable global identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshLink {
    /// Global link id: access links are `0..hosts` (by host), backbone
    /// segments follow as `hosts..hosts + routers - 1`.
    pub id: u32,
    /// Human-readable name (appears in per-hop frame annotations).
    pub name: String,
    /// Role of this link.
    pub kind: LinkKind,
    /// Simulator parameters.
    pub spec: LinkSpec,
}

/// A generated mesh: hosts, routers, and every link with stable ids.
#[derive(Debug, Clone)]
pub struct MeshTopology {
    /// Number of hosts.
    pub hosts: usize,
    /// Number of routers (`hosts.div_ceil(2)`).
    pub routers: usize,
    /// All links: access first (`0..hosts`), then backbone segments.
    pub links: Vec<MeshLink>,
    /// The seed the parameters were derived from.
    pub seed: u64,
}

/// Bandwidth of non-bottleneck segments: campus Ethernet.
const ACCESS_BPS: u64 = 10_000_000;
/// Bandwidth of non-bottleneck backbone segments: T1.
const T1_BPS: u64 = 1_544_000;
/// The bottleneck backbone segment: the paper's 128 kb/s transatlantic
/// rate, with the same slot-limited buffer as `Path::inria_umd_1992`.
const BOTTLENECK_BPS: u64 = 128_000;
const BOTTLENECK_BUFFER_PKTS: usize = 22;

impl MeshTopology {
    /// Generate the topology for `spec`. Deterministic in `spec` alone.
    ///
    /// # Panics
    /// Panics if `spec.hosts < 2` or `spec.hosts` is odd. Evenness is a
    /// hard contract, not a convenience: an odd mesh leaves its last
    /// router with a single host, whose access link then appears on
    /// exactly the same set of probe paths as the final backbone
    /// segment — identical design-matrix columns, and no end-to-end
    /// measurement can split loss between them (the solver would
    /// silently dump everything on whichever is swept first).
    ///
    /// Also panics if a probe's round trip between the two outermost
    /// hosts would pass [`DEFAULT_TTL`] routers (64 hosts and more): every
    /// router decrements the TTL on the way out and on the way back, so
    /// those probes would expire in the mesh instead of measuring it.
    pub fn generate(spec: &MeshSpec) -> Self {
        assert!(spec.hosts >= 2, "a mesh needs at least two hosts");
        assert!(
            spec.hosts.is_multiple_of(2),
            "mesh hosts must be even: two hosts per router is what keeps \
             every link identifiable from end-to-end loss"
        );
        let routers = spec.hosts.div_ceil(2);
        assert!(
            2 * routers < usize::from(DEFAULT_TTL),
            "mesh of {} hosts: the longest round trip passes {} routers, \
             which exhausts the probes' TTL of {DEFAULT_TTL}",
            spec.hosts,
            2 * routers
        );
        let mut links = Vec::with_capacity(spec.hosts + routers.saturating_sub(1));
        for host in 0..spec.hosts {
            let id = u32::try_from(host).expect("host count fits u32");
            let h = splitmix64(spec.seed ^ (0xacce_u64 << 32) ^ u64::from(id));
            // 200–1000 µs propagation, 0.2–1.2% random interface loss —
            // enough per-link diversity that no two access links look
            // alike to the tomography.
            let prop_us = 200 + h % 800;
            let loss = 0.002 + ((h >> 16) % 1000) as f64 * 1e-5;
            links.push(MeshLink {
                id,
                name: format!("access:h{host:02}"),
                kind: LinkKind::Access { host },
                spec: LinkSpec::new(ACCESS_BPS, SimDuration::from_micros(prop_us))
                    .with_random_loss(loss),
            });
        }
        let backbone_segments = routers.saturating_sub(1);
        let bottleneck_segment = backbone_segments / 2;
        for segment in 0..backbone_segments {
            let id = u32::try_from(spec.hosts + segment).expect("link count fits u32");
            let h = splitmix64(spec.seed ^ (0xbac_u64 << 40) ^ u64::from(id));
            let loss = 0.001 + ((h >> 16) % 500) as f64 * 1e-5;
            let spec_link = if segment == bottleneck_segment {
                // The shared bottleneck every cross-router path funnels
                // through: finite buffer, so overflow drops join the
                // random interface loss in the ground truth.
                LinkSpec::new(BOTTLENECK_BPS, SimDuration::from_micros(20_000 + h % 5_000))
                    .with_buffer(BufferLimit::Packets(BOTTLENECK_BUFFER_PKTS))
                    .with_random_loss(loss)
            } else {
                LinkSpec::new(T1_BPS, SimDuration::from_micros(1_000 + h % 3_000))
                    .with_random_loss(loss)
            };
            links.push(MeshLink {
                id,
                name: format!("backbone:r{segment}-r{}", segment + 1),
                kind: LinkKind::Backbone { segment },
                spec: spec_link,
            });
        }
        MeshTopology {
            hosts: spec.hosts,
            routers,
            links,
            seed: spec.seed,
        }
    }

    /// Router host `host` attaches to.
    pub fn router_of(&self, host: usize) -> usize {
        host / 2
    }

    /// Global id of the backbone bottleneck segment's link, if the mesh
    /// has a backbone at all.
    pub fn bottleneck_link(&self) -> Option<u32> {
        self.links
            .iter()
            .find(|l| l.spec.bandwidth_bps == BOTTLENECK_BPS)
            .map(|l| l.id)
    }

    /// The per-path view of the route from host `src` to host `dst`:
    /// the linear [`Path`] the simulator runs, plus the global link id
    /// of each hop in traversal order.
    ///
    /// # Panics
    /// Panics unless `src < dst < hosts`.
    pub fn path_between(&self, src: usize, dst: usize) -> (Path, Vec<u32>) {
        assert!(src < dst && dst < self.hosts, "src < dst < hosts");
        let (ra, rb) = (self.router_of(src), self.router_of(dst));
        let mut builder = Path::builder(format!("h{src:02}"));
        let mut ids = Vec::new();
        let access = |host: usize| &self.links[host];
        let backbone = |segment: usize| &self.links[self.hosts + segment];
        builder = builder.hop(access(src).spec.clone(), format!("r{ra}"));
        ids.push(access(src).id);
        for segment in ra..rb {
            builder = builder.hop(backbone(segment).spec.clone(), format!("r{}", segment + 1));
            ids.push(backbone(segment).id);
        }
        builder = builder.hop(access(dst).spec.clone(), format!("h{dst:02}"));
        ids.push(access(dst).id);
        (builder.build(), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_mesh_shape() {
        let t = MeshSpec::golden().topology();
        assert_eq!(t.hosts, 6);
        assert_eq!(t.routers, 3);
        // 6 access + 2 backbone links.
        assert_eq!(t.links.len(), 8);
        assert!(t.bottleneck_link().is_some());
        assert_eq!(MeshSpec::golden().pairs().len(), 15);
    }

    #[test]
    fn topology_is_deterministic() {
        let a = MeshSpec::golden().topology();
        let b = MeshSpec::golden().topology();
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn same_router_path_skips_the_backbone() {
        let t = MeshSpec::golden().topology();
        let (path, ids) = t.path_between(0, 1);
        assert_eq!(path.hop_count(), 2);
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn cross_router_path_traverses_segments_in_order() {
        let t = MeshSpec::golden().topology();
        let (path, ids) = t.path_between(0, 4);
        // access(0), backbone r0-r1, backbone r1-r2, access(4).
        assert_eq!(path.hop_count(), 4);
        assert_eq!(ids, vec![0, 6, 7, 4]);
        assert_eq!(path.nodes.first().map(String::as_str), Some("h00"));
        assert_eq!(path.nodes.last().map(String::as_str), Some("h04"));
    }

    #[test]
    fn sixty_two_hosts_fit_the_ttl() {
        let t = MeshSpec {
            hosts: 62,
            seed: 1,
            delta_ms: 20,
            span_secs: 10,
        }
        .topology();
        let (path, _) = t.path_between(0, 61);
        assert_eq!(2 * (path.hop_count() - 1), 62);
    }

    #[test]
    #[should_panic(expected = "TTL of 64")]
    fn a_mesh_whose_round_trip_exhausts_the_ttl_is_rejected() {
        MeshSpec {
            hosts: 64,
            seed: 1,
            delta_ms: 20,
            span_secs: 10,
        }
        .topology();
    }

    #[test]
    fn two_host_mesh_degenerates_to_one_router() {
        let spec = MeshSpec {
            hosts: 2,
            seed: 1,
            delta_ms: 20,
            span_secs: 10,
        };
        let t = spec.topology();
        assert_eq!(t.routers, 1);
        assert_eq!(t.links.len(), 2);
        let (path, ids) = t.path_between(0, 1);
        assert_eq!(path.hop_count(), 2);
        assert_eq!(ids, vec![0, 1]);
    }
}
