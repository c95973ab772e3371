//! Conservative parallel execution: one engine per contiguous node range,
//! synchronized Chandy–Misra–Bryant style.
//!
//! The simulated topology is a linear path, so it partitions naturally at
//! link boundaries: partition `p` owns a contiguous range of nodes (and the
//! ports located at them), and the **only** events that cross a boundary
//! are node arrivals of packets that just traversed the boundary link.
//! That link's propagation delay is the classical CMB *lookahead*: a
//! partition whose clock is at `t` cannot place an arrival into its
//! neighbor before `t + propagation`, so each partition can safely advance
//! to one tick before the minimum of its neighbors' announced guarantees.
//!
//! Guarantees ("null messages") and event batches travel through per-
//! partition mailboxes — a mutex-protected inbox with a condition variable.
//! A partition announces, monotonically:
//!
//! * eastward: `max(prev, L_east + min(next_local_event, west_guarantee))`
//! * westward: `max(prev, L_west + min(next_local_event, west_guarantee,
//!   east_guarantee))`
//!
//! The eastward bound may ignore the east neighbor's clock because
//! westbound traffic can never *cause* an eastbound send (probes turn
//! around only at the echo host, the last node, and TTL replies travel
//! west). That directional acyclicity lets the guarantee chain
//! resolve west-to-east and then east-to-west without a cycle, and the
//! nonzero-propagation invariant (checked at partition time — a zero-
//! lookahead boundary forces a serial run) gives the classical CMB progress
//! argument: the partition holding the globally minimal event always has a
//! safe horizon strictly beyond it, so the system never deadlocks. See
//! DESIGN.md §13 for the full argument.
//!
//! Determinism does not depend on scheduling: cross-boundary arrivals are
//! ordered by packet id (content-derived, identical in serial runs),
//! per-port RNG streams make admission decisions a function of each port's
//! own arrival sequence, and all result merges reduce in fixed
//! partition-index order. A partitioned run is therefore bit-identical to
//! the serial run of the same plan at any partition count.

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

use crate::engine::{CrossDeliveries, Engine, EngineStats, RemoteArrival};
use crate::packet::{Arrival, Delivery, Direction, DropRecord, PacketId, TtlExceeded};
use crate::path::{LinkSpec, Path};
use crate::queue::PortStats;
use crate::time::SimTime;

/// One probe to inject at the source (node 0).
#[derive(Debug, Clone, Copy)]
pub struct ProbeInjection {
    /// Injection instant.
    pub at: SimTime,
    /// Wire size in bytes.
    pub size: u32,
    /// Probe sequence number.
    pub seq: u64,
    /// Initial TTL.
    pub ttl: u8,
    /// Packet id (see [`InjectionPlan::with_serial_ids`]).
    pub id: u64,
}

/// A cross-traffic arrival sequence bound to one port.
#[derive(Debug, Clone)]
pub struct CrossAttachment {
    /// Link index the traffic enters at.
    pub link: usize,
    /// Direction (selects the port at that link).
    pub direction: Direction,
    /// The arrival stream, shared with whoever else attaches it.
    pub arrivals: Arc<[Arrival]>,
    /// Id of the first packet; the rest follow consecutively (see
    /// [`InjectionPlan::with_serial_ids`]).
    pub base_id: u64,
}

/// Everything a run injects, described up front so the same plan can be
/// executed serially or split across partitions with identical packet ids.
#[derive(Debug, Clone, Default)]
pub struct InjectionPlan {
    /// Probes entering at node 0.
    pub probes: Vec<ProbeInjection>,
    /// Cross-traffic attachments.
    pub cross: Vec<CrossAttachment>,
}

impl InjectionPlan {
    /// Assign packet ids exactly as a serial engine's injection counter
    /// would have: cross attachments first (in list order, one id per
    /// arrival), then probes — the order `probenet-netdyn` performs them.
    pub fn with_serial_ids(mut self) -> Self {
        let mut next = 0u64;
        for c in &mut self.cross {
            c.base_id = next;
            next += c.arrivals.len() as u64;
        }
        for p in &mut self.probes {
            p.id = next;
            next += 1;
        }
        self
    }

    fn probe_count(&self) -> usize {
        self.probes.len()
    }
}

/// Merged results of a (possibly partitioned) run.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// All deliveries except cross traffic's, which each engine keeps per
    /// port; partition-local completion order within fixed
    /// partition-index concatenation (NOT global completion order — treat
    /// as a set, or sort by a content key).
    pub deliveries: Vec<Delivery>,
    /// All drops except cross traffic's, concatenated in partition-index
    /// order.
    pub drops: Vec<DropRecord>,
    /// TTL-exceeded notifications, concatenated in partition-index order.
    pub ttl_replies: Vec<TtlExceeded>,
    /// Final simulated time (maximum over partitions — equals the serial
    /// engine's final clock).
    pub now: SimTime,
    /// Merged work counters; `wall` is the facade's elapsed time around the
    /// whole run, so `events_processed / wall` is the real parallel
    /// throughput.
    pub stats: EngineStats,
    /// Per-port statistics in global port-index order (`2 * links`), each
    /// taken from the partition that owns the port.
    pub port_stats: Vec<PortStats>,
    /// Each port's cross-traffic deliveries, indexed like `port_stats`, as
    /// the partition that owns the port logged them;
    /// [`CrossDeliveries::build`] gives [`Engine::cross_deliveries`].
    pub cross_deliveries: Vec<CrossDeliveries>,
    /// Each port's cross-traffic drops, indexed like `port_stats`, as
    /// [`Engine::cross_drops`] of the partition that owns the port.
    pub cross_drops: Vec<Vec<DropRecord>>,
    /// Partition count actually used (1 when a zero-lookahead boundary or a
    /// short path forced a serial run).
    pub partitions: usize,
}

/// The smallest propagation delay link `spec` can ever have, accounting for
/// scheduled route shifts — the value a lookahead bound must use.
fn min_propagation_ns(spec: &LinkSpec) -> u64 {
    let mut m = spec.propagation;
    for shift in &spec.impair.route_shifts {
        if shift.propagation < m {
            m = shift.propagation;
        }
    }
    m.as_nanos()
}

/// Split `nodes` into `k` contiguous, non-empty, near-equal ranges.
fn node_ranges(nodes: usize, k: usize) -> Vec<Range<usize>> {
    let base = nodes / k;
    let extra = nodes % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

struct Inbox {
    msgs: Vec<RemoteArrival>,
    /// West neighbor's guarantee: it will never send an arrival with a
    /// timestamp below this. `u64::MAX` when there is no west neighbor.
    west_clock: u64,
    /// East neighbor's guarantee (`u64::MAX` when absent).
    east_clock: u64,
    /// Bumped on every post; the owner waits for it to change.
    gen: u64,
}

type Mailbox = (Mutex<Inbox>, Condvar);

/// Deliver a batch and/or a clock update to a neighbor's mailbox.
fn post(target: &Mailbox, msgs: Vec<RemoteArrival>, set_clock: impl FnOnce(&mut Inbox)) {
    let mut inbox = target.0.lock().expect("mailbox poisoned");
    inbox.msgs.extend(msgs);
    set_clock(&mut inbox);
    inbox.gen += 1;
    drop(inbox);
    target.1.notify_one();
}

/// Drive one partition until global quiescence. `lookahead_west`/`_east`
/// are the boundary links' minimum propagation delays in nanoseconds
/// (unused when the corresponding neighbor is absent).
fn partition_loop(
    engine: &mut Engine,
    idx: usize,
    lookahead_west: u64,
    lookahead_east: u64,
    boxes: &[Mailbox],
) {
    let me = &boxes[idx];
    let west = idx.checked_sub(1).map(|i| &boxes[i]);
    let east = boxes.get(idx + 1);
    // Last guarantees announced in each direction; announcements are
    // clamped monotone (each computed bound is sound for all *future*
    // sends at the moment it is computed, so the running maximum is too).
    let mut announced_west = 0u64;
    let mut announced_east = 0u64;
    // Force the first pass through without waiting.
    let mut seen_gen = u64::MAX;
    loop {
        let (msgs, g_west, g_east) = {
            let mut inbox = me.0.lock().expect("mailbox poisoned");
            while inbox.gen == seen_gen {
                inbox = me.1.wait(inbox).expect("mailbox poisoned");
            }
            seen_gen = inbox.gen;
            (
                std::mem::take(&mut inbox.msgs),
                inbox.west_clock,
                inbox.east_clock,
            )
        };
        for m in msgs {
            engine.deliver_remote(m);
        }
        // Both neighbors promise nothing below `safe`; everything strictly
        // before it is causally complete and can run.
        let safe = g_west.min(g_east);
        if safe > 0 {
            engine.run_until(SimTime::from_nanos(safe - 1));
        }
        let (to_west, to_east) = engine.take_outboxes();
        let peek = engine.next_event_time().map_or(u64::MAX, |t| t.as_nanos());
        // Any future eastbound send is caused by a local event or a future
        // west-side arrival, never by east-side (westbound) traffic — so
        // the east bound may ignore g_east (directional acyclicity).
        let bound_east = announced_east.max(lookahead_east.saturating_add(peek.min(g_west)));
        let bound_west =
            announced_west.max(lookahead_west.saturating_add(peek.min(g_west).min(g_east)));
        if let Some(w) = west {
            if !to_west.is_empty() || bound_west > announced_west {
                announced_west = bound_west;
                post(w, to_west, |inbox| {
                    inbox.east_clock = inbox.east_clock.max(bound_west);
                });
            }
        } else {
            debug_assert!(to_west.is_empty(), "westbound send from partition 0");
        }
        if let Some(e) = east {
            if !to_east.is_empty() || bound_east > announced_east {
                announced_east = bound_east;
                post(e, to_east, |inbox| {
                    inbox.west_clock = inbox.west_clock.max(bound_east);
                });
            }
        } else {
            debug_assert!(to_east.is_empty(), "eastbound send from the last partition");
        }
        // Quiescent: both neighbors are done forever and nothing is left
        // locally. The final announcements above were `u64::MAX`.
        if g_west == u64::MAX && g_east == u64::MAX && peek == u64::MAX {
            break;
        }
    }
}

/// Execute `plan` over `path`, split into at most `threads` partitions.
///
/// With `threads <= 1`, a short path, or a zero-lookahead boundary, this
/// degenerates to a plain serial run; the outcome is **identical** either
/// way (up to the stated record ordering), which the determinism and
/// golden-trace suites pin down.
pub fn run_partitioned(
    path: &Path,
    seed: u64,
    plan: &InjectionPlan,
    threads: usize,
) -> ParallelOutcome {
    let nodes = path.nodes.len();
    let mut k = threads.clamp(1, nodes);
    let mut ranges = node_ranges(nodes, k);
    // The nonzero-propagation invariant: every boundary link must provide
    // strictly positive lookahead, or conservative synchronization cannot
    // make progress — fall back to a serial run.
    if ranges[1..]
        .iter()
        .any(|r| min_propagation_ns(&path.links[r.start - 1]) == 0)
    {
        k = 1;
        ranges = node_ranges(nodes, 1);
    }

    let mut engines: Vec<Engine> = if k == 1 {
        vec![Engine::new(path.clone(), seed)]
    } else {
        ranges
            .iter()
            .map(|r| Engine::new_partition(path.clone(), seed, r.clone()))
            .collect()
    };

    // Owners: port `l` outbound sits at node `l`; port `l` inbound at
    // node `l + 1`.
    let owner_of_node =
        |n: usize| -> usize { ranges.iter().position(|r| r.contains(&n)).expect("covered") };

    // Apply the plan. Cross traffic goes to the partition owning the
    // attachment port; probes enter at node 0 (always partition 0).
    for c in &plan.cross {
        let node = match c.direction {
            Direction::Outbound => c.link,
            Direction::Inbound => c.link + 1,
        };
        let owner = owner_of_node(node);
        engines[owner].attach_cross_traffic_with_base_id(
            c.link,
            c.direction,
            Arc::clone(&c.arrivals),
            c.base_id,
        );
    }
    engines[0].reserve(plan.probe_count());
    for p in &plan.probes {
        engines[0].inject_probe_with_id(p.at, p.size, p.seq, p.ttl, PacketId(p.id));
    }

    let started = std::time::Instant::now(); // probenet-lint: allow(wall-clock-in-sim, tainted-artifact-path) EngineStats wall-time observability, not sim data
    if k == 1 {
        engines[0].run();
    } else {
        let lookahead: Vec<u64> = ranges[1..]
            .iter()
            .map(|r| min_propagation_ns(&path.links[r.start - 1]))
            .collect();
        let boxes: Vec<Mailbox> = (0..k)
            .map(|i| {
                (
                    Mutex::new(Inbox {
                        msgs: Vec::new(),
                        west_clock: if i == 0 { u64::MAX } else { 0 },
                        east_clock: if i == k - 1 { u64::MAX } else { 0 },
                        gen: 0,
                    }),
                    Condvar::new(),
                )
            })
            .collect();
        // Partitions block on their mailbox condvar, so they need real
        // threads (a work-stealing pool would deadlock); scoped threads
        // let them borrow the engines directly.
        std::thread::scope(|s| {
            let boxes = &boxes;
            let lookahead = &lookahead;
            for (idx, engine) in engines.iter_mut().enumerate() {
                s.spawn(move || {
                    let l_w = if idx == 0 {
                        u64::MAX
                    } else {
                        lookahead[idx - 1]
                    };
                    let l_e = lookahead.get(idx).copied().unwrap_or(u64::MAX);
                    partition_loop(engine, idx, l_w, l_e, boxes);
                });
            }
        });
    }
    let wall = started.elapsed();

    // Merge per-partition results. Every reduction below iterates the
    // engines in ascending partition index — a fixed order independent of
    // thread scheduling — so the merged output is reproducible.
    let mut deliveries = Vec::with_capacity(engines.iter().map(|e| e.deliveries().len()).sum());
    let mut drops = Vec::new();
    let mut ttl_replies = Vec::new();
    let mut events_processed = 0u64;
    let mut peak_queue_depth = 0usize;
    let mut now = SimTime::ZERO;
    for e in &engines {
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        deliveries.extend(e.deliveries().iter().cloned());
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        drops.extend(e.drops().iter().cloned());
        // probenet-lint: allow(unordered-partition-merge) merged in fixed ascending partition-index order
        ttl_replies.extend(e.ttl_replies().iter().cloned());
        let st = e.stats();
        events_processed += st.events_processed;
        peak_queue_depth = peak_queue_depth.max(st.peak_queue_depth);
        now = now.max(e.now());
    }
    // Each port has exactly one owner, so its statistics and cross records
    // come whole from that partition.
    let links = path.links.len();
    let mut port_stats = Vec::with_capacity(links * 2);
    let mut cross_deliveries = Vec::with_capacity(links * 2);
    let mut cross_drops = Vec::with_capacity(links * 2);
    for (direction, node_offset) in [(Direction::Outbound, 0), (Direction::Inbound, 1)] {
        for l in 0..links {
            let owner = &mut engines[owner_of_node(l + node_offset)];
            port_stats.push(owner.port(l, direction).stats.clone());
            let (delivered, dropped) = owner.take_cross(l, direction);
            cross_deliveries.push(delivered);
            cross_drops.push(dropped);
        }
    }

    ParallelOutcome {
        deliveries,
        drops,
        ttl_replies,
        now,
        stats: EngineStats {
            events_processed,
            peak_queue_depth,
            wall,
        },
        port_stats,
        cross_deliveries,
        cross_drops,
        partitions: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::time::SimDuration;

    /// A plan exercising every hop: periodic probes plus cross traffic on
    /// the bottleneck in both directions.
    fn plan(probes: u64, interval_ms: u64, cross_link: usize) -> InjectionPlan {
        let mut p = InjectionPlan::default();
        for (dir, stride_us, count) in [
            (Direction::Outbound, 1700u64, 2500usize),
            (Direction::Inbound, 2300, 1800),
        ] {
            p.cross.push(CrossAttachment {
                link: cross_link,
                direction: dir,
                arrivals: (0..count)
                    .map(|i| Arrival {
                        at: SimTime::from_nanos(i as u64 * stride_us * 1000),
                        size: 40 + ((i * 97) % 1460) as u32,
                    })
                    .collect(),
                base_id: 0,
            });
        }
        for n in 0..probes {
            p.probes.push(ProbeInjection {
                at: SimTime::from_millis(n * interval_ms),
                size: 32,
                seq: n,
                ttl: crate::packet::DEFAULT_TTL,
                id: 0,
            });
        }
        p.with_serial_ids()
    }

    /// Content key making delivery sets comparable across record orders.
    fn delivery_key(d: &Delivery) -> (u64, u64, u64, u64, Option<u64>) {
        (
            d.id.0,
            d.seq,
            d.injected_at.as_nanos(),
            d.delivered_at.as_nanos(),
            d.echoed_at.map(|t| t.as_nanos()),
        )
    }

    /// Content key of a drop record.
    fn drop_key(d: &DropRecord) -> (u64, u64, u64, usize, String) {
        (
            d.id.0,
            d.seq,
            d.at.as_nanos(),
            d.port,
            format!("{:?}", d.reason),
        )
    }

    /// Every record of an outcome; each port's cross logs keep their order,
    /// which the partition owning the port fixes.
    #[allow(clippy::type_complexity)]
    fn outcome_fingerprint(
        o: &ParallelOutcome,
    ) -> (
        Vec<(u64, u64, u64, u64, Option<u64>)>,
        Vec<(u64, u64, u64, usize, String)>,
        Vec<(u64, usize, u64)>,
        u64,
        Vec<(u64, u64, u64, u64)>,
        Vec<Vec<(u64, u64, u64, u64, Option<u64>)>>,
        Vec<Vec<(u64, u64, u64, usize, String)>>,
    ) {
        let mut ds: Vec<_> = o.deliveries.iter().map(delivery_key).collect();
        ds.sort();
        let mut dr: Vec<_> = o.drops.iter().map(drop_key).collect();
        dr.sort();
        let mut tr: Vec<_> = o
            .ttl_replies
            .iter()
            .map(|t| (t.probe_seq, t.node, t.received_at.as_nanos()))
            .collect();
        tr.sort();
        let ps: Vec<_> = o
            .port_stats
            .iter()
            .map(|s| {
                (
                    s.arrivals,
                    s.served,
                    s.overflow_drops,
                    s.busy_time.as_nanos(),
                )
            })
            .collect();
        let cd = o
            .cross_deliveries
            .iter()
            .map(|log| log.build().iter().map(delivery_key).collect())
            .collect();
        let cr = o
            .cross_drops
            .iter()
            .map(|log| log.iter().map(drop_key).collect())
            .collect();
        (ds, dr, tr, o.now.as_nanos(), ps, cd, cr)
    }

    #[test]
    fn partitioned_runs_match_serial_at_all_widths() {
        let path = Path::inria_umd_1992();
        let plan = plan(400, 8, 5);
        let serial = run_partitioned(&path, 42, &plan, 1);
        assert_eq!(serial.partitions, 1);
        assert!(!serial.deliveries.is_empty());
        assert!(serial.cross_deliveries.iter().any(|log| !log.is_empty()));
        let reference = outcome_fingerprint(&serial);
        for k in [2usize, 3, 4, 8] {
            let par = run_partitioned(&path, 42, &plan, k);
            assert!(par.partitions > 1, "width {k} did not partition");
            assert_eq!(
                outcome_fingerprint(&par),
                reference,
                "divergence at {k} partitions"
            );
        }
    }

    #[test]
    fn partitioned_runs_match_serial_with_impairments() {
        // umd_pitt_1993 carries link-level loss; inject enough probes that
        // random loss, TTL expiry, and queue overflow all occur.
        let path = Path::umd_pitt_1993();
        let plan = plan(300, 5, 3);
        let serial = run_partitioned(&path, 7, &plan, 1);
        let reference = outcome_fingerprint(&serial);
        for k in [2usize, 4, 8] {
            let par = run_partitioned(&path, 7, &plan, k);
            assert_eq!(
                outcome_fingerprint(&par),
                reference,
                "divergence at {k} partitions"
            );
        }
    }

    #[test]
    fn zero_lookahead_boundary_falls_back_to_serial() {
        use crate::path::LinkSpec;
        let path = Path::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                LinkSpec::new(1_000_000, SimDuration::ZERO),
                LinkSpec::new(1_000_000, SimDuration::ZERO),
            ],
        );
        let plan = InjectionPlan {
            probes: vec![ProbeInjection {
                at: SimTime::ZERO,
                size: 32,
                seq: 0,
                ttl: crate::packet::DEFAULT_TTL,
                id: 0,
            }],
            cross: Vec::new(),
        }
        .with_serial_ids();
        let out = run_partitioned(&path, 1, &plan, 4);
        assert_eq!(out.partitions, 1, "zero lookahead must force serial");
        assert_eq!(out.deliveries.len(), 1);
    }

    #[test]
    fn partition_count_caps_at_node_count() {
        let path = Path::inria_umd_1992();
        let nodes = path.nodes.len();
        let plan = plan(50, 20, 5);
        let out = run_partitioned(&path, 3, &plan, 64);
        assert!(out.partitions <= nodes);
        assert!(out.partitions > 1);
    }

    #[test]
    fn serial_ids_match_engine_counter_order() {
        let p = InjectionPlan {
            cross: vec![
                CrossAttachment {
                    link: 0,
                    direction: Direction::Outbound,
                    arrivals: Arc::from([
                        Arrival {
                            at: SimTime::ZERO,
                            size: 100,
                        },
                        Arrival {
                            at: SimTime::from_millis(1),
                            size: 100,
                        },
                    ]),
                    base_id: 999,
                },
                CrossAttachment {
                    link: 1,
                    direction: Direction::Inbound,
                    arrivals: Arc::from([Arrival {
                        at: SimTime::ZERO,
                        size: 100,
                    }]),
                    base_id: 999,
                },
            ],
            probes: vec![ProbeInjection {
                at: SimTime::ZERO,
                size: 32,
                seq: 0,
                ttl: 64,
                id: 999,
            }],
        }
        .with_serial_ids();
        assert_eq!(p.cross[0].base_id, 0);
        assert_eq!(p.cross[1].base_id, 2);
        assert_eq!(p.probes[0].id, 3);
    }
}
