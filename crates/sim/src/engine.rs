//! The discrete-event engine: packets traversing a linear path out to an
//! echo host and back, through per-direction FIFO ports, with cross traffic
//! sharing any subset of the queues.
//!
//! The engine reproduces the measurement setup of the paper's Section 2:
//! the source (node 0) injects fixed-size probe packets; the echo host (last
//! node) immediately turns them around; deliveries back at the source yield
//! the round-trip series `rtt_n`. Probes that overflow a finite buffer, are
//! randomly lost on a link, or exceed their TTL never come back — exactly
//! the `rtt_n = 0` convention of the paper's Section 3.
//!
//! ## Hot path
//!
//! Packets live in a generation-checked [`PacketArena`]; events carry 8-byte
//! [`PacketRef`] handles, so a queue entry is 32 bytes and admission moves a
//! handle instead of cloning the packet. Same-instant hops (router
//! forwarding, the echo turnaround, TTL replies) are dispatched inline
//! rather than round-tripped through the event queue, and the run loop
//! pops the rest one by one from [`EventQueue`], a binary heap on
//! `(time, lane)`.
//! Pre-generated traffic — cross-traffic arrival vectors
//! ([`Engine::attach_cross_traffic`]) and periodic probe trains
//! ([`Engine::inject_probe_train`]) — is fed one packet at a time: each
//! source keeps exactly one pending event and allocates its packet only
//! when that event pops, so the queue and the arena hold what is in
//! flight, not the whole run. The lanes and ids of a source are reserved
//! in one block at attachment, so the feed pops and records exactly what
//! scheduling every packet up front would have. Cross traffic usually
//! costs no event at all: its port folds it (below). All
//! randomness that affects admission is drawn from **per-port** RNG streams
//! (disjoint from the impairment streams), so a port's random-loss
//! decisions depend only on its own arrival sequence — the property that
//! lets a partitioned run reproduce the serial one exactly.
//!
//! A hop costs a queued event only when another input could reach its
//! port first. When a packet starts service its departure is fixed, so it
//! is forwarded then and there: its node arrival is computed at once and
//! its `TxDone` takes its lane but is queued only if a packet waits behind
//! it (the port otherwise completes lazily, at the next arrival whose
//! `(time, lane)` key is later, or when the run ends). If no queued event
//! will act on the port that arrival enters — a per-port count of `Feed`
//! (of sources the port does not fold), `Arrive`, `Admit`, entering
//! `NodeArrival` and `TxDone` events — the arrival runs inline, ahead of
//! the clock, and so on down the path until a port with a count, or node
//! 0, whose deliveries stay events. Drop records made ahead of the
//! clock wait in a buffer keyed by `(time, lane)` until the run loop
//! passes them. Packets crossing a link with a pending route shift or no
//! propagation delay, a partition boundary, or the `run_until` horizon
//! keep the queued path, and no arrival runs inline in a partition or in
//! a run with TTL-limited probes or a trace.
//! `events_processed` still counts each logical event once. See
//! DESIGN.md §9, "Inline hops".
//!
//! ## Cross traffic folded into its port
//!
//! A port whose inputs it can order itself folds its cross traffic: it
//! takes its sources' pre-generated arrivals in `(time, lane)` order when
//! a packet is offered to it and at the end of a run (up to the horizon).
//! Each arrival runs through the fault injectors, random loss and
//! [`Port::offer`], and each completion through [`Port::complete`], in one
//! loop with no `Feed` or `TxDone` event. Any other packet is forwarded
//! when it is admitted, since FIFO service has fixed its departure. The
//! fold rests on one ordering fact: an arrival at a folded port carries a
//! packet-id lane or a lane taken before the first run, while a
//! completion's lane was taken during a run, so at one instant every
//! arrival comes first. Cross traffic's deliveries and drops stay with its
//! port ([`Engine::cross_deliveries`], [`Engine::cross_drops`]) on either
//! path, so no record waits for another port's. The first run decides
//! which ports fold: all ports on links without route shifts, in a
//! serial, untraced engine whose links neither reorder, duplicate nor
//! have (or get) a zero delay, and only if every port with cross traffic
//! is among them. Otherwise every port keeps the queued path. See
//! DESIGN.md §9, "Cross traffic folded into its port".
//!
//! ## Partitioned operation
//!
//! An engine can own a contiguous sub-range of the path's nodes
//! ([`Engine::new_partition`]). It then processes only events at its own
//! nodes and ports; a packet crossing the boundary is placed in an outbox
//! ([`Engine::take_outboxes`]) instead of the local queue, and remote
//! packets enter through [`Engine::deliver_remote`]. Cross-boundary
//! arrivals are ordered by a content-derived lane (the packet id, which is
//! itself derived from injection order or the generating port/node — never
//! from a global counter), so the merged execution is independent of the
//! partition count; see DESIGN.md §13.

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arena::{PacketArena, PacketRef};
use crate::event::{EventQueue, LOCAL_LANE};
use crate::impair::{port_stream_seed, Fate, ImpairmentState};
use crate::packet::{
    Arrival, Delivery, Direction, DropReason, DropRecord, FlowClass, Packet, PacketId, TtlExceeded,
    DEFAULT_TTL,
};
use crate::path::{LinkSpec, Path};
use crate::queue::{Admission, Occupant, Port};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind};

/// Size in bytes of the simulated TTL-exceeded reply (an ICMP time-exceeded
/// message: 20-byte IP header + 8-byte ICMP header + 28 bytes of the
/// offending datagram).
pub const TTL_REPLY_SIZE: u32 = 56;

/// Bit marking a packet id generated at runtime (duplicates, TTL replies)
/// rather than assigned at injection. Runtime ids are derived from the
/// generating site and a per-site counter, so they are identical in serial
/// and partitioned runs.
const RUNTIME_ID_BIT: u64 = 1 << 62;
/// Additional bit marking TTL-exceeded replies among runtime ids.
const REPLY_ID_BIT: u64 = 1 << 61;
/// Shift of the generating port/node index within a runtime id.
const ID_SITE_SHIFT: u32 = 40;

#[derive(Debug)]
enum Ev {
    /// A packet reaches a port's queue.
    Arrive { port: u32, r: PacketRef },
    /// A port's server finishes transmitting its head packet.
    TxDone { port: u32 },
    /// A packet arrives at a node after crossing a link.
    NodeArrival { node: u32, r: PacketRef },
    /// A link's propagation delay changes (a route change re-homing this
    /// hop onto a longer or shorter physical path).
    SetPropagation { link: u32, value: SimDuration },
    /// A packet (re-)enters a port's queue downstream of the fault
    /// injectors: reorder-deferred packets and duplicate copies, which must
    /// not run the impairment pipeline a second time.
    Admit { port: u32, r: PacketRef },
    /// The next packet of `sources[source]` reaches its port.
    Feed { source: u32 },
}

/// Pre-generated packets fed to one port one at a time. A source keeps
/// exactly one pending [`Ev::Feed`], for its next packet, and schedules
/// the one after when that pops. Packet `i` (its index in the caller's
/// input) gets id `base_id + i`, sequence number `i` and queue lane
/// `base_lane + i`: what it would have had if every packet had been
/// scheduled at attachment.
#[derive(Debug)]
struct Source {
    port: usize,
    class: FlowClass,
    direction: Direction,
    base_id: u64,
    base_lane: u64,
    feed: Feed,
    /// Whether its port folds it: its packets never become events (its
    /// first [`Ev::Feed`], scheduled before the fold was planned, pops as
    /// a no-op).
    folded: bool,
}

#[derive(Debug)]
enum Feed {
    /// A caller's arrival stream, shared and never copied.
    Stream(Stream),
    /// Packet `n < count` of `size` bytes at `start + n·interval`; `next`
    /// is the first one not yet fed.
    Train {
        start: SimTime,
        interval: SimDuration,
        size: u32,
        next: u64,
        count: u64,
    },
}

/// A cursor over a shared arrival stream, read in `(at, index)` order.
#[derive(Debug)]
struct Stream {
    arrivals: Arc<[Arrival]>,
    /// For input that is not sorted by time, the indices of `arrivals` in
    /// `(at, index)` order; empty for sorted input, which is read in
    /// place. Callers need not pass sorted input.
    order: Vec<u32>,
    /// Position in that order of the next packet to feed.
    next: u32,
}

impl Stream {
    fn new(arrivals: Arc<[Arrival]>) -> Stream {
        let len = u32::try_from(arrivals.len()).expect("fewer than 2^32 packets per source");
        let mut order = Vec::new();
        // Generated streams arrive sorted, which this check confirms in
        // one read.
        if !arrivals.is_sorted_by_key(|a| a.at) {
            order = (0..len).collect();
            // Stable: packets of one instant keep their index order.
            order.sort_by_key(|&i| arrivals[i as usize].at);
        }
        Stream {
            arrivals,
            order,
            next: 0,
        }
    }

    /// The next packet to feed: `(at, size, index)`.
    #[inline]
    fn head(&self) -> Option<(SimTime, u32, u32)> {
        let index = if self.order.is_empty() {
            self.next
        } else {
            *self.order.get(self.next as usize)?
        };
        let a = self.arrivals.get(index as usize)?;
        Some((a.at, a.size, index))
    }
}

impl Feed {
    /// Packets in the source, fed or not.
    fn len(&self) -> u64 {
        match self {
            Feed::Stream(stream) => stream.arrivals.len() as u64,
            Feed::Train { count, .. } => *count,
        }
    }

    /// The next packet to feed: `(at, size, index)`.
    fn head(&self) -> Option<(SimTime, u32, u64)> {
        match *self {
            Feed::Stream(ref stream) => stream
                .head()
                .map(|(at, size, index)| (at, size, u64::from(index))),
            Feed::Train {
                start,
                interval,
                size,
                next,
                count,
            } => (next < count).then(|| (start + interval * next, size, next)),
        }
    }

    fn advance(&mut self) {
        match self {
            Feed::Stream(stream) => stream.next += 1,
            Feed::Train { next, .. } => *next += 1,
        }
    }

    /// The stream of a cross-traffic source.
    #[inline]
    fn stream(&self) -> &Stream {
        match self {
            Feed::Stream(stream) => stream,
            Feed::Train { .. } => unreachable!("cross traffic comes from streams"),
        }
    }

    #[inline]
    fn stream_mut(&mut self) -> &mut Stream {
        match self {
            Feed::Stream(stream) => stream,
            Feed::Train { .. } => unreachable!("cross traffic comes from streams"),
        }
    }
}

/// Fast-path bookkeeping for one port (see "Inline hops" in the module
/// docs).
#[derive(Debug, Clone, Copy, Default)]
struct PortSched {
    /// Scheduled events that will act on the port: [`Ev::Arrive`],
    /// [`Ev::Admit`], a [`Ev::NodeArrival`] entering it and its
    /// [`Ev::TxDone`], plus one per traffic source the port does not fold
    /// with packets left (its one pending [`Ev::Feed`]). At zero, nothing
    /// queued can reach the
    /// port before a packet forwarded into it, so that arrival may run
    /// inline.
    pending: u32,
    /// `(done, lane)` of the packet in service when it was forwarded at
    /// service start: its departure instant and the lane its `TxDone`
    /// would have had.
    departure: Option<(SimTime, u64)>,
    /// Whether that `TxDone` is scheduled, because a packet waits behind
    /// it. Otherwise the port completes lazily: at the next arrival whose
    /// key is later, or when the run ends.
    tx_scheduled: bool,
}

/// A port's fold state (see "Cross traffic folded into its port" in the
/// module docs); `active` while the port folds. The packets it holds are
/// its port's queue entries ([`Occupant`]).
#[derive(Debug, Default)]
struct Fold {
    active: bool,
    /// Indices into [`Engine::sources`] of its cross sources with packets
    /// left.
    sources: Vec<u32>,
    /// The next of their packets.
    next: Option<Next>,
    /// `TxDone` instant of the packet in service, and the run (counted in
    /// [`Engine::fold_runs`]) that started its service.
    done: SimTime,
    run: usize,
}

impl Fold {
    /// Back to a port that does not fold, keeping the buffers.
    fn reset(&mut self) {
        self.active = false;
        self.sources.clear();
        self.next = None;
        self.done = SimTime::ZERO;
        self.run = 0;
    }

    /// Find the next packet of its sources.
    fn find_next(&mut self, sources: &[Source]) {
        let mut next: Option<Next> = None;
        for (i, &s) in self.sources.iter().enumerate() {
            let source = &sources[s as usize];
            if let Some((at, size, index)) = source.feed.stream().head() {
                let lane = source.base_lane + u64::from(index);
                if next.is_none_or(|n| (at, lane) < (n.at, n.lane)) {
                    next = Some(Next {
                        at,
                        lane,
                        i,
                        source: s,
                        size,
                        index,
                    });
                }
            }
        }
        self.next = next;
    }

    /// Take the next packet and find the one after it.
    #[inline]
    fn take(&mut self, sources: &mut [Source]) -> Next {
        let taken = self.next.expect("a packet left");
        let source = &mut sources[taken.source as usize];
        let stream = source.feed.stream_mut();
        stream.next += 1;
        match stream.head() {
            Some((at, size, index)) if self.sources.len() == 1 => {
                let lane = source.base_lane + u64::from(index);
                self.next = Some(Next {
                    at,
                    lane,
                    size,
                    index,
                    ..taken
                });
            }
            Some(_) => self.find_next(sources),
            None => {
                self.sources.swap_remove(taken.i);
                self.find_next(sources);
            }
        }
        taken
    }

    /// A service that run `run` starts ends at `done`.
    fn start(&mut self, done: SimTime, run: usize) {
        self.done = done;
        self.run = run;
    }
}

/// The next packet a fold takes: its arrival key `(at, lane)`, its
/// source's position `i` in [`Fold::sources`] and index `source` in the
/// engine, and its size and index in that source's stream.
#[derive(Debug, Clone, Copy)]
struct Next {
    at: SimTime,
    lane: u64,
    i: usize,
    source: u32,
    size: u32,
    index: u32,
}

/// A cross packet's delivery as its port logs it: only what the engine
/// cannot recompute. Its id is kept because a duplicate's is a runtime id;
/// class, sequence number and injection instant follow from its source
/// and index ([`Engine::cross_deliveries`]).
#[derive(Debug, Clone, Copy)]
struct CrossDelivery {
    id: PacketId,
    delivered_at: SimTime,
    source: u32,
    index: u32,
}

const _: () = assert!(std::mem::size_of::<CrossDelivery>() <= 24);

impl CrossDelivery {
    fn build(&self, class: FlowClass, arrivals: &[Arrival]) -> Delivery {
        Delivery {
            id: self.id,
            class,
            seq: u64::from(self.index),
            injected_at: arrivals[self.index as usize].at,
            echoed_at: None,
            delivered_at: self.delivered_at,
        }
    }
}

/// A port's cross-traffic deliveries taken out of an engine, as a
/// partitioned run returns them ([`crate::ParallelOutcome`]): the records
/// the port logged and the streams they index. Nothing is built until
/// [`CrossDeliveries::build`] is called.
#[derive(Debug, Default)]
pub struct CrossDeliveries {
    records: Vec<CrossDelivery>,
    /// Class and arrivals of each of the engine's sources, by source
    /// index; `None` for a probe train.
    sources: Vec<Option<(FlowClass, Arc<[Arrival]>)>>,
}

impl CrossDeliveries {
    /// The deliveries in service order, as [`Engine::cross_deliveries`]
    /// builds them.
    pub fn build(&self) -> Vec<Delivery> {
        self.records
            .iter()
            .map(|d| {
                let (class, arrivals) = self.sources[d.source as usize]
                    .as_ref()
                    .expect("cross records come from streams");
                d.build(*class, arrivals)
            })
            .collect()
    }

    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the port delivered no cross packet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A port's cross-traffic records: deliveries in service order, drops in
/// drop order (arrival order on a port that folds).
///
/// [`Engine::cross`] keeps them by hop, not by port: the log of link `l`
/// outbound is `cross[2·l]` and inbound `cross[2·l + 1]`
/// ([`Engine::cross_slot`]). Port numbers put the inbound half after all
/// `L` outbound ports, so they shift with the link count; hop slots do
/// not, and a log reserved for every packet attached to a hop keeps that
/// capacity for the same hop after a reset onto a path of another length.
#[derive(Debug, Default)]
struct CrossLog {
    deliveries: Vec<CrossDelivery>,
    drops: Vec<DropRecord>,
    /// Cross packets attached to the port since the last reset.
    attached: usize,
}

impl CrossLog {
    fn clear(&mut self) {
        self.deliveries.clear();
        self.drops.clear();
        self.attached = 0;
    }
}

/// Whether a transmission whose service run `run` started completes
/// before an arrival on `lane` at its `TxDone` instant, given the lane
/// counter at the start of each run (`runs`). Arrival lanes are packet ids
/// or lanes taken before the first run, which come first; a lane taken
/// between runs comes after the services started in the runs before it.
/// `u64::MAX` stands for the end of the instant.
fn completes_first(runs: &[u64], run: usize, lane: u64) -> bool {
    if lane == u64::MAX {
        return true;
    }
    let Some(&first_lane) = runs.first() else {
        return false;
    };
    lane >= first_lane && run <= runs.partition_point(|&l| l <= lane)
}

/// What a fold reads or draws besides its port's queue, its fold state,
/// its log and the sources.
struct FoldCtx<'a> {
    port: usize,
    /// The link's delay, which no route shift changes while the port folds.
    propagation: SimDuration,
    impair: &'a mut ImpairmentState,
    rng: &'a mut StdRng,
    /// The lane counter at the start of each run ([`completes_first`]).
    runs: &'a [u64],
}

/// Run folded port `ctx.port` up to `bound`: take its source arrivals and
/// its completions keyed before `bound`, in key order, each arrival as the
/// `Feed` it stands for (fault injectors, random loss, admission) and each
/// completion as its `TxDone`. At one instant every arrival precedes the
/// completion ([`completes_first`]). Returns the logical events handled
/// and the latest instant reached, which the engine adds to its own.
fn fold_port(
    fold: &mut Fold,
    queue: &mut Port,
    log: &mut CrossLog,
    sources: &mut [Source],
    mut ctx: FoldCtx<'_>,
    bound: (SimTime, u64),
) -> (u64, SimTime) {
    let mut events = 0;
    let mut now = SimTime::ZERO;
    loop {
        let arrival = fold.next.filter(|n| (n.at, n.lane) < bound);
        if queue.busy() {
            // Whether the port completes before a key is monotone in the
            // key, so it completes first if it completes before the
            // earlier of the next arrival and the bound.
            let (t, lane) = arrival.map_or(bound, |n| (n.at, n.lane));
            let done = fold.done;
            if done < t || (done == t && completes_first(ctx.runs, fold.run, lane)) {
                events += 1;
                now = now.max(done);
                let (what, next) = queue.complete(done);
                // A cross packet leaves with a delivery; anything else was
                // forwarded when it was admitted.
                if let Occupant::Folded { source, index } = what {
                    log.deliveries.push(CrossDelivery {
                        id: PacketId(sources[source as usize].base_id + u64::from(index)),
                        delivered_at: done + ctx.propagation,
                        source,
                        index,
                    });
                }
                if let Some(d) = next {
                    fold.start(done + d, ctx.runs.len());
                }
                continue;
            }
        }
        if arrival.is_none() {
            return (events, now);
        }
        let Next {
            at,
            source,
            size,
            index,
            ..
        } = fold.take(sources);
        events += 1;
        now = now.max(at);
        let what = Occupant::Folded { source, index };
        if let Some(reason) = admit_folded(fold, queue, &mut ctx, at, what, size) {
            let source = &sources[source as usize];
            log.drops.push(DropRecord {
                id: PacketId(source.base_id + u64::from(index)),
                class: source.class,
                seq: u64::from(index),
                at,
                port: ctx.port,
                reason,
            });
        }
    }
}

/// A folded cross packet of `size` bytes reaches its port at `at`: run it
/// through the fault injectors, random loss and admission, and return why
/// it was dropped, if it was.
#[inline(always)]
fn admit_folded(
    fold: &mut Fold,
    queue: &mut Port,
    ctx: &mut FoldCtx<'_>,
    at: SimTime,
    what: Occupant,
    size: u32,
) -> Option<DropReason> {
    if !queue.impair_inert {
        let fate = ctx.impair.evaluate(&queue.spec.impair, at, true);
        if let Fate::Dropped(reason) = fate {
            queue.note_impair_drop();
            return Some(reason);
        }
        debug_assert!(
            matches!(
                fate,
                Fate::Forward {
                    duplicate: None,
                    defer: None,
                    ..
                }
            ),
            "a folded port cannot duplicate or defer"
        );
    }
    let p = queue.spec.random_loss;
    if p > 0.0 && ctx.rng.gen::<f64>() < p {
        queue.note_random_drop();
        return Some(DropReason::RandomLoss);
    }
    match queue.offer(at, what, size) {
        Admission::StartService(d) => fold.start(at + d, ctx.runs.len()),
        Admission::Queued => {}
        Admission::Overflow => return Some(DropReason::BufferOverflow),
    }
    None
}

/// A trace or drop record made ahead of the clock, held until the run
/// loop passes its key.
#[derive(Debug)]
enum Held {
    Trace(TraceEvent),
    Drop(DropRecord),
}

/// Counters describing how much work a run did, for performance
/// instrumentation (none of these feed back into simulation results).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Logical events handled over the engine's lifetime (since
    /// construction or the last [`Engine::reset`]): events popped from the
    /// queue **plus** those handled without it — same-instant hops
    /// dispatched inline, node arrivals run inline and transmissions
    /// completed lazily — so the total is the count an engine that queued
    /// every hop would report.
    pub events_processed: u64,
    /// High-water mark of the pending-event queue. Traffic sources and
    /// probe trains hold one pending event each, so on that path this
    /// tracks packets in flight, not the length of the run; events
    /// scheduled one by one (direct [`Engine::inject_probe`] calls, route
    /// shifts) all count from the moment they are scheduled. Inline hops,
    /// lazily completed transmissions and folded cross traffic never enter
    /// the queue (a folded source's first feed, scheduled at attachment,
    /// stays queued until its instant). A packet admitted to a folded port
    /// is forwarded at admission, so on a path whose ports fold this is
    /// mostly the probes in flight, each with its next queued node arrival
    /// (its delivery at node 0 when the hops run inline).
    pub peak_queue_depth: usize,
    /// Wall-clock time spent inside [`Engine::run`] / [`Engine::run_until`].
    pub wall: std::time::Duration,
}

/// A packet that crossed a partition boundary: it arrives at `node` (owned
/// by a neighboring partition) at instant `at`.
#[derive(Debug)]
pub struct RemoteArrival {
    /// Arrival instant at the receiving node.
    pub at: SimTime,
    /// The receiving node (owned by the neighbor).
    pub node: usize,
    /// The packet itself, moved out of the sender's arena.
    pub packet: Packet,
}

/// Discrete-event simulator for one probed path (or one partition of it).
#[derive(Debug)]
pub struct Engine {
    path: Path,
    /// Nodes this engine owns: the full range for a serial engine, a
    /// contiguous sub-range for a partition. Port `j` outbound lives at
    /// node `j`; port `j` inbound lives at node `j + 1`.
    owned: Range<usize>,
    /// `ports[i]` for `i < L` transmits link `i` outbound (from node `i`);
    /// `ports[L + i]` transmits link `i` inbound (from node `i + 1`).
    ports: Vec<Port>,
    /// Fault-injector state, one per port, each with its own RNG stream
    /// derived from the master seed (see [`crate::impair`]).
    impair: Vec<ImpairmentState>,
    /// Admission randomness (random loss), one independent stream per
    /// port, seeded after the impairment streams. Per-port streams make a
    /// port's decisions a function of its own arrival sequence alone.
    port_rng: Vec<StdRng>,
    events: EventQueue<Ev>,
    arena: PacketArena,
    /// Attached traffic sources, indexed by [`Ev::Feed`].
    sources: Vec<Source>,
    next_id: u64,
    /// Per-port counter feeding duplicate-copy ids.
    dup_seq: Vec<u64>,
    /// Per-node counter feeding TTL-exceeded reply ids.
    reply_seq: Vec<u64>,
    /// Every record but cross traffic's, which stays in `cross`.
    deliveries: Vec<Delivery>,
    drops: Vec<DropRecord>,
    ttl_replies: Vec<TtlExceeded>,
    /// Per port, its cross-traffic records, stored by hop (see
    /// [`CrossLog`]).
    cross: Vec<CrossLog>,
    /// Boundary crossings toward lower-numbered nodes, in send order.
    outbox_west: Vec<RemoteArrival>,
    /// Boundary crossings toward higher-numbered nodes, in send order.
    outbox_east: Vec<RemoteArrival>,
    trace: Option<Vec<TraceEvent>>,
    /// Events handled and wall time spent in the run loops.
    events_processed: u64,
    run_wall: std::time::Duration,
    /// Fast-path bookkeeping, one per port.
    sched: Vec<PortSched>,
    /// Pending [`Ev::SetPropagation`] events per link. A packet crossing a
    /// link with one pending departs at its `TxDone`, as it always did.
    shifts_pending: Vec<u32>,
    /// `(time, lane)` of the last popped event, or of the event it ran
    /// after if its own key is lower: the run loop's place in the order.
    clock: (SimTime, u64),
    /// `(time, lane)` of the logical event being handled: `clock`, or an
    /// inline hop's key ahead of it.
    key: (SimTime, u64),
    /// True while an inline node arrival runs: its drop records are ahead
    /// of the clock and go to `held`.
    ahead: bool,
    /// Records made ahead of the clock, sorted by `(time, lane)`, stable
    /// within a key.
    held: Vec<(SimTime, u64, Held)>,
    /// A packet forwarded at its service start whose node arrival may run
    /// inline once the current logical event is done: `(at, node, r)`.
    next_hop: Option<(SimTime, usize, PacketRef)>,
    /// Latest instant of a logical event handled outside the queue.
    inline_now: SimTime,
    /// Horizon of the current run: nothing departs or arrives outside the
    /// queue after it.
    horizon: SimTime,
    /// Whether node arrivals may run inline in the current run: a serial
    /// engine, no packet whose TTL can run out.
    inline_ok: bool,
    /// Set once a probe whose TTL can run out on this path is injected.
    ttl_limited: bool,
    /// Per port, its fold state.
    folds: Vec<Fold>,
    /// The ports that fold, ascending.
    folded: Vec<usize>,
    /// Whether the first run since construction or the last reset has
    /// decided which ports fold.
    fold_planned: bool,
    /// While ports fold, the lane counter when each run began: a lane
    /// taken between runs `k` and `k + 1` (counted from 1) has `k` of
    /// these at or below it.
    fold_runs: Vec<u64>,
    /// Set once a route shift to a zero delay is scheduled.
    zero_shift: bool,
}

impl Engine {
    /// A fresh engine over `path`, with all randomness derived from `seed`.
    /// Identical seeds and identical injection sequences produce identical
    /// traces, bit for bit.
    pub fn new(path: Path, seed: u64) -> Self {
        let owned = 0..path.nodes.len();
        Engine::with_owned(path, seed, owned)
    }

    /// A partition engine owning the contiguous node range `owned` of
    /// `path`. It shares the global port/node indexing (and therefore the
    /// per-port RNG streams) with a serial engine over the same path, but
    /// must only be fed events for its own nodes; boundary crossings land
    /// in the outboxes.
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn new_partition(path: Path, seed: u64, owned: Range<usize>) -> Self {
        assert!(
            !owned.is_empty() && owned.end <= path.nodes.len(),
            "invalid partition range {owned:?} for {} nodes",
            path.nodes.len()
        );
        Engine::with_owned(path, seed, owned)
    }

    fn with_owned(path: Path, seed: u64, owned: Range<usize>) -> Self {
        // No ports yet: `rewind` fits every per-port, per-link and per-node
        // buffer to `path`, for a new engine as for a reset one.
        let mut engine = Engine {
            path,
            owned,
            ports: Vec::new(),
            impair: Vec::new(),
            port_rng: Vec::new(),
            events: EventQueue::new(),
            arena: PacketArena::new(),
            sources: Vec::new(),
            next_id: 0,
            dup_seq: Vec::new(),
            reply_seq: Vec::new(),
            deliveries: Vec::new(),
            drops: Vec::new(),
            ttl_replies: Vec::new(),
            cross: Vec::new(),
            outbox_west: Vec::new(),
            outbox_east: Vec::new(),
            trace: None,
            events_processed: 0,
            run_wall: std::time::Duration::ZERO,
            sched: Vec::new(),
            shifts_pending: Vec::new(),
            clock: (SimTime::ZERO, 0),
            key: (SimTime::ZERO, 0),
            ahead: false,
            held: Vec::new(),
            next_hop: None,
            inline_now: SimTime::ZERO,
            horizon: SimTime::MAX,
            inline_ok: false,
            ttl_limited: false,
            folds: Vec::new(),
            folded: Vec::new(),
            fold_planned: false,
            fold_runs: Vec::new(),
            zero_shift: false,
        };
        engine.rewind(seed);
        engine
    }

    /// Schedule the propagation changes declared by each link's impairment
    /// spec. Runs before any injection, in both [`Engine::new`] and
    /// [`Engine::reset`], so replays stay bit-identical.
    fn arm_route_shifts(&mut self) {
        for link in 0..self.path.links.len() {
            for k in 0..self.path.links[link].impair.route_shifts.len() {
                let shift = self.path.links[link].impair.route_shifts[k];
                self.zero_shift |= shift.propagation == SimDuration::ZERO;
                self.schedule(
                    shift.at,
                    Ev::SetPropagation {
                        link: link as u32,
                        value: shift.propagation,
                    },
                );
            }
        }
    }

    /// Return the engine to the state [`Engine::new`] would produce for
    /// `path` and `seed`, whatever path it ran before, **reusing** every
    /// buffer's allocation: the event queue, the arena, the delivery, drop
    /// and trace logs, the fold buffers and each hop's cross-traffic log
    /// are cleared in place, and the per-port state is resized to the new
    /// path's ports. A reset engine produces bit-identical records and
    /// traces to a fresh one, so a caller may keep one engine for runs on
    /// any number of paths. Tracing, if enabled, stays enabled.
    pub fn reset(&mut self, path: &Path, seed: u64) {
        self.path.clone_from(path);
        self.owned = 0..path.nodes.len();
        self.rewind(seed);
    }

    /// Fit the per-port, per-link and per-node state to `self.path`, seed
    /// every stream from `seed`, and empty everything else, keeping
    /// allocations: the one place an engine is set up, new or reset.
    fn rewind(&mut self, seed: u64) {
        let links = self.path.links.len();
        let ports = 2 * links;
        self.ports.clear();
        // Outbound ports, then inbound, both in link order.
        let specs = self.path.links.iter().chain(&self.path.links);
        self.ports.extend(specs.map(|spec| Port::new(spec.clone())));
        self.impair.clear();
        self.impair
            .extend((0..ports).map(|i| ImpairmentState::new(port_stream_seed(seed, i))));
        // Admission streams sit after the 2L impairment streams.
        self.port_rng.clear();
        self.port_rng
            .extend((0..ports).map(|i| StdRng::seed_from_u64(port_stream_seed(seed, ports + i))));
        self.events.clear();
        self.arena.clear();
        self.sources.clear();
        self.next_id = 0;
        self.dup_seq.clear();
        self.dup_seq.resize(ports, 0);
        self.reply_seq.clear();
        self.reply_seq.resize(self.path.nodes.len(), 0);
        self.deliveries.clear();
        self.drops.clear();
        self.ttl_replies.clear();
        self.cross.resize_with(ports, CrossLog::default);
        self.cross.iter_mut().for_each(CrossLog::clear);
        self.outbox_west.clear();
        self.outbox_east.clear();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
        self.events_processed = 0;
        self.run_wall = std::time::Duration::ZERO;
        self.sched.clear();
        self.sched.resize(ports, PortSched::default());
        self.shifts_pending.clear();
        self.shifts_pending.resize(links, 0);
        self.clock = (SimTime::ZERO, 0);
        self.key = (SimTime::ZERO, 0);
        self.ahead = false;
        self.held.clear();
        self.next_hop = None;
        self.inline_now = SimTime::ZERO;
        self.horizon = SimTime::MAX;
        self.ttl_limited = false;
        self.folds.resize_with(ports, Fold::default);
        self.folds.iter_mut().for_each(Fold::reset);
        self.folded.clear();
        self.fold_planned = false;
        self.fold_runs.clear();
        self.zero_shift = false;
        self.arm_route_shifts();
    }

    /// Pre-size the delivery and drop logs for a run expected to inject
    /// about `probes` probe packets, so the hot loop never reallocates
    /// them. Cross traffic's records stay with its port, whose log
    /// [`Engine::attach_cross_traffic`] sizes. The packet arena is not
    /// sized here: it holds only packets in flight and grows to that on
    /// its own.
    pub fn reserve(&mut self, probes: usize) {
        // Most probes produce a delivery record.
        self.deliveries.reserve(probes);
        self.drops.reserve(probes / 4);
    }

    /// Work counters for this engine (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.events_processed,
            peak_queue_depth: self.events.peak_len(),
            wall: self.run_wall,
        }
    }

    /// The simulated path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current simulated time: the instant of the latest logical event
    /// handled, queued or not.
    pub fn now(&self) -> SimTime {
        self.events.now().max(self.inline_now)
    }

    /// Timestamp of the engine's next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Index into the port array for (`link`, `direction`).
    pub fn port_index(&self, link: usize, direction: Direction) -> usize {
        assert!(link < self.path.links.len(), "link index out of range");
        match direction {
            Direction::Outbound => link,
            Direction::Inbound => self.path.links.len() + link,
        }
    }

    /// The port serving (`link`, `direction`).
    pub fn port(&self, link: usize, direction: Direction) -> &Port {
        &self.ports[self.port_index(link, direction)]
    }

    /// Start recording a per-packet event trace (for tests and debugging).
    ///
    /// # Panics
    /// Panics if a run has begun with ports folding their cross traffic:
    /// a traced run keeps every packet on the clock, so tracing must be
    /// enabled before the first run (or after a [`Engine::reset`]).
    pub fn enable_trace(&mut self) {
        self.assert_not_folding("enable_trace");
        self.trace = Some(Vec::new());
    }

    /// Inputs that would stop a port from folding cannot follow a run in
    /// which it folded: its cross packets never became events to go back
    /// to.
    fn assert_not_folding(&self, what: &str) {
        assert!(
            self.folded.is_empty(),
            "{what} after a run in which ports folded cross traffic; call it before the first run or after reset"
        );
    }

    /// Take the recorded trace, leaving tracing enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Append a trace record made at the clock. Inline hops, which run
    /// ahead of it, never run while tracing (see `begin_run`).
    fn record(&mut self, at: SimTime, port: Option<usize>, r: PacketRef, kind: TraceKind) {
        if self.trace.is_some() {
            let p = self.arena.get(r);
            let (packet, class, seq) = (p.id, p.class, p.seq);
            if let Some(t) = &mut self.trace {
                t.push(TraceEvent {
                    at,
                    port,
                    packet,
                    class,
                    seq,
                    kind,
                });
            }
        }
    }

    /// The `TxDone` trace record of `r`, forwarded at its service start
    /// on `port`: held until the clock passes the `TxDone`'s key.
    fn record_departure(&mut self, done: SimTime, lane: u64, port: usize, r: PacketRef) {
        if self.trace.is_some() {
            let p = self.arena.get(r);
            let event = TraceEvent {
                at: done,
                port: Some(port),
                packet: p.id,
                class: p.class,
                seq: p.seq,
                kind: TraceKind::TxDone,
            };
            self.hold((done, lane), Held::Trace(event));
        }
    }

    /// A cross packet's drop goes to its port's log, in drop order;
    /// any other drop to the drop log, held if it is made ahead of the
    /// clock.
    fn push_drop(&mut self, drop: DropRecord) {
        if drop.class == FlowClass::Cross {
            let slot = self.cross_slot(drop.port);
            self.cross[slot].drops.push(drop);
        } else if self.ahead {
            self.hold(self.key, Held::Drop(drop));
        } else {
            self.drops.push(drop);
        }
    }

    /// Keep a record made ahead of the clock until the run loop passes
    /// `key`; records of one key keep the order they were made in.
    fn hold(&mut self, key: (SimTime, u64), record: Held) {
        let pos = self.held.partition_point(|h| (h.0, h.1) <= key);
        self.held.insert(pos, (key.0, key.1, record));
    }

    /// Append the held records keyed at or before `upto` (all of them for
    /// `None`) to the trace and the drop log.
    fn release_held(&mut self, upto: Option<(SimTime, u64)>) {
        let n = match upto {
            Some(key) => self.held.partition_point(|h| (h.0, h.1) <= key),
            None => self.held.len(),
        };
        for (_, _, record) in self.held.drain(..n) {
            match record {
                Held::Trace(event) => {
                    if let Some(t) = &mut self.trace {
                        t.push(event);
                    }
                }
                Held::Drop(drop) => self.drops.push(drop),
            }
        }
    }

    /// The port a node arrival of a packet travelling `direction` enters,
    /// if any (deliveries at node 0 enter none).
    fn entry_port(&self, node: usize, direction: Direction) -> Option<usize> {
        let links = self.path.links.len();
        match direction {
            Direction::Outbound if node == links => Some(2 * links - 1),
            Direction::Outbound => Some(node),
            Direction::Inbound => node.checked_sub(1).map(|link| links + link),
        }
    }

    /// The pending-event count `ev` belongs to: its port's, or for a
    /// route shift its link's. A traffic source's `Feed` events count as
    /// one for as long as the source has packets (see
    /// [`Engine::add_source`]), so each feed costs no count.
    fn pending_count(&mut self, ev: &Ev) -> Option<&mut u32> {
        let port = match *ev {
            Ev::Arrive { port, .. } | Ev::Admit { port, .. } | Ev::TxDone { port } => port as usize,
            Ev::Feed { .. } => return None,
            Ev::NodeArrival { node, r } => {
                self.entry_port(node as usize, self.arena.get(r).direction)?
            }
            Ev::SetPropagation { link, .. } => {
                return Some(&mut self.shifts_pending[link as usize]);
            }
        };
        Some(&mut self.sched[port].pending)
    }

    /// Schedule `ev` at `at` on the next local lane.
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let lane = self.events.reserve_lanes(1);
        self.schedule_keyed(at, lane, ev);
    }

    /// Schedule `ev` at `at` on `lane`, counting it against what it acts
    /// on.
    fn schedule_keyed(&mut self, at: SimTime, lane: u64, ev: Ev) {
        if let Some(count) = self.pending_count(&ev) {
            *count += 1;
        }
        self.events.schedule_keyed(at, lane, ev);
    }

    fn fresh_id(&mut self) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Schedule a probe of `size` bytes with sequence number `seq` to enter
    /// the network at instant `at` (must not be in the simulated past).
    pub fn inject_probe(&mut self, at: SimTime, size: u32, seq: u64) {
        self.inject_probe_with_ttl(at, size, seq, DEFAULT_TTL)
    }

    /// As [`Engine::inject_probe`] but with an explicit TTL — the primitive
    /// behind route discovery.
    pub fn inject_probe_with_ttl(&mut self, at: SimTime, size: u32, seq: u64, ttl: u8) {
        let id = self.fresh_id();
        self.inject_probe_with_id(at, size, seq, ttl, id);
    }

    /// As [`Engine::inject_probe_with_ttl`] but with an explicit packet id,
    /// bypassing the engine's injection counter. Partitioned runs use this
    /// to assign the exact ids a serial engine would have produced for the
    /// same injection sequence.
    pub fn inject_probe_with_id(
        &mut self,
        at: SimTime,
        size: u32,
        seq: u64,
        ttl: u8,
        id: PacketId,
    ) {
        debug_assert!(id.0 < LOCAL_LANE, "packet id too large for lane keying");
        let packet = Packet {
            id,
            class: FlowClass::Probe,
            flow: 0,
            size,
            seq,
            injected_at: at,
            ttl,
            direction: Direction::Outbound,
            corrupted: false,
            echoed_at: None,
        };
        if usize::from(ttl) <= 2 * self.path.nodes.len() {
            self.ttl_limited = true;
        }
        let r = self.arena.alloc(packet);
        self.schedule(at, Ev::Arrive { port: 0, r });
    }

    /// Schedule `count` probes of `size` bytes: probe `n` has sequence
    /// number `n` and enters the network at `start + n·interval`. The
    /// outcome is bit-identical to calling [`Engine::inject_probe`] for
    /// `n = 0..count`, but the train is fed one probe at a time, so only
    /// its next probe is pending.
    pub fn inject_probe_train(
        &mut self,
        start: SimTime,
        interval: SimDuration,
        size: u32,
        count: u64,
    ) {
        let feed = Feed::Train {
            start,
            interval,
            size,
            next: 0,
            count,
        };
        let base_id = self.next_id;
        self.next_id += count;
        self.add_source(0, FlowClass::Probe, Direction::Outbound, base_id, feed);
    }

    /// Register a source for `port` whose packets take ids `base_id..` and
    /// the next block of local queue lanes, and schedule its first packet.
    /// Until its last packet is fed it counts as one pending event on the
    /// port.
    fn add_source(
        &mut self,
        port: usize,
        class: FlowClass,
        direction: Direction,
        base_id: u64,
        feed: Feed,
    ) {
        let len = feed.len();
        debug_assert!(
            base_id + len <= LOCAL_LANE,
            "packet id too large for lane keying"
        );
        if class == FlowClass::Cross {
            // Every cross packet leaves a record at its port; most leave a
            // delivery, so room for all of them saves regrowing mid-run.
            let slot = self.cross_slot(port);
            let log = &mut self.cross[slot];
            log.attached += usize::try_from(len).expect("a source fits in memory");
            log.deliveries
                .reserve(log.attached.saturating_sub(log.deliveries.len()));
        }
        let base_lane = self.events.reserve_lanes(len);
        let Some((at, _, index)) = feed.head() else {
            return;
        };
        let source = u32::try_from(self.sources.len()).expect("fewer than 2^32 sources");
        // Cross traffic attached once ports fold joins its port's fold.
        let folded = class == FlowClass::Cross && !self.folded.is_empty();
        self.sources.push(Source {
            port,
            class,
            direction,
            base_id,
            base_lane,
            feed,
            folded,
        });
        if folded {
            let fold = &mut self.folds[port];
            assert!(
                fold.active,
                "cross traffic attached after a run in which ports folded must enter a port that folds"
            );
            fold.sources.push(source);
            fold.find_next(&self.sources);
            return;
        }
        self.sched[port].pending += 1;
        self.schedule_keyed(at, base_lane + index, Ev::Feed { source });
    }

    /// A source's next packet reaches its port: schedule the one after it,
    /// then allocate this one and hand it to [`Engine::on_arrive`].
    fn on_feed(&mut self, at: SimTime, source: u32) {
        let src = &mut self.sources[source as usize];
        let (_, size, index) = src.feed.head().expect("a fed source has a next packet");
        src.feed.advance();
        if let Some((next_at, _, next)) = src.feed.head() {
            let lane = src.base_lane + next;
            self.schedule_keyed(next_at, lane, Ev::Feed { source });
        } else {
            self.sched[src.port].pending -= 1;
        }
        let src = &self.sources[source as usize];
        let packet = Packet {
            id: PacketId(src.base_id + index),
            class: src.class,
            flow: if src.class == FlowClass::Cross {
                source
            } else {
                0
            },
            size,
            seq: index,
            injected_at: at,
            ttl: DEFAULT_TTL,
            direction: src.direction,
            corrupted: false,
            echoed_at: None,
        };
        let port = src.port;
        let r = self.arena.alloc(packet);
        self.on_arrive(at, port, r);
    }

    /// Attach a pre-generated cross-traffic arrival stream to the queue of
    /// (`link`, `direction`). Each [`Arrival`] becomes one Internet packet
    /// that competes with the probes for that port's server and then leaves
    /// the system. The `i`-th arrival has sequence number `i`; the stream
    /// need not be sorted by time.
    ///
    /// The engine reads the stream in place, through a cursor, and never
    /// copies it: an `Arc<[Arrival]>` may be attached to any number of
    /// ports and engines. Only its next packet is pending, and a packet
    /// exists in the arena only from its arrival on. Ids, tie order and
    /// every record are those of scheduling all the packets here and now.
    pub fn attach_cross_traffic(
        &mut self,
        link: usize,
        direction: Direction,
        arrivals: impl Into<Arc<[Arrival]>>,
    ) {
        let arrivals = arrivals.into();
        let base_id = self.next_id;
        self.next_id += arrivals.len() as u64;
        self.attach_cross_traffic_with_base_id(link, direction, arrivals, base_id);
    }

    /// As [`Engine::attach_cross_traffic`] but with explicit packet ids
    /// `base_id, base_id + 1, …`, bypassing the injection counter — the
    /// partitioned-run counterpart that reproduces serial id assignment.
    pub fn attach_cross_traffic_with_base_id(
        &mut self,
        link: usize,
        direction: Direction,
        arrivals: impl Into<Arc<[Arrival]>>,
        base_id: u64,
    ) {
        let port = self.port_index(link, direction);
        let feed = Feed::Stream(Stream::new(arrivals.into()));
        self.add_source(port, FlowClass::Cross, direction, base_id, feed);
    }

    /// Schedule a change of link `link`'s one-way propagation delay at
    /// instant `at` — the paper’s cited companion work (ref \[21\]) observed
    /// route changes through exactly the RTT baseline shifts this models.
    /// Packets already in flight on the link keep their old delay; packets
    /// transmitted after `at` see the new one.
    ///
    /// # Panics
    /// Panics if the link index is out of range, or if a run has begun with
    /// ports folding cross traffic and the change is to a zero delay or on
    /// a link whose ports fold: a folded port's link keeps its delay.
    pub fn schedule_propagation_change(&mut self, link: usize, at: SimTime, value: SimDuration) {
        assert!(link < self.path.links.len(), "link index out of range");
        let links = self.path.links.len();
        if value == SimDuration::ZERO || self.folds[link].active || self.folds[links + link].active
        {
            self.assert_not_folding("schedule_propagation_change");
        }
        self.zero_shift |= value == SimDuration::ZERO;
        self.schedule(
            at,
            Ev::SetPropagation {
                link: link as u32,
                value,
            },
        );
    }

    /// Accept a packet that crossed a partition boundary from a neighbor.
    /// The arrival is keyed by the packet id, so the receiving queue orders
    /// simultaneous boundary arrivals identically to a serial run.
    ///
    /// # Panics
    /// Panics (debug) if the arrival's node is not owned by this engine or
    /// lies in the simulated past.
    pub fn deliver_remote(&mut self, arrival: RemoteArrival) {
        debug_assert!(
            self.owned.contains(&arrival.node),
            "remote arrival at node {} outside owned range {:?}",
            arrival.node,
            self.owned
        );
        let lane = arrival.packet.id.0;
        debug_assert!(lane < LOCAL_LANE, "packet id too large for lane keying");
        let r = self.arena.alloc(arrival.packet);
        self.schedule_keyed(
            arrival.at,
            lane,
            Ev::NodeArrival {
                node: arrival.node as u32,
                r,
            },
        );
    }

    /// Take the boundary crossings produced since the last call:
    /// `(westbound, eastbound)` — packets headed to lower- and
    /// higher-numbered nodes respectively, in send order.
    pub fn take_outboxes(&mut self) -> (Vec<RemoteArrival>, Vec<RemoteArrival>) {
        (
            std::mem::take(&mut self.outbox_west),
            std::mem::take(&mut self.outbox_east),
        )
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        let started = std::time::Instant::now(); // probenet-lint: allow(wall-clock-in-sim, tainted-artifact-path) EngineStats wall-time observability, not sim data
        self.begin_run(SimTime::MAX);
        while let Some((at, ev)) = self.events.pop() {
            self.handle(at, ev);
        }
        self.run_wall += started.elapsed();
        self.finalize_ports();
    }

    /// Run all events scheduled at or before `horizon`; later events stay
    /// queued. Port statistics are folded up to the last processed event.
    pub fn run_until(&mut self, horizon: SimTime) {
        let started = std::time::Instant::now(); // probenet-lint: allow(wall-clock-in-sim, tainted-artifact-path) EngineStats wall-time observability, not sim data
        self.begin_run(horizon);
        while let Some((at, ev)) = self.events.pop_until(horizon) {
            self.handle(at, ev);
        }
        self.run_wall += started.elapsed();
        self.finalize_ports();
    }

    fn begin_run(&mut self, horizon: SimTime) {
        self.horizon = horizon;
        if !self.fold_planned {
            self.plan_fold();
        }
        if !self.folded.is_empty() {
            let first_lane = self.events.reserve_lanes(0);
            self.fold_runs.push(first_lane);
        }
        // A TTL reply enters a port no pending count names, and a partition
        // hands its boundary arrivals to a neighbour. Neither can wait for
        // the counts to be right. A traced run keeps every hop on the clock:
        // an inline hop takes its `TxDone` lane before events the clock
        // has yet to reach, which reorders trace records that share an
        // instant at different ports (nothing else; see DESIGN.md §9).
        self.inline_ok = self.owned == (0..self.path.nodes.len())
            && !self.ttl_limited
            && usize::from(DEFAULT_TTL) > 2 * self.path.nodes.len()
            && self.trace.is_none();
    }

    /// End of a run: complete the transmissions no event completed, fold
    /// the cross traffic up to the horizon, append the held records, and
    /// fold every port's statistics up to now.
    fn finalize_ports(&mut self) {
        for port in 0..self.ports.len() {
            if let Some((done, _)) = self.sched[port].departure.take() {
                debug_assert!(!self.sched[port].tx_scheduled, "TxDone left queued");
                self.complete_lazily(port, done);
            }
        }
        let end = (self.horizon, u64::MAX);
        for i in 0..self.folded.len() {
            self.advance_fold(self.folded[i], end);
        }
        self.release_held(None);
        let now = self.now();
        for p in &mut self.ports {
            p.finalize(now);
            debug_assert!(p.conserves_packets(), "a port lost count: {:?}", p.stats);
        }
    }

    fn handle(&mut self, at: SimTime, ev: Ev) {
        self.events_processed += 1;
        // An event scheduled at the current instant on a lower lane (a
        // node arrival across a zero-delay link) pops right after the one
        // that scheduled it: it runs at that event's place in the order.
        self.clock = self.clock.max((at, self.events.lane()));
        self.key = self.clock;
        if !self.held.is_empty() {
            self.release_held(Some(self.key));
        }
        match ev {
            Ev::Arrive { port, r } => {
                self.sched[port as usize].pending -= 1;
                self.on_arrive(at, port as usize, r);
            }
            Ev::TxDone { port } => {
                self.sched[port as usize].pending -= 1;
                self.on_tx_done(at, port as usize);
            }
            Ev::NodeArrival { node, r } => {
                let node = node as usize;
                if let Some(port) = self.entry_port(node, self.arena.get(r).direction) {
                    self.sched[port].pending -= 1;
                }
                self.on_node_arrival(at, node, r);
            }
            Ev::SetPropagation { link, value } => {
                self.shifts_pending[link as usize] -= 1;
                self.path.links[link as usize].propagation = value;
            }
            Ev::Admit { port, r } => {
                self.sched[port as usize].pending -= 1;
                self.admit(at, port as usize, r);
            }
            // A folded source's first feed, scheduled at attachment: the
            // fold counts that packet's event when it takes it.
            Ev::Feed { source } if self.sources[source as usize].folded => {
                self.events_processed -= 1;
            }
            Ev::Feed { source } => self.on_feed(at, source),
        }
        while let Some((t, node, r)) = self.next_hop.take() {
            self.run_hop(t, node, r);
        }
        self.ahead = false;
    }

    /// A forwarded packet reaches `node` at `at`. If nothing queued acts
    /// on the port it enters, no event can reach that port first, so the
    /// arrival runs now, ahead of the clock; otherwise it is queued.
    fn run_hop(&mut self, at: SimTime, node: usize, r: PacketRef) {
        let p = self.arena.get(r);
        let lane = p.id.0;
        let port = self
            .entry_port(node, p.direction)
            .expect("deliveries are never forwarded inline");
        if self.sched[port].pending > 0 || !self.link_departs_early(port) {
            let node = node as u32;
            self.schedule_keyed(at, lane, Ev::NodeArrival { node, r });
            return;
        }
        self.events_processed += 1;
        self.key = (at, lane);
        self.ahead = true;
        self.inline_now = self.inline_now.max(at);
        self.on_node_arrival(at, node, r);
    }

    /// Complete `port`'s transmission at `done`: the `TxDone` that was
    /// never queued, counted as the logical event it stands for.
    fn complete_lazily(&mut self, port: usize, done: SimTime) {
        let (_, next) = self.ports[port].complete(done);
        debug_assert!(next.is_none(), "a packet waited behind a lazy completion");
        self.events_processed += 1;
        self.inline_now = self.inline_now.max(done);
    }

    /// Before a packet is offered to `port`: complete the transmission in
    /// progress if its departure key precedes the current event's.
    fn settle(&mut self, port: usize) {
        let sched = &mut self.sched[port];
        if let Some((done, lane)) = sched.departure {
            if !sched.tx_scheduled && (done, lane) < self.key {
                sched.departure = None;
                self.complete_lazily(port, done);
            }
        }
    }

    /// `r` starts transmission on `port` at `at` and takes `d`. Its
    /// departure is then fixed, so unless something can still change what
    /// it does at `TxDone` it is forwarded now, and the `TxDone` is queued
    /// only if a packet comes to wait behind it. The `TxDone`'s lane is
    /// taken here either way, so the lanes taken at the clock are what
    /// queueing every hop gave them.
    fn start_service(&mut self, at: SimTime, port: usize, r: PacketRef, d: SimDuration) {
        let done = at + d;
        let lane = self.events.reserve_lanes(1);
        // Cross packets write their delivery at TxDone.
        if self.arena.get(r).class == FlowClass::Cross || !self.departs_early(port, at, done) {
            self.schedule_keyed(done, lane, Ev::TxDone { port: port as u32 });
            return;
        }
        self.record_departure(done, lane, port, r);
        // A packet already waiting starts its service at this departure.
        let waiting = self.ports[port].occupancy() > 1;
        self.sched[port].departure = Some((done, lane));
        self.sched[port].tx_scheduled = waiting;
        if waiting {
            self.schedule_keyed(done, lane, Ev::TxDone { port: port as u32 });
        }
        self.forward(port, done, r);
    }

    /// Send `r`, leaving `port` at `done`, on to the node at the link's far
    /// end: as an inline hop once the current logical event is done, or
    /// as a queued node arrival. Delivery at node 0 stays an event, so the
    /// delivery log needs no reordering.
    fn forward(&mut self, port: usize, done: SimTime, r: PacketRef) {
        let (link, node) = self.hop(port);
        let t = done + self.path.links[link].propagation;
        if self.inline_ok && node != 0 && t <= self.horizon {
            debug_assert!(self.next_hop.is_none(), "two packets forwarded at once");
            self.next_hop = Some((t, node, r));
        } else {
            let lane = self.arena.get(r).id.0;
            let node = node as u32;
            self.schedule_keyed(t, lane, Ev::NodeArrival { node, r });
        }
    }

    /// Whether a packet starting service on `port` at `at` and done at
    /// `done` may be forwarded at once: when [`Engine::link_departs_early`]
    /// and it departs after its start and within the horizon.
    fn departs_early(&self, port: usize, at: SimTime, done: SimTime) -> bool {
        done > at && done <= self.horizon && self.link_departs_early(port)
    }

    /// Whether `port`'s packets may be forwarded at their service start.
    /// Not when a pending route shift may change the link's delay before
    /// they depart; not across a partition boundary, which goes to the
    /// outbox at `TxDone`; and not across a zero-delay link. There the node
    /// arrival lands at the `TxDone` instant and runs right after it, so
    /// its order against the next port's own `TxDone` at that instant
    /// decides whether the packet waits: both must keep their lanes in
    /// the order the clock reached them, which is why an inline hop never
    /// enters such a port either.
    fn link_departs_early(&self, port: usize) -> bool {
        let (link, node) = self.hop(port);
        self.shifts_pending[link] == 0
            && self.path.links[link].propagation > SimDuration::ZERO
            && self.owned.contains(&node)
    }

    /// The link `port` transmits over and the node at its far end.
    fn hop(&self, port: usize) -> (usize, usize) {
        let links = self.path.links.len();
        if port < links {
            (port, port + 1) // outbound over link `port`
        } else {
            (port - links, port - links) // inbound over link `port-links`
        }
    }

    /// Where `port`'s cross log sits in [`Engine::cross`]: `2·link` for an
    /// outbound port, `2·link + 1` for an inbound one (see [`CrossLog`]).
    fn cross_slot(&self, port: usize) -> usize {
        let (link, _) = self.hop(port);
        2 * link + usize::from(port >= self.path.links.len())
    }

    /// Decide, at the first run, which ports fold their cross traffic: the
    /// ports on links without route shifts, or none. A serial, untraced
    /// engine folds when no link reorders or duplicates ([`Ev::Admit`]),
    /// no link has or gets a zero delay, and every port with cross traffic
    /// can fold.
    fn plan_fold(&mut self) {
        self.fold_planned = true;
        let admits = |link: &LinkSpec| {
            let impair = &link.impair;
            impair.reorder.as_ref().is_some_and(|r| r.probability > 0.0)
                || impair
                    .duplicate
                    .as_ref()
                    .is_some_and(|d| d.probability > 0.0)
        };
        let links = self.path.links.len();
        let can_fold: Vec<bool> = (0..2 * links)
            .map(|port| self.shifts_pending[self.hop(port).0] == 0)
            .collect();
        let foldable = self.owned == (0..self.path.nodes.len())
            && self.trace.is_none()
            && !self.zero_shift
            && self
                .path
                .links
                .iter()
                .all(|l| l.propagation > SimDuration::ZERO && !admits(l))
            && self
                .sources
                .iter()
                .all(|s| s.class != FlowClass::Cross || can_fold[s.port]);
        if !foldable {
            return;
        }
        for (port, _) in can_fold.iter().enumerate().filter(|(_, &ok)| ok) {
            self.folds[port].active = true;
            self.folded.push(port);
        }
        for (i, source) in self.sources.iter_mut().enumerate() {
            if source.class == FlowClass::Cross && source.feed.head().is_some() {
                source.folded = true;
                self.sched[source.port].pending -= 1;
                let fold = &mut self.folds[source.port];
                fold.sources
                    .push(u32::try_from(i).expect("fewer than 2^32 sources"));
            }
        }
        for &port in &self.folded {
            self.folds[port].find_next(&self.sources);
        }
    }

    /// `r` was just admitted to folded `port`: FIFO service has fixed its
    /// departure, so it is forwarded now and the fold completes it.
    fn admit_forwarded(&mut self, port: usize, r: PacketRef) {
        let done = self.ports[port].drain_at();
        self.forward(port, done, r);
    }

    /// Run folded `port` up to `bound` (see [`fold_port`]).
    fn advance_fold(&mut self, port: usize, bound: (SimTime, u64)) {
        let propagation = self.path.links[self.hop(port).0].propagation;
        let slot = self.cross_slot(port);
        let Engine {
            folds,
            ports,
            cross,
            impair,
            port_rng,
            sources,
            fold_runs,
            ..
        } = self;
        let ctx = FoldCtx {
            port,
            propagation,
            impair: &mut impair[port],
            rng: &mut port_rng[port],
            runs: fold_runs,
        };
        let (events, now) = fold_port(
            &mut folds[port],
            &mut ports[port],
            &mut cross[slot],
            sources,
            ctx,
            bound,
        );
        self.events_processed += events;
        self.inline_now = self.inline_now.max(now);
    }

    /// Handle a same-instant hop inline instead of round-tripping it
    /// through the event queue; counted as a logical event so
    /// `events_processed` stays comparable across engine versions.
    fn dispatch_arrive(&mut self, at: SimTime, port: usize, r: PacketRef) {
        self.events_processed += 1;
        self.on_arrive(at, port, r);
    }

    /// A packet reaches a port: run the link's fault injectors first, then
    /// hand the survivors to [`Engine::admit`]. Inert specs skip straight
    /// to admission without touching the impairment RNG stream, so paths
    /// built before the impairment layer behave bit-identically.
    fn on_arrive(&mut self, at: SimTime, port: usize, r: PacketRef) {
        if self.folds[port].active {
            self.advance_fold(port, self.key);
        }
        if !self.ports[port].impair_inert {
            // Control replies stay single-copy: their bookkeeping assumes
            // exactly one instance of each reply in the network.
            let dup_eligible =
                matches!(self.arena.get(r).class, FlowClass::Probe | FlowClass::Cross);
            // `ports` and `impair` are distinct fields, so the spec borrow
            // and the mutable state borrow do not conflict.
            let fate = self.impair[port].evaluate(&self.ports[port].spec.impair, at, dup_eligible);
            match fate {
                Fate::Dropped(reason) => {
                    let kind = match reason {
                        DropReason::LinkDown => TraceKind::LinkDownDrop,
                        _ => TraceKind::BurstDrop,
                    };
                    self.record(at, Some(port), r, kind);
                    self.ports[port].note_impair_drop();
                    self.note_drop(at, port, r, reason);
                    return;
                }
                Fate::Forward {
                    corrupt,
                    duplicate,
                    defer,
                } => {
                    if corrupt && !self.arena.get(r).corrupted {
                        self.arena.get_mut(r).corrupted = true;
                        self.record(at, Some(port), r, TraceKind::CorruptMark);
                    }
                    if let Some(offset) = duplicate {
                        // The copy's id is derived from the duplicating
                        // port and a per-port counter, not a global one, so
                        // it is identical in serial and partitioned runs.
                        let id = PacketId(
                            RUNTIME_ID_BIT | ((port as u64) << ID_SITE_SHIFT) | self.dup_seq[port],
                        );
                        self.dup_seq[port] += 1;
                        let mut copy = self.arena.get(r).clone();
                        copy.id = id;
                        let cr = self.arena.alloc(copy);
                        self.record(at, Some(port), cr, TraceKind::Duplicated);
                        self.schedule(
                            at + offset,
                            Ev::Admit {
                                port: port as u32,
                                r: cr,
                            },
                        );
                    }
                    if let Some(delay) = defer {
                        self.record(at, Some(port), r, TraceKind::Deferred);
                        self.schedule(
                            at + delay,
                            Ev::Admit {
                                port: port as u32,
                                r,
                            },
                        );
                        return;
                    }
                }
            }
        }
        self.admit(at, port, r);
    }

    /// Admission into a port's queue, downstream of the fault injectors.
    fn admit(&mut self, at: SimTime, port: usize, r: PacketRef) {
        self.settle(port);
        // Random loss models a faulty interface on the link: the packet is
        // destroyed before it can be queued (paper ref [17]). Lossless
        // links draw nothing, keeping each port's stream in lockstep with
        // its own arrival sequence.
        let p = self.ports[port].spec.random_loss;
        if p > 0.0 && self.port_rng[port].gen::<f64>() < p {
            self.record(at, Some(port), r, TraceKind::RandomDrop);
            self.ports[port].note_random_drop();
            self.note_drop(at, port, r, DropReason::RandomLoss);
            return;
        }
        let size = self.arena.get(r).size;
        match self.ports[port].offer(at, Occupant::Packet(r), size) {
            Admission::StartService(d) => {
                self.record(at, Some(port), r, TraceKind::Enqueue);
                self.record(at, Some(port), r, TraceKind::TxStart);
                if self.folds[port].active {
                    let run = self.fold_runs.len();
                    self.folds[port].start(at + d, run);
                    self.admit_forwarded(port, r);
                } else {
                    self.start_service(at, port, r, d);
                }
            }
            Admission::Queued if self.folds[port].active => self.admit_forwarded(port, r),
            Admission::Queued => {
                self.record(at, Some(port), r, TraceKind::Enqueue);
                let sched = self.sched[port];
                if let (Some((done, lane)), false) = (sched.departure, sched.tx_scheduled) {
                    // The first packet to wait behind a forwarded one: its
                    // service starts at that departure, an event.
                    self.sched[port].tx_scheduled = true;
                    self.schedule_keyed(done, lane, Ev::TxDone { port: port as u32 });
                }
            }
            Admission::Overflow => {
                self.record(at, Some(port), r, TraceKind::OverflowDrop);
                self.note_drop(at, port, r, DropReason::BufferOverflow);
            }
        }
    }

    fn on_tx_done(&mut self, at: SimTime, port: usize) {
        // A packet forwarded at its service start has its trace record and
        // its node arrival already.
        let forwarded = self.sched[port].departure.take().is_some();
        self.sched[port].tx_scheduled = false;
        let (done, next) = self.ports[port].complete(at);
        if !forwarded {
            let r = network_packet(done);
            self.record(at, Some(port), r, TraceKind::TxDone);
            self.depart(at, port, r);
        }
        if let Some(d) = next {
            let next = self.ports[port].in_service().expect("service started");
            self.start_service(at, port, network_packet(next), d);
        }
    }

    /// `r` leaves `port` at its `TxDone`, the path every packet not
    /// forwarded at its service start takes.
    fn depart(&mut self, at: SimTime, port: usize, r: PacketRef) {
        if self.arena.get(r).class == FlowClass::Cross {
            // Cross traffic leaves the system after its attachment queue;
            // its only role is to compete for the server (Figure 3). It
            // crosses the link at the delay in force when it departs.
            let (link, _) = self.hop(port);
            let delivered_at = at + self.path.links[link].propagation;
            let packet = self.arena.take(r);
            let slot = self.cross_slot(port);
            self.cross[slot].deliveries.push(CrossDelivery {
                id: packet.id,
                delivered_at,
                source: packet.flow,
                index: u32::try_from(packet.seq).expect("a source's index"),
            });
            return;
        }
        let (link, node) = self.hop(port);
        let t = at + self.path.links[link].propagation;
        if self.owned.contains(&node) {
            let lane = self.arena.get(r).id.0;
            debug_assert!(lane < LOCAL_LANE, "packet id too large for lane keying");
            self.schedule_keyed(
                t,
                lane,
                Ev::NodeArrival {
                    node: node as u32,
                    r,
                },
            );
        } else {
            // Boundary crossing: hand the packet to the neighbor.
            let arrival = RemoteArrival {
                at: t,
                node,
                packet: self.arena.take(r),
            };
            if node < self.owned.start {
                self.outbox_west.push(arrival);
            } else {
                self.outbox_east.push(arrival);
            }
        }
    }

    fn on_node_arrival(&mut self, at: SimTime, node: usize, r: PacketRef) {
        let last = self.path.nodes.len() - 1;
        let (corrupted, direction) = {
            let p = self.arena.get(r);
            (p.corrupted, p.direction)
        };
        // Routers forward corrupted packets (they only checksum the IP
        // header); the first endpoint that decodes the payload sees the bad
        // wire checksum and discards the packet.
        if corrupted {
            let at_endpoint = match direction {
                Direction::Outbound => node == last,
                Direction::Inbound => node == 0,
            };
            if at_endpoint {
                self.record(at, None, r, TraceKind::ChecksumDrop);
                self.note_drop(at, usize::MAX, r, DropReason::Corrupted);
                return;
            }
        }
        match direction {
            Direction::Outbound => {
                if node == last {
                    // Echo host: turn the packet around immediately (§2),
                    // stamping the echo instant into the packet.
                    self.record(at, None, r, TraceKind::Echoed);
                    {
                        let p = self.arena.get_mut(r);
                        p.echoed_at = Some(at);
                        p.direction = Direction::Inbound;
                    }
                    let port = self.port_index(node - 1, Direction::Inbound);
                    self.dispatch_arrive(at, port, r);
                    return;
                }
                // Intermediate router: forwarding decrements TTL.
                let ttl = {
                    let p = self.arena.get_mut(r);
                    p.ttl = p.ttl.saturating_sub(1);
                    p.ttl
                };
                if ttl == 0 {
                    self.expire_ttl(at, node, r);
                    return;
                }
                let port = self.port_index(node, Direction::Outbound);
                self.dispatch_arrive(at, port, r);
            }
            Direction::Inbound => {
                if node == 0 {
                    self.deliver(at, r);
                    return;
                }
                let ttl = {
                    let p = self.arena.get_mut(r);
                    p.ttl = p.ttl.saturating_sub(1);
                    p.ttl
                };
                if ttl == 0 {
                    self.expire_ttl(at, node, r);
                    return;
                }
                let port = self.port_index(node - 1, Direction::Inbound);
                self.dispatch_arrive(at, port, r);
            }
        }
    }

    fn expire_ttl(&mut self, at: SimTime, node: usize, r: PacketRef) {
        self.record(at, None, r, TraceKind::TtlExpired);
        // Routers drop the packet; for probes they answer with a
        // time-exceeded message routed back through the regular queues.
        let packet = self.arena.take(r);
        self.push_drop(DropRecord {
            id: packet.id,
            class: packet.class,
            seq: packet.seq,
            at,
            port: usize::MAX,
            reason: DropReason::TtlExpired,
        });
        if packet.class != FlowClass::Probe {
            return;
        }
        // Reply ids are derived from the expiring node and a per-node
        // counter — identical in serial and partitioned runs. The origin
        // node rides in `flow`, so the reply needs no engine-side lookup
        // table when it is finally delivered (possibly in a different
        // partition).
        let id = PacketId(
            RUNTIME_ID_BIT | REPLY_ID_BIT | ((node as u64) << ID_SITE_SHIFT) | self.reply_seq[node],
        );
        self.reply_seq[node] += 1;
        let reply = Packet {
            id,
            class: FlowClass::Control,
            flow: node as u32,
            size: TTL_REPLY_SIZE,
            seq: packet.seq,
            injected_at: packet.injected_at,
            ttl: DEFAULT_TTL,
            direction: Direction::Inbound,
            corrupted: false,
            echoed_at: None,
        };
        let rr = self.arena.alloc(reply);
        let port = self.port_index(node - 1, Direction::Inbound);
        self.dispatch_arrive(at, port, rr);
    }

    fn deliver(&mut self, at: SimTime, r: PacketRef) {
        self.record(at, None, r, TraceKind::Delivered);
        let packet = self.arena.take(r);
        match packet.class {
            FlowClass::Control => {
                self.ttl_replies.push(TtlExceeded {
                    probe_seq: packet.seq,
                    node: packet.flow as usize,
                    received_at: at,
                });
            }
            _ => {
                self.deliveries.push(Delivery {
                    id: packet.id,
                    class: packet.class,
                    seq: packet.seq,
                    injected_at: packet.injected_at,
                    echoed_at: packet.echoed_at,
                    delivered_at: at,
                });
            }
        }
    }

    fn note_drop(&mut self, at: SimTime, port: usize, r: PacketRef, reason: DropReason) {
        let packet = self.arena.take(r);
        self.push_drop(DropRecord {
            id: packet.id,
            class: packet.class,
            seq: packet.seq,
            at,
            port,
            reason,
        });
    }

    /// All completed round trips, in completion order: every probe
    /// delivery. Cross traffic's departures are kept per port
    /// ([`Engine::cross_deliveries`]) and TTL replies apart
    /// ([`Engine::ttl_replies`]).
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// All packet losses except cross traffic's, in drop order. Cross
    /// packets' drops are kept per port ([`Engine::cross_drops`]).
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// The cross-traffic departures of the port serving (`link`,
    /// `direction`), in service order. The port logs only what the engine
    /// cannot recompute; this builds the records from it.
    pub fn cross_deliveries(&self, link: usize, direction: Direction) -> Vec<Delivery> {
        let log = &self.cross[self.cross_slot(self.port_index(link, direction))];
        log.deliveries
            .iter()
            .map(|d| {
                let source = &self.sources[d.source as usize];
                d.build(source.class, &source.feed.stream().arrivals)
            })
            .collect()
    }

    /// The cross-traffic drops of the port serving (`link`, `direction`),
    /// in drop order (arrival order on a port that folds). A port that
    /// duplicates packets adds a record for each copy it delivers or drops.
    pub fn cross_drops(&self, link: usize, direction: Direction) -> &[DropRecord] {
        &self.cross[self.cross_slot(self.port_index(link, direction))].drops
    }

    /// Move the cross-traffic records of the port serving (`link`,
    /// `direction`) out of the engine, leaving that port's logs empty.
    pub(crate) fn take_cross(
        &mut self,
        link: usize,
        direction: Direction,
    ) -> (CrossDeliveries, Vec<DropRecord>) {
        let sources = self
            .sources
            .iter()
            .map(|s| match &s.feed {
                Feed::Stream(stream) => Some((s.class, Arc::clone(&stream.arrivals))),
                Feed::Train { .. } => None,
            })
            .collect();
        let slot = self.cross_slot(self.port_index(link, direction));
        let log = &mut self.cross[slot];
        let deliveries = CrossDeliveries {
            records: std::mem::take(&mut log.deliveries),
            sources,
        };
        (deliveries, std::mem::take(&mut log.drops))
    }

    /// TTL-exceeded notifications received back at the source.
    pub fn ttl_replies(&self) -> &[TtlExceeded] {
        &self.ttl_replies
    }

    /// Let go of every stream attached since the last reset: the traffic
    /// sources go, with the pending events and the cross-traffic records
    /// that refer to them, and every buffer keeps its allocation. The
    /// probe records, port statistics and work counters stay readable. An
    /// engine kept for a later run calls this once its run has been read,
    /// so that it holds no caller's stream in between; it runs again only
    /// after [`Engine::reset`].
    pub fn release_streams(&mut self) {
        self.sources.clear();
        self.events.clear();
        self.folds.iter_mut().for_each(Fold::reset);
        self.folded.clear();
        self.cross.iter_mut().for_each(CrossLog::clear);
    }
}

/// The network packet behind an occupant of a port that does not fold.
fn network_packet(what: Occupant) -> PacketRef {
    match what {
        Occupant::Packet(r) => r,
        Occupant::Folded { .. } => unreachable!("only a folding port holds folded packets"),
    }
}

/// Discover the route of a path exactly as `traceroute` does: send probes
/// with TTL = 1, 2, … and collect the names of the nodes that answer with
/// time-exceeded messages, until the echo host itself answers.
///
/// Like real traceroute, three probes go out per TTL, because individual
/// probes (or their time-exceeded replies) can be eaten by the path's
/// random link loss; the first reply per hop wins. A hop only goes
/// unreported if all three of its probes die.
///
/// Returns the node names in hop order (excluding the source), i.e. the
/// paper's Tables 1 and 2. `probe_spacing` separates successive probes so
/// they do not queue behind each other.
pub fn discover_route(path: &Path, probe_spacing: SimDuration) -> Vec<String> {
    const ATTEMPTS: u64 = 3;
    let hops = path.hop_count() as u64;
    let mut engine = Engine::new(path.clone(), 0);
    for attempt in 0..ATTEMPTS {
        for k in 1..=hops {
            let seq = attempt * hops + k;
            let at = SimTime::ZERO + probe_spacing * seq;
            // The final probe must survive the return trip too, so it gets
            // a full TTL; its echo identifies the last node (real
            // traceroute likewise relies on a reply from the destination).
            let ttl = if k == hops { DEFAULT_TTL } else { k as u8 };
            engine.inject_probe_with_ttl(at, 32, seq, ttl);
        }
    }
    engine.run();
    // seq = attempt·hops + k with k ∈ 1..=hops, so the probed hop is
    // recoverable from any reply's sequence number.
    let hop_of = |seq: u64| ((seq - 1) % hops) as usize;
    let mut by_hop: Vec<Option<String>> = vec![None; hops as usize];
    for r in engine.ttl_replies() {
        let k = hop_of(r.probe_seq);
        if by_hop[k].is_none() {
            by_hop[k] = Some(path.nodes[r.node].clone());
        }
    }
    // Full-TTL probes reach the echo host and return as regular echoes.
    for d in engine.deliveries() {
        let k = hop_of(d.seq);
        if by_hop[k].is_none() {
            by_hop[k] = Some(path.nodes[hops as usize].clone());
        }
    }
    by_hop.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::ImpairmentSpec;
    use crate::path::{BufferLimit, LinkSpec};

    fn simple_path(bw: u64, prop_ms: u64) -> Path {
        Path::new(
            vec!["src".into(), "echo".into()],
            vec![LinkSpec::new(bw, SimDuration::from_millis(prop_ms))],
        )
    }

    /// A stream of `(at, size)` arrivals.
    fn stream(pairs: impl IntoIterator<Item = (SimTime, u32)>) -> Vec<Arrival> {
        pairs
            .into_iter()
            .map(|(at, size)| Arrival { at, size })
            .collect()
    }

    #[test]
    fn single_probe_rtt_is_exact() {
        // 32 B at 128 kb/s = 2 ms tx per direction; 10 ms propagation each
        // way: RTT = 2*(2 + 10) = 24 ms.
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.inject_probe(SimTime::ZERO, 32, 0);
        e.run();
        let d: Vec<_> = e.deliveries().iter().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rtt(), SimDuration::from_millis(24));
    }

    #[test]
    fn periodic_probes_unloaded_rtt_constant() {
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        for n in 0..100u64 {
            e.inject_probe(SimTime::from_millis(50 * n), 32, n);
        }
        e.run();
        let rtts: Vec<_> = e.deliveries().iter().map(|d| d.rtt()).collect();
        assert_eq!(rtts.len(), 100);
        assert!(rtts.iter().all(|&r| r == SimDuration::from_millis(24)));
    }

    #[test]
    fn probes_faster_than_bottleneck_compress_to_service_rate() {
        // δ = 1 ms < P/μ = 2 ms: probes pile up and leave the bottleneck
        // spaced exactly P/μ apart — the probe-compression phenomenon.
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        for n in 0..10u64 {
            e.inject_probe(SimTime::from_millis(n), 32, n);
        }
        e.run();
        let mut recv: Vec<_> = e.deliveries().iter().map(|d| d.delivered_at).collect();
        recv.sort();
        assert_eq!(recv.len(), 10);
        for w in recv.windows(2) {
            assert_eq!(w[1] - w[0], SimDuration::from_millis(2));
        }
    }

    #[test]
    fn finite_buffer_overflows_under_saturation() {
        let path = Path::new(
            vec!["src".into(), "echo".into()],
            vec![LinkSpec::new(128_000, SimDuration::ZERO).with_buffer(BufferLimit::Packets(2))],
        );
        let mut e = Engine::new(path, 1);
        // 100 probes injected simultaneously: 1 in service + 2 queued
        // survive the outbound port; the rest overflow.
        for n in 0..100u64 {
            e.inject_probe(SimTime::ZERO, 32, n);
        }
        e.run();
        assert_eq!(e.deliveries().iter().count(), 3);
        assert_eq!(
            e.drops()
                .iter()
                .filter(|d| d.reason == DropReason::BufferOverflow)
                .count(),
            97
        );
    }

    #[test]
    fn cross_traffic_delays_probes() {
        // A 512-byte Internet packet arrives just before the probe: the
        // probe waits 32 ms (its service at 128 kb/s) extra.
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.attach_cross_traffic(
            0,
            Direction::Outbound,
            stream([(SimTime::from_millis(5), 512)]),
        );
        e.inject_probe(SimTime::from_millis(5), 32, 0);
        e.run();
        let d: Vec<_> = e.deliveries().iter().collect();
        assert_eq!(d.len(), 1);
        // Base 24 ms + 32 ms behind the FTP-sized packet.
        assert_eq!(d[0].rtt(), SimDuration::from_millis(56));
    }

    #[test]
    fn random_loss_is_applied_per_packet() {
        let path = Path::new(
            vec!["src".into(), "echo".into()],
            vec![LinkSpec::new(10_000_000, SimDuration::ZERO).with_random_loss(0.3)],
        );
        let mut e = Engine::new(path, 42);
        for n in 0..2000u64 {
            e.inject_probe(SimTime::from_millis(n), 32, n);
        }
        e.run();
        let delivered = e.deliveries().iter().count();
        let dropped = e
            .drops()
            .iter()
            .filter(|d| d.reason == DropReason::RandomLoss)
            .count();
        assert_eq!(delivered + dropped, 2000);
        // Loss is applied once per port traversal (out + back): the survival
        // probability is (1-0.3)^2 = 0.49.
        let survival = delivered as f64 / 2000.0;
        assert!(
            (survival - 0.49).abs() < 0.05,
            "survival {survival} far from 0.49"
        );
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            let path = Path::inria_umd_1992();
            let mut e = Engine::new(path, seed);
            e.enable_trace();
            for n in 0..200u64 {
                e.inject_probe(SimTime::from_millis(20 * n), 32, n);
            }
            e.run();
            let t = e.take_trace();
            (t.len(), e.deliveries().iter().count(), e.drops().len())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_differ_with_random_loss() {
        let run = |seed| {
            let path = Path::new(
                vec!["src".into(), "echo".into()],
                vec![LinkSpec::new(10_000_000, SimDuration::ZERO).with_random_loss(0.2)],
            );
            let mut e = Engine::new(path, seed);
            for n in 0..500u64 {
                e.inject_probe(SimTime::from_millis(n), 32, n);
            }
            e.run();
            e.deliveries().iter().map(|d| d.seq).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn route_discovery_reproduces_table1() {
        let path = Path::inria_umd_1992();
        let route = discover_route(&path, SimDuration::from_millis(500));
        assert_eq!(route.len(), 10);
        assert_eq!(route[0], "tom.inria.fr");
        assert_eq!(route[4], "Ithaca.NY.NSS.NSF.NET");
        assert_eq!(route[9], "avwhub-gw.umd.edu");
    }

    #[test]
    fn route_discovery_reproduces_table2() {
        let path = Path::umd_pitt_1993();
        let route = discover_route(&path, SimDuration::from_millis(200));
        assert_eq!(route.len(), 13);
        assert_eq!(route[0], "avw1hub-gw.umd.edu");
        assert_eq!(route[12], "hub-eh.gw.pitt.edu");
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        for n in 0..10u64 {
            e.inject_probe(SimTime::from_millis(100 * n), 32, n);
        }
        e.run_until(SimTime::from_millis(450));
        // Probes 0..4 injected by 400 ms have completed (RTT 24 ms each);
        // probe 5 at 500 ms has not even been injected.
        assert_eq!(e.deliveries().iter().count(), 5);
        e.run();
        assert_eq!(e.deliveries().iter().count(), 10);
    }

    #[test]
    fn conservation_probes_delivered_plus_dropped() {
        let path = Path::inria_umd_1992();
        let mut e = Engine::new(path, 3);
        let n_probes = 500u64;
        for n in 0..n_probes {
            e.inject_probe(SimTime::from_millis(8 * n), 32, n);
        }
        e.run();
        let delivered = e.deliveries().iter().count() as u64;
        let dropped = e
            .drops()
            .iter()
            .filter(|d| d.class == FlowClass::Probe)
            .count() as u64;
        assert_eq!(delivered + dropped, n_probes);
    }

    #[test]
    fn a_port_reserves_records_for_every_source_attached_to_it() {
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        let arrivals = |n: u64| stream((0..n).map(|i| (SimTime::from_millis(i), 100)));
        e.attach_cross_traffic(0, Direction::Outbound, arrivals(300));
        e.attach_cross_traffic(0, Direction::Outbound, arrivals(200));
        assert!(e.cross[0].deliveries.capacity() >= 500);
        e.reset(&simple_path(128_000, 10), 1);
        e.attach_cross_traffic(0, Direction::Outbound, arrivals(10));
        assert_eq!(e.cross[0].attached, 10);
    }

    /// A reset onto a longer path leaves each hop's cross log where it was,
    /// with its capacity: the inbound port of link 0 is port 1 on one link
    /// and port 3 on two, but its log stays in slot 1.
    #[test]
    fn a_cross_log_keeps_its_capacity_across_a_reset_onto_a_longer_path() {
        // 100 B take 6.25 ms at 128 kb/s: ten apart, none waits or drops.
        let arrivals: Arc<[Arrival]> =
            stream((0..500u64).map(|i| (SimTime::from_millis(10 * i), 100))).into();
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.attach_cross_traffic(0, Direction::Inbound, Arc::clone(&arrivals));
        e.run();
        assert_eq!(e.cross_deliveries(0, Direction::Inbound).len(), 500);
        let capacity = e.cross[1].deliveries.capacity();
        let longer = Path::new(
            vec!["src".into(), "hop".into(), "echo".into()],
            vec![
                LinkSpec::new(128_000, SimDuration::from_millis(10)),
                LinkSpec::new(128_000, SimDuration::from_millis(10)),
            ],
        );
        e.reset(&longer, 1);
        assert_eq!(e.cross_slot(e.port_index(0, Direction::Inbound)), 1);
        assert!(e.cross_deliveries(0, Direction::Inbound).is_empty());
        assert_eq!(e.cross[1].deliveries.capacity(), capacity);
        e.attach_cross_traffic(0, Direction::Inbound, arrivals);
        e.run();
        assert_eq!(e.cross_deliveries(0, Direction::Inbound).len(), 500);
        assert_eq!(e.cross[1].deliveries.capacity(), capacity);
    }

    #[test]
    fn reset_engine_replays_bit_identically() {
        let path = Path::inria_umd_1992();
        let drive = |e: &mut Engine| {
            for n in 0..300u64 {
                e.inject_probe(SimTime::from_millis(10 * n), 32, n);
            }
            e.run();
            let seqs: Vec<u64> = e.deliveries().iter().map(|d| d.seq).collect();
            let rtts: Vec<_> = e.deliveries().iter().map(|d| d.rtt()).collect();
            (seqs, rtts, e.drops().len(), e.stats().events_processed)
        };
        let mut fresh = Engine::new(path.clone(), 11);
        let first = drive(&mut fresh);

        // Drive a *different* seed in between, then reset back to 11: the
        // replay must match the fresh run exactly.
        let mut reused = Engine::new(path.clone(), 99);
        drive(&mut reused);
        reused.reset(&path, 11);
        assert_eq!(drive(&mut reused), first);
    }

    #[test]
    fn reset_restores_scheduled_propagation_changes() {
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.schedule_propagation_change(0, SimTime::from_millis(1), SimDuration::from_millis(50));
        e.inject_probe(SimTime::from_millis(2), 32, 0);
        e.run();
        let slow = e.deliveries().iter().next().unwrap().rtt();
        assert!(slow > SimDuration::from_millis(100), "rtt {slow:?}");

        // After reset the link is back to its configured 10 ms.
        e.reset(&simple_path(128_000, 10), 1);
        e.inject_probe(SimTime::from_millis(2), 32, 0);
        e.run();
        assert_eq!(
            e.deliveries().iter().next().unwrap().rtt(),
            SimDuration::from_millis(24)
        );
    }

    #[test]
    fn cross_deliveries_follow_a_route_shift() {
        // Cross packets on a 10 ms link at 0 and 100 ms; the link moves to
        // 50 ms at 50 ms. 64 B at 128 kb/s is 4 ms of transmission.
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.attach_cross_traffic(
            0,
            Direction::Outbound,
            stream([(SimTime::ZERO, 64), (SimTime::from_millis(100), 64)]),
        );
        e.schedule_propagation_change(0, SimTime::from_millis(50), SimDuration::from_millis(50));
        e.run();
        let delivered: Vec<_> = e
            .cross_deliveries(0, Direction::Outbound)
            .iter()
            .map(|d| d.delivered_at)
            .collect();
        assert_eq!(
            delivered,
            [SimTime::from_millis(14), SimTime::from_millis(154)]
        );
    }

    /// A duplicating port keeps the queued path. Each copy it delivers
    /// has its own runtime id and its original's sequence number and
    /// injection instant, so a record of `(source, index)` alone could
    /// not tell the two apart.
    #[test]
    fn a_duplicating_ports_cross_records_keep_each_copys_id_and_seq() {
        let path = Path::new(
            vec!["src".into(), "echo".into()],
            vec![
                LinkSpec::new(128_000, SimDuration::from_millis(10)).with_impairments(
                    ImpairmentSpec::none().with_duplicate(1.0, SimDuration::from_millis(1)),
                ),
            ],
        );
        let mut e = Engine::new(path, 1);
        // 64 B take 4 ms: a copy 1 ms behind its original waits for it.
        e.attach_cross_traffic(
            0,
            Direction::Outbound,
            stream((0..3u64).map(|i| (SimTime::from_millis(100 * i), 64))),
        );
        e.run();
        let records: Vec<(u64, u64, SimTime, SimTime)> = e
            .cross_deliveries(0, Direction::Outbound)
            .iter()
            .map(|d| (d.id.0, d.seq, d.injected_at, d.delivered_at))
            .collect();
        let copy = |n: u64| RUNTIME_ID_BIT | n;
        let ms = SimTime::from_millis;
        assert_eq!(
            records,
            [
                (0, 0, ms(0), ms(14)),
                (copy(0), 0, ms(0), ms(18)),
                (1, 1, ms(100), ms(114)),
                (copy(1), 1, ms(100), ms(118)),
                (2, 2, ms(200), ms(214)),
                (copy(2), 2, ms(200), ms(218)),
            ]
        );
    }

    /// One stream attached to two ports of two engines is read in place
    /// by all four, and each port's records are those of its own copy.
    #[test]
    fn a_shared_stream_feeds_every_port_it_is_attached_to() {
        let shared: Arc<[Arrival]> =
            stream((0..200u64).map(|i| (SimTime::from_millis(3 * i), 100))).into();
        let copied = shared.to_vec();
        let records = |arrivals: [Arc<[Arrival]>; 2]| {
            let mut e = Engine::new(simple_path(128_000, 10), 7);
            let [outbound, inbound] = arrivals;
            e.attach_cross_traffic(0, Direction::Outbound, outbound);
            e.attach_cross_traffic(0, Direction::Inbound, inbound);
            e.inject_probe_train(SimTime::ZERO, SimDuration::from_millis(20), 32, 30);
            e.run();
            let log = |d: Direction| {
                let deliveries: Vec<_> = e
                    .cross_deliveries(0, d)
                    .iter()
                    .map(|d| (d.id, d.seq, d.injected_at, d.delivered_at))
                    .collect();
                (deliveries, e.cross_drops(0, d).len())
            };
            let probes: Vec<_> = e.deliveries().iter().map(|d| d.rtt()).collect();
            (log(Direction::Outbound), log(Direction::Inbound), probes)
        };
        let one = records([Arc::clone(&shared), Arc::clone(&shared)]);
        let two = records([Arc::clone(&shared), Arc::clone(&shared)]);
        let own = records([copied.clone().into(), copied.into()]);
        assert_eq!(one, own);
        assert_eq!(two, own);
        assert_eq!(one.0 .0.len() + one.0 .1, 200);
        // Every engine let go of it when it was dropped.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn released_streams_are_no_longer_held() {
        let shared: Arc<[Arrival]> =
            stream((0..50u64).map(|i| (SimTime::from_millis(5 * i), 100))).into();
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        e.attach_cross_traffic(0, Direction::Outbound, Arc::clone(&shared));
        e.inject_probe_train(SimTime::ZERO, SimDuration::from_millis(20), 32, 10);
        e.run();
        assert_eq!(Arc::strong_count(&shared), 2);
        e.release_streams();
        assert_eq!(Arc::strong_count(&shared), 1);
        assert!(e.cross_deliveries(0, Direction::Outbound).is_empty());
        assert_eq!(e.deliveries().len(), 10);
    }

    #[test]
    fn stats_count_events_and_queue_depth() {
        let mut e = Engine::new(simple_path(128_000, 10), 1);
        for n in 0..50u64 {
            e.inject_probe(SimTime::from_millis(50 * n), 32, n);
        }
        e.run();
        let stats = e.stats();
        // Each probe generates at least Arrive + TxDone per direction plus
        // node arrivals: well over 4 logical events.
        assert!(stats.events_processed >= 200, "{stats:?}");
        assert!(stats.peak_queue_depth >= 50, "{stats:?}");
    }

    #[test]
    fn port_utilization_reflects_load() {
        let mut e = Engine::new(simple_path(128_000, 0), 1);
        // Saturate: probes every 2 ms, each taking 2 ms to serve.
        for n in 0..1000u64 {
            e.inject_probe(SimTime::from_millis(2 * n), 32, n);
        }
        e.run();
        let now = e.now();
        let util = e.port(0, Direction::Outbound).stats.utilization(now);
        assert!(util > 0.95, "outbound utilization {util}");
    }

    #[test]
    fn runtime_ids_are_site_derived() {
        // A TTL-expired probe yields a Control reply whose id encodes the
        // expiring node, not a global counter — the property that keeps
        // partitioned runs id-identical to serial ones.
        let path = Path::inria_umd_1992();
        let mut e = Engine::new(path, 5);
        e.inject_probe_with_ttl(SimTime::ZERO, 32, 1, 2);
        e.run();
        assert_eq!(e.ttl_replies().len(), 1);
        let reply_drop = e
            .drops()
            .iter()
            .find(|d| d.reason == DropReason::TtlExpired)
            .expect("probe must expire");
        assert_eq!(reply_drop.seq, 1);
        // The reply delivered back carries the origin node.
        assert_eq!(e.ttl_replies()[0].node, 2);
    }
}
