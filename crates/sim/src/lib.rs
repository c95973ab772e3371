//! # probenet-sim
//!
//! A deterministic discrete-event network simulator purpose-built for
//! end-to-end probing experiments in the style of Bolot's SIGCOMM '93 study
//! *"End-to-End Packet Delay and Loss Behavior in the Internet"*.
//!
//! The simulator models exactly the setting the paper measures: a **linear
//! multi-hop path** from a source host, through store-and-forward routers
//! joined by point-to-point links, to an **echo host** that immediately
//! returns each probe. Every link direction has its own FIFO transmit queue
//! with a finite drop-tail buffer, and any queue can carry **cross traffic**
//! (the paper's "Internet stream") competing with the probes.
//!
//! Design points, in the spirit of small, robust network stacks:
//!
//! * **Integer time.** All simulated time is in integer nanoseconds
//!   ([`SimTime`]/[`SimDuration`]); there is no floating-point drift and no
//!   platform-dependent rounding.
//! * **Determinism.** The event queue breaks timestamp ties deterministically
//!   (packet-id lanes for link crossings, insertion order otherwise), and all
//!   randomness flows from per-port streams derived from a single seed: the
//!   same inputs produce the same results, bit for bit — serial or
//!   partitioned ([`parallel::run_partitioned`]).
//! * **Fault injection.** Links can drop packets at random (the paper's
//!   faulty-interface-card losses) independently of buffer overflow.
//! * **Route discovery.** Packets carry a TTL; routers answer expired probes
//!   with time-exceeded replies, so `traceroute`-style discovery
//!   ([`engine::discover_route`]) reproduces the paper's Tables 1 and 2.
//!
//! ## Quick example
//!
//! ```
//! use probenet_sim::{Direction, Engine, Path, SimTime};
//!
//! // The paper's INRIA -> University of Maryland path, July 1992.
//! let path = Path::inria_umd_1992();
//! let (bottleneck, _) = path.bottleneck();
//! let mut engine = Engine::new(path, 42);
//!
//! // A 512-byte Internet packet every 30 ms competes at the bottleneck.
//! let cross = (0..160u64).map(|n| (SimTime::from_millis(30 * n), 512));
//! engine.attach_cross_traffic(bottleneck, Direction::Outbound, cross);
//!
//! // Send 100 32-byte probes, one every 50 ms (one of the paper's settings).
//! for n in 0..100u64 {
//!     engine.inject_probe(SimTime::from_millis(50 * n), 32, n);
//! }
//! engine.run();
//!
//! // Every probe either completed a round trip or was dropped.
//! let delivered = engine.probe_deliveries().count();
//! let dropped = engine.drops().len();
//! assert_eq!(delivered + dropped, 100);
//!
//! // Cross traffic's records stay with the port it was attached to.
//! let served = engine.cross_deliveries(bottleneck, Direction::Outbound).len();
//! let lost = engine.cross_drops(bottleneck, Direction::Outbound).len();
//! assert_eq!(served + lost, 160);
//! ```

pub mod arena;
pub mod engine;
pub mod event;
pub mod impair;
pub mod packet;
pub mod parallel;
pub mod path;
pub mod queue;
pub mod time;
pub mod trace;

pub use arena::{PacketArena, PacketRef};
pub use engine::{discover_route, Engine, EngineStats, RemoteArrival, TTL_REPLY_SIZE};
pub use event::EventQueue;
pub use impair::{
    DuplicateSpec, FlapWindow, GilbertElliott, ImpairmentSpec, ReorderSpec, RouteShift,
};
pub use packet::{
    Delivery, Direction, DropReason, DropRecord, FlowClass, Packet, PacketId, TtlExceeded,
    DEFAULT_TTL,
};
pub use parallel::{
    run_partitioned, CrossAttachment, InjectionPlan, ParallelOutcome, ProbeInjection,
};
pub use path::{figure3_model, BufferLimit, LinkSpec, Path, PathBuilder};
pub use queue::{Admission, Port, PortStats};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceKind};
