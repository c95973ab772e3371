//! Probe-mesh campaigns: shared-link topologies, the O(N²) probing
//! fleet, and per-link loss tomography.
//!
//! Bolot's experiment measured one path. This crate scales the same
//! pipeline out to a *mesh*: [`topology`] generates a deterministic
//! N-host graph whose probe paths share backbone links (each pair's
//! route is still the linear `Path` the simulator runs — extracted from
//! the graph by `MeshTopology::path_between`); [`campaign`] runs one
//! collector per vantage host, ships every host's snapshot-frame stream
//! (with tag-11 per-hop annotations) through the merge daemon's incremental
//! reader, and decomposes end-to-end loss and queueing delay onto the
//! shared links; [`tomography`] is the decomposition itself, validated
//! against the simulator's ground-truth per-link drop counters.
//!
//! The single-path pipeline (series → collector → frames → merge daemon)
//! is not re-implemented here: the campaign calls
//! `probenet_netdyn::collect_sessions` and `MergeService::ingest_reader`,
//! the same functions `repro --stream` and `probenet-merged` run.

pub mod campaign;
pub mod tomography;
pub mod topology;

pub use campaign::{
    LinkRow, MeshReport, MeshRun, PathRow, TOLERANCE_ABS, TOLERANCE_RATE, TOLERANCE_REL,
};
pub use tomography::{attribute_losses, infer_link_exponents, rate_from_exponent, PathObservation};
pub use topology::{splitmix64, LinkKind, MeshLink, MeshSpec, MeshTopology};
