//! Versioned snapshot frames: the serialized form of one collector
//! session's complete estimator state, built so fleet-wide merge daemons
//! can fold shards produced on different hosts (DESIGN.md §14).
//!
//! A frame carries everything [`probenet_stream::SessionReport`] knows
//! except the final [`BankSnapshot`] — that
//! is recomputed from the decoded bank, which round-trips bit-for-bit, so
//! a merged report renders byte-identically to a single-process collector.
//!
//! Layout (big-endian throughout, like every codec in this crate):
//!
//! ```text
//!  0        4    5     6         10
//!  +--------+----+-----+---------+----------------------------+
//!  | magic  |ver |type | pay_len |   payload (pay_len bytes)  |
//!  | "PNSF" |u8  |u8   |  u32    |   tagged sections          |
//!  +--------+----+-----+---------+----------------------------+
//! ```
//!
//! The payload is a sequence of tagged sections — `tag u8`, `len u32`,
//! `len` bytes — in ascending tag order. Decoders **skip unknown tags**
//! (forward compatibility: a newer writer may append sections), reject
//! duplicate or truncated known sections, and require every section a
//! bank needs. Skipped sections are not dropped: they are kept
//! verbatim, in encounter order, in [`SessionFrame::extensions`] and
//! re-emitted by [`SessionFrame::encode`] after every known section —
//! since writers append sections in ascending tag order, an
//! unknown-section frame re-encodes byte-identically, so an older relay
//! can forward newer frames without destroying data it cannot parse.
//! Floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so encode∘decode is bit-exact, `±∞` included.
//!
//! The version byte is reserved for layout changes to *known* sections;
//! additive evolution happens on the tag axis. Version 2 (the only one
//! [`SessionFrame::encode`] writes) ships the quantile sketch and the
//! phase grid as their occupied spans — first index, then the counts to
//! the last non-empty one — as they are held in memory. Version 1 shipped
//! both dense (sketch counts from bucket 0, all `bins²` grid cells); the
//! decoder still reads it, selected by the header byte, so older shards
//! merge. Since a version-2 frame no longer carries every cell, the
//! decoder caps the grid CONFIG may claim at [`MAX_PHASE_CELLS`]. The
//! per-hop annotation section ([`TAG_HOPS`], tag 11, carrying
//! [`HopAnnotation`] rows from the mesh campaign) was the first tag-axis
//! addition: a reader predating it skips it via the unknown-tag path —
//! `crates/wire/tests/snapshot_compat.rs` proves that skip byte-exact.
//!
//! All decoders are total: arbitrary bytes produce `Ok` or a typed
//! [`WireError`], never a panic — and stronger, any frame that decodes
//! `Ok` yields a bank whose `snapshot()`/`to_json()` path cannot panic
//! (the per-estimator invariants, spans included, are re-validated by
//! [`EstimatorBank::from_wire_state`], and interim snapshots must be
//! canonical JSON).

use crate::error::WireError;
use probenet_stats::MomentsState;
use probenet_stream::bank::BankWireState;
use probenet_stream::lindley::WorkloadWireState;
use probenet_stream::loss::LossWireState;
use probenet_stream::phase::PhaseWireState;
use probenet_stream::{
    BankConfig, BankSnapshot, EstimatorBank, InterimSnapshot, SessionKey, SessionReport,
};

/// Identifies probenet snapshot frames on the wire ("PNSF").
pub const SNAPSHOT_MAGIC: u32 = 0x504e_5346;
/// Snapshot frame format version the encoder writes. The decoder also
/// reads version 1 (dense SKETCH and PHASE bodies).
pub const SNAPSHOT_VERSION: u8 = 2;
/// Frame type: one session's complete estimator state.
pub const FRAME_SESSION: u8 = 1;
/// Fixed frame header size: magic, version, type, payload length.
pub const FRAME_HEADER_BYTES: usize = 10;

/// Most phase-grid cells (`phase_bins²`) a frame's CONFIG may claim: 8 Mi,
/// 64 MiB dense — as many as a version-1 frame, which carried every cell,
/// could hold under the merge daemon's 64 MiB frame limit. A version-2
/// frame carries only the occupied span, so this cap, not the frame size,
/// bounds what decoding and folding one session's grid may allocate.
pub const MAX_PHASE_CELLS: usize = 1 << 23;

/// Per-hop annotation section: one [`HopAnnotation`] row per link of the
/// probed path. The newest tag — readers predating it treat it as an
/// unknown section and carry it through untouched.
pub const TAG_HOPS: u8 = 11;

/// Highest section tag the reader predating [`TAG_HOPS`] parsed. Passing
/// this to [`SessionFrame::decode_with_max_tag`] reproduces that reader
/// exactly: every later tag takes the unknown-section path.
pub const MAX_TAG_V1: u8 = 10;

const TAG_SESSION_META: u8 = 1;
const TAG_CONFIG: u8 = 2;
const TAG_LOSS: u8 = 3;
const TAG_MOMENTS: u8 = 4;
const TAG_RTT_HIST: u8 = 5;
const TAG_SKETCH: u8 = 6;
const TAG_ACF: u8 = 7;
const TAG_WORKLOAD: u8 = 8;
const TAG_PHASE: u8 = 9;
const TAG_INTERIM: u8 = 10;

/// What one probe session observed at one hop of its path: the mesh
/// campaign's per-link ground truth, shipped next to the end-to-end bank
/// so the fleet fold can cross-check its tomography estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopAnnotation {
    /// Stable link id within the campaign's topology.
    pub link: u32,
    /// Human-readable link name (topology-assigned).
    pub name: String,
    /// Probe packets this session lost at this hop (either direction).
    pub probe_drops: u64,
}

/// One collector session's state, as shipped between hosts.
#[derive(Debug, Clone)]
pub struct SessionFrame {
    /// The session's identity.
    pub key: SessionKey,
    /// Sequence number of the first record this shard folded (orders
    /// same-key shards deterministically at the merge daemon; 0 for a
    /// whole-session frame).
    pub first_seq: u64,
    /// Records folded into the bank.
    pub records: u64,
    /// Records the producer's `offer` dropped.
    pub dropped: u64,
    /// The full estimator bank.
    pub bank: EstimatorBank,
    /// Interim snapshots taken mid-stream (cannot be recomputed).
    pub interim: Vec<InterimSnapshot>,
    /// Per-hop annotations ([`TAG_HOPS`]); empty for single-path
    /// collectors, so their frames carry no tag-11 section.
    pub hops: Vec<HopAnnotation>,
    /// Sections this reader did not recognize, verbatim `(tag, body)` in
    /// encounter order. [`SessionFrame::encode`] re-emits them after every
    /// known section, so decode∘encode preserves a newer writer's frame
    /// byte-for-byte.
    pub extensions: Vec<(u8, Vec<u8>)>,
}

impl SessionFrame {
    /// A frame carrying everything of `report` (`first_seq` = 0: the frame
    /// represents the session from its first record).
    pub fn from_report(report: &SessionReport) -> Self {
        SessionFrame {
            key: report.key.clone(),
            first_seq: 0,
            records: report.records,
            dropped: report.dropped,
            bank: report.bank.clone(),
            interim: report.interim.clone(),
            hops: Vec::new(),
            extensions: Vec::new(),
        }
    }

    /// Rebuild the collector-report view: the final snapshot is recomputed
    /// from the bank, which round-trips bit-exactly through the codec.
    pub fn into_report(self) -> SessionReport {
        SessionReport {
            snapshot: self.bank.snapshot(),
            key: self.key,
            records: self.records,
            dropped: self.dropped,
            interim: self.interim,
            bank: self.bank,
        }
    }

    /// Encode into a fresh vector.
    ///
    /// # Panics
    /// Panics if a variable-length field or span offset exceeds
    /// `u32::MAX` — not reachable from a bank with a phase grid of fewer
    /// than 65 536 bins per axis (the sketch caps at 7 424 buckets).
    pub fn encode(&self) -> Vec<u8> {
        let state = self.bank.wire_state();
        let words = state.loss.closed.len()
            + state.rtt_counts.len()
            + state.sketch_counts.len()
            + state.acf_samples.len()
            + state.workload.hist_counts.len()
            + state.phase.span.len();
        let mut frame = Vec::with_capacity(1024 + 8 * words);
        put_u32(&mut frame, SNAPSHOT_MAGIC);
        frame.push(SNAPSHOT_VERSION);
        frame.push(FRAME_SESSION);
        length_prefixed(&mut frame, |payload| self.encode_sections(&state, payload));
        frame
    }

    /// The tagged sections of [`SessionFrame::encode`]'s payload, appended
    /// to `payload`.
    fn encode_sections(&self, state: &BankWireState, payload: &mut Vec<u8>) {
        section(payload, TAG_SESSION_META, |out| {
            put_bytes(out, self.key.path.as_bytes());
            put_u64(out, self.key.delta_ns);
            put_u64(out, self.key.seed);
            put_u64(out, self.first_seq);
            put_u64(out, self.records);
            put_u64(out, self.dropped);
        });
        section(payload, TAG_CONFIG, |out| {
            let c = &state.config;
            put_f64(out, c.delta_ms);
            put_u32(out, c.wire_bytes);
            put_u64(out, c.clock_resolution_ns);
            put_f64(out, c.mu_bps);
            put_f64(out, c.workload_max_ms);
            put_f64(out, c.rtt_lo_ms);
            put_f64(out, c.rtt_hi_ms);
            put_len(out, c.rtt_bins);
            put_len(out, c.acf_window);
            put_len(out, c.acf_max_lag);
            put_f64(out, c.phase_lo_ms);
            put_f64(out, c.phase_hi_ms);
            put_len(out, c.phase_bins);
        });
        section(payload, TAG_LOSS, |out| {
            let l = &state.loss;
            put_u64(out, l.sent);
            put_u64(out, l.lost);
            put_u64(out, l.n00);
            put_u64(out, l.n01);
            put_u64(out, l.n10);
            put_u64(out, l.n11);
            put_opt_bool(out, l.first);
            put_opt_bool(out, l.last);
            put_u64(out, l.head_run);
            put_u64(out, l.tail_run);
            put_u64s(out, &l.closed);
        });
        section(payload, TAG_MOMENTS, |out| {
            let m = &state.moments;
            put_u64(out, m.n);
            put_f64(out, m.mean);
            put_f64(out, m.m2);
            put_f64(out, m.min);
            put_f64(out, m.max);
        });
        section(payload, TAG_RTT_HIST, |out| {
            put_u64(out, state.rtt_underflow);
            put_u64(out, state.rtt_overflow);
            put_u64s(out, &state.rtt_counts);
        });
        section(payload, TAG_SKETCH, |out| {
            put_len(out, state.sketch_first);
            put_u64s(out, &state.sketch_counts);
        });
        section(payload, TAG_ACF, |out| {
            put_u64(out, state.acf_evicted);
            put_f64s(out, &state.acf_samples);
        });
        section(payload, TAG_WORKLOAD, |out| {
            let w = &state.workload;
            put_f64(out, w.b_sum);
            put_u64(out, w.pairs);
            put_opt_rtt(out, w.first);
            put_opt_rtt(out, w.last);
            put_u64(out, w.hist_underflow);
            put_u64(out, w.hist_overflow);
            put_u64s(out, &w.hist_counts);
        });
        section(payload, TAG_PHASE, |out| {
            let p = &state.phase;
            put_u64(out, p.pairs);
            put_u64(out, p.out_of_range);
            put_len(out, p.grid_first);
            put_u64s(out, &p.span);
        });
        section(payload, TAG_INTERIM, |out| {
            put_len(out, self.interim.len());
            for i in &self.interim {
                put_u64(out, i.at_records);
                let json =
                    serde_json::to_string(&i.snapshot).expect("interim snapshot is JSON-safe");
                put_bytes(out, json.as_bytes());
            }
        });
        // Emitted only when present, so a hop-less frame carries exactly
        // the sections a reader predating the tag expects (pinned by the
        // checked-in frame shards).
        if !self.hops.is_empty() {
            section(payload, TAG_HOPS, |out| {
                put_len(out, self.hops.len());
                for h in &self.hops {
                    put_u32(out, h.link);
                    put_bytes(out, h.name.as_bytes());
                    put_u64(out, h.probe_drops);
                }
            });
        }
        // Carry-through: sections from a newer writer, re-emitted verbatim.
        // Writers append new sections in ascending tag order, so replaying
        // them after the known sections reproduces the original payload.
        for (tag, body) in &self.extensions {
            payload.push(*tag);
            put_bytes(payload, body);
        }
    }

    /// Decode one frame from the head of `data`; returns the frame and the
    /// bytes consumed (trailing bytes are the next frame of a stream).
    pub fn decode(data: &[u8]) -> Result<(Self, usize), WireError> {
        Self::decode_with_max_tag(data, TAG_HOPS)
    }

    /// [`SessionFrame::decode`] as a reader that only knows section tags
    /// `<= max_tag` would perform it: later tags take the unknown-section
    /// path into [`SessionFrame::extensions`]. `decode(..)` is
    /// `decode_with_max_tag(.., TAG_HOPS)`; passing [`MAX_TAG_V1`]
    /// reproduces the reader predating [`TAG_HOPS`] exactly — the
    /// forward-compat proof suite uses this to show an old reader skips a
    /// newer frame's sections byte-exactly.
    pub fn decode_with_max_tag(data: &[u8], max_tag: u8) -> Result<(Self, usize), WireError> {
        let mut r = Reader::new(data);
        let (version, payload_len) = header(&mut r)?;
        let payload = r.take(payload_len)?;
        let frame = decode_payload(payload, version, max_tag)?;
        Ok((frame, FRAME_HEADER_BYTES + payload_len))
    }
}

/// Read and validate the fixed header: magic, a version this decoder
/// reads (1 or [`SNAPSHOT_VERSION`]), the frame type. Returns the version
/// and the payload length.
fn header(r: &mut Reader<'_>) -> Result<(u8, usize), WireError> {
    let magic = r.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = r.u8()?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(WireError::BadVersion { found: version });
    }
    if r.u8()? != FRAME_SESSION {
        return Err(WireError::BadField("frame: unknown frame type"));
    }
    Ok((version, r.len()?))
}

/// On-wire length of the frame starting at `data[0]`, if the fixed header
/// is complete: `Ok(None)` with fewer than [`FRAME_HEADER_BYTES`] bytes
/// buffered, otherwise header bytes plus the payload length. Magic,
/// version and frame type are validated eagerly, so an incremental reader
/// (the merge daemon's bounded ingest loop) rejects a garbage stream on
/// its first 10 bytes instead of buffering it to EOF.
pub fn frame_len(data: &[u8]) -> Result<Option<usize>, WireError> {
    if data.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let (_, payload_len) = header(&mut Reader::new(data))?;
    Ok(Some(FRAME_HEADER_BYTES + payload_len))
}

/// Decode a back-to-back stream of frames (the merge daemon's input: one
/// file or socket stream per collector). Empty input is an empty fleet.
pub fn decode_frames(data: &[u8]) -> Result<Vec<SessionFrame>, WireError> {
    let mut frames = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let (frame, used) = SessionFrame::decode(rest)?;
        frames.push(frame);
        rest = &rest[used..];
    }
    Ok(frames)
}

struct Sections<'a> {
    meta: Option<&'a [u8]>,
    config: Option<&'a [u8]>,
    loss: Option<&'a [u8]>,
    moments: Option<&'a [u8]>,
    rtt: Option<&'a [u8]>,
    sketch: Option<&'a [u8]>,
    acf: Option<&'a [u8]>,
    workload: Option<&'a [u8]>,
    phase: Option<&'a [u8]>,
    interim: Option<&'a [u8]>,
    hops: Option<&'a [u8]>,
    extensions: Vec<(u8, Vec<u8>)>,
}

fn decode_payload(payload: &[u8], version: u8, max_tag: u8) -> Result<SessionFrame, WireError> {
    let mut s = Sections {
        meta: None,
        config: None,
        loss: None,
        moments: None,
        rtt: None,
        sketch: None,
        acf: None,
        workload: None,
        phase: None,
        interim: None,
        hops: None,
        extensions: Vec::new(),
    };
    let mut r = Reader::new(payload);
    while r.remaining() > 0 {
        let tag = r.u8()?;
        let len = r.len()?;
        let body = r.take(len)?;
        let known = tag <= max_tag;
        let slot = match tag {
            TAG_SESSION_META if known => &mut s.meta,
            TAG_CONFIG if known => &mut s.config,
            TAG_LOSS if known => &mut s.loss,
            TAG_MOMENTS if known => &mut s.moments,
            TAG_RTT_HIST if known => &mut s.rtt,
            TAG_SKETCH if known => &mut s.sketch,
            TAG_ACF if known => &mut s.acf,
            TAG_WORKLOAD if known => &mut s.workload,
            TAG_PHASE if known => &mut s.phase,
            TAG_INTERIM if known => &mut s.interim,
            TAG_HOPS if known => &mut s.hops,
            // Forward compatibility: a newer writer appended a section this
            // reader does not know. Skip it — but keep the bytes, so the
            // frame re-encodes without losing the newer writer's data.
            _ => {
                s.extensions.push((tag, body.to_vec()));
                continue;
            }
        };
        if slot.is_some() {
            return Err(WireError::BadField("frame: duplicate section"));
        }
        *slot = Some(body);
    }

    fn need<'a>(sec: Option<&'a [u8]>, what: &'static str) -> Result<&'a [u8], WireError> {
        sec.ok_or(WireError::BadField(what))
    }

    // Session identity and counters.
    let mut m = Reader::new(need(s.meta, "frame: missing session section")?);
    let path_bytes = m.bytes()?;
    let path = String::from_utf8(path_bytes.to_vec())
        .map_err(|_| WireError::BadField("session: path is not UTF-8"))?;
    let key = SessionKey {
        path,
        delta_ns: m.u64()?,
        seed: m.u64()?,
    };
    let first_seq = m.u64()?;
    let records = m.u64()?;
    let dropped = m.u64()?;
    m.finish()?;

    // Bank config (drives every derived layout below).
    let mut c = Reader::new(need(s.config, "frame: missing config section")?);
    let config = BankConfig {
        delta_ms: c.f64()?,
        wire_bytes: c.u32()?,
        clock_resolution_ns: c.u64()?,
        mu_bps: c.f64()?,
        workload_max_ms: c.f64()?,
        rtt_lo_ms: c.f64()?,
        rtt_hi_ms: c.f64()?,
        rtt_bins: c.len()?,
        acf_window: c.len()?,
        acf_max_lag: c.len()?,
        phase_lo_ms: c.f64()?,
        phase_hi_ms: c.f64()?,
        phase_bins: c.len()?,
    };
    c.finish()?;
    let phase_cells = config
        .phase_bins
        .checked_mul(config.phase_bins)
        .filter(|&cells| cells <= MAX_PHASE_CELLS)
        .ok_or(WireError::BadField(
            "config: phase grid over MAX_PHASE_CELLS",
        ))?;

    let mut l = Reader::new(need(s.loss, "frame: missing loss section")?);
    let loss = LossWireState {
        sent: l.u64()?,
        lost: l.u64()?,
        n00: l.u64()?,
        n01: l.u64()?,
        n10: l.u64()?,
        n11: l.u64()?,
        first: l.opt_bool()?,
        last: l.opt_bool()?,
        head_run: l.u64()?,
        tail_run: l.u64()?,
        closed: l.u64s()?,
    };
    l.finish()?;

    let mut mo = Reader::new(need(s.moments, "frame: missing moments section")?);
    let moments = MomentsState {
        n: mo.u64()?,
        mean: mo.f64()?,
        m2: mo.f64()?,
        min: mo.f64()?,
        max: mo.f64()?,
    };
    mo.finish()?;

    let mut h = Reader::new(need(s.rtt, "frame: missing rtt histogram section")?);
    let rtt_underflow = h.u64()?;
    let rtt_overflow = h.u64()?;
    let rtt_counts = h.u64s()?;
    h.finish()?;

    // Version 2 carries the sketch's span. Version 1 carries the counts
    // from bucket 0, and the leading zero words are only counted. Either
    // way `from_span` below validates the span.
    let mut q = Reader::new(need(s.sketch, "frame: missing sketch section")?);
    let (sketch_first, sketch_counts) = if version == 1 {
        let words = q.words()?;
        let first = zero_words(words.chunks_exact(8));
        (first, be_words(&words[8 * first..]).collect())
    } else {
        (q.len()?, q.u64s()?)
    };
    q.finish()?;

    let mut a = Reader::new(need(s.acf, "frame: missing acf section")?);
    let acf_evicted = a.u64()?;
    let acf_samples = a.f64s()?;
    a.finish()?;

    let mut w = Reader::new(need(s.workload, "frame: missing workload section")?);
    let b_sum = w.f64()?;
    let pairs = w.u64()?;
    let first = w.opt_rtt()?;
    let last = w.opt_rtt()?;
    let hist_underflow = w.u64()?;
    let hist_overflow = w.u64()?;
    let hist_counts = w.u64s()?;
    w.finish()?;
    // Workload parameters are fully derived from the config; the boundary
    // records are shared with the phase grid (the bank validator re-checks
    // that real banks agree on them).
    let workload = WorkloadWireState {
        delta_ms: config.delta_ms,
        mu_bps: config.mu_bps,
        p_bits: f64::from(config.wire_bytes) * 8.0,
        hist_hi: config.workload_max_ms,
        hist_counts,
        hist_underflow,
        hist_overflow,
        b_sum,
        pairs,
        first,
        last,
    };

    // Version 2 carries the grid's span; `from_wire_state` below validates
    // it and the pair mass balance. Version 1 carries all `bins²` cells,
    // and the zero words around the span are only counted.
    let mut p = Reader::new(need(s.phase, "frame: missing phase section")?);
    let phase_pairs = p.u64()?;
    let phase_oor = p.u64()?;
    let (grid_first, span) = if version == 1 {
        let words = p.words()?;
        if words.len() / 8 != phase_cells {
            return Err(WireError::BadField("phase: grid shape mismatch"));
        }
        let lead = zero_words(words.chunks_exact(8));
        if 8 * lead == words.len() {
            (0, Vec::new())
        } else {
            let end = words.len() - 8 * zero_words(words.rchunks_exact(8));
            (lead, be_words(&words[8 * lead..end]).collect())
        }
    } else {
        (p.len()?, p.u64s()?)
    };
    p.finish()?;
    let phase = PhaseWireState {
        lo: config.phase_lo_ms,
        hi: config.phase_hi_ms,
        bins: config.phase_bins,
        grid_first,
        span,
        pairs: phase_pairs,
        out_of_range: phase_oor,
        first,
        last,
    };

    let bank = EstimatorBank::from_wire_state(BankWireState {
        config,
        loss,
        moments,
        rtt_counts,
        rtt_underflow,
        rtt_overflow,
        sketch_first,
        sketch_counts,
        acf_evicted,
        acf_samples,
        workload,
        phase,
    })
    .map_err(WireError::BadField)?;

    // Per-hop annotations: optional — frames from single-path collectors
    // (and every frame predating the section) simply omit it.
    let mut hops = Vec::new();
    if let Some(body) = s.hops {
        let mut hr = Reader::new(body);
        let count = hr.len()?;
        for _ in 0..count {
            let link = hr.u32()?;
            let name_bytes = hr.bytes()?;
            let name = String::from_utf8(name_bytes.to_vec())
                .map_err(|_| WireError::BadField("hops: link name is not UTF-8"))?;
            let probe_drops = hr.u64()?;
            hops.push(HopAnnotation {
                link,
                name,
                probe_drops,
            });
        }
        hr.finish()?;
    }

    let mut i = Reader::new(need(s.interim, "frame: missing interim section")?);
    let count = i.len()?;
    let mut interim = Vec::new();
    for _ in 0..count {
        let at_records = i.u64()?;
        let json_bytes = i.bytes()?;
        let json = std::str::from_utf8(json_bytes)
            .map_err(|_| WireError::BadField("interim: snapshot is not UTF-8"))?;
        let snapshot: BankSnapshot = serde_json::from_str(json)
            .map_err(|_| WireError::BadField("interim: snapshot is not valid JSON"))?;
        // Canonicality: the embedded text must be exactly what this
        // workspace's writer emits for the parsed value. This both pins the
        // byte-identical report guarantee and rejects values the writer
        // could never have produced (e.g. an overflowed-to-∞ float, which
        // would panic a later `to_json`).
        let reserialized = serde_json::to_string(&snapshot)
            .map_err(|_| WireError::BadField("interim: snapshot is not JSON-safe"))?;
        if reserialized != json {
            return Err(WireError::BadField("interim: snapshot is not canonical"));
        }
        interim.push(InterimSnapshot {
            at_records,
            snapshot,
        });
    }
    i.finish()?;

    Ok(SessionFrame {
        key,
        first_seq,
        records,
        dropped,
        bank,
        interim,
        hops,
        extensions: s.extensions,
    })
}

// ---------------------------------------------------------------------------
// Writer helpers. Lengths are u32 on the wire; every conversion is checked.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).expect("length fits in u32"));
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_len(out, v.len());
    out.extend_from_slice(v);
}

/// Append `words` as big-endian `u64`s, growing the buffer once.
fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u64>) {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (dst, w) in out[start..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_be_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    put_len(out, v.len());
    put_words(out, v.iter().copied());
}

fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    put_len(out, v.len());
    put_words(out, v.iter().map(|x| x.to_bits()));
}

fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    out.push(match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
}

fn put_opt_rtt(out: &mut Vec<u8>, v: Option<Option<u64>>) {
    match v {
        None => out.push(0),
        Some(None) => out.push(1),
        Some(Some(ns)) => {
            out.push(2);
            put_u64(out, ns);
        }
    }
}

/// A `u32` length prefix and the bytes `write` appends after it, written
/// in place: the prefix is back-patched once the body is known.
fn length_prefixed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    write(out);
    let len = u32::try_from(out.len() - at - 4).expect("length fits in u32");
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// A section: tag, length prefix, body.
fn section(out: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag);
    length_prefixed(out, write);
}

/// How many of the 8-byte `words`, in the order given, are zero before the
/// first non-zero one: counted on the bytes, before anything is collected
/// (the version-1 SKETCH and PHASE bodies).
fn zero_words<'a>(words: impl Iterator<Item = &'a [u8]>) -> usize {
    words.take_while(|w| *w == [0u8; 8]).count()
}

/// The big-endian `u64`s of `bytes`, whose length is a multiple of 8.
fn be_words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_be_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
}

// ---------------------------------------------------------------------------
// Reader: a bounds-checked cursor. Every read validates remaining bytes
// first — no `bytes::Buf` here, whose getters panic on underflow.

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Sections must be fully consumed: a known section with trailing bytes
    /// means its length prefix was inflated.
    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::BadLength {
                claimed: self.data.len(),
                actual: self.pos,
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }

    /// A length-prefixed byte string, validated against the remaining
    /// buffer before any allocation.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len()?;
        if n > self.remaining() {
            return Err(WireError::BadLength {
                claimed: n,
                actual: self.remaining(),
            });
        }
        self.take(n)
    }

    /// The bytes of a length-prefixed run of 8-byte words. The claimed word
    /// count is validated against the remaining bytes before anything is
    /// allocated from it, so a hostile length prefix cannot force a huge
    /// reservation.
    fn words(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len()?;
        let needed = n
            .checked_mul(8)
            .ok_or(WireError::BadField("length overflow"))?;
        if needed > self.remaining() {
            return Err(WireError::BadLength {
                claimed: needed,
                actual: self.remaining(),
            });
        }
        self.take(needed)
    }

    /// A length-prefixed `u64` vector, validated by [`Reader::words`].
    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        Ok(be_words(self.words()?).collect())
    }

    /// A length-prefixed `f64` vector (bit patterns), validated by
    /// [`Reader::words`].
    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        Ok(be_words(self.words()?).map(f64::from_bits).collect())
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            _ => Err(WireError::BadField("bad optional-flag tag")),
        }
    }

    fn opt_rtt(&mut self) -> Result<Option<Option<u64>>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(None)),
            2 => Ok(Some(Some(self.u64()?))),
            _ => Err(WireError::BadField("bad optional-rtt tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_stream::StreamRecord;

    fn bank_with(records: u64, seed: u64) -> EstimatorBank {
        let mut bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 1_000_000));
        let mut state = seed;
        for i in 0..records {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            bank.push(&StreamRecord {
                seq: i,
                sent_at_ns: i * 20_000_000,
                rtt_ns: if u < 0.15 {
                    None
                } else {
                    Some((100.0e6 + u * 50.0e6) as u64)
                },
            });
        }
        bank
    }

    fn frame_with(records: u64, seed: u64) -> SessionFrame {
        SessionFrame {
            key: SessionKey::new("codec-test", 20, seed),
            first_seq: 0,
            records,
            dropped: 0,
            bank: bank_with(records, seed),
            interim: Vec::new(),
            hops: Vec::new(),
            extensions: Vec::new(),
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        for records in [0u64, 1, 2, 500] {
            let frame = frame_with(records, 7 + records);
            let bytes = frame.encode();
            let (decoded, used) = SessionFrame::decode(&bytes).expect("decode");
            assert_eq!(used, bytes.len());
            assert_eq!(decoded.key, frame.key);
            assert_eq!(decoded.records, frame.records);
            assert_eq!(decoded.bank.wire_state(), frame.bank.wire_state());
            // Recomputed snapshots render identically.
            assert_eq!(
                serde_json::to_string(&decoded.bank.snapshot()).unwrap(),
                serde_json::to_string(&frame.bank.snapshot()).unwrap()
            );
        }
    }

    #[test]
    fn interim_snapshots_round_trip() {
        let bank = bank_with(300, 3);
        let frame = SessionFrame {
            key: SessionKey::new("interim", 8, 1993),
            first_seq: 0,
            records: 300,
            dropped: 2,
            interim: vec![InterimSnapshot {
                at_records: 100,
                snapshot: bank_with(100, 3).snapshot(),
            }],
            bank,
            hops: Vec::new(),
            extensions: Vec::new(),
        };
        let (decoded, _) = SessionFrame::decode(&frame.encode()).expect("decode");
        assert_eq!(decoded.interim.len(), 1);
        assert_eq!(decoded.interim[0].at_records, 100);
        assert_eq!(decoded.dropped, 2);
        assert_eq!(
            serde_json::to_string(&decoded.interim[0].snapshot).unwrap(),
            serde_json::to_string(&frame.interim[0].snapshot).unwrap()
        );
    }

    #[test]
    fn hop_annotations_round_trip() {
        let mut frame = frame_with(40, 5);
        frame.hops = vec![
            HopAnnotation {
                link: 0,
                name: "access:h00".into(),
                probe_drops: 3,
            },
            HopAnnotation {
                link: 7,
                name: "backbone:b2".into(),
                probe_drops: 11,
            },
        ];
        let bytes = frame.encode();
        let (decoded, used) = SessionFrame::decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded.hops, frame.hops);
        assert!(decoded.extensions.is_empty());
        assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn hopless_frames_encode_without_the_hops_section() {
        // A hop-less frame carries no tag-11 section and nothing appended.
        let frame = frame_with(25, 9);
        let bytes = frame.encode();
        let (decoded, _) = SessionFrame::decode(&bytes).expect("decode");
        assert!(decoded.hops.is_empty());
        assert_eq!(decoded.encode(), bytes);
        // Same frame decoded by the reader predating tag 11: identical in
        // every field it knows.
        let (old, old_used) =
            SessionFrame::decode_with_max_tag(&bytes, MAX_TAG_V1).expect("pre-tag-11 decode");
        assert_eq!(old_used, bytes.len());
        assert_eq!(old.bank.wire_state(), frame.bank.wire_state());
        assert!(old.extensions.is_empty());
    }

    #[test]
    fn frame_streams_concatenate() {
        let a = frame_with(50, 1).encode();
        let b = frame_with(80, 2).encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let frames = decode_frames(&stream).expect("stream decode");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].records, 50);
        assert_eq!(frames[1].records, 80);
        assert!(decode_frames(&[]).expect("empty fleet").is_empty());
    }
}
