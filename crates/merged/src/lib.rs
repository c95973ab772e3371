//! # probenet-merged
//!
//! The fleet merge service: N collectors each stream their sessions'
//! [`SessionFrame`]s (the versioned binary snapshot format in
//! `probenet_wire::snapshot`) over a byte-stream transport — an in-process
//! channel, a file, a Unix socket or TCP — and the service folds them into
//! one fleet-wide [`CollectorReport`].
//!
//! ## Determinism contract
//!
//! The folded report is **byte-identical to a single-process
//! [`Collector`](probenet_stream::Collector)** over the same records
//! whenever each session's records lived wholly on one collector (the
//! whole-session sharding the differential suite `tests/merge_equiv.rs`
//! and the CI golden check pin): the service only *unions* sessions, in
//! ascending key order — the same `BTreeMap` order the collector's report
//! uses — and every per-session bank round-trips bit-for-bit through the
//! frame codec.
//!
//! When one session's records were split *across* collectors, the shards
//! are folded via [`EstimatorBank::merge`](probenet_stream::EstimatorBank::merge)
//! in ascending `first_seq` order. Integer state (loss metrics, histogram
//! and sketch counts) still matches the single-process fold exactly; the
//! float accumulators reassociate, so those agree to the documented ε
//! (DESIGN.md §11) — and the fold is bit-identical to merging the same
//! banks in memory, which the property suite pins.
//!
//! Ingest order never matters: frames are grouped by key into a sorted
//! map, and same-key shards are sorted by `first_seq` before folding, so
//! any arrival interleaving (file order, socket accept order) produces
//! the same report.
//!
//! ## Shard disjointness
//!
//! Same-key shards must cover *disjoint* sequence ranges
//! `[first_seq, first_seq + records)`: the fold sums loss and transition
//! counters, so a record folded by two shards would be double-counted
//! silently. [`MergeService::into_report`] rejects both duplicate starts
//! ([`MergeError::AmbiguousShardOrder`]) and any overlap between
//! consecutive ranges ([`MergeError::OverlappingShards`]); see DESIGN.md
//! §14 for the contract.
//!
//! ## Bounded ingest
//!
//! [`MergeService::ingest_reader`] decodes streams *incrementally*, frame
//! by frame: the staging buffer holds at most one partially-received
//! frame (plus one read chunk), never a whole connection. A slow or huge
//! collector therefore costs the daemon memory proportional to its
//! largest single frame — not its stream length — and frames fold as
//! they arrive instead of after EOF. Frames claiming more than
//! [`MAX_FRAME_BYTES`] are rejected with [`MergeError::FrameTooLarge`]
//! before any buffering.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use std::sync::mpsc::Receiver;

use probenet_stream::{CollectorReport, SessionKey, SessionReport};
use probenet_wire::snapshot::{frame_len, SessionFrame, FRAME_HEADER_BYTES, MAX_PHASE_CELLS};
use probenet_wire::WireError;

/// Bytes pulled from a transport per read in the incremental ingest loop.
pub const INGEST_CHUNK: usize = 8 * 1024;

/// Upper bound on a single frame's on-wire size. A frame holds one
/// session's fixed-size estimator state (a few tens of KiB), so anything
/// near this limit is a corrupt or hostile length field — reject it
/// before buffering rather than allocating what the header claims.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

// A version-1 frame carried every phase-grid cell, so each one under the
// limit claims a grid the decoder's cap still accepts.
const _: () = assert!(MAX_FRAME_BYTES <= 8 * MAX_PHASE_CELLS);

/// Errors raised while ingesting or folding collector frames.
#[derive(Debug)]
pub enum MergeError {
    /// A frame stream failed to decode.
    Wire(WireError),
    /// A transport failed (file, socket).
    Io(std::io::Error),
    /// Two shards of one session disagree on the bank layout, so their
    /// estimators cannot be folded.
    ConfigMismatch {
        /// The session whose shards disagree.
        key: String,
    },
    /// Two shards of one session claim the same `first_seq`, which would
    /// make the fold order depend on arrival order.
    AmbiguousShardOrder {
        /// The session with ambiguous shards.
        key: String,
        /// The duplicated first sequence number.
        first_seq: u64,
    },
    /// Summed per-shard counters overflowed `u64`.
    CountOverflow {
        /// The session whose counters overflowed.
        key: String,
    },
    /// Two shards of one session cover overlapping sequence ranges, so
    /// the overlapped records would be double-counted by the fold (see
    /// the shard-disjointness contract, DESIGN.md §14).
    OverlappingShards {
        /// The session with overlapping shards.
        key: String,
        /// First sequence of the later-starting shard.
        first_seq: u64,
        /// One past the last sequence claimed by the earlier shard.
        prev_end: u64,
    },
    /// A frame header claims a payload larger than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// On-wire frame size claimed by the header.
        bytes: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Wire(e) => write!(f, "frame decode failed: {e}"),
            MergeError::Io(e) => write!(f, "transport failed: {e}"),
            MergeError::ConfigMismatch { key } => {
                write!(f, "session {key}: shards disagree on bank config")
            }
            MergeError::AmbiguousShardOrder { key, first_seq } => {
                write!(f, "session {key}: two shards claim first_seq {first_seq}")
            }
            MergeError::CountOverflow { key } => {
                write!(f, "session {key}: record counters overflow")
            }
            MergeError::OverlappingShards {
                key,
                first_seq,
                prev_end,
            } => {
                write!(
                    f,
                    "session {key}: shard starting at seq {first_seq} overlaps \
                     the previous shard (which runs to seq {prev_end})"
                )
            }
            MergeError::FrameTooLarge { bytes } => {
                write!(
                    f,
                    "frame claims {bytes} bytes, over the {MAX_FRAME_BYTES}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl From<WireError> for MergeError {
    fn from(e: WireError) -> Self {
        MergeError::Wire(e)
    }
}

impl From<std::io::Error> for MergeError {
    fn from(e: std::io::Error) -> Self {
        MergeError::Io(e)
    }
}

/// Accumulates frames from any number of collectors and folds them into
/// one deterministic fleet-wide report.
#[derive(Default)]
pub struct MergeService {
    sessions: BTreeMap<SessionKey, Vec<SessionFrame>>,
    frames: u64,
    peak_buffer: usize,
}

impl MergeService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames ingested so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// High-water mark, in bytes, of the incremental ingest staging
    /// buffer across every [`ingest_reader`](Self::ingest_reader) call so
    /// far. Bounded by the largest single frame on any stream plus one
    /// read chunk ([`INGEST_CHUNK`]) — the regression suite pins this.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer
    }

    /// Add one already-decoded frame.
    pub fn ingest_frame(&mut self, frame: SessionFrame) {
        self.frames += 1;
        self.sessions
            .entry(frame.key.clone())
            .or_default()
            .push(frame);
    }

    /// Decode and add a back-to-back frame stream (one collector's whole
    /// output). Returns the number of frames ingested.
    pub fn ingest_bytes(&mut self, data: &[u8]) -> Result<usize, MergeError> {
        let frames = probenet_wire::snapshot::decode_frames(data)?;
        let n = frames.len();
        for f in frames {
            self.ingest_frame(f);
        }
        Ok(n)
    }

    /// Read a transport to EOF, decoding and folding frames *as they
    /// arrive*: the staging buffer never holds more than one complete
    /// frame plus a partial read ([`INGEST_CHUNK`] granularity), so a
    /// slow or huge collector cannot pin a whole connection in memory.
    /// A stream ending mid-frame is a typed decode error, and a header
    /// claiming more than [`MAX_FRAME_BYTES`] is rejected before the
    /// payload is buffered.
    pub fn ingest_reader<R: Read>(&mut self, reader: &mut R) -> Result<usize, MergeError> {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; INGEST_CHUNK];
        let mut ingested = 0usize;
        loop {
            let got = reader.read(&mut chunk)?;
            if got == 0 {
                // EOF. Anything left over is a frame the sender never
                // finished — surface it as a truncation, not silence.
                if !buf.is_empty() {
                    let needed = match frame_len(&buf)? {
                        Some(total) => total,
                        None => FRAME_HEADER_BYTES,
                    };
                    return Err(MergeError::Wire(WireError::Truncated {
                        needed,
                        got: buf.len(),
                    }));
                }
                return Ok(ingested);
            }
            buf.extend_from_slice(&chunk[..got]);
            self.peak_buffer = self.peak_buffer.max(buf.len());
            // Drain every complete frame before reading more, so the
            // buffer shrinks back to the (possibly partial) tail.
            while let Some(total) = frame_len(&buf)? {
                if total > MAX_FRAME_BYTES {
                    return Err(MergeError::FrameTooLarge { bytes: total });
                }
                if buf.len() < total {
                    break;
                }
                let (frame, used) = SessionFrame::decode(&buf)?;
                self.ingest_frame(frame);
                ingested += 1;
                buf.drain(..used);
            }
        }
    }

    /// Fold everything into the fleet-wide report: sessions in ascending
    /// key order (the collector's own report order), same-key shards by
    /// ascending `first_seq`.
    pub fn into_report(self) -> Result<CollectorReport, MergeError> {
        let mut sessions = Vec::with_capacity(self.sessions.len());
        for (key, mut shards) in self.sessions {
            shards.sort_by_key(|f| f.first_seq);
            for pair in shards.windows(2) {
                if pair[0].first_seq == pair[1].first_seq {
                    return Err(MergeError::AmbiguousShardOrder {
                        key: key.to_string(),
                        first_seq: pair[0].first_seq,
                    });
                }
                // Disjointness: the earlier shard's range must end at or
                // before the later one starts, else its tail records are
                // folded twice (DESIGN.md §14).
                let prev_end = pair[0].first_seq.saturating_add(pair[0].records);
                if pair[1].first_seq < prev_end {
                    return Err(MergeError::OverlappingShards {
                        key: key.to_string(),
                        first_seq: pair[1].first_seq,
                        prev_end,
                    });
                }
            }
            let mut shards = shards.into_iter();
            let head = shards.next().expect("every keyed entry holds a shard");
            let mut bank = head.bank;
            let mut records = head.records;
            let mut dropped = head.dropped;
            let mut interim = head.interim;
            for shard in shards {
                if shard.bank.config() != bank.config() {
                    return Err(MergeError::ConfigMismatch {
                        key: key.to_string(),
                    });
                }
                bank.merge(&shard.bank);
                records = records
                    .checked_add(shard.records)
                    .ok_or(MergeError::CountOverflow {
                        key: key.to_string(),
                    })?;
                dropped = dropped
                    .checked_add(shard.dropped)
                    .ok_or(MergeError::CountOverflow {
                        key: key.to_string(),
                    })?;
                // Interim snapshots keep shard-local record offsets; they
                // concatenate in fold order.
                interim.extend(shard.interim);
            }
            sessions.push(SessionReport {
                snapshot: bank.snapshot(),
                key,
                records,
                dropped,
                interim,
                bank,
            });
        }
        Ok(CollectorReport { sessions })
    }
}

/// Fold frame files (one per collector) into a report. Each file goes
/// through the bounded [`MergeService::ingest_reader`] loop, so memory is
/// one frame plus one chunk per file, not the whole file.
pub fn merge_files<P: AsRef<Path>>(paths: &[P]) -> Result<CollectorReport, MergeError> {
    let mut service = MergeService::new();
    for p in paths {
        service.ingest_reader(&mut File::open(p)?)?;
    }
    service.into_report()
}

/// In-process transport: drain byte-stream chunks (each one collector's
/// complete frame stream) from a channel until every sender is dropped,
/// then fold.
pub fn serve_channel(rx: Receiver<Vec<u8>>) -> Result<CollectorReport, MergeError> {
    let mut service = MergeService::new();
    while let Ok(chunk) = rx.recv() {
        service.ingest_bytes(&chunk)?;
    }
    service.into_report()
}

/// TCP transport: accept exactly `expect` connections, read each to EOF,
/// fold. Connection accept order does not affect the report (see the
/// determinism contract in the crate docs).
pub fn serve_tcp(listener: &TcpListener, expect: usize) -> Result<CollectorReport, MergeError> {
    let mut service = MergeService::new();
    for _ in 0..expect {
        let (mut conn, _) = listener.accept()?;
        service.ingest_reader(&mut conn)?;
    }
    service.into_report()
}

/// Unix-socket transport: accept exactly `expect` connections, read each
/// to EOF, fold.
#[cfg(unix)]
pub fn serve_unix(
    listener: &std::os::unix::net::UnixListener,
    expect: usize,
) -> Result<CollectorReport, MergeError> {
    let mut service = MergeService::new();
    for _ in 0..expect {
        let (mut conn, _) = listener.accept()?;
        service.ingest_reader(&mut conn)?;
    }
    service.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use probenet_stream::{BankConfig, EstimatorBank, StreamRecord};

    fn bank_over(range: std::ops::Range<u64>, seed: u64) -> EstimatorBank {
        let mut bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 1_000_000));
        for i in range {
            let mix = i.wrapping_add(seed).wrapping_mul(0x9e3779b97f4a7c15);
            bank.push(&StreamRecord {
                seq: i,
                sent_at_ns: i * 20_000_000,
                rtt_ns: if mix % 8 == 0 {
                    None
                } else {
                    Some(100_000_000 + mix % 50_000_000)
                },
            });
        }
        bank
    }

    fn frame(name: &str, seed: u64, range: std::ops::Range<u64>) -> SessionFrame {
        SessionFrame {
            key: SessionKey::new(name, 20, seed),
            first_seq: range.start,
            records: range.end - range.start,
            dropped: 0,
            bank: bank_over(range, seed),
            interim: Vec::new(),
            hops: Vec::new(),
            extensions: Vec::new(),
        }
    }

    #[test]
    fn whole_session_union_is_key_sorted() {
        let mut svc = MergeService::new();
        // Ingest out of key order, via the byte-stream path.
        let mut stream = frame("zeta", 2, 0..50).encode();
        stream.extend_from_slice(&frame("alpha", 1, 0..50).encode());
        svc.ingest_bytes(&stream).expect("ingest");
        let report = svc.into_report().expect("fold");
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.sessions[0].key.path, "alpha");
        assert_eq!(report.sessions[1].key.path, "zeta");
    }

    #[test]
    fn split_session_folds_in_first_seq_order() {
        // Shards arrive tail-first; the fold must still equal the in-memory
        // merge in sequence order.
        let mut svc = MergeService::new();
        svc.ingest_frame(frame("split", 9, 120..300));
        svc.ingest_frame(frame("split", 9, 0..120));
        let report = svc.into_report().expect("fold");
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(report.sessions[0].records, 300);

        let mut expected = bank_over(0..120, 9);
        expected.merge(&bank_over(120..300, 9));
        assert_eq!(
            report.sessions[0].bank.wire_state(),
            expected.wire_state(),
            "fold must be bit-identical to the in-memory merge"
        );
    }

    #[test]
    fn ambiguous_shard_order_is_rejected() {
        let mut svc = MergeService::new();
        svc.ingest_frame(frame("dup", 1, 0..50));
        svc.ingest_frame(frame("dup", 1, 0..60));
        assert!(matches!(
            svc.into_report(),
            Err(MergeError::AmbiguousShardOrder { .. })
        ));
    }

    #[test]
    fn config_mismatch_is_a_typed_error_not_a_panic() {
        let mut svc = MergeService::new();
        svc.ingest_frame(frame("mix", 1, 0..50));
        let mut other = frame("mix", 1, 50..90);
        other.bank = {
            let mut b = EstimatorBank::new(BankConfig::bolot(20.0, 72, 0));
            for i in 50..90u64 {
                b.push(&StreamRecord {
                    seq: i,
                    sent_at_ns: i * 20_000_000,
                    rtt_ns: Some(100_000_000),
                });
            }
            b
        };
        svc.ingest_frame(other);
        assert!(matches!(
            svc.into_report(),
            Err(MergeError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn overlapping_shard_ranges_are_rejected() {
        // [0, 120) and [100, 200) share seqs 100..120 — folding both
        // would double-count those records.
        let mut svc = MergeService::new();
        svc.ingest_frame(frame("overlap", 5, 0..120));
        svc.ingest_frame(frame("overlap", 5, 100..200));
        match svc.into_report() {
            Err(MergeError::OverlappingShards {
                key,
                first_seq,
                prev_end,
            }) => {
                assert!(key.contains("overlap"));
                assert_eq!(first_seq, 100);
                assert_eq!(prev_end, 120);
            }
            Err(other) => panic!("expected OverlappingShards, got {other}"),
            Ok(_) => panic!("expected OverlappingShards, fold succeeded"),
        }
    }

    #[test]
    fn adjacent_shard_ranges_are_accepted() {
        // [0, 120) then [120, 200): touching but disjoint — the common
        // case for a session split across collectors.
        let mut svc = MergeService::new();
        svc.ingest_frame(frame("adjacent", 5, 0..120));
        svc.ingest_frame(frame("adjacent", 5, 120..200));
        let report = svc.into_report().expect("disjoint shards fold");
        assert_eq!(report.sessions[0].records, 200);
    }

    /// The ingest_reader regression: a writer trickling frames over TCP
    /// in tiny flushed chunks must (a) produce the same report as a
    /// one-shot ingest and (b) never grow the staging buffer past the
    /// largest single frame plus one read chunk — the bounded-memory
    /// guarantee the incremental decode loop exists for.
    #[test]
    fn trickled_tcp_stream_folds_with_bounded_buffer() {
        use std::io::Write;
        use std::net::TcpStream;

        let frames = [
            frame("trickle", 1, 0..150),
            frame("trickle", 1, 150..400),
            frame("trickle2", 2, 0..300),
        ];
        let mut stream_bytes = Vec::new();
        let mut max_frame = 0usize;
        for f in &frames {
            let enc = f.encode();
            max_frame = max_frame.max(enc.len());
            stream_bytes.extend_from_slice(&enc);
        }

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let to_send = stream_bytes.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect");
            // 7-byte chunks: every frame arrives split across many reads,
            // and most reads end mid-frame.
            for piece in to_send.chunks(7) {
                conn.write_all(piece).expect("write");
                conn.flush().expect("flush");
                std::thread::yield_now();
            }
        });

        let mut svc = MergeService::new();
        let (mut conn, _) = listener.accept().expect("accept");
        let n = svc.ingest_reader(&mut conn).expect("incremental ingest");
        writer.join().expect("writer");
        assert_eq!(n, frames.len());
        assert!(
            svc.peak_buffer_bytes() <= max_frame + INGEST_CHUNK,
            "peak buffer {} exceeds one frame ({max_frame}) + one chunk ({INGEST_CHUNK})",
            svc.peak_buffer_bytes()
        );

        let incremental = svc.into_report().expect("fold");
        let mut direct = MergeService::new();
        direct.ingest_bytes(&stream_bytes).expect("one-shot ingest");
        assert_eq!(
            incremental.to_json(),
            direct.into_report().expect("fold").to_json(),
            "incremental and one-shot ingest must agree byte-for-byte"
        );
    }

    #[test]
    fn merge_files_matches_one_shot_ingest_of_the_same_bytes() {
        let mut bytes = Vec::new();
        for f in [
            frame("file", 4, 0..150),
            frame("file", 4, 150..260),
            frame("file2", 8, 0..90),
        ] {
            bytes.extend_from_slice(&f.encode());
        }
        let path =
            std::env::temp_dir().join(format!("probenet-merge-files-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).expect("write frame file");
        let from_file = merge_files(&[&path]);
        std::fs::remove_file(&path).expect("remove frame file");

        let mut direct = MergeService::new();
        direct.ingest_bytes(&bytes).expect("one-shot ingest");
        assert_eq!(
            from_file.expect("fold the file").to_json(),
            direct.into_report().expect("fold").to_json()
        );
    }

    #[test]
    fn stream_ending_mid_frame_is_a_typed_truncation() {
        let enc = frame("cut", 3, 0..80).encode();
        // Cut inside the payload, past the header.
        let mut cursor = std::io::Cursor::new(enc[..enc.len() - 5].to_vec());
        let mut svc = MergeService::new();
        match svc.ingest_reader(&mut cursor) {
            Err(MergeError::Wire(WireError::Truncated { needed, got })) => {
                assert_eq!(needed, enc.len());
                assert_eq!(got, enc.len() - 5);
            }
            Err(other) => panic!("expected Truncated, got {other}"),
            Ok(_) => panic!("expected Truncated, ingest succeeded"),
        }
    }

    #[test]
    fn oversized_frame_header_is_rejected_before_buffering() {
        // A valid header whose length field claims > MAX_FRAME_BYTES.
        let mut bytes = frame("huge", 4, 0..10).encode();
        let claimed = u32::try_from(MAX_FRAME_BYTES + 1).expect("fits");
        bytes[6..10].copy_from_slice(&claimed.to_be_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        let mut svc = MergeService::new();
        assert!(matches!(
            svc.ingest_reader(&mut cursor),
            Err(MergeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn far_apart_phase_spans_fold_within_the_grid_cap() {
        // Two shards of one session on the largest grid a frame may claim,
        // one span at its first cell and one at its last: the fold holds
        // every cell between them, MAX_PHASE_CELLS words at most. A grid
        // past the cap is a typed error at decode, before any fold.
        let shard = |bins: usize, seqs: std::ops::Range<u64>, rtt_ns: u64| {
            let mut config = BankConfig::bolot(20.0, 72, 1_000_000);
            config.phase_bins = bins;
            let mut bank = EstimatorBank::new(config);
            for seq in seqs.clone() {
                bank.push(&StreamRecord {
                    seq,
                    sent_at_ns: seq * 20_000_000,
                    rtt_ns: Some(rtt_ns),
                });
            }
            SessionFrame {
                key: SessionKey::new("far", 20, 3),
                first_seq: seqs.start,
                records: seqs.end - seqs.start,
                dropped: 0,
                bank,
                interim: Vec::new(),
                hops: Vec::new(),
                extensions: Vec::new(),
            }
            .encode()
        };
        let (low, high) = (1_000_000, 1_999_900_000); // first and last row of [0, 2000) ms
        let bins = MAX_PHASE_CELLS.isqrt();
        let mut stream = shard(bins, 0..10, low);
        stream.extend(shard(bins, 10..20, high));
        let mut svc = MergeService::new();
        svc.ingest_bytes(&stream).expect("grids at the cap decode");
        let phase = svc.into_report().expect("far-apart spans fold").sessions[0]
            .bank
            .snapshot()
            .phase;
        // Cell 0, the junction pair's cell `bins - 1` and cell `bins² - 1`.
        assert_eq!(
            (phase.bins, phase.pairs, phase.nonzero_cells),
            (bins, 19, 3)
        );

        for bins in [bins + 1, 1 << 16] {
            let mut svc = MergeService::new();
            assert!(matches!(
                svc.ingest_bytes(&shard(bins, 10..20, high)),
                Err(MergeError::Wire(WireError::BadField(_)))
            ));
        }
    }

    #[test]
    fn channel_transport_matches_direct_ingest() {
        let (tx, rx) = std::sync::mpsc::channel();
        let streams: Vec<Vec<u8>> = vec![
            frame("chan", 1, 0..40).encode(),
            frame("chan2", 2, 0..40).encode(),
        ];
        let handle = std::thread::spawn(move || serve_channel(rx));
        for s in streams.clone() {
            tx.send(s).expect("send");
        }
        drop(tx);
        let via_channel = handle.join().expect("join").expect("fold");

        let mut svc = MergeService::new();
        for s in &streams {
            svc.ingest_bytes(s).expect("ingest");
        }
        let direct = svc.into_report().expect("fold");
        assert_eq!(via_channel.to_json(), direct.to_json());
    }
}
