//! Forward-compatibility proof for the snapshot wire format.
//!
//! DESIGN.md §14 promises that a reader, faced with a frame written by a
//! newer collector, skips the sections it does not know and carries them
//! through a re-encode byte-exactly. Until the mesh layer added its
//! per-hop annotation section (`TAG_HOPS`, tag 11) that path had never
//! seen a *real* newer frame — these tests exercise it from both
//! directions:
//!
//! * a synthetic unknown section spliced into a valid frame survives a
//!   decode → re-encode round trip untouched, and
//! * a genuine tag-11 frame (with hop annotations) read through the
//!   reconstructed reader predating that tag
//!   (`decode_with_max_tag(MAX_TAG_V1)`) yields the same estimator state
//!   as the hop-less view of the frame, with the hop section preserved
//!   verbatim in `extensions`.

use probenet_stream::{BankConfig, EstimatorBank, SessionKey, StreamRecord};
use probenet_wire::snapshot::{
    frame_len, HopAnnotation, SessionFrame, FRAME_HEADER_BYTES, MAX_TAG_V1, TAG_HOPS,
};

fn bank_with(records: u64, seed: u64) -> EstimatorBank {
    let mut bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 1_000_000));
    let mut state = seed;
    for i in 0..records {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        bank.push(&StreamRecord {
            seq: i,
            sent_at_ns: i * 20_000_000,
            rtt_ns: (!state.is_multiple_of(7)).then_some(90_000_000 + state % 60_000_000),
        });
    }
    bank
}

fn frame_with(records: u64, seed: u64) -> SessionFrame {
    SessionFrame {
        key: SessionKey::new("compat", 20, seed),
        first_seq: 0,
        records,
        dropped: 2,
        bank: bank_with(records, seed),
        interim: Vec::new(),
        hops: Vec::new(),
        extensions: Vec::new(),
    }
}

/// Splice an unknown section (tag + u32 length + body) onto the end of a
/// frame's payload, patching the header's payload-length field.
fn splice_section(frame: &[u8], tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    out.push(tag);
    out.extend_from_slice(
        &u32::try_from(body.len())
            .expect("test body fits in u32")
            .to_be_bytes(),
    );
    out.extend_from_slice(body);
    let payload_len = u32::try_from(out.len() - FRAME_HEADER_BYTES).expect("payload fits in u32");
    out[6..10].copy_from_slice(&payload_len.to_be_bytes());
    out
}

#[test]
fn unknown_section_is_skipped_and_carried_through_byte_exactly() {
    let original = frame_with(400, 11);
    let baseline = original.encode();
    let body = [0xde, 0xad, 0xbe, 0xef, 0x42];
    let spliced = splice_section(&baseline, 42, &body);

    let (decoded, used) = SessionFrame::decode(&spliced).expect("unknown section decodes");
    assert_eq!(used, spliced.len(), "decode consumes the whole frame");

    // Every known field is untouched by the foreign section...
    assert_eq!(decoded.key, original.key);
    assert_eq!(decoded.records, original.records);
    assert_eq!(decoded.dropped, original.dropped);
    assert_eq!(decoded.bank.wire_state(), original.bank.wire_state());
    // ...and the section itself lands in `extensions`, verbatim.
    assert_eq!(decoded.extensions, vec![(42u8, body.to_vec())]);

    // Re-encode reproduces the spliced stream byte-for-byte: a relay that
    // decodes and re-emits does not strip what it does not understand.
    assert_eq!(decoded.encode(), spliced);
}

#[test]
fn pre_tag_11_reader_skips_a_real_hops_frame_byte_exactly() {
    let mut hopped = frame_with(250, 3);
    hopped.hops = vec![
        HopAnnotation {
            link: 0,
            name: "access:h00".into(),
            probe_drops: 3,
        },
        HopAnnotation {
            link: 7,
            name: "backbone:r1-r2".into(),
            probe_drops: 11,
        },
    ];
    let hopped_bytes = hopped.encode();

    // The same frame as a writer predating tag 11 would have produced it.
    let mut hopless = hopped.clone();
    hopless.hops.clear();
    let hopless_bytes = hopless.encode();
    assert_ne!(
        hopless_bytes, hopped_bytes,
        "the hop section is actually on the wire"
    );

    // A reconstructed reader predating tag 11 (max tag 10) takes the
    // unknown-section path for it and must see exactly what it would
    // have seen from the hop-less writer.
    let (skipped, used) = SessionFrame::decode_with_max_tag(&hopped_bytes, MAX_TAG_V1)
        .expect("pre-tag-11 reader decodes a hops frame");
    assert_eq!(used, hopped_bytes.len());
    assert_eq!(skipped.key, hopped.key);
    assert_eq!(skipped.records, hopped.records);
    assert_eq!(skipped.dropped, hopped.dropped);
    assert_eq!(skipped.bank.wire_state(), hopped.bank.wire_state());
    assert!(
        skipped.hops.is_empty(),
        "pre-tag-11 reader has no hops field"
    );

    // The skipped section is the byte-exact TAG_HOPS body...
    assert_eq!(skipped.extensions.len(), 1);
    assert_eq!(skipped.extensions[0].0, TAG_HOPS);
    // ...so its re-encode reproduces the hops frame verbatim
    // (carry-through), while dropping the extension reproduces the
    // hop-less one.
    assert_eq!(skipped.encode(), hopped_bytes);
    let mut stripped = skipped.clone();
    stripped.extensions.clear();
    assert_eq!(stripped.encode(), hopless_bytes);
}

#[test]
fn current_reader_round_trips_hops_natively() {
    let mut hopped = frame_with(120, 9);
    hopped.hops = vec![HopAnnotation {
        link: 3,
        name: "backbone:r0-r1".into(),
        probe_drops: 5,
    }];
    let bytes = hopped.encode();
    let (decoded, used) = SessionFrame::decode(&bytes).expect("current reader decodes");
    assert_eq!(used, bytes.len());
    assert_eq!(decoded.hops, hopped.hops);
    assert!(decoded.extensions.is_empty());
    assert_eq!(decoded.encode(), bytes);
}

#[test]
fn frame_len_reports_extended_frames_and_rejects_garbage() {
    let mut hopped = frame_with(60, 4);
    hopped.hops = vec![HopAnnotation {
        link: 1,
        name: "access:h01".into(),
        probe_drops: 0,
    }];
    let bytes = hopped.encode();
    assert_eq!(
        frame_len(&bytes).expect("valid header"),
        Some(bytes.len()),
        "frame_len spans the tag-11 section"
    );
    assert_eq!(
        frame_len(&bytes[..FRAME_HEADER_BYTES - 1]).expect("short"),
        None
    );
    assert!(
        frame_len(&[0u8; FRAME_HEADER_BYTES]).is_err(),
        "bad magic is eager"
    );
}
