//! Adversarial corpus for the snapshot frame decoder: deterministic
//! fuzz-style coverage proving the decoder is *total* — truncations at
//! every byte boundary, single-bit flips at every position, corrupted
//! magic/version, inflated/deflated length prefixes and hostile SKETCH
//! and PHASE spans all produce a typed [`WireError`] (or a still-valid
//! `Ok`), never a panic and never a read past the input.
//!
//! The exhaustive sweeps run on a frame built from a deliberately tiny
//! [`BankConfig`] (small histograms, small phase grid) so every byte
//! boundary and every bit is covered in milliseconds, in both the
//! version-2 layout the encoder writes and the dense version-1 layout the
//! decoder still reads; a realistic Bolot-config frame is swept at a
//! coarse stride on top.

use probenet_stream::{BankConfig, EstimatorBank, SessionKey, StreamRecord};
use probenet_wire::snapshot::{frame_len, SessionFrame, MAX_PHASE_CELLS};
use probenet_wire::{WireError, FRAME_HEADER_BYTES, SNAPSHOT_VERSION};

/// The SKETCH section's tag (DESIGN §14.1).
const TAG_SKETCH: u8 = 6;
/// The PHASE section's tag.
const TAG_PHASE: u8 = 9;

/// A config chosen for a compact wire image, not realism.
fn tiny_config() -> BankConfig {
    BankConfig {
        delta_ms: 20.0,
        wire_bytes: 72,
        clock_resolution_ns: 1_000_000,
        mu_bps: 128_000.0,
        workload_max_ms: 10.0,
        rtt_lo_ms: 0.0,
        rtt_hi_ms: 500.0,
        rtt_bins: 16,
        acf_window: 8,
        acf_max_lag: 4,
        phase_lo_ms: 0.0,
        phase_hi_ms: 500.0,
        phase_bins: 4,
    }
}

fn frame_with(config: BankConfig, records: u64) -> SessionFrame {
    let mut bank = EstimatorBank::new(config);
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for i in 0..records {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        bank.push(&StreamRecord {
            seq: i,
            sent_at_ns: i * 20_000_000,
            rtt_ns: (!state.is_multiple_of(5)).then_some(80_000_000 + state % 90_000_000),
        });
    }
    SessionFrame {
        key: SessionKey::new("adversarial", 20, 7),
        first_seq: 0,
        records,
        dropped: 1,
        bank,
        interim: Vec::new(),
        hops: Vec::new(),
        extensions: Vec::new(),
    }
}

/// Decode must be total: `Ok` or a typed error, never a panic — and on
/// `Ok` it must not have read past the input, and the decoded bank must be
/// safe to summarize (the validators' whole point).
fn assert_total(bytes: &[u8]) {
    if let Ok((frame, used)) = SessionFrame::decode(bytes) {
        assert!(
            used <= bytes.len(),
            "decoder over-read: {used} > {}",
            bytes.len()
        );
        let _ = frame.bank.snapshot();
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_a_typed_error() {
    let frame = frame_with(tiny_config(), 64);
    for bytes in [frame.encode(), v1_bytes(&frame)] {
        for n in 0..bytes.len() {
            match SessionFrame::decode(&bytes[..n]) {
                Err(_) => {}
                Ok(_) => panic!("truncated frame ({n} of {} bytes) decoded Ok", bytes.len()),
            }
        }
        // The untruncated frame consumes itself exactly.
        let (_, used) = SessionFrame::decode(&bytes).expect("whole frame decodes");
        assert_eq!(used, bytes.len());
    }
}

#[test]
fn single_bit_flips_never_panic_or_over_read() {
    let frame = frame_with(tiny_config(), 48);
    for bytes in [frame.encode(), v1_bytes(&frame)] {
        let mut corrupt = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                corrupt[i] ^= 1 << bit;
                assert_total(&corrupt);
                corrupt[i] ^= 1 << bit;
            }
        }
        assert_eq!(corrupt, bytes, "sweep must restore the original");
    }
}

#[test]
fn realistic_frame_survives_strided_corruption() {
    // The full Bolot layout (64×64 phase grid, 400-bin RTT histogram) at a
    // coarse deterministic stride: cheap enough for every CI run, still
    // covering every section of the much larger image.
    let bytes = frame_with(BankConfig::bolot(20.0, 72, 1_000_000), 256).encode();
    let mut corrupt = bytes.clone();
    for i in (0..bytes.len()).step_by(211) {
        for bit in 0..8 {
            corrupt[i] ^= 1 << bit;
            assert_total(&corrupt);
            corrupt[i] ^= 1 << bit;
        }
    }
    for n in (0..bytes.len()).step_by(97) {
        assert!(
            SessionFrame::decode(&bytes[..n]).is_err(),
            "truncated realistic frame ({n} bytes) decoded Ok"
        );
    }
}

#[test]
fn wrong_magic_and_version_are_typed_errors() {
    let bytes = frame_with(tiny_config(), 8).encode();
    assert_eq!(bytes[4], SNAPSHOT_VERSION);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        SessionFrame::decode(&wrong_magic),
        Err(WireError::BadMagic { .. })
    ));

    // The decoder reads versions 1 and 2; both entry points reject any
    // other on the header, before a section is parsed.
    for version in [0u8, 3, 0xff] {
        let mut wrong_version = bytes.clone();
        wrong_version[4] = version;
        assert!(
            matches!(
                SessionFrame::decode(&wrong_version),
                Err(WireError::BadVersion { found }) if found == version
            ),
            "decode accepted version {version}"
        );
        assert!(
            matches!(
                frame_len(&wrong_version),
                Err(WireError::BadVersion { found }) if found == version
            ),
            "frame_len accepted version {version}"
        );
    }

    let mut wrong_type = bytes;
    wrong_type[5] = 0xee;
    assert!(SessionFrame::decode(&wrong_type).is_err());
}

#[test]
fn tampered_payload_length_prefix_is_a_typed_error() {
    let bytes = frame_with(tiny_config(), 8).encode();
    let payload_len = u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    assert_eq!(FRAME_HEADER_BYTES + payload_len, bytes.len());

    // Inflated: claims more payload than the input holds.
    for extra in [1u32, 255, u32::MAX - payload_len as u32] {
        let mut inflated = bytes.clone();
        let claimed = (payload_len as u32 + extra).to_be_bytes();
        inflated[6..10].copy_from_slice(&claimed);
        assert!(
            matches!(
                SessionFrame::decode(&inflated),
                Err(WireError::Truncated { .. })
            ),
            "inflated payload length (+{extra}) must read as truncation"
        );
    }

    // Deflated: cuts known sections short mid-stream.
    for missing in [1usize, 7, payload_len / 2, payload_len] {
        let mut deflated = bytes.clone();
        let claimed = (payload_len - missing) as u32;
        deflated[6..10].copy_from_slice(&claimed.to_be_bytes());
        assert!(
            SessionFrame::decode(&deflated).is_err(),
            "deflated payload length (-{missing}) must be a typed error"
        );
    }
}

/// Walk the encoded payload's `(tag, len, body)` sections, returning
/// `(offset_of_len_field, len)` for each — the test's own independent
/// reading of the grammar.
fn section_length_fields(bytes: &[u8]) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    let mut at = FRAME_HEADER_BYTES;
    while at < bytes.len() {
        let len = u32::from_be_bytes([bytes[at + 1], bytes[at + 2], bytes[at + 3], bytes[at + 4]]);
        out.push((at + 1, len));
        at += 5 + len as usize;
    }
    assert_eq!(at, bytes.len(), "section walk must consume the frame");
    out
}

#[test]
fn tampered_section_length_prefixes_are_typed_errors() {
    let bytes = frame_with(tiny_config(), 8).encode();
    let sections = section_length_fields(&bytes);
    assert!(sections.len() >= 9, "expected every estimator section");
    for (off, len) in sections {
        // Inflating a section's claimed length either overruns the payload
        // (truncation) or steals the next section's bytes (BadLength from
        // the section's exact-consumption check, or a missing-section
        // error) — all typed, never a panic.
        for delta in [1i64, 8, 1024, i64::from(u32::MAX - len)] {
            let claimed = (i64::from(len) + delta) as u32;
            let mut tampered = bytes.clone();
            tampered[off..off + 4].copy_from_slice(&claimed.to_be_bytes());
            assert!(
                SessionFrame::decode(&tampered).is_err(),
                "inflated section length at {off} (+{delta}) must be a typed error"
            );
        }
        if len > 0 {
            let mut tampered = bytes.clone();
            tampered[off..off + 4].copy_from_slice(&(len - 1).to_be_bytes());
            assert!(
                SessionFrame::decode(&tampered).is_err(),
                "deflated section length at {off} must be a typed error"
            );
        }
    }
}

/// `bytes` with the body of section `tag` replaced by `body`, the section
/// and payload length prefixes patched to match.
fn with_section(bytes: &[u8], tag: u8, body: &[u8]) -> Vec<u8> {
    let (off, len) = section_length_fields(bytes)
        .into_iter()
        .find(|&(off, _)| bytes[off - 1] == tag)
        .expect("section present");
    let mut out = bytes[..off].to_vec();
    out.extend_from_slice(&u32::try_from(body.len()).expect("fits").to_be_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&bytes[off + 4 + len as usize..]);
    let payload = u32::try_from(out.len() - FRAME_HEADER_BYTES).expect("fits");
    out[6..10].copy_from_slice(&payload.to_be_bytes());
    out
}

/// A length-prefixed run of words, as the SKETCH and PHASE sections carry
/// them: a word count, then the words.
fn words_body(words: &[u64]) -> Vec<u8> {
    let mut body = u32::try_from(words.len())
        .expect("fits")
        .to_be_bytes()
        .to_vec();
    for w in words {
        body.extend_from_slice(&w.to_be_bytes());
    }
    body
}

/// A version-1 PHASE body: pair count, out-of-range count, then every
/// cell.
fn phase_body(pairs: u64, out_of_range: u64, cells: &[u64]) -> Vec<u8> {
    let mut body = [pairs.to_be_bytes(), out_of_range.to_be_bytes()].concat();
    body.extend(words_body(cells));
    body
}

/// `frame` in the version-1 layout: header byte 1, the SKETCH counts from
/// bucket 0 and all `bins²` PHASE cells.
fn v1_bytes(frame: &SessionFrame) -> Vec<u8> {
    let state = frame.bank.wire_state();
    let mut sketch = vec![0u64; state.sketch_first];
    sketch.extend(&state.sketch_counts);
    let p = &state.phase;
    let mut cells = vec![0u64; p.bins * p.bins];
    cells[p.grid_first..p.grid_first + p.span.len()].copy_from_slice(&p.span);
    let bytes = with_section(&frame.encode(), TAG_SKETCH, &words_body(&sketch));
    let mut bytes = with_section(
        &bytes,
        TAG_PHASE,
        &phase_body(p.pairs, p.out_of_range, &cells),
    );
    bytes[4] = 1;
    bytes
}

/// `bytes` must be rejected with exactly `BadField(expected)`.
fn assert_bad_field(bytes: &[u8], expected: &str, case: &str) {
    match SessionFrame::decode(bytes) {
        Err(WireError::BadField(msg)) => assert_eq!(msg, expected, "{case}"),
        Err(e) => panic!("{case}: expected {expected:?}, got {e}"),
        Ok(_) => panic!("{case}: hostile section decoded Ok"),
    }
}

#[test]
fn v1_frames_decode_to_the_same_bank_and_re_encode_as_v2() {
    for frame in [
        frame_with(tiny_config(), 0),
        frame_with(tiny_config(), 16),
        frame_with(BankConfig::bolot(20.0, 72, 1_000_000), 64),
    ] {
        let v2 = frame.encode();
        let v1 = v1_bytes(&frame);
        assert!(v1.len() > v2.len(), "the dense layout is the larger one");
        let (decoded, used) = SessionFrame::decode(&v1).expect("v1 frame decodes");
        assert_eq!(used, v1.len());
        assert_eq!(frame_len(&v1).expect("v1 header"), Some(v1.len()));
        assert_eq!(decoded.bank.wire_state(), frame.bank.wire_state());
        assert_eq!(decoded.encode(), v2);

        // The header byte alone selects the layout: either body read with
        // the other version's rules is a typed error.
        let mut relabelled = v2.clone();
        relabelled[4] = 1;
        assert!(SessionFrame::decode(&relabelled).is_err(), "v2 body as v1");
        let mut relabelled = v1;
        relabelled[4] = 2;
        assert!(SessionFrame::decode(&relabelled).is_err(), "v1 body as v2");
    }
}

#[test]
fn hostile_sketch_sections_are_typed_errors() {
    // Pinned to the version-1 layout: the body is the counts from bucket 0
    // (DESIGN §14.1).
    let frame = frame_with(tiny_config(), 16);
    let bytes = v1_bytes(&frame);
    let (decoded, _) = SessionFrame::decode(&bytes).expect("v1 frame decodes");
    assert_eq!(decoded.bank.wire_state(), frame.bank.wire_state());

    let mut zeros_then_one = vec![0u64; 7_424];
    zeros_then_one.push(1);
    for words in [vec![0u64; 2_700], vec![1u64; 7_425], zeros_then_one] {
        let tampered = with_section(&bytes, TAG_SKETCH, &words_body(&words));
        match SessionFrame::decode(&tampered) {
            Err(WireError::BadField(msg)) => {
                assert!(msg.starts_with("sketch:"), "{} words: {msg}", words.len())
            }
            Err(e) => panic!("{} words: expected a sketch error, got {e}", words.len()),
            Ok(_) => panic!("{} words: hostile sketch decoded Ok", words.len()),
        }
    }
}

#[test]
fn hostile_phase_sections_are_typed_errors() {
    // Pinned to the version-1 layout: the body carries all 64×64 cells
    // (DESIGN §14.1).
    let frame = frame_with(BankConfig::bolot(20.0, 72, 1_000_000), 64);
    let bytes = v1_bytes(&frame);
    let (decoded, _) = SessionFrame::decode(&bytes).expect("v1 frame decodes");
    assert_eq!(decoded.bank.wire_state(), frame.bank.wire_state());
    let phase = frame.bank.wire_state().phase;
    assert!(phase.pairs > 0);
    let body = |cells: &[u64]| phase_body(phase.pairs, phase.out_of_range, cells);

    let mut past_u64 = vec![0u64; 64 * 64];
    past_u64[..2].copy_from_slice(&[u64::MAX, 1]);
    let hostile = [
        (vec![0u64; 4_095], "phase: grid shape mismatch"),
        (vec![0u64; 4_097], "phase: grid shape mismatch"),
        (vec![0u64; 4_096], "phase: pair mass mismatch"),
        (past_u64, "phase: count overflow"),
    ];
    for (cells, expected) in hostile {
        let tampered = with_section(&bytes, TAG_PHASE, &body(&cells));
        assert_bad_field(&tampered, expected, &format!("{} cells", cells.len()));
    }
}

/// A version-2 span body: the first index, then the span's counts.
fn span_body(first: u32, counts: &[u64]) -> Vec<u8> {
    [first.to_be_bytes().to_vec(), words_body(counts)].concat()
}

#[test]
fn hostile_v2_sketch_spans_are_typed_errors() {
    let frame = frame_with(tiny_config(), 16);
    let bytes = frame.encode();
    let state = frame.bank.wire_state();
    let first = u32::try_from(state.sketch_first).expect("fits");
    let counts = state.sketch_counts;
    assert!(first > 0 && !counts.is_empty());
    assert_eq!(
        with_section(&bytes, TAG_SKETCH, &span_body(first, &counts)),
        bytes,
        "splicing the frame's own span back must change nothing"
    );

    let past = "sketch: more buckets than the layout has";
    let untrimmed = "sketch: span starts or ends with an empty bucket";
    let hostile = [
        ("first past the layout", 7_424, vec![1u64], past),
        ("span past the layout", 7_423, vec![1, 1], past),
        ("first at u32::MAX", u32::MAX, vec![1], past),
        (
            "leading empty bucket",
            first - 1,
            [&[0][..], &counts].concat(),
            untrimmed,
        ),
        (
            "trailing empty bucket",
            first,
            [&counts[..], &[0]].concat(),
            untrimmed,
        ),
        ("empty span off 0", 5, vec![], untrimmed),
        (
            "count overflow",
            first,
            vec![u64::MAX, 1],
            "sketch: count overflow",
        ),
    ];
    for (case, first, counts, expected) in hostile {
        let tampered = with_section(&bytes, TAG_SKETCH, &span_body(first, &counts));
        assert_bad_field(&tampered, expected, case);
    }
}

#[test]
fn hostile_v2_phase_spans_are_typed_errors() {
    let frame = frame_with(BankConfig::bolot(20.0, 72, 1_000_000), 64);
    let bytes = frame.encode();
    let phase = frame.bank.wire_state().phase;
    let first = u32::try_from(phase.grid_first).expect("fits");
    let span = phase.span;
    assert!(phase.pairs > 0 && first > 0 && !span.is_empty());
    let body = |first: u32, span: &[u64]| {
        let mut body = [phase.pairs.to_be_bytes(), phase.out_of_range.to_be_bytes()].concat();
        body.extend(span_body(first, span));
        body
    };
    assert_eq!(
        with_section(&bytes, TAG_PHASE, &body(first, &span)),
        bytes,
        "splicing the frame's own span back must change nothing"
    );

    let past = "phase: span reaches past the grid";
    let untrimmed = "phase: span starts or ends with an empty cell";
    let mut heavier = span.clone();
    *heavier.last_mut().expect("non-empty span") += 1;
    let mut dense = vec![0u64; 64 * 64];
    dense[first as usize..first as usize + span.len()].copy_from_slice(&span);
    let hostile = [
        ("first past the grid", 4_096, vec![phase.pairs], past),
        ("span past the grid", 4_095, vec![1, 1], past),
        ("first at u32::MAX", u32::MAX, vec![1], past),
        (
            "leading empty cell",
            first - 1,
            [&[0][..], &span].concat(),
            untrimmed,
        ),
        (
            "trailing empty cell",
            first,
            [&span[..], &[0]].concat(),
            untrimmed,
        ),
        ("empty span off 0", 7, vec![], untrimmed),
        (
            "count overflow",
            first,
            vec![u64::MAX, 1],
            "phase: count overflow",
        ),
        ("mass mismatch", first, heavier, "phase: pair mass mismatch"),
        ("dense grid as a span from 0", 0, dense.clone(), untrimmed),
    ];
    for (case, first, span, expected) in hostile {
        let tampered = with_section(&bytes, TAG_PHASE, &body(first, &span));
        assert_bad_field(&tampered, expected, case);
    }

    // The whole version-1 body inside a version-2 frame: its cell count
    // reads as the first cell and the grid's leading zeros as an empty
    // span, so the section does not consume its bytes.
    let v1_body = phase_body(phase.pairs, phase.out_of_range, &dense);
    assert!(matches!(
        SessionFrame::decode(&with_section(&bytes, TAG_PHASE, &v1_body)),
        Err(WireError::BadLength { .. })
    ));
}

#[test]
fn a_claimed_phase_grid_past_the_cap_is_a_typed_error() {
    // PHASE_BINS is CONFIG's last field. A version-2 frame carries only
    // the span, so the wire no longer bounds the claimed grid; the decoder
    // accepts up to MAX_PHASE_CELLS cells around the same span and rejects
    // anything larger in either layout.
    const TAG_CONFIG: u8 = 2;
    let frame = frame_with(tiny_config(), 64);
    let with_bins = |bytes: &[u8], bins: u32| {
        let (off, len) = section_length_fields(bytes)
            .into_iter()
            .find(|&(off, _)| bytes[off - 1] == TAG_CONFIG)
            .expect("config section present");
        let mut config = bytes[off + 4..off + 4 + len as usize].to_vec();
        let at = config.len() - 4;
        config[at..].copy_from_slice(&bins.to_be_bytes());
        with_section(bytes, TAG_CONFIG, &config)
    };
    let largest = (1u32..)
        .take_while(|b| (b * b) as usize <= MAX_PHASE_CELLS)
        .last();
    let largest = largest.expect("the cap holds one cell");
    let (decoded, _) =
        SessionFrame::decode(&with_bins(&frame.encode(), largest)).expect("grid at the cap");
    let phase = decoded.bank.snapshot().phase;
    assert_eq!(phase.bins, largest as usize);
    assert_eq!(phase.pairs, frame.bank.snapshot().phase.pairs);

    let over = "config: phase grid over MAX_PHASE_CELLS";
    for bins in [largest + 1, 1 << 16, 1 << 31, u32::MAX] {
        for bytes in [frame.encode(), v1_bytes(&frame)] {
            assert_bad_field(&with_bins(&bytes, bins), over, &format!("{bins} bins"));
        }
    }
}

#[test]
fn arbitrary_prefixes_of_noise_never_panic() {
    // Deterministic xorshift noise, decoded at every length up to 4 KiB.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let noise: Vec<u8> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect();
    for n in 0..noise.len() {
        assert_total(&noise[..n]);
    }
}
