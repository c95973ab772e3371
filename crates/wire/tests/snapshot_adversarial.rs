//! Adversarial corpus for the snapshot frame decoder: deterministic
//! fuzz-style coverage proving the decoder is *total* — truncations at
//! every byte boundary, single-bit flips at every position, corrupted
//! magic/version, and inflated/deflated length prefixes all produce a
//! typed [`WireError`] (or a still-valid `Ok`), never a panic and never a
//! read past the input.
//!
//! The exhaustive sweeps run on a frame built from a deliberately tiny
//! [`BankConfig`] (small histograms, small phase grid) so every byte
//! boundary and every bit is covered in milliseconds; a realistic
//! Bolot-config frame is swept at a coarse stride on top.

use probenet_stream::{BankConfig, EstimatorBank, SessionKey, StreamRecord};
use probenet_wire::snapshot::SessionFrame;
use probenet_wire::{WireError, FRAME_HEADER_BYTES, SNAPSHOT_VERSION};

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
    let bytes = frame_with(tiny_config(), 64).encode();
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

#[test]
fn single_bit_flips_never_panic_or_over_read() {
    let bytes = frame_with(tiny_config(), 48).encode();
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

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        SessionFrame::decode(&wrong_magic),
        Err(WireError::BadMagic { .. })
    ));

    let mut wrong_version = bytes.clone();
    wrong_version[4] = SNAPSHOT_VERSION + 1;
    assert!(matches!(
        SessionFrame::decode(&wrong_version),
        Err(WireError::BadVersion { .. })
    ));

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

#[test]
fn hostile_sketch_sections_are_typed_errors() {
    // SKETCH is tag 6; its body is the counts from bucket 0 (DESIGN §14.1).
    const TAG_SKETCH: u8 = 6;
    let frame = frame_with(tiny_config(), 16);
    let bytes = frame.encode();
    let state = frame.bank.wire_state();
    let mut words = vec![0u64; state.sketch_first];
    words.extend(&state.sketch_counts);
    assert_eq!(
        with_section(&bytes, TAG_SKETCH, &words_body(&words)),
        bytes,
        "splicing the frame's own sketch back must change nothing"
    );

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

/// A PHASE section body: pair count, out-of-range count, then every cell.
fn phase_body(pairs: u64, out_of_range: u64, cells: &[u64]) -> Vec<u8> {
    let mut body = [pairs.to_be_bytes(), out_of_range.to_be_bytes()].concat();
    body.extend(words_body(cells));
    body
}

#[test]
fn hostile_phase_sections_are_typed_errors() {
    // PHASE is tag 9; its body carries all 64×64 cells (DESIGN §14.1).
    const TAG_PHASE: u8 = 9;
    let frame = frame_with(BankConfig::bolot(20.0, 72, 1_000_000), 64);
    let bytes = frame.encode();
    let phase = frame.bank.wire_state().phase;
    assert!(phase.pairs > 0);
    let mut cells = vec![0u64; 64 * 64];
    cells[phase.grid_first..phase.grid_first + phase.span.len()].copy_from_slice(&phase.span);
    let body = |cells: &[u64]| phase_body(phase.pairs, phase.out_of_range, cells);
    assert_eq!(
        with_section(&bytes, TAG_PHASE, &body(&cells)),
        bytes,
        "splicing the frame's own grid back must change nothing"
    );

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
        match SessionFrame::decode(&tampered) {
            Err(WireError::BadField(msg)) => assert_eq!(msg, expected, "{} cells", cells.len()),
            Err(e) => panic!("{} cells: expected a phase error, got {e}", cells.len()),
            Ok(_) => panic!("{} cells: hostile phase grid decoded Ok", cells.len()),
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
