//! Property suite for the streaming estimators: `merge()` associativity for
//! every estimator and streaming-vs-batch equivalence against small inline
//! batch references (the full-pipeline differential comparison against
//! `probenet-core` lives in the workspace-level `tests/streaming.rs`).

use probenet_stats::{autocorrelation, Histogram, Moments};
use probenet_stream::{
    fnv1a_hex, fnv1a_u64s, BankConfig, EstimatorBank, LogQuantileSketch, PhaseDensity,
    StreamRecord, StreamingLoss, StreamingWorkload, WindowedAcf,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// A generated session: per-probe RTT in ns, `None` = lost.
fn rtts_strategy() -> impl Strategy<Value = Vec<Option<u64>>> {
    vec(option::of(1_000_000u64..500_000_000), 0..250)
}

fn record(seq: usize, rtt_ns: Option<u64>) -> StreamRecord {
    StreamRecord {
        seq: seq as u64,
        sent_at_ns: seq as u64 * 20_000_000,
        rtt_ns,
    }
}

fn bank_of(rtts: &[Option<u64>], offset: usize) -> EstimatorBank {
    let mut bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 1_000_000));
    for (i, &r) in rtts.iter().enumerate() {
        bank.push(&record(offset + i, r));
    }
    bank
}

/// Two ways of splitting `rtts` into three consecutive segments.
fn split3(rtts: &[Option<u64>], a: usize, b: usize) -> (usize, usize) {
    let n = rtts.len();
    let i = a % (n + 1);
    let j = i + b % (n + 1 - i);
    (i, j)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` for every estimator in the bank:
    /// integer state compares exactly, float accumulators to the documented
    /// reassociation ε.
    #[test]
    fn bank_merge_is_associative(rtts in rtts_strategy(), a in 0usize..1000, b in 0usize..1000) {
        let (i, j) = split3(&rtts, a, b);
        let (xa, xb, xc) = (&rtts[..i], &rtts[i..j], &rtts[j..]);

        // Left-grouped: (a ⊕ b) ⊕ c.
        let mut left = bank_of(xa, 0);
        left.merge(&bank_of(xb, i));
        left.merge(&bank_of(xc, j));

        // Right-grouped: a ⊕ (b ⊕ c).
        let mut bc = bank_of(xb, i);
        bc.merge(&bank_of(xc, j));
        let mut right = bank_of(xa, 0);
        right.merge(&bc);

        let (sl, sr) = (left.snapshot(), right.snapshot());
        // Loss metrics are pure integer state: byte-exact.
        prop_assert_eq!(
            serde_json::to_string(&sl.loss).unwrap(),
            serde_json::to_string(&sr.loss).unwrap()
        );
        // Sketch, phase grid, histograms: exact u64 addition.
        prop_assert_eq!(left.sketch(), right.sketch());
        prop_assert_eq!(left.phase(), right.phase());
        prop_assert_eq!(left.rtt_hist().counts(), right.rtt_hist().counts());
        prop_assert_eq!(
            left.workload().histogram().counts(),
            right.workload().histogram().counts()
        );
        prop_assert_eq!(left.workload().pairs(), right.workload().pairs());
        // ACF ring: the session is far below the 8192 window, so both
        // groupings hold the identical sample sequence.
        prop_assert_eq!(&sl.acf, &sr.acf);
        prop_assert_eq!(sl.acf_evicted, sr.acf_evicted);
        // Float accumulators: reassociation ε.
        prop_assert_eq!(left.moments().count(), right.moments().count());
        if left.moments().count() > 0 {
            prop_assert!((left.moments().mean() - right.moments().mean()).abs() <= 1e-9);
        }
        prop_assert!(
            (left.workload().mean_workload_bytes() - right.workload().mean_workload_bytes()).abs()
                <= 1e-9
        );
    }

    /// Merging consecutive segments reproduces a single serial fold.
    #[test]
    fn bank_merge_matches_serial_fold(rtts in rtts_strategy(), a in 0usize..1000, b in 0usize..1000) {
        let (i, j) = split3(&rtts, a, b);
        let whole = bank_of(&rtts, 0);
        let mut merged = bank_of(&rtts[..i], 0);
        merged.merge(&bank_of(&rtts[i..j], i));
        merged.merge(&bank_of(&rtts[j..], j));
        let (sm, sw) = (merged.snapshot(), whole.snapshot());
        prop_assert_eq!(
            serde_json::to_string(&sm.loss).unwrap(),
            serde_json::to_string(&sw.loss).unwrap()
        );
        prop_assert_eq!(merged.sketch(), whole.sketch());
        prop_assert_eq!(merged.phase(), whole.phase());
        prop_assert_eq!(
            merged.workload().histogram().counts(),
            whole.workload().histogram().counts()
        );
        prop_assert_eq!(&sm.acf, &sw.acf);
        prop_assert!(
            (merged.workload().mean_workload_bytes() - whole.workload().mean_workload_bytes())
                .abs()
                <= 1e-9
        );
        if whole.moments().count() > 0 {
            prop_assert!((merged.moments().mean() - whole.moments().mean()).abs() <= 1e-9);
        }
    }

    /// StreamingLoss against an inline batch reference computed from the
    /// flag vector (counts, conditionals, run lengths).
    #[test]
    fn streaming_loss_matches_inline_batch(rtts in rtts_strategy()) {
        let flags: Vec<bool> = rtts.iter().map(|r| r.is_none()).collect();
        let mut s = StreamingLoss::new();
        for &f in &flags {
            s.push(f);
        }
        let snap = s.snapshot();

        let lost = flags.iter().filter(|&&f| f).count();
        prop_assert_eq!(snap.sent, flags.len());
        prop_assert_eq!(snap.lost, lost);

        // Run lengths: maximal runs of consecutive losses.
        let mut runs: Vec<usize> = Vec::new();
        let mut cur = 0usize;
        for &f in &flags {
            if f {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        let mut hist = vec![0usize; runs.iter().copied().max().unwrap_or(0)];
        for r in &runs {
            hist[r - 1] += 1;
        }
        prop_assert_eq!(&snap.run_lengths, &hist);

        // clp = P(loss_{n+1} | loss_n) over consecutive pairs.
        let n11 = flags.windows(2).filter(|w| w[0] && w[1]).count();
        let n10 = flags.windows(2).filter(|w| w[0] && !w[1]).count();
        match snap.clp {
            Some(clp) => {
                prop_assert!(n10 + n11 > 0);
                prop_assert_eq!(clp, n11 as f64 / (n10 + n11) as f64);
            }
            None => prop_assert_eq!(n10 + n11, 0),
        }
        if !runs.is_empty() {
            prop_assert_eq!(snap.plg_measured, Some(lost as f64 / runs.len() as f64));
        }
    }

    /// The sketch brackets the exact nearest-rank quantile from below,
    /// within its documented 2⁻⁷ relative error.
    #[test]
    fn sketch_brackets_exact_quantiles(
        values in vec(1u64..2_000_000_000, 1..300),
        qs in vec(0.0f64..1.0, 1..8),
    ) {
        let mut sketch = LogQuantileSketch::new();
        for &v in &values {
            sketch.push(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &qs {
            let rank = if q == 0.0 {
                1
            } else {
                ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len())
            };
            let truth = sorted[rank - 1] as f64;
            let approx = sketch.quantile(q).expect("non-empty") as f64;
            prop_assert!(approx <= truth, "q {} approx {} truth {}", q, approx, truth);
            prop_assert!(
                truth - approx <= truth * LogQuantileSketch::RELATIVE_ERROR,
                "q {} approx {} truth {}",
                q,
                approx,
                truth
            );
        }
    }

    /// The sketch stores only its occupied span, so the span must come out
    /// the same however the samples arrived: pushed in any order, or
    /// pushed into segments merged in any grouping — including a merge
    /// whose span starts below the receiver's.
    #[test]
    fn sketch_span_is_independent_of_order_and_grouping(
        samples in vec((0u8..3, any::<u64>(), any::<u64>()), 0..300).prop_map(|s| {
            // Exact small values, RTT-like ones and the whole u64 range,
            // plus the same values in an order set by a random key.
            let values: Vec<u64> = s
                .iter()
                .map(|&(class, w, _)| match class {
                    0 => w % 256,
                    1 => 1_000_000 + w % 2_000_000_000,
                    _ => w,
                })
                .collect();
            let mut keyed: Vec<(u64, u64)> =
                s.iter().map(|&(_, _, k)| k).zip(values.iter().copied()).collect();
            keyed.sort_unstable();
            (values, keyed.into_iter().map(|(_, v)| v).collect::<Vec<u64>>())
        }),
        cuts in vec(any::<usize>(), 0..6),
    ) {
        let (values, shuffled) = samples;
        let fed = |vs: &[u64]| {
            let mut s = LogQuantileSketch::new();
            for &v in vs {
                s.push(v);
            }
            s
        };
        let whole = fed(&values);
        prop_assert_eq!(&fed(&shuffled), &whole);

        let mut at: Vec<usize> = cuts.iter().map(|c| c % (shuffled.len() + 1)).collect();
        at.push(0);
        at.push(shuffled.len());
        at.sort_unstable();
        let segments: Vec<LogQuantileSketch> =
            at.windows(2).map(|w| fed(&shuffled[w[0]..w[1]])).collect();
        let mut left = LogQuantileSketch::new();
        for s in &segments {
            left.merge(s);
        }
        prop_assert_eq!(&left, &whole);
        let mut right = LogQuantileSketch::new();
        for s in segments.iter().rev() {
            let mut next = s.clone();
            next.merge(&right);
            right = next;
        }
        prop_assert_eq!(&right, &whole);

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let (lo, hi) = sorted.split_at(sorted.len() / 2);
        let mut high_first = fed(hi);
        high_first.merge(&fed(lo));
        prop_assert_eq!(&high_first, &whole);

        let rebuilt = LogQuantileSketch::from_span(whole.first_bucket(), whole.counts().to_vec());
        prop_assert_eq!(rebuilt, Ok(whole));
    }

    /// The phase grid stores only its occupied span, so the span must come
    /// out the same however the pairs arrived: in any order, or in
    /// segments merged in any grouping, including a merge whose span
    /// starts below the receiver's. It must also equal a dense grid binned
    /// with `cell_of`, trimmed at both ends.
    #[test]
    fn phase_span_is_independent_of_order_and_grouping(
        pairs in vec((0u64..2_200_000_000, 0u64..2_200_000_000, any::<u64>()), 0..150),
        cuts in vec(any::<usize>(), 0..6),
    ) {
        // Each pair is fed as `a, b, lost`: the loss closes the pair, so the
        // grid holds the same cells whatever order the pairs come in.
        let fed = |ps: &[(u64, u64)]| {
            let mut g = PhaseDensity::new(0.0, 2000.0, 64);
            for &(a, b) in ps {
                g.push(Some(a));
                g.push(Some(b));
                g.push(None);
            }
            g
        };
        let cells = |g: &PhaseDensity| {
            (g.first_cell(), g.counts().to_vec(), g.pairs(), g.snapshot().out_of_range)
        };
        let ordered: Vec<(u64, u64)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        let mut keyed = pairs.clone();
        keyed.sort_unstable_by_key(|&(_, _, k)| k);
        let shuffled: Vec<(u64, u64)> = keyed.iter().map(|&(a, b, _)| (a, b)).collect();
        let whole = fed(&ordered);
        prop_assert_eq!(cells(&fed(&shuffled)), cells(&whole));

        let cell = |&(a, b): &(u64, u64)| {
            whole.cell_of(a as f64 / 1e6, b as f64 / 1e6).map(|(ix, iy)| ix * 64 + iy)
        };
        let mut dense = vec![0u64; 64 * 64];
        for i in ordered.iter().filter_map(cell) {
            dense[i] += 1;
        }
        let (first, span) = (whole.first_cell(), whole.counts());
        let mut streamed = vec![0u64; 64 * 64];
        streamed[first..first + span.len()].copy_from_slice(span);
        prop_assert_eq!(streamed, dense);
        prop_assert!(span.first() != Some(&0) && span.last() != Some(&0));
        prop_assert!(!span.is_empty() || first == 0);

        let mut at: Vec<usize> = cuts.iter().map(|c| c % (ordered.len() + 1)).collect();
        at.push(0);
        at.push(ordered.len());
        at.sort_unstable();
        let segments: Vec<PhaseDensity> = at.windows(2).map(|w| fed(&ordered[w[0]..w[1]])).collect();
        let mut left = fed(&[]);
        for s in &segments {
            left.merge(s);
        }
        prop_assert_eq!(&left, &whole);
        let mut right = fed(&[]);
        for s in segments.iter().rev() {
            let mut next = s.clone();
            next.merge(&right);
            right = next;
        }
        prop_assert_eq!(&right, &whole);

        // Pairs by cell, out-of-range ones last: the high half's span
        // starts above the low half's.
        let mut by_cell = ordered.clone();
        by_cell.sort_by_key(|p| cell(p).unwrap_or(usize::MAX));
        let (lo, hi) = by_cell.split_at(by_cell.len() / 2);
        let mut high_first = fed(hi);
        high_first.merge(&fed(lo));
        prop_assert_eq!(cells(&high_first), cells(&whole));

        prop_assert_eq!(PhaseDensity::from_wire_state(whole.wire_state()), Ok(whole));
    }

    /// A zero word folds as one multiply by the eighth power of the FNV
    /// prime; the digest must equal the byte-at-a-time FNV-1a of the
    /// words' little-endian bytes, across long zero runs.
    #[test]
    fn zero_word_fold_matches_the_byte_digest(runs in vec((0usize..600, any::<u64>()), 0..12)) {
        let words: Vec<u64> = runs
            .iter()
            .flat_map(|&(zeros, w)| std::iter::repeat_n(0, zeros).chain([w]))
            .collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        prop_assert_eq!(fnv1a_u64s(words), fnv1a_hex(&bytes));
    }

    /// StreamingWorkload against an inline batch fold of the interarrival
    /// series (identical binning, identical summation order).
    #[test]
    fn streaming_workload_matches_inline_batch(rtts in rtts_strategy()) {
        let mut w = StreamingWorkload::new(20.0, 72, 1_000_000, 128_000.0, 100.0);
        for &r in &rtts {
            w.push(r);
        }
        let g: Vec<f64> = rtts
            .windows(2)
            .filter_map(|p| match (p[0], p[1]) {
                (Some(a), Some(b)) => Some((b as f64 - a as f64) / 1e6 + 20.0),
                _ => None,
            })
            .collect();
        // Batch layout for max_ms = 100 at 1 ms clock resolution: 1 ms bins.
        let mut hist = Histogram::new(0.0, 100.0, 100);
        let mut b_sum = 0.0f64;
        for &g_ms in &g {
            hist.add(g_ms);
            b_sum += ((128_000.0 * g_ms / 1e3 - 576.0) / 8.0).max(0.0);
        }
        prop_assert_eq!(w.pairs() as usize, g.len());
        prop_assert_eq!(w.histogram().counts(), hist.counts());
        if !g.is_empty() {
            // Same additions in the same order: bit-identical.
            prop_assert_eq!(w.mean_workload_bytes(), b_sum / g.len() as f64);
        }
    }

    /// The windowed ACF equals the batch ACF of the ring contents: the full
    /// series below capacity, its tail above.
    #[test]
    fn windowed_acf_matches_batch_of_tail(
        values in vec(1_000_000u64..500_000_000, 0..200),
        window in 2usize..64,
    ) {
        let mut acf = WindowedAcf::new(window);
        let ms: Vec<f64> = values.iter().map(|&v| v as f64 / 1e6).collect();
        for &x in &ms {
            acf.push(x);
        }
        let tail: &[f64] = if ms.len() > window { &ms[ms.len() - window..] } else { &ms };
        if tail.is_empty() {
            prop_assert!(acf.snapshot(20).is_empty());
        } else {
            let max_lag = 20.min(tail.len() - 1);
            prop_assert_eq!(acf.snapshot(20), autocorrelation(tail, max_lag));
        }
        prop_assert_eq!(acf.evicted() as usize, ms.len().saturating_sub(window));
    }

    /// Moments fold identically to the batch slice constructor.
    #[test]
    fn moments_match_batch_fold(values in vec(1_000_000u64..500_000_000, 1..300)) {
        let ms: Vec<f64> = values.iter().map(|&v| v as f64 / 1e6).collect();
        let mut streaming = Moments::new();
        for &x in &ms {
            streaming.push(x);
        }
        let batch = Moments::from_slice(&ms);
        prop_assert_eq!(streaming.count(), batch.count());
        prop_assert_eq!(streaming.mean(), batch.mean());
        prop_assert_eq!(streaming.std_dev(), batch.std_dev());
    }
}

/// The digest of an empty 64×64 phase grid, pinned as a literal (FNV-1a 64
/// of 32 768 zero bytes): every short session's snapshot carries grids
/// that are almost all zero words.
#[test]
fn empty_phase_grid_digest_is_pinned() {
    const EMPTY_GRID: &str = "8f6955bf94ec2325";
    assert_eq!(fnv1a_u64s(std::iter::repeat_n(0, 64 * 64)), EMPTY_GRID);
    let bank = EstimatorBank::new(BankConfig::bolot(20.0, 72, 1_000_000));
    assert_eq!(bank.snapshot().phase.grid_fnv1a, EMPTY_GRID);
}

/// Occupied 64×64 grids' digests, pinned as the literals the dense grid
/// hashed to: a span inside the grid, with zero runs on both sides, and
/// one from the end of the first row to the start of the last.
#[test]
fn occupied_phase_grid_digests_are_pinned() {
    let cases: [(&[u64], &str, usize); 2] = [
        (&[140, 150, 145, 600, 140], "37fa1ce91704f207", 3),
        (&[5, 1990, 5], "ba8cc7583a8fe905", 2),
    ];
    for (rtts_ms, digest, nonzero) in cases {
        let mut grid = PhaseDensity::new(0.0, 2000.0, 64);
        for &ms in rtts_ms {
            grid.push(Some(ms * 1_000_000));
        }
        let snap = grid.snapshot();
        assert_eq!(snap.grid_fnv1a, digest, "{rtts_ms:?}");
        assert_eq!(snap.nonzero_cells, nonzero, "{rtts_ms:?}");
    }
}

// ---------------------------------------------------------------------------
// Snapshot wire format: round-trip and merge-commutation properties. The
// codec itself lives in `probenet_wire::snapshot` (a dev-only dependency
// here); these properties pin it against the live estimator types.
// ---------------------------------------------------------------------------

use probenet_stream::SessionKey;
use probenet_wire::snapshot::SessionFrame;

fn frame_of(rtts: &[Option<u64>], offset: usize, first_seq: u64) -> SessionFrame {
    SessionFrame {
        key: SessionKey::new("prop/session", 20, 1993),
        first_seq,
        records: rtts.len() as u64,
        dropped: 0,
        bank: bank_of(rtts, offset),
        interim: Vec::new(),
        hops: Vec::new(),
        extensions: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(frame))` is the identity, bit-exactly: every
    /// estimator's wire state (float accumulators compared through
    /// `to_bits`-faithful `PartialEq`), a byte-identical re-encode, and an
    /// identical re-rendered snapshot.
    #[test]
    fn frame_round_trip_is_bit_exact(rtts in rtts_strategy()) {
        let frame = frame_of(&rtts, 0, 0);
        let bytes = frame.encode();
        let (decoded, used) = SessionFrame::decode(&bytes).expect("round-trip decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&decoded.key, &frame.key);
        prop_assert_eq!(decoded.records, frame.records);
        prop_assert_eq!(decoded.dropped, frame.dropped);
        prop_assert_eq!(decoded.bank.wire_state(), frame.bank.wire_state());
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(
            serde_json::to_string(&decoded.bank.snapshot()).unwrap(),
            serde_json::to_string(&frame.bank.snapshot()).unwrap()
        );
    }

    /// Merging two banks that each made a wire round-trip is bit-identical
    /// to merging the originals in memory — the fleet daemon's fold adds
    /// no error beyond `EstimatorBank::merge` itself.
    #[test]
    fn merge_commutes_with_the_codec(rtts in rtts_strategy(), cut in 0usize..1000) {
        let i = cut % (rtts.len() + 1);
        let (da, _) = SessionFrame::decode(&frame_of(&rtts[..i], 0, 0).encode())
            .expect("left shard decodes");
        let (db, _) = SessionFrame::decode(&frame_of(&rtts[i..], i, i as u64).encode())
            .expect("right shard decodes");
        let mut wire = da.bank;
        wire.merge(&db.bank);

        let mut mem = bank_of(&rtts[..i], 0);
        mem.merge(&bank_of(&rtts[i..], i));

        prop_assert_eq!(wire.wire_state(), mem.wire_state());
        prop_assert_eq!(
            serde_json::to_string(&wire.snapshot()).unwrap(),
            serde_json::to_string(&mem.snapshot()).unwrap()
        );
    }

    /// Every per-estimator wire-state constructor inverts its accessor
    /// exactly — rebuilt estimators report the same state they were built
    /// from (the frame codec is a pure transport on top of these).
    #[test]
    fn estimator_wire_states_round_trip(rtts in rtts_strategy()) {
        // Loss.
        let mut loss = StreamingLoss::new();
        for r in &rtts {
            loss.push(r.is_none());
        }
        let ls = loss.wire_state();
        let loss2 = StreamingLoss::from_wire_state(ls.clone()).expect("valid loss state");
        prop_assert_eq!(loss2.wire_state(), ls);
        prop_assert_eq!(
            serde_json::to_string(&loss2.snapshot()).unwrap(),
            serde_json::to_string(&loss.snapshot()).unwrap()
        );

        let delivered: Vec<u64> = rtts.iter().filter_map(|&r| r).collect();

        // Sketch.
        let mut sketch = LogQuantileSketch::new();
        for &v in &delivered {
            sketch.push(v);
        }
        let sketch2 = LogQuantileSketch::from_span(sketch.first_bucket(), sketch.counts().to_vec())
            .expect("valid sketch span");
        prop_assert_eq!(&sketch2, &sketch);

        // ACF ring.
        let mut acf = WindowedAcf::new(64);
        for &v in &delivered {
            acf.push(v as f64 / 1e6);
        }
        let acf2 = WindowedAcf::from_samples(acf.window(), acf.evicted(), acf.samples().collect())
            .expect("valid acf samples");
        prop_assert_eq!(acf2.samples().collect::<Vec<_>>(), acf.samples().collect::<Vec<_>>());
        prop_assert_eq!(acf2.evicted(), acf.evicted());
        prop_assert_eq!(acf2.snapshot(20), acf.snapshot(20));

        // Workload (Lindley recursion state).
        let mut w = StreamingWorkload::new(20.0, 72, 1_000_000, 128_000.0, 100.0);
        for &r in &rtts {
            w.push(r);
        }
        let ws = w.wire_state();
        let w2 = StreamingWorkload::from_wire_state(ws.clone()).expect("valid workload state");
        prop_assert_eq!(w2.wire_state(), ws);
        prop_assert_eq!(w2.mean_workload_bytes().to_bits(), w.mean_workload_bytes().to_bits());

        // Moments.
        let mut m = Moments::new();
        for &v in &delivered {
            m.push(v as f64 / 1e6);
        }
        let m2 = Moments::from_state(m.state()).expect("valid moments state");
        prop_assert_eq!(m2.state(), m.state());

        // The whole bank, through `BankWireState`.
        let bank = bank_of(&rtts, 0);
        let state = bank.wire_state();
        let bank2 = EstimatorBank::from_wire_state(state.clone()).expect("valid bank state");
        prop_assert_eq!(bank2.wire_state(), state);
    }
}
