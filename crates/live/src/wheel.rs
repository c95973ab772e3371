//! A hashed timer wheel for per-session send deadlines, and the lateness
//! histogram that grades how close to schedule the wheel fires.
//!
//! The wheel hashes each armed deadline into `slots[tick % N]`; advancing
//! to tick `t` visits each slot between the cursor and `t` once and fires
//! the entries whose tick has come. Arming and firing are O(1) amortized —
//! the property that lets one reactor pace thousands of concurrent probe
//! schedules — and deadlines are quantized *up* to tick boundaries, so a
//! timer never fires before its deadline (early sends would compress the
//! probe stream the way late ones cannot be avoided).
//! [`TimerWheel::next_fire`] names the instant of the next tick that fires
//! something, which is what the reactor sleeps until.

/// Power-of-two-bucketed histogram of timer lateness (fire time minus
/// deadline). Lateness is the reactor's pacing-quality metric: the
/// `live_engine` bench block reports its percentiles.
#[derive(Debug, Clone)]
pub struct LatenessHistogram {
    /// `counts[i]` holds samples with `bit_length(lateness_us) == i`.
    counts: [u64; 40],
    total: u64,
    max_ns: u64,
}

impl Default for LatenessHistogram {
    fn default() -> Self {
        LatenessHistogram {
            counts: [0; 40],
            total: 0,
            max_ns: 0,
        }
    }
}

impl LatenessHistogram {
    /// Record one lateness sample in nanoseconds.
    pub fn record(&mut self, lateness_ns: u64) {
        let us = lateness_ns / 1_000;
        let bucket = (64 - us.leading_zeros()) as usize;
        self.counts[bucket.min(self.counts.len() - 1)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(lateness_ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest lateness seen, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_ns / 1_000
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile sample
    /// (`0.0 < q <= 1.0`); exact max for the tail, 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let threshold = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= threshold {
                // Bucket i holds values whose bit length is i: upper bound
                // 2^i - 1 µs (bucket 0 is exactly 0).
                let upper = if bucket == 0 { 0 } else { (1u64 << bucket) - 1 };
                return upper.min(self.max_us());
            }
        }
        self.max_us()
    }
}

struct TimerEntry {
    /// The exact deadline the caller asked for.
    deadline_ns: u64,
    /// The wheel tick it fires on (`ceil(deadline / tick)`).
    tick: u64,
    /// Opaque caller token handed back on fire.
    token: u64,
}

/// The hashed timer wheel.
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    /// Deadlines armed for ticks the cursor already processed; they fire
    /// unconditionally on the next [`TimerWheel::advance`].
    overdue: Vec<TimerEntry>,
    tick_ns: u64,
    /// Next tick to be processed by [`TimerWheel::advance`].
    cursor: u64,
    armed: usize,
    fired: u64,
}

impl TimerWheel {
    /// A wheel with the given tick quantum and slot count.
    ///
    /// # Panics
    /// Panics if `tick_ns` or `slot_count` is zero.
    pub fn new(tick_ns: u64, slot_count: usize) -> TimerWheel {
        assert!(tick_ns > 0, "timer tick must be positive");
        assert!(slot_count > 0, "wheel needs at least one slot");
        TimerWheel {
            slots: (0..slot_count).map(|_| Vec::new()).collect(),
            overdue: Vec::new(),
            tick_ns,
            cursor: 0,
            armed: 0,
            fired: 0,
        }
    }

    /// The wheel's tick quantum in nanoseconds.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Timers currently armed.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// Timers fired over the wheel's lifetime.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Arm a timer for `deadline_ns`; `token` is handed back on fire.
    /// Deadlines already in the past fire on the next [`TimerWheel::advance`].
    pub fn arm(&mut self, deadline_ns: u64, token: u64) {
        let tick = deadline_ns.div_ceil(self.tick_ns);
        let entry = TimerEntry {
            deadline_ns,
            tick,
            token,
        };
        if tick < self.cursor {
            // The wheel already processed this tick (the cursor skips
            // ahead when it empties); park the entry where the next
            // advance fires it instead of waiting a full revolution.
            self.overdue.push(entry);
        } else {
            let slot = (tick % self.slots.len() as u64) as usize;
            self.slots[slot].push(entry);
        }
        self.armed += 1;
    }

    /// Fire every timer due by `now_ns`. The callback receives
    /// `(token, lateness_ns)` where lateness is how far past its deadline
    /// the timer fired (0 when on schedule).
    pub fn advance<F: FnMut(u64, u64)>(&mut self, now_ns: u64, mut fire: F) {
        for entry in std::mem::take(&mut self.overdue) {
            self.armed -= 1;
            self.fired += 1;
            fire(entry.token, now_ns.saturating_sub(entry.deadline_ns));
        }
        let target = now_ns / self.tick_ns;
        while self.cursor <= target {
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let mut i = 0;
            while i < self.slots[slot].len() {
                if self.slots[slot][i].tick <= target {
                    let entry = self.slots[slot].swap_remove(i);
                    self.armed -= 1;
                    self.fired += 1;
                    fire(entry.token, now_ns.saturating_sub(entry.deadline_ns));
                } else {
                    i += 1;
                }
            }
            self.cursor += 1;
            if self.armed == 0 {
                // Nothing left anywhere: skip the empty revolutions.
                self.cursor = target + 1;
                break;
            }
        }
    }

    /// The instant (ns) at which [`TimerWheel::advance`] will next fire
    /// something, `None` with nothing armed: `advance(next_fire)` fires at
    /// least one timer and no earlier instant fires any. This is what the
    /// reactor sleeps until. It is the firing *tick*, not the deadline: an
    /// entry fires on `ceil(deadline / tick)`, so a loop that waits for
    /// the raw deadline wakes up to one tick early and has nothing to do
    /// but spin. Entries parked in `overdue` are due now (0).
    ///
    /// Called once per reactor loop turn. Walks the slots forward from the
    /// cursor and stops at the first tick no later entry can beat, which
    /// with timers armed in the current revolution is the first non-empty
    /// slot; entries of later revolutions cost one full lap.
    pub fn next_fire(&self) -> Option<u64> {
        if self.armed == 0 {
            return None;
        }
        if !self.overdue.is_empty() {
            return Some(0);
        }
        let slots = self.slots.len() as u64;
        let mut earliest: Option<u64> = None;
        for tick in self.cursor..self.cursor + slots {
            // Every entry still ahead in the walk sits in the slot of a
            // tick >= `tick`, so its own tick is >= `tick` too.
            if earliest.is_some_and(|e| e <= tick) {
                break;
            }
            let slot = &self.slots[(tick % slots) as usize];
            earliest = slot.iter().map(|e| e.tick).chain(earliest).min();
        }
        earliest.map(|tick| tick * self.tick_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn timers_fire_at_or_after_their_deadline() {
        let mut wheel = TimerWheel::new(MS, 64);
        wheel.arm(5 * MS, 1);
        wheel.arm(2 * MS, 2);
        wheel.arm(9 * MS, 3);

        let mut fired = Vec::new();
        wheel.advance(3 * MS, |t, late| fired.push((t, late)));
        assert_eq!(fired, vec![(2, MS)]); // deadline 2 ms, fired at 3 ms
        fired.clear();

        wheel.advance(10 * MS, |t, _| fired.push((t, 0)));
        let tokens: Vec<u64> = fired.iter().map(|f| f.0).collect();
        assert!(tokens.contains(&1) && tokens.contains(&3));
        assert_eq!(wheel.armed(), 0);
        assert_eq!(wheel.fired(), 3);
    }

    #[test]
    fn deadlines_quantize_up_never_early() {
        let mut wheel = TimerWheel::new(MS, 8);
        wheel.arm(MS + 1, 7); // lands on tick 2, not tick 1
        let mut fired = Vec::new();
        wheel.advance(MS, |t, _| fired.push(t));
        assert!(fired.is_empty(), "fired a timer before its deadline");
        wheel.advance(2 * MS, |t, _| fired.push(t));
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn far_future_deadlines_survive_wheel_revolutions() {
        let mut wheel = TimerWheel::new(MS, 4); // tiny wheel: 4 ms revolution
        wheel.arm(2 * MS, 1);
        wheel.arm(6 * MS, 2); // same slot as token 1, next revolution
        let mut fired = Vec::new();
        wheel.advance(3 * MS, |t, _| fired.push(t));
        assert_eq!(fired, vec![1], "revolution-2 entry fired a lap early");
        wheel.advance(7 * MS, |t, _| fired.push(t));
        assert_eq!(fired, vec![1, 2]);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut wheel = TimerWheel::new(MS, 16);
        wheel.advance(10 * MS, |_, _| {});
        wheel.arm(3 * MS, 5); // already past
        let mut fired = Vec::new();
        wheel.advance(10 * MS, |t, late| fired.push((t, late)));
        assert_eq!(fired, vec![(5, 7 * MS)]);
    }

    #[test]
    fn next_fire_tracks_the_minimum() {
        let mut wheel = TimerWheel::new(MS, 16);
        assert_eq!(wheel.next_fire(), None);
        wheel.arm(8 * MS, 1);
        wheel.arm(3 * MS - 1, 2); // fires on tick 3, not at its deadline
        assert_eq!(wheel.next_fire(), Some(3 * MS));
        wheel.advance(4 * MS, |_, _| {});
        assert_eq!(wheel.next_fire(), Some(8 * MS));
        wheel.arm(MS, 3); // behind the cursor: parked in `overdue`, due now
        assert_eq!(wheel.next_fire(), Some(0));
    }

    /// What `next_fire` must equal, by brute force over every entry.
    fn brute_force_next_fire(wheel: &TimerWheel) -> Option<u64> {
        if !wheel.overdue.is_empty() {
            return Some(0);
        }
        wheel
            .slots
            .iter()
            .flatten()
            .map(|e| e.tick * wheel.tick_ns)
            .min()
    }

    /// Tokens `advance(now)` would fire, on a copy so the wheel is kept.
    fn fired_at(wheel: &TimerWheel, now: u64) -> usize {
        let mut copy = TimerWheel::new(wheel.tick_ns, wheel.slots.len());
        copy.cursor = wheel.cursor;
        for e in wheel.slots.iter().flatten().chain(&wheel.overdue) {
            copy.arm(e.deadline_ns, e.token);
        }
        let mut fired = 0;
        copy.advance(now, |_, _| fired += 1);
        fired
    }

    proptest! {
        /// Random `arm`/`advance` sequences on an 8-slot wheel: deadlines up
        /// to five revolutions out, deadlines behind the cursor (`overdue`),
        /// and advances long enough to empty the wheel so the cursor skips.
        /// After every step `next_fire` equals the brute-force minimum, and
        /// it is the first instant at which `advance` fires anything.
        #[test]
        fn next_fire_matches_brute_force(
            ops in vec((0u8..4, 0u64..40 * MS), 1..60),
        ) {
            let mut wheel = TimerWheel::new(MS, 8);
            let mut now = 0u64;
            for (token, (kind, amount)) in ops.into_iter().enumerate() {
                match kind {
                    // Arm ahead of now (0 to 40 ticks: up to 5 revolutions).
                    0 | 1 => wheel.arm(now + amount, token as u64),
                    // Arm behind now; lands in `overdue` once the cursor passed.
                    2 => wheel.arm(now.saturating_sub(amount), token as u64),
                    // Advance; long jumps empty the wheel and skip the cursor.
                    _ => {
                        now += amount;
                        wheel.advance(now, |_, _| {});
                    }
                }
                let next = wheel.next_fire();
                prop_assert_eq!(next, brute_force_next_fire(&wheel));
                prop_assert_eq!(next.is_none(), wheel.armed() == 0);
                if let Some(at) = next {
                    prop_assert!(fired_at(&wheel, at) >= 1);
                    if at > 0 {
                        prop_assert_eq!(fired_at(&wheel, at - 1), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_percentiles_bracket_the_samples() {
        let mut h = LatenessHistogram::default();
        for us in [0u64, 10, 20, 50, 100, 200, 400, 800, 1_600, 100_000] {
            h.record(us * 1_000);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_us(), 100_000);
        assert!(h.quantile_us(0.5) >= 50);
        assert!(h.quantile_us(0.5) <= 255);
        assert_eq!(h.quantile_us(1.0), 100_000);
        // Empty histogram reports zeros.
        let empty = LatenessHistogram::default();
        assert_eq!(empty.quantile_us(0.99), 0);
    }
}
