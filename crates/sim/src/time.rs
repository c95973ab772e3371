//! Simulated time.
//!
//! All simulator time is carried as an integer number of **nanoseconds** in
//! [`SimTime`] (an instant) and [`SimDuration`] (a span). Integer time keeps
//! event ordering exact and makes runs bit-for-bit reproducible: there is no
//! floating-point accumulation drift no matter how many events are processed.
//!
//! Conversions to and from floating-point seconds/milliseconds are provided
//! at the edges for analysis code, which works in `f64` seconds.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite horizon".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from floating-point seconds (rounded to the nearest ns).
    ///
    /// Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_f64_to_nanos(s))
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant expressed in floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference: `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from floating-point seconds (rounded to the nearest ns).
    ///
    /// Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_f64_to_nanos(s))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This span expressed in floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True if this is the zero-length span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer count, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }

    /// The exact time to transmit `size_bytes` at `bandwidth_bps` bits/s,
    /// rounded up to the next nanosecond so a server never finishes "early".
    ///
    /// # Panics
    /// Panics if `bandwidth_bps` is zero.
    pub fn transmission(size_bytes: u32, bandwidth_bps: u64) -> SimDuration {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        let bits = u64::from(size_bytes) * 8;
        // Packets under 2 GiB stay in 64 bits, whose division is cheaper.
        if let Some(bit_ns) = bits.checked_mul(NANOS_PER_SEC) {
            return SimDuration(bit_ns.div_ceil(bandwidth_bps));
        }
        let ns = (u128::from(bits) * u128::from(NANOS_PER_SEC)).div_ceil(u128::from(bandwidth_bps));
        SimDuration(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

fn secs_f64_to_nanos(s: f64) -> u64 {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    let ns = s * NANOS_PER_SEC as f64;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact difference; panics if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
    }

    #[test]
    fn float_round_trip() {
        let t = SimTime::from_secs_f64(0.050);
        assert_eq!(t, SimTime::from_millis(50));
        assert!((t.as_secs_f64() - 0.050).abs() < 1e-12);
        assert!((t.as_millis_f64() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn from_secs_f64_clamps_negative_and_nan() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(
            SimDuration::from_millis(5) * 3,
            SimDuration::from_millis(15)
        );
        assert_eq!(
            SimDuration::from_millis(15) / 3,
            SimDuration::from_millis(5)
        );
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_difference_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn transmission_time_exact() {
        // 32 bytes at 128 kb/s = 256 bits / 128000 b/s = 2 ms exactly.
        assert_eq!(
            SimDuration::transmission(32, 128_000),
            SimDuration::from_millis(2)
        );
        // 512 bytes at 128 kb/s = 4096/128000 s = 32 ms exactly.
        assert_eq!(
            SimDuration::transmission(512, 128_000),
            SimDuration::from_millis(32)
        );
        // 1500 bytes at 10 Mb/s = 12000/1e7 = 1.2 ms exactly.
        assert_eq!(
            SimDuration::transmission(1500, 10_000_000),
            SimDuration::from_micros(1200)
        );
    }

    #[test]
    fn transmission_of_huge_packets_takes_the_wide_path() {
        // 2^31 bytes and up overflow 64-bit bit·ns; the result must be the
        // exact ceiling either way.
        for size in [(1u32 << 31) - 1, 1 << 31, u32::MAX] {
            let exact = (u128::from(size) * 8 * 1_000_000_000).div_ceil(3);
            assert_eq!(SimDuration::transmission(size, 3).as_nanos() as u128, exact);
        }
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 b/s: 8/3 s = 2.666..s -> must round UP.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), (8 * NANOS_PER_SEC).div_ceil(3));
        assert!(d > SimDuration::from_secs_f64(8.0 / 3.0) - SimDuration::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transmission_zero_bandwidth_panics() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn zero_size_packet_transmits_instantly() {
        assert_eq!(SimDuration::transmission(0, 128_000), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(50)), "50.000ms");
        assert_eq!(format!("{:?}", SimDuration::from_millis(2)), "0.002000s");
    }
}
