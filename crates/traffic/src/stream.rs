//! Arrival streams and packet-size distributions.
//!
//! A traffic stream is a finite, time-sorted sequence of [`Arrival`]s — one
//! per cross-traffic packet. Streams are plain vectors so they can be
//! generated up front, merged, thinned and inspected deterministically, then
//! handed to the simulator (`Engine::attach_cross_traffic`).

use probenet_sim::{SimDuration, SimTime};
use rand::Rng;

/// One cross-traffic packet: when it reaches the queue and how big it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant at the attachment queue.
    pub at: SimTime,
    /// Wire size in bytes.
    pub size: u32,
}

impl Arrival {
    /// Convert to the `(time, size)` pairs the simulator consumes.
    pub fn into_pair(self) -> (SimTime, u32) {
        (self.at, self.size)
    }
}

/// Convert a stream to the simulator's `(time, size)` representation.
pub fn to_pairs(stream: &[Arrival]) -> Vec<(SimTime, u32)> {
    stream.iter().map(|a| a.into_pair()).collect()
}

/// A packet-size distribution.
///
/// The paper's workload analysis infers "a mix of bulk traffic with larger
/// packet size, and interactive traffic with smaller packet size";
/// [`PacketSize::Mixture`] expresses exactly such mixes.
#[derive(Debug, Clone)]
pub enum PacketSize {
    /// Every packet has the same size.
    Constant(u32),
    /// Uniformly distributed in `[min, max]` (inclusive).
    Uniform {
        /// Smallest size.
        min: u32,
        /// Largest size.
        max: u32,
    },
    /// A discrete mixture: `(weight, size)` pairs; weights need not sum to 1
    /// (they are normalized).
    Mixture(Vec<(f64, u32)>),
    /// Sizes drawn uniformly from an empirical sample.
    Empirical(Vec<u32>),
}

impl PacketSize {
    /// Draw one size.
    ///
    /// # Panics
    /// Panics on an empty mixture or empirical set, on `min > max`, or on a
    /// mixture with no positive weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            PacketSize::Constant(s) => *s,
            PacketSize::Uniform { min, max } => {
                assert!(min <= max, "uniform size range inverted");
                rng.gen_range(*min..=*max)
            }
            PacketSize::Mixture(parts) => {
                assert!(!parts.is_empty(), "empty size mixture");
                let total: f64 = parts.iter().map(|(w, _)| w.max(0.0)).sum();
                assert!(total > 0.0, "size mixture has no positive weight");
                let mut x = rng.gen::<f64>() * total;
                for (w, s) in parts {
                    x -= w.max(0.0);
                    if x <= 0.0 {
                        return *s;
                    }
                }
                parts.last().expect("non-empty").1
            }
            PacketSize::Empirical(sizes) => {
                assert!(!sizes.is_empty(), "empty empirical size set");
                sizes[rng.gen_range(0..sizes.len())]
            }
        }
    }

    /// Expected size in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            PacketSize::Constant(s) => *s as f64,
            PacketSize::Uniform { min, max } => (*min as f64 + *max as f64) / 2.0,
            PacketSize::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w.max(0.0)).sum();
                parts
                    .iter()
                    .map(|(w, s)| w.max(0.0) / total * *s as f64)
                    .sum()
            }
            PacketSize::Empirical(sizes) => {
                sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64
            }
        }
    }
}

/// Merge already-sorted streams into one sorted stream (stable: equal-time
/// arrivals keep their relative source order, earlier-listed streams first).
pub fn merge(streams: Vec<Vec<Arrival>>) -> Vec<Arrival> {
    let mut all: Vec<(SimTime, usize, usize, Arrival)> = Vec::new();
    for (src, s) in streams.into_iter().enumerate() {
        for (i, a) in s.into_iter().enumerate() {
            all.push((a.at, src, i, a));
        }
    }
    all.sort_by_key(|&(at, src, i, _)| (at, src, i));
    all.into_iter().map(|(_, _, _, a)| a).collect()
}

/// Keep each arrival independently with probability `keep` — Bernoulli
/// thinning, used e.g. to modulate a base load level.
///
/// # Panics
/// Panics unless `0.0 <= keep <= 1.0`.
pub fn thin<R: Rng + ?Sized>(stream: &[Arrival], keep: f64, rng: &mut R) -> Vec<Arrival> {
    assert!((0.0..=1.0).contains(&keep), "keep probability out of range");
    stream
        .iter()
        .copied()
        .filter(|_| rng.gen::<f64>() < keep)
        .collect()
}

/// Shift every arrival later by `offset`.
pub fn delay(stream: &[Arrival], offset: SimDuration) -> Vec<Arrival> {
    stream
        .iter()
        .map(|a| Arrival {
            at: a.at + offset,
            size: a.size,
        })
        .collect()
}

/// Total bytes offered by a stream.
pub fn total_bytes(stream: &[Arrival]) -> u64 {
    stream.iter().map(|a| a.size as u64).sum()
}

/// Offered load in bits per second over `[0, horizon]`.
pub fn offered_bps(stream: &[Arrival], horizon: SimDuration) -> f64 {
    if horizon.is_zero() {
        return 0.0;
    }
    total_bytes(stream) as f64 * 8.0 / horizon.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn constant_size() {
        let mut r = rng();
        assert_eq!(PacketSize::Constant(512).sample(&mut r), 512);
        assert_eq!(PacketSize::Constant(512).mean(), 512.0);
    }

    #[test]
    fn uniform_size_in_range() {
        let mut r = rng();
        let d = PacketSize::Uniform { min: 40, max: 1500 };
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((40..=1500).contains(&s));
        }
        assert_eq!(d.mean(), 770.0);
    }

    #[test]
    fn mixture_respects_weights() {
        let mut r = rng();
        let d = PacketSize::Mixture(vec![(0.8, 64), (0.2, 512)]);
        let n = 20_000;
        let small = (0..n).filter(|_| d.sample(&mut r) == 64).count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "small fraction {frac}");
        assert!((d.mean() - (0.8 * 64.0 + 0.2 * 512.0)).abs() < 1e-9);
    }

    #[test]
    fn empirical_draws_from_sample() {
        let mut r = rng();
        let d = PacketSize::Empirical(vec![100, 200, 300]);
        for _ in 0..100 {
            assert!([100, 200, 300].contains(&d.sample(&mut r)));
        }
        assert_eq!(d.mean(), 200.0);
    }

    #[test]
    #[should_panic(expected = "empty size mixture")]
    fn empty_mixture_panics() {
        PacketSize::Mixture(vec![]).sample(&mut rng());
    }

    #[test]
    fn merge_sorts_and_is_stable() {
        let a = vec![
            Arrival { at: at(1), size: 1 },
            Arrival { at: at(3), size: 3 },
        ];
        let b = vec![
            Arrival { at: at(1), size: 2 },
            Arrival { at: at(2), size: 4 },
        ];
        let m = merge(vec![a, b]);
        let order: Vec<u32> = m.iter().map(|x| x.size).collect();
        assert_eq!(order, vec![1, 2, 4, 3]);
    }

    #[test]
    fn thin_keeps_expected_fraction() {
        let stream: Vec<Arrival> = (0..10_000)
            .map(|i| Arrival { at: at(i), size: 1 })
            .collect();
        let kept = thin(&stream, 0.3, &mut rng());
        let frac = kept.len() as f64 / stream.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "kept fraction {frac}");
    }

    #[test]
    fn offered_load_math() {
        let stream = vec![
            Arrival {
                at: at(0),
                size: 500,
            },
            Arrival {
                at: at(1),
                size: 500,
            },
        ];
        assert_eq!(total_bytes(&stream), 1000);
        let bps = offered_bps(&stream, SimDuration::from_secs(1));
        assert!((bps - 8000.0).abs() < 1e-9);
        assert_eq!(offered_bps(&stream, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn delay_shifts_times() {
        let s = vec![Arrival { at: at(5), size: 9 }];
        let d = delay(&s, SimDuration::from_millis(10));
        assert_eq!(d[0].at, at(15));
        assert_eq!(d[0].size, 9);
    }
}
