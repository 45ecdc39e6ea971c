//! Host-speed calibration. The benchmark runs on shared virtual machines
//! whose speed drifts by up to a factor of two over minutes, and whose
//! two CPUs can differ by as much from one second to the next, with
//! little steal time to show for it. Raw wall times of the same code
//! move from run to run far more than any change worth catching.
//!
//! Every timed window is therefore interleaved with a fixed reference
//! computation that uses none of the program's code, and each timing is
//! scaled by how fast the reference ran around it: a reported time reads
//! as the time on a host where one reference pass takes
//! [`REFERENCE_MS`]. A change to the program moves the scaled times as it
//! moves the raw ones; a slower or faster host moves both the program and
//! the reference, and cancels out.

use std::hint::black_box;
use std::time::Instant;

/// The reference pass's time on the nominal host, in ms.
pub const REFERENCE_MS: f64 = 1.0;
/// Passes per probe; a probe reads the fastest, so that a stall inside
/// one pass does not count as a slow host.
const PASSES: usize = 3;
/// Probes a timing's scale is taken from: the ones nearest to it in
/// time, through their median. The host's speed can jump by half from
/// one second to the next, so the scale stays local.
const NEAREST: usize = 3;

/// One pass of the reference computation: the kinds of work the solver
/// does (a min-max interval DP over reduced fractions, sorting, hashing
/// into a map, and number formatting and parsing), on data fixed by
/// `seed`. Returns a checksum so that nothing is optimized away.
fn reference_pass(seed: u64) -> u64 {
    (0..ROUNDS).fold(0, |sum, r| sum ^ reference_round(seed.wrapping_add(r)))
}

/// Rounds per pass: a pass takes about a millisecond on the nominal host.
const ROUNDS: u64 = 8;

fn reference_round(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    // min over splits of the max interval cost, as fractions in lowest terms
    const N: usize = 40;
    let w: Vec<u64> = (0..N).map(|_| 1 + next() % 97).collect();
    let mut best = vec![(u64::MAX, 1u64); N + 1];
    best[0] = (0, 1);
    for j in 1..=N {
        let mut sum = 0;
        for i in (0..j).rev() {
            sum += w[i];
            let speed = 1 + (i as u64 * 7 + j as u64) % 5;
            let g = gcd(sum, speed);
            let cost = (sum / g, speed / g);
            let prev = best[i];
            // max of two fractions, then min against the incumbent
            let worse = if prev.0 as u128 * cost.1 as u128 > cost.0 as u128 * prev.1 as u128 {
                prev
            } else {
                cost
            };
            if worse.0 as u128 * best[j].1 as u128 <= best[j].0 as u128 * worse.1 as u128 {
                best[j] = worse;
            }
        }
    }
    let mut v: Vec<u64> = (0..2048).map(|_| next()).collect();
    v.sort_unstable();
    let mut map = std::collections::HashMap::new();
    for k in v.iter().step_by(4) {
        *map.entry(k % 509).or_insert(0u64) += k >> 40;
    }
    let mut parsed = 0.0f64;
    for k in v.iter().step_by(16) {
        let text = format!("{}", (*k >> 20) as f64 / 1024.0);
        parsed += text.parse::<f64>().unwrap_or(0.0);
    }
    best[N].0 ^ v[1024] ^ map.len() as u64 ^ parsed.to_bits()
}

/// Times the reference now: the fastest of [`PASSES`] passes, in ms.
pub fn probe() -> f64 {
    (0..PASSES)
        .map(|p| {
            let t = Instant::now();
            black_box(reference_pass(black_box(0x9e37_79b9 + p as u64)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The host's speed over a run: reference probes taken at known instants.
///
/// The CPUs of one virtual machine need not run at one speed: one can
/// take twice as long as the other over the same second. A probe
/// therefore runs on as many threads at once as the timed work spreads
/// over, and reads their mean.
pub struct SpeedTrack {
    threads: usize,
    probes: Vec<(Instant, f64)>,
}

impl SpeedTrack {
    /// A track for work done on the calling thread, which probes there.
    pub fn this_thread() -> SpeedTrack {
        SpeedTrack {
            threads: 1,
            probes: Vec::new(),
        }
    }

    /// A track for work spread over every CPU (a daemon's threads): a
    /// probe runs on one thread per CPU at once.
    pub fn every_cpu() -> SpeedTrack {
        SpeedTrack {
            threads: repliflow_sync::thread::available_parallelism().map_or(1, |n| n.get()),
            probes: Vec::new(),
        }
    }

    /// Probes the host now; returns this probe's factor (see
    /// [`SpeedTrack::factor`]).
    pub fn sample(&mut self) -> f64 {
        let others = self.threads.saturating_sub(1);
        let ms = repliflow_sync::thread::scope(|s| {
            let handles: Vec<_> = (0..others).map(|_| s.spawn(probe)).collect();
            let mine = probe();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum::<f64>()
                + mine
        }) / (others + 1) as f64;
        self.probes.push((Instant::now(), ms));
        REFERENCE_MS / ms
    }

    /// When the last probe was taken.
    pub fn last(&self) -> Option<Instant> {
        self.probes.last().map(|p| p.0)
    }

    /// The factor that turns a raw time around `at` (the middle of the
    /// timed interval) into a nominal-host time:
    /// [`REFERENCE_MS`] over the median of the [`NEAREST`] probes nearest
    /// to `at`. 1 when nothing was probed.
    pub fn factor(&self, at: Instant) -> f64 {
        let mut near: Vec<(u128, f64)> = self
            .probes
            .iter()
            .map(|&(t, ms)| {
                let d = if t > at { t - at } else { at - t };
                (d.as_nanos(), ms)
            })
            .collect();
        near.sort_by_key(|p| p.0);
        let ms: Vec<f64> = near.iter().take(NEAREST).map(|p| p.1).collect();
        crate::stats::median(&ms).map_or(1.0, |m| REFERENCE_MS / m)
    }

    /// A raw time whose interval is centred on `at`, scaled to the
    /// nominal host.
    pub fn scale(&self, raw: f64, at: Instant) -> f64 {
        raw * self.factor(at)
    }

    /// The median probe of the run, in ms (a report of the host's speed).
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        crate::stats::median(&ms).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reference_is_deterministic() {
        assert_eq!(reference_pass(7), reference_pass(7));
        assert_ne!(reference_pass(7), reference_pass(8));
        assert!(probe() > 0.0);
        let mut track = SpeedTrack::every_cpu();
        track.sample();
        assert!(track.median_ms() > 0.0);
    }

    /// A time is scaled by the probes nearest to it: twice as slow a
    /// reference halves the time.
    #[test]
    fn scale_follows_the_nearest_probes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut track = SpeedTrack::this_thread();
        assert_eq!(track.factor(t0), 1.0);
        for i in 0..10 {
            track.probes.push((at(100 * i), REFERENCE_MS));
        }
        for i in 10..20 {
            track.probes.push((at(100 * i), 2.0 * REFERENCE_MS));
        }
        assert_eq!(track.scale(4.0, at(50)), 4.0);
        assert_eq!(track.scale(4.0, at(1950)), 2.0);
        // at the switch, two of the three nearest probes are slow
        assert_eq!(track.scale(4.0, at(960)), 2.0);
        assert_eq!(track.median_ms(), 1.5 * REFERENCE_MS);
    }
}
