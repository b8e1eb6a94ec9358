//! How fast the shared host is running at each moment of a run.
//!
//! Neighbours on the host slow the whole machine for seconds or minutes at
//! a time, by up to 1.7 times: some by competing for the core (integer
//! work slows), some for the shared cache (memory access slows). A run
//! that reported raw wall time would mostly measure the neighbours. So
//! each run times a fixed probe between its operations, integer work on a
//! cache-resident buffer plus a chain of dependent reads through a buffer
//! four times the size of the L2 cache, and scales every timing by how
//! much slower than [`REFERENCE_US`] the probe ran in the same window of
//! the run. Through slow and calm stretches of one run the ratio of an
//! operation's time to the matching part of the probe stays within a
//! few percent while raw times swing by 40 to 60 %.

use crate::stats::{self, window, Sample, WINDOWS};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The probe's median time on the reference host, an otherwise idle
/// two-core 2.1 GHz VM with a 2 MiB L2 cache per core: timings are
/// reported as if measured there.
pub const REFERENCE_US: f64 = 175.0;

/// Closed loops time the probe at most this often.
const EVERY: Duration = Duration::from_millis(25);

/// Words of the integer part's buffer: 64 KiB, which one untimed pass
/// brings into the L2 cache, so that part does not depend on what the
/// workload left in the caches.
const WORDS: usize = 1 << 13;

/// Steps of the integer part.
const STEPS: u32 = 40_000;

/// Entries of the read chain: 8 MiB of `u32`, a single random cycle.
const CHAIN: usize = 1 << 21;

/// Dependent reads per probe.
const READS: u32 = 600;

/// Bytes of the read chain, which every run holds once; `peak_rss_mb`
/// leaves them out.
pub const CHAIN_BYTES: usize = CHAIN * 4;

/// The read chain, built once per process: `chain[i]` is the next index,
/// and following it visits every entry (Sattolo's shuffle).
fn chain() -> &'static [u32] {
    static CHAIN_BUF: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN_BUF.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHAIN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHAIN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// The probe and the times it has measured.
pub struct Probe {
    origin: Instant,
    buf: Vec<u64>,
    state: u64,
    at: u32,
    last: Option<Instant>,
    speed: Speed,
}

impl Probe {
    /// A probe whose sample times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            buf: vec![1; WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            at: 0,
            last: None,
            speed: Speed::default(),
        }
    }

    /// Runs the probe once and returns its time in microseconds.
    pub fn measure(&mut self) -> f64 {
        let chain = chain();
        std::hint::black_box(self.buf.iter().fold(0u64, |a, &w| a ^ w));
        let t = Instant::now();
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WORDS as u64) as usize;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        let mut at = self.at;
        for _ in 0..READS {
            at = chain[at as usize];
        }
        self.state = std::hint::black_box(x);
        self.at = std::hint::black_box(at);
        std::hint::black_box(&self.buf);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let since = t.saturating_duration_since(self.origin).as_secs_f64();
        self.speed.samples.push((since, us));
        self.last = Some(t);
        us
    }

    /// Runs the probe if [`EVERY`] has passed since it last ran.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.measure();
        }
    }

    /// The times measured so far.
    pub fn into_speed(self) -> Speed {
        self.speed
    }
}

/// Probe times of a run: `(seconds into the phase, microseconds)`.
#[derive(Clone, Debug, Default)]
pub struct Speed {
    samples: Vec<(f64, f64)>,
}

impl Speed {
    /// Joins the probe times of several threads.
    pub fn merge(parts: impl IntoIterator<Item = Speed>) -> Speed {
        Speed {
            samples: parts.into_iter().flat_map(|s| s.samples).collect(),
        }
    }

    /// Reference-speed time per measured time, for each of the
    /// [`WINDOWS`] windows of a `span`-second phase: [`REFERENCE_US`] over
    /// the window's median probe time, or over the whole phase's median
    /// where the window has no probe.
    pub fn factors(&self, span: f64) -> [f64; WINDOWS] {
        let all = self.overall();
        let mut out = [all; WINDOWS];
        for (w, f) in out.iter_mut().enumerate() {
            let us: Vec<f64> = self
                .samples
                .iter()
                .filter(|&&(t, _)| window(t, span) == w)
                .map(|&(_, us)| us)
                .collect();
            if let Some(m) = stats::median(&us) {
                *f = REFERENCE_US / m;
            }
        }
        out
    }

    /// The factor over the whole phase.
    pub fn overall(&self) -> f64 {
        let us: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        stats::median(&us).map_or(1.0, |m| REFERENCE_US / m)
    }

    /// Scales each sample's latency to reference speed.
    pub fn normalize(&self, samples: &mut [Sample], span: f64) {
        let f = self.factors(span);
        for s in samples {
            s.ms *= f[window(s.at, span)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_the_window() {
        let r = REFERENCE_US;
        let speed = Speed {
            samples: vec![
                (0.5, r),
                (0.6, r),
                (5.5, 2.0 * r),
                (5.6, 2.0 * r),
                (5.7, 2.0 * r),
            ],
        };
        let f = speed.factors(10.0);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[5], 0.5);
        // a window without probes falls back to the phase's median
        assert_eq!(f[8], 0.5);
        let mut samples = [Sample {
            class: 0,
            at: 5.2,
            ms: 10.0,
        }];
        speed.normalize(&mut samples, 10.0);
        assert_eq!(samples[0].ms, 5.0);
        let mut p = Probe::new(Instant::now());
        assert!(p.measure() > 0.0);
        p.tick();
        assert_eq!(p.into_speed().samples.len(), 1);
    }

    #[test]
    fn the_read_chain_is_one_cycle() {
        let c = chain();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN);
    }
}
