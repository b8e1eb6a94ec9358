//! Open-loop request schedules for load-testing `hgp-server`.
//!
//! The closed-loop scripts in [`crate::requests`] measure a server the
//! way a patient client sees it: send, wait, send. Under that regime a
//! slow server silently throttles its own load, which hides queueing
//! collapse. An *open-loop* schedule instead fixes arrival times up
//! front — requests land at the target rate whether or not earlier
//! replies have returned — so tail latency under saturation is
//! observable instead of averaged away.
//!
//! [`open_loop_schedule`] draws Poisson arrivals (exponential
//! inter-arrival gaps) at a target requests-per-second rate and assigns
//! each arrival one of four traffic kinds:
//!
//! * **hit** — revisits one of a small pool of warm topologies, so the
//!   server's decomposition cache answers `cache=hit`;
//! * **twin** — a demand-perturbed twin of a warm topology (identical
//!   structure, different demand): an exact-key miss, so the server
//!   builds it cold (`cache=miss`);
//! * **miss** — a topology seed never used elsewhere in the schedule:
//!   a guaranteed cold build;
//! * **coalesce** — a *burst* of identical cold requests injected at
//!   one instant, the shape that single-flight coalescing dedups
//!   (`cache=shared` on the followers).
//!
//! Schedules are deterministic given the seed: the same `(seed, opts)`
//! pair yields byte-identical lines and microsecond-identical arrival
//! times, so A/B arms of a benchmark replay *exactly* the same load.
//! Run [`warm_lines`] through the server first (closed-loop) to prime
//! the cache; otherwise the hit fraction degrades to misses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a scheduled request is designed to exercise on the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficKind {
    /// Exact decomposition-cache hit (warm topology revisit).
    Hit,
    /// Demand-perturbed twin of a warm topology (an exact-key miss).
    Twin,
    /// Guaranteed cold build (unique topology seed).
    Miss,
    /// Burst of identical cold requests that should coalesce onto one
    /// in-flight build.
    Coalesce,
}

/// One entry of an open-loop schedule.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from schedule start at which to inject the request.
    pub at_us: u64,
    /// What this request is designed to exercise.
    pub kind: TrafficKind,
    /// The wire-protocol request line (no trailing newline).
    pub line: String,
}

/// Knobs for [`open_loop_schedule`].
#[derive(Clone, Debug)]
pub struct OpenLoopOpts {
    /// Total requests in the schedule (burst members each count as one).
    pub requests: usize,
    /// Target arrival rate, requests per second.
    pub rps: f64,
    /// Fraction of arrivals revisiting a warm topology (`cache=hit`).
    pub hit_frac: f64,
    /// Fraction of arrivals sent as demand-perturbed twins.
    pub twin_frac: f64,
    /// Fraction of arrivals belonging to coalescible bursts.
    pub coalesce_frac: f64,
    /// Identical requests per coalescible burst (all injected at the
    /// same instant).
    pub coalesce_burst: usize,
    /// Distinct warm topologies backing the hit/twin fractions.
    pub warm_topologies: usize,
    /// Machine descriptor sent with every request.
    pub machine: String,
}

impl Default for OpenLoopOpts {
    fn default() -> Self {
        Self {
            requests: 400,
            rps: 800.0,
            hit_frac: 0.55,
            twin_frac: 0.15,
            coalesce_frac: 0.10,
            coalesce_burst: 8,
            warm_topologies: 4,
            machine: "2x2:4,1,0".to_string(),
        }
    }
}

/// Warm-topology generator seeds are drawn from a range disjoint from
/// the per-schedule miss/coalesce seeds, so a "cold" request can never
/// accidentally alias a warm fingerprint.
fn warm_seed(topo: usize) -> u64 {
    1_000 + topo as u64
}

fn solve_line(machine: &str, topo_seed: u64, demand: f64) -> String {
    format!(
        "solve graph=gen:clustered:2x4:{topo_seed} machine={machine} \
         demand={demand:.3} trees=4 seed=100"
    )
}

/// Coalescible bursts use a deliberately heavy cold build (a 16×16 mesh
/// rather than the small clustered graphs): the build must span the
/// burst's arrival window, or followers find the value already cached
/// and the burst degenerates into ordinary hits.
fn burst_line(machine: &str, weight_seed: u64) -> String {
    format!(
        "solve graph=gen:mesh:16x16:{weight_seed} machine={machine} \
         demand=0.010 trees=4 seed=100"
    )
}

/// The closed-loop priming lines: one cold solve per warm topology.
///
/// Play these through the server (send, await reply, repeat) before
/// starting the clock on the open-loop schedule; they populate the
/// decomposition cache so the schedule's hit fraction behaves as
/// labelled.
pub fn warm_lines(opts: &OpenLoopOpts) -> Vec<String> {
    (0..opts.warm_topologies.max(1))
        .map(|t| solve_line(&opts.machine, warm_seed(t), 0.3))
        .collect()
}

/// Builds a deterministic open-loop schedule (see module docs).
///
/// Arrivals are sorted by `at_us`; members of one coalescible burst
/// share a single `at_us` and byte-identical lines. The schedule length
/// is exactly `opts.requests` (the final burst is truncated if the
/// request budget runs out mid-burst).
pub fn open_loop_schedule(seed: u64, opts: &OpenLoopOpts) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let warm = opts.warm_topologies.max(1);
    let rps = if opts.rps > 0.0 { opts.rps } else { 1.0 };
    let burst = opts.coalesce_burst.max(2);
    // The fractions are *request*-level, but a burst draw contributes
    // `burst` requests at once. Convert `coalesce_frac` into the
    // per-draw burst probability q solving qB / (qB + 1 - q) = c, and
    // renormalise the single-request kinds over the remaining mass.
    let c = opts.coalesce_frac.clamp(0.0, 0.9);
    let q = c / (burst as f64 - c * (burst as f64 - 1.0));
    let hit_cut = opts.hit_frac / (1.0 - c);
    let twin_cut = hit_cut + opts.twin_frac / (1.0 - c);
    // Cold seeds: unique per schedule position, disjoint from warm_seed.
    let mut next_cold = (1u64 << 32) | (seed << 8);
    let mut arrivals = Vec::with_capacity(opts.requests);
    let mut clock_us = 0f64;

    while arrivals.len() < opts.requests {
        // exponential inter-arrival gap at the target rate
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        clock_us += -u.ln() / rps * 1e6;
        let at_us = clock_us as u64;

        if rng.gen::<f64>() < q {
            // one burst of identical cold requests at one instant
            next_cold += 1;
            let line = burst_line(&opts.machine, next_cold);
            for _ in 0..burst.min(opts.requests - arrivals.len()) {
                arrivals.push(Arrival {
                    at_us,
                    kind: TrafficKind::Coalesce,
                    line: line.clone(),
                });
            }
            continue;
        }
        let roll: f64 = rng.gen();
        if roll < hit_cut {
            let topo = rng.gen_range(0..warm);
            arrivals.push(Arrival {
                at_us,
                kind: TrafficKind::Hit,
                line: solve_line(&opts.machine, warm_seed(topo), 0.3),
            });
        } else if roll < twin_cut {
            // same structure as a warm topology, perturbed demand: an
            // exact-key miss
            let topo = rng.gen_range(0..warm);
            let demand = 0.2 + 0.01 * rng.gen_range(1..10) as f64;
            arrivals.push(Arrival {
                at_us,
                kind: TrafficKind::Twin,
                line: solve_line(&opts.machine, warm_seed(topo), demand),
            });
        } else {
            next_cold += 1;
            arrivals.push(Arrival {
                at_us,
                kind: TrafficKind::Miss,
                line: solve_line(&opts.machine, next_cold, 0.3),
            });
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let opts = OpenLoopOpts::default();
        let a = open_loop_schedule(9, &opts);
        let b = open_loop_schedule(9, &opts);
        assert_eq!(a.len(), opts.requests);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_us, y.at_us);
            assert_eq!(x.line, y.line);
            assert_eq!(x.kind, y.kind);
        }
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let c = open_loop_schedule(10, &opts);
        assert!(a.iter().zip(&c).any(|(x, y)| x.line != y.line));
    }

    #[test]
    fn mix_roughly_honours_fractions() {
        let opts = OpenLoopOpts {
            requests: 2_000,
            ..Default::default()
        };
        let sched = open_loop_schedule(3, &opts);
        let count = |k: TrafficKind| sched.iter().filter(|a| a.kind == k).count() as f64;
        let n = sched.len() as f64;
        assert!((count(TrafficKind::Hit) / n - opts.hit_frac).abs() < 0.15);
        assert!(count(TrafficKind::Twin) > 0.0);
        assert!(count(TrafficKind::Miss) > 0.0);
        assert!(count(TrafficKind::Coalesce) > 0.0);
    }

    #[test]
    fn arrival_rate_tracks_target_rps() {
        let opts = OpenLoopOpts {
            requests: 1_000,
            rps: 500.0,
            coalesce_frac: 0.0, // bursts distort the per-arrival rate
            ..Default::default()
        };
        let sched = open_loop_schedule(5, &opts);
        let span_s = sched.last().unwrap().at_us as f64 / 1e6;
        let achieved = sched.len() as f64 / span_s;
        assert!(
            (achieved / opts.rps - 1.0).abs() < 0.2,
            "target {} rps, schedule implies {:.0} rps",
            opts.rps,
            achieved
        );
    }

    #[test]
    fn coalesce_bursts_are_identical_and_simultaneous() {
        let opts = OpenLoopOpts {
            requests: 600,
            coalesce_frac: 0.3,
            coalesce_burst: 6,
            ..Default::default()
        };
        let sched = open_loop_schedule(7, &opts);
        // group burst members by line: each burst is byte-identical,
        // simultaneous, and distinct bursts never alias each other
        let mut bursts: Vec<(&str, u64, usize)> = Vec::new();
        for a in sched.iter().filter(|a| a.kind == TrafficKind::Coalesce) {
            match bursts.iter_mut().find(|(line, _, _)| *line == a.line) {
                Some((_, at, n)) => {
                    assert_eq!(*at, a.at_us, "burst must be simultaneous");
                    *n += 1;
                }
                None => bursts.push((a.line.as_str(), a.at_us, 1)),
            }
        }
        assert!(bursts.len() >= 2, "schedule produced too few bursts");
        let full = bursts.iter().filter(|(_, _, n)| *n >= 2).count();
        assert!(
            full >= bursts.len() - 1,
            "bursts must have at least two members (final burst may be \
             truncated by the request budget): {bursts:?}"
        );
    }

    #[test]
    fn cold_seeds_never_alias_warm_topologies() {
        let opts = OpenLoopOpts::default();
        let warm = warm_lines(&opts);
        let sched = open_loop_schedule(11, &opts);
        for a in sched
            .iter()
            .filter(|a| matches!(a.kind, TrafficKind::Miss | TrafficKind::Coalesce))
        {
            assert!(
                !warm.iter().any(|w| *w == a.line),
                "cold request aliases a warm line: {}",
                a.line
            );
        }
        // hit lines are exactly warm lines
        for a in sched.iter().filter(|a| a.kind == TrafficKind::Hit) {
            assert!(
                warm.contains(&a.line),
                "hit line not in warm set: {}",
                a.line
            );
        }
    }
}
