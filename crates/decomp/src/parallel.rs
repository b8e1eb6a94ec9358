//! Deterministic data parallelism for the embarrassingly-parallel pipeline
//! stages.
//!
//! Both tree sampling ([`crate::racke_distribution_par`]) and the per-tree
//! DP fan-out in `hgp-core` need the same shape of concurrency: `n`
//! independent jobs, any number of workers, and an output that is
//! *bit-identical* regardless of how many workers ran. [`par_map_indexed`]
//! provides it: jobs are claimed from an atomic counter (work stealing),
//! each result lands in its own pre-reserved slot, and the caller receives
//! a `Vec` in job-index order — so thread scheduling can change *when* a
//! job runs but never *what* the caller observes.
//!
//! The [`Parallelism`] knob travels with this module because `hgp-decomp`
//! is the lowest crate on the solve path that spawns threads; `hgp-core`,
//! `hgp-server`, and the CLI all re-use (and re-export) it rather than
//! growing their own thread-count conventions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a parallel pipeline stage may use.
///
/// The default is [`Parallelism::Auto`] — one worker per available core.
/// [`Parallelism::serial`] (or `Fixed(1)`) runs everything on the calling
/// thread with no scope spawned at all, which is the reference path the
/// determinism tests compare against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker per available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Exactly this many workers; `Fixed(1)` is fully serial. `Fixed(0)`
    /// is normalised to one worker rather than rejected, so a zero coming
    /// off a wire or CLI flag cannot wedge a solve.
    Fixed(usize),
}

impl Parallelism {
    /// The conventional CLI/wire encoding: `0` = auto, `n >= 1` = fixed.
    pub fn from_threads(threads: usize) -> Self {
        if threads == 0 {
            Parallelism::Auto
        } else {
            Parallelism::Fixed(threads)
        }
    }

    /// The fully serial configuration (`Fixed(1)`).
    pub fn serial() -> Self {
        Parallelism::Fixed(1)
    }

    /// `true` when no worker scope will be spawned (one worker).
    pub fn is_serial(&self) -> bool {
        matches!(self, Parallelism::Fixed(0) | Parallelism::Fixed(1))
    }

    /// Number of workers to actually spawn for `jobs` independent jobs:
    /// the configured width, clamped to `[1, jobs]` (never more threads
    /// than jobs, never zero).
    pub fn workers(&self, jobs: usize) -> usize {
        let width = match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => *n,
        };
        width.clamp(1, jobs.max(1))
    }
}

/// Maps `f` over `0..n` with the given parallelism, returning results in
/// index order.
///
/// Determinism contract: `f(i)` must depend only on `i` (plus captured
/// immutable state) — under that contract the returned `Vec` is identical
/// for every [`Parallelism`] setting, because each slot `i` holds exactly
/// `f(i)` regardless of which worker computed it or when.
///
/// With one worker this runs inline on the caller's thread (no scope, no
/// locks). With more, workers claim indices from a shared atomic counter,
/// so an expensive job at index 3 does not stall jobs 4..n.
///
/// # Panics
/// A panic in `f` re-raises on the caller with its **original payload**
/// once all workers have joined — never a secondary mutex-poisoning or
/// join-error panic that would mask it. The solver layers' `catch_unwind`
/// boundaries rely on this to convert worker faults into their typed
/// `HgpError::Internal` taxonomy instead of an opaque "poisoned lock".
/// Callers that need per-job fault isolation catch inside `f` — see
/// `Solve::run_on` in `hgp-core`.
pub fn par_map_indexed<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.workers(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let fault: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let joined = crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // catch the job's panic here so its payload survives the
                // join (std scoped threads re-panic with an opaque payload)
                // and sibling mutex locks cannot be poisoned by it
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(value) => {
                        let mut guard = slots.lock().unwrap_or_else(|p| p.into_inner());
                        guard[i] = Some(value);
                    }
                    Err(payload) => {
                        let mut slot = fault.lock().unwrap_or_else(|p| p.into_inner());
                        slot.get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });
    if let Err(payload) = joined {
        std::panic::resume_unwind(payload);
    }
    if let Some(payload) = fault.into_inner().unwrap_or_else(|p| p.into_inner()) {
        // re-raise the first worker fault with its own payload so upstream
        // catch_unwind boundaries see the real error, not a join artefact
        std::panic::resume_unwind(payload);
    }
    slots
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|v| v.expect("worker left a job slot empty"))
        .collect()
}

/// [`par_map_indexed`] for jobs that reuse a per-worker scratch arena:
/// maps `f` over `0..n`, handing each worker exclusive `&mut` access to
/// one element of `scratches`, and returns results in index order.
///
/// Determinism contract: in addition to the [`par_map_indexed`] contract,
/// `f(i, scratch)` must produce a result independent of the scratch's
/// incoming state (a scratch is an *allocation* cache, never a *value*
/// cache). Under that contract the output is bit-identical for every
/// [`Parallelism`] — which worker's arena a job lands on can change, but
/// never what the job returns.
///
/// With one worker this runs inline on the caller's thread using
/// `scratches[0]` only.
///
/// # Panics
/// Panics if `scratches` has fewer than [`Parallelism::workers`] elements
/// (or is empty with `n > 0`). Worker panics re-raise with their original
/// payload, exactly like [`par_map_indexed`].
pub(crate) fn par_map_indexed_scratch<T, S, F>(
    par: Parallelism,
    n: usize,
    scratches: &mut [S],
    f: F,
) -> Vec<T>
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = par.workers(n);
    assert!(
        scratches.len() >= workers.min(n).max(1),
        "need {} scratch arenas, got {}",
        workers.min(n).max(1),
        scratches.len()
    );
    if workers <= 1 || n <= 1 {
        let s = &mut scratches[0];
        return (0..n).map(|i| f(i, s)).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let fault: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let joined = crossbeam::scope(|scope| {
        for s in scratches.iter_mut().take(workers) {
            scope.spawn(|_| {
                let s = s; // move the &mut into this worker
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, s))) {
                        Ok(value) => {
                            let mut guard = slots.lock().unwrap_or_else(|p| p.into_inner());
                            guard[i] = Some(value);
                        }
                        Err(payload) => {
                            let mut slot = fault.lock().unwrap_or_else(|p| p.into_inner());
                            slot.get_or_insert(payload);
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Err(payload) = joined {
        std::panic::resume_unwind(payload);
    }
    if let Some(payload) = fault.into_inner().unwrap_or_else(|p| p.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .map(|v| v.expect("worker left a job slot empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_encoding_round_trips() {
        assert_eq!(Parallelism::from_threads(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_threads(1), Parallelism::serial());
        assert_eq!(Parallelism::from_threads(4), Parallelism::Fixed(4));
        assert!(Parallelism::Fixed(1).is_serial());
        assert!(Parallelism::Fixed(0).is_serial());
        assert!(!Parallelism::Fixed(2).is_serial());
    }

    #[test]
    fn workers_clamp_to_jobs_and_one() {
        assert_eq!(Parallelism::Fixed(8).workers(3), 3);
        assert_eq!(Parallelism::Fixed(0).workers(3), 1);
        assert_eq!(Parallelism::Fixed(2).workers(0), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
    }

    #[test]
    fn map_preserves_index_order() {
        for par in [
            Parallelism::serial(),
            Parallelism::Fixed(3),
            Parallelism::Auto,
        ] {
            let out = par_map_indexed(par, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<usize> = par_map_indexed(Parallelism::Fixed(4), 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Parallelism::Fixed(4), 1, |i| i + 10), [10]);
    }

    #[test]
    fn scratch_map_matches_plain_map_at_every_width() {
        // a scratch buffer reused across jobs must never leak one job's
        // state into another's result
        let f = |i: usize, buf: &mut Vec<u64>| {
            buf.clear();
            buf.extend((0..(i % 5 + 1) as u64).map(|b| (i as u64) * 31 + b));
            buf.iter().sum::<u64>()
        };
        let want: Vec<u64> = {
            let mut buf = Vec::new();
            (0..50).map(|i| f(i, &mut buf)).collect()
        };
        for width in [1usize, 2, 4, 7] {
            let mut scratches: Vec<Vec<u64>> = (0..width).map(|_| Vec::new()).collect();
            let got = par_map_indexed_scratch(Parallelism::Fixed(width), 50, &mut scratches, f);
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn worker_panic_payload_survives_the_fanout() {
        // the caller's catch_unwind must see the worker's own payload, not
        // a poisoned-mutex or join-error panic that masks it (this is what
        // lets hgp-core map worker faults into HgpError::Internal)
        for par in [Parallelism::serial(), Parallelism::Fixed(4)] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map_indexed(par, 16, |i| {
                    if i == 7 {
                        std::panic::panic_any("job 7 exploded".to_string());
                    }
                    i
                })
            }))
            .expect_err("fan-out should have panicked");
            let msg = caught
                .downcast_ref::<String>()
                .expect("payload type was not preserved");
            assert_eq!(msg, "job 7 exploded", "{par:?}");
        }
    }

    #[test]
    fn scratch_worker_panic_payload_survives_the_fanout() {
        let mut scratches = vec![0usize; 4];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_indexed_scratch(Parallelism::Fixed(4), 16, &mut scratches, |i, _s| {
                if i == 3 {
                    std::panic::panic_any(42usize);
                }
                i
            })
        }))
        .expect_err("fan-out should have panicked");
        assert_eq!(caught.downcast_ref::<usize>(), Some(&42));
    }

    #[test]
    fn parallel_matches_serial_on_nontrivial_work() {
        let f = |i: usize| {
            let mut h = 0xcbf29ce484222325u64;
            for b in 0..(i % 7 + 1) as u64 {
                h = (h ^ (i as u64 + b)).wrapping_mul(0x100000001b3);
            }
            h
        };
        let serial = par_map_indexed(Parallelism::serial(), 100, f);
        let par = par_map_indexed(Parallelism::Fixed(5), 100, f);
        assert_eq!(serial, par);
    }
}
