//! Single-flight coalescing for expensive keyed builds.
//!
//! N concurrent solves sharing a distribution fingerprint used to
//! trigger N redundant Räcke-distribution builds — exactly the
//! congestion-oblivious waste the paper's hierarchical decomposition
//! exists to avoid, replayed at the serving layer. A [`FlightGroup`]
//! deduplicates them: the first caller to [`FlightGroup::join`] a key
//! becomes the **leader** and runs the build; every concurrent caller
//! becomes a **follower** that parks until the leader publishes.
//!
//! # Determinism contract
//!
//! Followers may only reuse the leader's value when that value is a
//! pure function of the key. The distribution fingerprint covers every
//! input of the build (graph, weights, trees, seed, MWU knobs), so the
//! leader's build is bit-identical to the build each follower would have
//! performed — coalescing changes *when* work happens, never *what* the
//! answer is.
//!
//! # Panic safety
//!
//! The leader's [`LeaderGuard`] publishes on drop: if the leader
//! unwinds mid-build, followers are unparked with
//! [`FlightError::LeaderPanicked`] instead of hanging, and the key is
//! removed so the next request starts a fresh flight. This is what
//! turns a leader panic into N `err internal` replies rather than N
//! parked worker threads.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Why a follower's wait ended without a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightError {
    /// The leader's build returned an error (message preserved so the
    /// follower can reply exactly as the leader did).
    Failed(String),
    /// The leader panicked mid-build; the panic was caught at the
    /// worker isolation boundary and the flight was poisoned.
    LeaderPanicked,
}

enum FlightState<T> {
    Pending,
    Done(Result<T, FlightError>),
}

struct Flight<T> {
    state: Mutex<FlightState<T>>,
    cv: Condvar,
}

impl<T: Clone> Flight<T> {
    fn publish(&self, outcome: Result<T, FlightError>) {
        *self.state.lock() = FlightState::Done(outcome);
        self.cv.notify_all();
    }
}

/// The outcome of a follower's wait.
#[derive(Debug)]
pub enum FollowerOutcome<T> {
    /// The leader published this value.
    Ready(T),
    /// The leader published an error (or panicked).
    Err(FlightError),
    /// The caller's deadline expired before the leader published. The
    /// flight itself continues for the other followers.
    DeadlineExpired,
}

/// A parked follower's handle onto an in-flight build.
pub struct Follower<T> {
    flight: Arc<Flight<T>>,
}

impl<T: Clone> Follower<T> {
    /// Parks until the leader publishes or `deadline` passes.
    pub fn wait(self, deadline: Option<Instant>) -> FollowerOutcome<T> {
        let mut state = self.flight.state.lock();
        loop {
            match &*state {
                FlightState::Done(Ok(v)) => return FollowerOutcome::Ready(v.clone()),
                FlightState::Done(Err(e)) => return FollowerOutcome::Err(e.clone()),
                FlightState::Pending => match deadline {
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() || self.flight.cv.wait_for(&mut state, remaining) {
                            // re-check once: the publish may have raced
                            // the timeout
                            if let FlightState::Done(outcome) = &*state {
                                return match outcome {
                                    Ok(v) => FollowerOutcome::Ready(v.clone()),
                                    Err(e) => FollowerOutcome::Err(e.clone()),
                                };
                            }
                            return FollowerOutcome::DeadlineExpired;
                        }
                    }
                    None => self.flight.cv.wait(&mut state),
                },
            }
        }
    }
}

/// The leader's obligation to publish. Dropping the guard without
/// calling [`LeaderGuard::publish`] — i.e. unwinding — poisons the
/// flight with [`FlightError::LeaderPanicked`] so followers never hang.
pub struct LeaderGuard<'g, T: Clone> {
    group: &'g FlightGroup<T>,
    key: u64,
    flight: Arc<Flight<T>>,
    published: bool,
}

impl<T: Clone> LeaderGuard<'_, T> {
    /// Publishes the build outcome to every follower and retires the
    /// key (later joiners start a fresh flight — on success they will
    /// find the value in the cache instead).
    pub fn publish(mut self, outcome: Result<T, String>) {
        self.published = true;
        self.group.retire(self.key);
        self.flight
            .publish(outcome.map_err(FlightError::Failed).map_err(|e| match e {
                FlightError::Failed(m) => FlightError::Failed(m),
                other => other,
            }));
    }
}

impl<T: Clone> Drop for LeaderGuard<'_, T> {
    fn drop(&mut self) {
        if !self.published {
            self.group.retire(self.key);
            self.flight.publish(Err(FlightError::LeaderPanicked));
        }
    }
}

/// How [`FlightGroup::join`] admitted the caller.
pub enum Ticket<'g, T: Clone> {
    /// First in: run the build, then [`LeaderGuard::publish`].
    Leader(LeaderGuard<'g, T>),
    /// A build for this key is already running: park on it.
    Follower(Follower<T>),
}

/// Deduplicates concurrent builds by key (one leader, N followers).
pub struct FlightGroup<T> {
    inflight: Mutex<HashMap<u64, Arc<Flight<T>>>>,
}

impl<T: Clone> Default for FlightGroup<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> FlightGroup<T> {
    /// An empty group.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`: the first concurrent caller leads,
    /// the rest follow.
    pub fn join(&self, key: u64) -> Ticket<'_, T> {
        let mut map = self.inflight.lock();
        if let Some(flight) = map.get(&key) {
            return Ticket::Follower(Follower {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        map.insert(key, Arc::clone(&flight));
        Ticket::Leader(LeaderGuard {
            group: self,
            key,
            flight,
            published: false,
        })
    }

    /// Keys currently in flight (diagnostics only).
    pub fn len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn retire(&self, key: u64) {
        self.inflight.lock().remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn single_caller_leads_and_key_retires_after_publish() {
        let g: FlightGroup<u32> = FlightGroup::new();
        let Ticket::Leader(guard) = g.join(7) else {
            panic!("first caller must lead");
        };
        assert_eq!(g.len(), 1);
        guard.publish(Ok(42));
        assert!(g.is_empty(), "published key must retire");
        // a later join starts fresh (leader again), not a stale follower
        assert!(matches!(g.join(7), Ticket::Leader(_)));
    }

    #[test]
    fn followers_share_one_build() {
        const FOLLOWERS: usize = 8;
        let g: Arc<FlightGroup<u64>> = Arc::new(FlightGroup::new());
        let builds = Arc::new(AtomicU64::new(0));
        let results: Vec<u64> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..=FOLLOWERS {
                let g = Arc::clone(&g);
                let builds = Arc::clone(&builds);
                handles.push(s.spawn(move || match g.join(1) {
                    Ticket::Leader(guard) => {
                        // slow build so every other thread parks
                        std::thread::sleep(Duration::from_millis(100));
                        builds.fetch_add(1, Ordering::Relaxed);
                        guard.publish(Ok(1234));
                        1234u64
                    }
                    Ticket::Follower(f) => match f.wait(None) {
                        FollowerOutcome::Ready(v) => v,
                        other => panic!("follower got {other:?}"),
                    },
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        assert!(results.iter().all(|&v| v == 1234));
        assert!(g.is_empty());
    }

    #[test]
    fn leader_panic_unparks_followers_with_an_error() {
        let g: Arc<FlightGroup<u32>> = Arc::new(FlightGroup::new());
        std::thread::scope(|s| {
            let leader = {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    let Ticket::Leader(_guard) = g.join(3) else {
                        panic!("must lead");
                    };
                    std::thread::sleep(Duration::from_millis(80));
                    panic!("leader bug"); // guard drops unpublished
                })
            };
            // park several followers while the leader is "building"
            let followers: Vec<_> = (0..4)
                .map(|_| {
                    let g = Arc::clone(&g);
                    s.spawn(move || {
                        // retry until we observe the in-flight entry
                        loop {
                            match g.join(3) {
                                Ticket::Follower(f) => return f.wait(None),
                                Ticket::Leader(guard) => {
                                    // raced ahead of the leader thread:
                                    // back off and rejoin
                                    guard.publish(Err("not yet".into()));
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                            }
                        }
                    })
                })
                .collect();
            assert!(leader.join().is_err(), "leader must have panicked");
            for f in followers {
                match f.join().unwrap() {
                    FollowerOutcome::Err(FlightError::LeaderPanicked) => {}
                    FollowerOutcome::Err(FlightError::Failed(m)) => {
                        assert_eq!(m, "not yet", "unexpected failure {m:?}");
                    }
                    other => panic!("follower must see the panic, got {other:?}"),
                }
            }
        });
        assert!(g.is_empty(), "panicked flight must retire its key");
    }

    #[test]
    fn leader_failure_message_reaches_followers() {
        let g: FlightGroup<u32> = FlightGroup::new();
        let Ticket::Leader(guard) = g.join(9) else {
            panic!()
        };
        let Ticket::Follower(f) = g.join(9) else {
            panic!("second join must follow")
        };
        guard.publish(Err("decomposition failed: graph is disconnected".into()));
        match f.wait(None) {
            FollowerOutcome::Err(FlightError::Failed(m)) => {
                assert!(m.contains("disconnected"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn follower_deadline_expires_without_killing_the_flight() {
        let g: FlightGroup<u32> = FlightGroup::new();
        let Ticket::Leader(guard) = g.join(4) else {
            panic!()
        };
        let Ticket::Follower(expired) = g.join(4) else {
            panic!()
        };
        let outcome = expired.wait(Some(Instant::now() + Duration::from_millis(20)));
        assert!(matches!(outcome, FollowerOutcome::DeadlineExpired));
        // the flight is still live for patient followers
        let Ticket::Follower(patient) = g.join(4) else {
            panic!("flight must still be in-flight")
        };
        guard.publish(Ok(5));
        match patient.wait(None) {
            FollowerOutcome::Ready(v) => assert_eq!(v, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let g: FlightGroup<u32> = FlightGroup::new();
        let Ticket::Leader(a) = g.join(1) else {
            panic!()
        };
        let Ticket::Leader(b) = g.join(2) else {
            panic!("different key must get its own leader")
        };
        assert_eq!(g.len(), 2);
        a.publish(Ok(1));
        b.publish(Ok(2));
        assert!(g.is_empty());
    }
}
