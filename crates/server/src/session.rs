//! Session table for `place-incremental`: server-held elastic
//! [`Session`]s.
//!
//! Each wire session owns one [`hgp_core::Session`] — the transactional
//! mutation + warm re-solve layer. The core API validates whole batches
//! up front and returns typed [`MutationError`]s, so a hostile wire can
//! never drive the placer into a panic: invalid requests turn into `err`
//! replies with the right code (`not-found` for dead task ids,
//! `machine-too-large` for runaway growth, `bad-request` otherwise).

use crate::protocol::{ErrCode, IncrOp, WireError};
use hgp_core::{ChurnBudget, MutationError, ReplaceOptions, Session};
use hgp_hierarchy::Hierarchy;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What applying one wire operation did — the reply body plus the facts
/// the metrics layer records (kept out of the reply body, so the event
/// loop updates the counters in one place).
#[derive(Debug)]
pub struct ApplyOutcome {
    /// The `ok …` reply body.
    pub reply: String,
    /// Mutations committed through the transactional API by this op.
    pub mutations: u64,
    /// Placement moves this op incurred (arrivals, relocations,
    /// evacuations, resolve commits).
    pub moves: u64,
    /// `true` iff this op was a resolve that reused the cached
    /// distribution.
    pub warm_solve: bool,
}

impl ApplyOutcome {
    fn reply_only(reply: String) -> Self {
        Self {
            reply,
            mutations: 0,
            moves: 0,
            warm_solve: false,
        }
    }
}

/// Maps a typed core rejection to its wire class: dead ids are
/// `not-found`, runaway growth is `machine-too-large`, everything else —
/// malformed demands, weights, multipliers, degenerate drains — is a
/// plain `bad-request`.
fn wire_err(e: MutationError) -> WireError {
    let code = match &e {
        MutationError::UnknownTask { .. }
        | MutationError::UnknownNeighbour { .. }
        | MutationError::UnknownLeaf { .. }
        | MutationError::UnknownLevel { .. } => ErrCode::NotFound,
        MutationError::MachineTooLarge { .. } => ErrCode::MachineTooLarge,
        _ => ErrCode::BadRequest,
    };
    WireError::new(code, e.to_string())
}

/// All open sessions, keyed by server-assigned id.
pub struct SessionTable {
    sessions: Mutex<HashMap<u64, Session>>,
    next_id: AtomicU64,
    max_sessions: usize,
}

impl SessionTable {
    /// An empty table admitting at most `max_sessions` concurrent sessions.
    pub fn new(max_sessions: usize) -> Self {
        Self {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Sessions currently open.
    pub fn open_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Applies one operation; the outcome carries the `ok …` reply body
    /// plus the session-metric facts.
    pub fn apply(&self, op: IncrOp) -> Result<ApplyOutcome, WireError> {
        match op {
            IncrOp::New { machine } => self.open(machine),
            IncrOp::Mutate { session, ops } => self.with_session(session, |s| {
                let delta = s.apply(&ops).map_err(wire_err)?;
                let added = if delta.added.is_empty() {
                    "-".to_string()
                } else {
                    delta
                        .added
                        .iter()
                        .map(|id| id.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                Ok(ApplyOutcome {
                    reply: format!(
                        "applied={} added={} moves={} cost={} max-load={} leaves={}",
                        delta.applied, added, delta.moves, delta.cost, delta.max_load, delta.leaves
                    ),
                    mutations: delta.applied as u64,
                    moves: delta.moves,
                    warm_solve: false,
                })
            }),
            IncrOp::Resolve {
                session,
                budget,
                ratio,
                cold,
            } => self.with_session(session, |s| {
                let mut b = ChurnBudget::default();
                if let Some(m) = budget {
                    b.max_moves = m;
                }
                if let Some(r) = ratio {
                    b.max_cost_ratio = r;
                }
                let opts = ReplaceOptions::builder().budget(b).cold(cold).build();
                let rep = s.resolve(&opts);
                Ok(ApplyOutcome {
                    reply: format!(
                        "cost={} moves={} churn={} warm={} max-load={} active={}",
                        rep.cost, rep.moves, rep.churn, rep.warm as u8, rep.max_load, rep.active
                    ),
                    mutations: 0,
                    moves: rep.moves as u64,
                    warm_solve: rep.warm,
                })
            }),
            IncrOp::Info { session } => self.with_session(session, |s| {
                Ok(ApplyOutcome::reply_only(format!(
                    "active={} cost={} max-load={} churn={}",
                    s.num_active(),
                    s.cost(),
                    s.max_load(),
                    s.churn()
                )))
            }),
            IncrOp::End { session } => match self.sessions.lock().remove(&session) {
                Some(s) => Ok(ApplyOutcome::reply_only(format!(
                    "session={} active={} churn={}",
                    session,
                    s.num_active(),
                    s.churn()
                ))),
                None => Err(WireError::new(
                    ErrCode::NotFound,
                    format!("no session {session}"),
                )),
            },
        }
    }

    fn open(&self, machine: Hierarchy) -> Result<ApplyOutcome, WireError> {
        let mut map = self.sessions.lock();
        if map.len() >= self.max_sessions {
            return Err(WireError::new(
                ErrCode::Overloaded,
                format!("session limit {} reached", self.max_sessions),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let leaves = machine.num_leaves();
        map.insert(id, Session::new(machine));
        Ok(ApplyOutcome::reply_only(format!(
            "session={id} leaves={leaves}"
        )))
    }

    fn with_session<F>(&self, id: u64, f: F) -> Result<ApplyOutcome, WireError>
    where
        F: FnOnce(&mut Session) -> Result<ApplyOutcome, WireError>,
    {
        let mut map = self.sessions.lock();
        let entry = map
            .get_mut(&id)
            .ok_or_else(|| WireError::new(ErrCode::NotFound, format!("no session {id}")))?;
        f(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_core::Mutation;
    use hgp_hierarchy::presets;

    fn open(t: &SessionTable) -> u64 {
        let out = t
            .apply(IncrOp::New {
                machine: presets::multicore(2, 2, 4.0, 1.0),
            })
            .unwrap();
        out.reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("session="))
            .unwrap()
            .parse()
            .unwrap()
    }

    fn mutate(t: &SessionTable, session: u64, op: Mutation) -> Result<ApplyOutcome, WireError> {
        t.apply(IncrOp::Mutate {
            session,
            ops: vec![op],
        })
    }

    #[test]
    fn session_lifecycle() {
        let t = SessionTable::new(8);
        let s = open(&t);
        assert_eq!(t.open_count(), 1);
        let add = |nbrs| Mutation::AddTask { demand: 0.5, nbrs };
        let r = mutate(&t, s, add(vec![])).unwrap();
        assert!(r.reply.contains("added=0"), "{}", r.reply);
        assert_eq!(r.mutations, 1);
        let r = mutate(&t, s, add(vec![(0, 3.0)])).unwrap();
        assert!(r.reply.contains("added=1"), "{}", r.reply);
        mutate(&t, s, Mutation::RemoveTask { task: 0 }).unwrap();
        t.apply(IncrOp::End { session: s }).unwrap();
        assert_eq!(t.open_count(), 0);
    }

    #[test]
    fn invalid_operations_become_errors_not_panics() {
        let t = SessionTable::new(8);
        let s = open(&t);
        let add = |nbrs| Mutation::AddTask { demand: 0.5, nbrs };
        mutate(&t, s, add(vec![])).unwrap();
        mutate(&t, s, Mutation::RemoveTask { task: 0 }).unwrap();
        // edges to a removed task
        let e = mutate(&t, s, add(vec![(0, 1.0)])).unwrap_err();
        assert_eq!(e.code, ErrCode::NotFound);
        // double remove
        let e = mutate(&t, s, Mutation::RemoveTask { task: 0 }).unwrap_err();
        assert_eq!(e.code, ErrCode::NotFound);
        // resize of a task that never existed
        let resize = Mutation::UpdateDemand {
            task: 99,
            demand: 0.5,
        };
        let e = mutate(&t, s, resize).unwrap_err();
        assert_eq!(e.code, ErrCode::NotFound);
        // unknown session
        let e = t.apply(IncrOp::Info { session: 999 }).unwrap_err();
        assert_eq!(e.code, ErrCode::NotFound);
    }

    #[test]
    fn session_limit_is_enforced() {
        let t = SessionTable::new(1);
        let _s = open(&t);
        let e = t
            .apply(IncrOp::New {
                machine: presets::multicore(2, 2, 4.0, 1.0),
            })
            .unwrap_err();
        assert_eq!(e.code, ErrCode::Overloaded);
    }

    #[test]
    fn mutate_batch_is_atomic_on_the_wire_path() {
        let t = SessionTable::new(8);
        let s = open(&t);
        let r = t
            .apply(IncrOp::Mutate {
                session: s,
                ops: vec![
                    Mutation::AddTask {
                        demand: 0.4,
                        nbrs: vec![],
                    },
                    Mutation::AddTask {
                        demand: 0.4,
                        nbrs: vec![(0, 2.0)],
                    },
                ],
            })
            .unwrap();
        assert!(r.reply.contains("applied=2"), "{}", r.reply);
        assert!(r.reply.contains("added=0,1"), "{}", r.reply);
        assert_eq!(r.mutations, 2);
        // a batch with one bad op applies nothing
        let e = t
            .apply(IncrOp::Mutate {
                session: s,
                ops: vec![
                    Mutation::AddTask {
                        demand: 0.4,
                        nbrs: vec![],
                    },
                    Mutation::RemoveTask { task: 77 },
                ],
            })
            .unwrap_err();
        assert_eq!(e.code, ErrCode::NotFound);
        let info = t.apply(IncrOp::Info { session: s }).unwrap();
        assert!(info.reply.contains("active=2"), "{}", info.reply);
        // runaway growth maps to machine-too-large
        let e = t
            .apply(IncrOp::Mutate {
                session: s,
                ops: vec![Mutation::AddLeaves { groups: usize::MAX }],
            })
            .unwrap_err();
        assert_eq!(e.code, ErrCode::MachineTooLarge);
    }

    #[test]
    fn resolve_reports_moves_churn_and_warmth() {
        let t = SessionTable::new(8);
        let s = open(&t);
        t.apply(IncrOp::Mutate {
            session: s,
            ops: vec![
                Mutation::AddTask {
                    demand: 0.4,
                    nbrs: vec![],
                },
                Mutation::AddTask {
                    demand: 0.4,
                    nbrs: vec![(0, 1.0)],
                },
                Mutation::AddTask {
                    demand: 0.4,
                    nbrs: vec![(1, 1.0)],
                },
                Mutation::AddTask {
                    demand: 0.4,
                    nbrs: vec![(2, 1.0)],
                },
            ],
        })
        .unwrap();
        let cold = t
            .apply(IncrOp::Resolve {
                session: s,
                budget: None,
                ratio: None,
                cold: false,
            })
            .unwrap();
        assert!(cold.reply.contains("warm=0"), "{}", cold.reply);
        assert!(!cold.warm_solve);
        // a demand edit keeps the cache warm
        let resize = Mutation::UpdateDemand {
            task: 0,
            demand: 0.5,
        };
        mutate(&t, s, resize).unwrap();
        let warm = t
            .apply(IncrOp::Resolve {
                session: s,
                budget: Some(2),
                ratio: None,
                cold: false,
            })
            .unwrap();
        assert!(warm.reply.contains("warm=1"), "{}", warm.reply);
        assert!(warm.warm_solve);
        assert!(warm.moves <= 2, "budget exceeded: {}", warm.moves);
    }
}
