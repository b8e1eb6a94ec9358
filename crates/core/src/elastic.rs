//! Elastic re-placement: transactional mutations and warm-started,
//! churn-budgeted re-solves for long-lived placements.
//!
//! A deployed placement outlives its solve. Operators add and remove
//! operators, demands drift, racks drain for maintenance, machines join,
//! level cost multipliers get re-calibrated. Applying such changes one at
//! a time has no batch atomicity (a half-applied reconfiguration is worse
//! than none), and a cold re-solve both wastes the expensive Räcke
//! distribution (Andersen–Feige, arXiv:0907.3631: it depends only on the
//! topology) and re-pins every task even when the operator can only
//! afford to move a few.
//!
//! [`Session`] fixes both:
//!
//! * [`Session::apply`] takes a batch of typed [`Mutation`]s, validates
//!   the *whole* batch against a simulated state, and applies it
//!   all-or-nothing. Arrivals are placed best-fit against the Equation-1
//!   cost, demand edits relocate a task only when its leaf overflows, and
//!   removals free capacity; hierarchy mutations — drain a leaf, add
//!   machine groups, re-scale a level multiplier, in the spirit of
//!   Makarychev–Makarychev's nonuniform partitioning (arXiv:1401.0699) —
//!   are first-class rather than "rebuild the instance".
//! * [`Session::resolve`] re-places under a [`ChurnBudget`]. It assembles
//!   a candidate set — the previous placement (zero moves), the best
//!   bounded prefix of a hierarchy-aware FM pass seeded from the previous
//!   placement ([`crate::fm`]), and the full pipeline's solution when its
//!   churn fits the budget — and commits the cheapest candidate within
//!   the budget's cost-ratio. Because the FM prefix set only widens and
//!   the candidate set only grows with `max_moves`, the committed cost is
//!   monotone non-increasing in the budget, and never worse than staying
//!   put.
//!
//! The warm start has two layers. The session caches the tree
//! distribution keyed by the *topology* fingerprint plus the
//! distribution-construction knobs: demand edits and hierarchy edits
//! leave both unchanged, so a re-solve skips the distribution stage
//! entirely and sweeps only the previously winning tree (weights — which
//! drive per-tree costs — were untouched, so the previous winner stays
//! the right tree to ask). Node-set edits change the topology fingerprint
//! and fall back to a cold build, which re-primes the cache. A warm sweep
//! therefore pays one single-tree arena DP (which reuses its prune and
//! radix scratch across folds, see `relaxed`) instead of a distribution
//! build plus an all-tree sweep. DESIGN.md §12 states the soundness
//! argument and the full invalidation matrix.

use crate::fingerprint::{topology_fingerprint, Fingerprinter};
use crate::fm;
use crate::solver::SolverOptions;
use crate::{Assignment, Instance, Solve};
use hgp_decomp::Distribution;
use hgp_graph::Graph;
use hgp_hierarchy::parse::MAX_PARSE_LEAVES;
use hgp_hierarchy::Hierarchy;
use std::fmt;

/// One typed placement mutation. Batches of these go through
/// [`Session::apply`]; the order within a batch is the application order,
/// and later mutations may reference task ids created by earlier
/// [`Mutation::AddTask`]s in the same batch (ids are assigned
/// deterministically in batch order).
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Add a task with edges to live tasks; placed best-fit on arrival.
    AddTask {
        /// Demand in `(0, 1]`.
        demand: f64,
        /// `(neighbour task id, edge weight)` — weights finite and `>= 0`.
        nbrs: Vec<(usize, f64)>,
    },
    /// Remove a live task, freeing its capacity. Ids are never reused.
    RemoveTask {
        /// The task to remove.
        task: usize,
    },
    /// Change a live task's demand; relocates best-fit only on overflow.
    UpdateDemand {
        /// The task to resize.
        task: usize,
        /// New demand in `(0, 1]`.
        demand: f64,
    },
    /// Drain a leaf: evacuate its tasks (best-fit, ascending id order) and
    /// fence it off from all future placement until the session ends.
    DrainLeaf {
        /// The leaf to drain.
        leaf: usize,
    },
    /// Grow the machine by `groups` level-1 subtrees (each contributes
    /// `CP(1)` fresh leaves). Existing leaf indices — and therefore the
    /// whole current placement — are unchanged: the new leaves append at
    /// the end of the index range.
    AddLeaves {
        /// Level-1 groups to add (`>= 1`).
        groups: usize,
    },
    /// Re-scale one level's cost multiplier. The multipliers must stay
    /// finite, non-negative and non-increasing with level (the
    /// [`Hierarchy`] invariant); no task moves, but every cost reported
    /// afterwards uses the new multipliers.
    SetMultiplier {
        /// Level in `0..=height`.
        level: usize,
        /// New multiplier for that level.
        multiplier: f64,
    },
}

/// Why a batch was rejected. The whole batch is validated before anything
/// is applied, so on `Err` the session state is untouched; `index` is the
/// offending mutation's position in the batch.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum MutationError {
    /// A demand outside `(0, 1]` (or non-finite).
    InvalidDemand {
        /// Position in the batch.
        index: usize,
        /// The rejected demand.
        demand: f64,
    },
    /// A task id that does not exist or is not live at that point of the
    /// batch.
    UnknownTask {
        /// Position in the batch.
        index: usize,
        /// The rejected task id.
        task: usize,
    },
    /// An edge endpoint that is absent or dead at that point of the batch.
    UnknownNeighbour {
        /// Position in the batch.
        index: usize,
        /// The rejected neighbour id.
        task: usize,
    },
    /// A non-finite or negative edge weight.
    InvalidWeight {
        /// Position in the batch.
        index: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// A leaf index outside the machine at that point of the batch.
    UnknownLeaf {
        /// Position in the batch.
        index: usize,
        /// The rejected leaf.
        leaf: usize,
    },
    /// Draining a leaf that is already drained.
    AlreadyDrained {
        /// Position in the batch.
        index: usize,
        /// The leaf.
        leaf: usize,
    },
    /// A drain that would leave no undrained leaf to place on.
    NoUndrainedLeaf {
        /// Position in the batch.
        index: usize,
    },
    /// `AddLeaves { groups: 0 }`.
    InvalidGroups {
        /// Position in the batch.
        index: usize,
    },
    /// Growth past [`MAX_PARSE_LEAVES`] — the leaf cap a machine
    /// descriptor admits — or past integer range.
    MachineTooLarge {
        /// Position in the batch.
        index: usize,
        /// The requested leaf count (saturated).
        leaves: usize,
    },
    /// A level outside `0..=height`.
    UnknownLevel {
        /// Position in the batch.
        index: usize,
        /// The rejected level.
        level: usize,
    },
    /// A multiplier that is non-finite, negative, or would break the
    /// non-increasing-with-level invariant.
    InvalidMultiplier {
        /// Position in the batch.
        index: usize,
        /// The rejected multiplier.
        multiplier: f64,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDemand { index, demand } => {
                write!(f, "mutation {index}: demand {demand} outside (0, 1]")
            }
            Self::UnknownTask { index, task } => {
                write!(f, "mutation {index}: task {task} is not live")
            }
            Self::UnknownNeighbour { index, task } => {
                write!(f, "mutation {index}: neighbour task {task} is not live")
            }
            Self::InvalidWeight { index, weight } => {
                write!(
                    f,
                    "mutation {index}: edge weight {weight} is not finite and >= 0"
                )
            }
            Self::UnknownLeaf { index, leaf } => {
                write!(f, "mutation {index}: no leaf {leaf} in this machine")
            }
            Self::AlreadyDrained { index, leaf } => {
                write!(f, "mutation {index}: leaf {leaf} is already drained")
            }
            Self::NoUndrainedLeaf { index } => {
                write!(f, "mutation {index}: drain would leave no undrained leaf")
            }
            Self::InvalidGroups { index } => {
                write!(f, "mutation {index}: must add at least one group")
            }
            Self::MachineTooLarge { index, leaves } => {
                write!(
                    f,
                    "mutation {index}: {leaves} leaves exceeds the {MAX_PARSE_LEAVES}-leaf limit"
                )
            }
            Self::UnknownLevel { index, level } => {
                write!(f, "mutation {index}: no level {level} in this machine")
            }
            Self::InvalidMultiplier { index, multiplier } => {
                write!(
                    f,
                    "mutation {index}: multiplier {multiplier} breaks the finite, non-negative, \
                     non-increasing-with-level invariant"
                )
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// What one committed batch changed — [`Session::apply`]'s receipt.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    /// Mutations applied (the batch length).
    pub applied: usize,
    /// Ids assigned to the batch's [`Mutation::AddTask`]s, in batch order.
    pub added: Vec<usize>,
    /// Placement moves the batch incurred (arrivals, overflow relocations,
    /// drain evacuations).
    pub moves: u64,
    /// Equation-1 cost after the batch.
    pub cost: f64,
    /// Worst leaf load after the batch.
    pub max_load: f64,
    /// Leaves in the machine after the batch (grows via
    /// [`Mutation::AddLeaves`]).
    pub leaves: usize,
}

/// How much re-pinning a [`Session::resolve`] may spend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnBudget {
    /// Maximum tasks that may end up off their pre-resolve leaves
    /// (default: unlimited).
    pub max_moves: usize,
    /// Cost slack for trading moves away: among candidates within
    /// `max_cost_ratio ×` the cheapest candidate's cost, the one with the
    /// fewest moves wins. `1.0` (the default) means "cheapest, ties broken
    /// by fewest moves"; `1.1` accepts up to 10 % extra cost to move
    /// fewer tasks. Values below 1 are treated as 1; a non-finite ratio
    /// accepts any cost (always resolving to zero moves).
    pub max_cost_ratio: f64,
}

impl Default for ChurnBudget {
    fn default() -> Self {
        Self {
            max_moves: usize::MAX,
            max_cost_ratio: 1.0,
        }
    }
}

impl ChurnBudget {
    /// A budget of at most `max_moves` moves at the default cost ratio.
    pub fn moves(max_moves: usize) -> Self {
        Self {
            max_moves,
            ..Self::default()
        }
    }
}

/// Options for [`Session::resolve`].
///
/// `#[non_exhaustive]`: construct through [`ReplaceOptions::builder`] (or
/// take [`Default`] and tweak via [`ReplaceOptions::to_builder`]), matching
/// the crate's builder conventions.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaceOptions {
    /// The churn budget.
    pub budget: ChurnBudget,
    /// Pipeline options for the full-solve candidate (trees, rounding,
    /// seed, …). The distribution-construction knobs also key the
    /// session's warm cache: changing them invalidates it.
    pub solver: SolverOptions,
    /// Ignore the warm cache and rebuild the distribution from scratch
    /// (which re-primes the cache). For ablation and benchmarking.
    pub cold: bool,
}

impl ReplaceOptions {
    /// Starts a builder at the defaults.
    pub fn builder() -> ReplaceOptionsBuilder {
        ReplaceOptionsBuilder::default()
    }

    /// Re-opens these options as a builder (for tweaking a copy).
    pub fn to_builder(self) -> ReplaceOptionsBuilder {
        ReplaceOptionsBuilder { opts: self }
    }
}

/// Builder for [`ReplaceOptions`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaceOptionsBuilder {
    opts: ReplaceOptions,
}

impl ReplaceOptionsBuilder {
    /// The churn budget (default: unlimited moves, cost ratio 1).
    pub fn budget(mut self, b: ChurnBudget) -> Self {
        self.opts.budget = b;
        self
    }

    /// Shorthand: cap the moves, keep the ratio.
    pub fn max_moves(mut self, m: usize) -> Self {
        self.opts.budget.max_moves = m;
        self
    }

    /// Shorthand: set the cost ratio, keep the move cap.
    pub fn max_cost_ratio(mut self, r: f64) -> Self {
        self.opts.budget.max_cost_ratio = r;
        self
    }

    /// Pipeline options for the full-solve candidate.
    pub fn solver(mut self, s: SolverOptions) -> Self {
        self.opts.solver = s;
        self
    }

    /// Force a cold distribution rebuild (default `false`).
    pub fn cold(mut self, c: bool) -> Self {
        self.opts.cold = c;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ReplaceOptions {
        self.opts
    }
}

/// Which candidate a [`Session::resolve`] committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveChoice {
    /// The pre-resolve placement (zero moves).
    Previous,
    /// The bounded FM refinement of the previous placement.
    Refined,
    /// The full pipeline's solution (its churn fit the budget).
    Solved,
}

/// What a [`Session::resolve`] did.
#[derive(Clone, Debug)]
pub struct ResolveReport {
    /// Equation-1 cost of the committed placement.
    pub cost: f64,
    /// Tasks the resolve moved off their previous leaves (`<=`
    /// [`ChurnBudget::max_moves`]).
    pub moves: usize,
    /// `true` iff the cached distribution was reused (demand or hierarchy
    /// edits only since it was built); `false` on a cold build.
    pub warm: bool,
    /// Which candidate won.
    pub choice: ResolveChoice,
    /// Worst leaf load after the resolve.
    pub max_load: f64,
    /// Live tasks.
    pub active: usize,
    /// The session's total churn counter after this resolve.
    pub churn: u64,
    /// Diagnostic: the full-solve candidate's cost, when one was obtained
    /// (it may have been rejected for exceeding the move budget).
    pub target_cost: Option<f64>,
    /// Diagnostic: the full-solve candidate's churn against the previous
    /// placement.
    pub target_moves: Option<usize>,
}

/// A compacted view of the live tasks — what [`Session::resolve`] actually
/// solves. Exposed for benches and tests that need the exact instance a
/// resolve sees (e.g. to time an equivalent from-scratch solve).
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// The live tasks as a dense instance (ids compacted, edges between
    /// live endpoints only).
    pub instance: Instance,
    /// Current leaf of each dense task.
    pub leaves: Vec<u32>,
    /// Dense index → session task id.
    pub ids: Vec<usize>,
}

/// The warm-cache entry: a distribution plus the key that built it.
#[derive(Clone, Debug)]
struct WarmCache {
    /// Weight-insensitive topology fingerprint of the compacted graph.
    topo_fp: u64,
    /// Fingerprint of the distribution-construction knobs (`num_trees`,
    /// `seed`, decomposition options).
    knobs_fp: u64,
    dist: Distribution,
    /// Index of the tree that won the last sweep on `dist` — the warm
    /// sweep asks only this tree.
    best_tree: usize,
}

fn dist_knobs_fp(opts: &SolverOptions) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_usize(opts.num_trees).write_u64(opts.seed);
    crate::fingerprint::write_decomp_opts(&mut fp, &opts.decomp);
    fp.finish()
}

/// A long-lived placement accepting transactional mutations and warm
/// re-solves. See the [module docs](self) for the full story.
#[derive(Clone, Debug)]
pub struct Session {
    h: Hierarchy,
    demands: Vec<f64>,
    active: Vec<bool>,
    /// adjacency: per task, `(neighbour, weight)` (symmetric).
    adj: Vec<Vec<(u32, f64)>>,
    leaf_of: Vec<u32>,
    loads: Vec<f64>,
    moves: u64,
    /// Leaves fenced off by [`Mutation::DrainLeaf`]: they hold no tasks and
    /// never receive new ones.
    drained: Vec<bool>,
    mutations: u64,
    warm_solves: u64,
    cache: Option<WarmCache>,
}

impl Session {
    /// An empty session on machine `h`.
    pub fn new(h: Hierarchy) -> Self {
        let k = h.num_leaves();
        Self {
            h,
            demands: Vec::new(),
            active: Vec::new(),
            adj: Vec::new(),
            leaf_of: Vec::new(),
            loads: vec![0.0; k],
            moves: 0,
            drained: vec![false; k],
            mutations: 0,
            warm_solves: 0,
            cache: None,
        }
    }

    /// A session seeded from an offline solution (e.g. the full pipeline).
    pub fn with_initial(h: Hierarchy, inst: &Instance, assignment: &Assignment) -> Self {
        let mut s = Self::new(h);
        for v in 0..inst.num_tasks() {
            s.demands.push(inst.demand(v));
            s.active.push(true);
            s.adj.push(Vec::new());
            s.leaf_of.push(assignment.leaf(v) as u32);
            s.loads[assignment.leaf(v)] += inst.demand(v);
        }
        for (_, u, v, w) in inst.graph().edges() {
            s.adj[u.index()].push((v.0, w));
            s.adj[v.index()].push((u.0, w));
        }
        s
    }

    /// The machine hierarchy (current — it changes under
    /// [`Mutation::AddLeaves`] / [`Mutation::SetMultiplier`]).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// Leaves in the machine.
    pub fn num_leaves(&self) -> usize {
        self.h.num_leaves()
    }

    /// Live tasks.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// `true` iff `task` exists and has not been removed.
    pub fn is_live(&self, task: usize) -> bool {
        task < self.active.len() && self.active[task]
    }

    /// Leaf currently hosting `task`, or `None` if it is not live.
    pub fn leaf_of(&self, task: usize) -> Option<usize> {
        self.is_live(task).then(|| self.leaf_of[task] as usize)
    }

    /// Current demand of `task`, or `None` if it is not live.
    pub fn demand_of(&self, task: usize) -> Option<f64> {
        self.is_live(task).then(|| self.demands[task])
    }

    /// Per-leaf loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Worst leaf load (nominal capacity is 1.0).
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Current Equation-1 cost.
    pub fn cost(&self) -> f64 {
        let mut c = 0.0;
        for (u, nbrs) in self.adj.iter().enumerate() {
            if !self.active[u] {
                continue;
            }
            for &(v, w) in nbrs {
                let v = v as usize;
                if self.active[v] && u < v {
                    c += w * self
                        .h
                        .edge_multiplier(self.leaf_of[u] as usize, self.leaf_of[v] as usize);
                }
            }
        }
        c
    }

    /// Total placement moves so far (arrivals, relocations, evacuations,
    /// resolve commits) — the re-pinning churn.
    pub fn churn(&self) -> u64 {
        self.moves
    }

    /// Mutations committed through [`Session::apply`].
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Resolves that reused the cached distribution.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// `true` iff `leaf` has been drained.
    pub fn is_drained(&self, leaf: usize) -> bool {
        self.drained.get(leaf).copied().unwrap_or(false)
    }

    /// Validates and applies a batch of mutations, all-or-nothing.
    ///
    /// The whole batch is checked against a simulated state first; on
    /// `Err` the session is untouched. Later mutations may reference task
    /// ids created earlier in the same batch. On `Ok` the returned
    /// [`Delta`] reports the assigned ids and the churn the batch cost.
    pub fn apply(&mut self, batch: &[Mutation]) -> Result<Delta, MutationError> {
        self.validate(batch)?;
        let moves_before = self.moves;
        let mut added = Vec::new();
        for m in batch {
            match m {
                Mutation::AddTask { demand, nbrs } => added.push(self.add_task(*demand, nbrs)),
                Mutation::RemoveTask { task } => self.remove_task(*task),
                Mutation::UpdateDemand { task, demand } => self.update_demand(*task, *demand),
                Mutation::DrainLeaf { leaf } => self.drain_leaf(*leaf),
                Mutation::AddLeaves { groups } => self.add_leaves(*groups),
                Mutation::SetMultiplier { level, multiplier } => {
                    self.h.set_cost_multiplier(*level, *multiplier)
                }
            }
        }
        self.mutations += batch.len() as u64;
        Ok(Delta {
            applied: batch.len(),
            added,
            moves: self.moves - moves_before,
            cost: self.cost(),
            max_load: self.max_load(),
            leaves: self.num_leaves(),
        })
    }

    /// The validation half of [`Session::apply`]: simulates liveness, the
    /// drain mask and the hierarchy shape through the batch without
    /// touching the session.
    fn validate(&self, batch: &[Mutation]) -> Result<(), MutationError> {
        let mut live = self.active.clone();
        let mut drained = self.drained.clone();
        let mut undrained = drained.iter().filter(|&&d| !d).count();
        let mut deg0 = self.h.degree(0);
        let cp1 = self.h.capacity(1);
        let mut k = self.h.num_leaves();
        let height = self.h.height();
        let mut cm: Vec<f64> = (0..=height).map(|j| self.h.cost_multiplier(j)).collect();
        let valid_demand = |d: f64| d.is_finite() && d > 0.0 && d <= 1.0;
        for (index, m) in batch.iter().enumerate() {
            match m {
                Mutation::AddTask { demand, nbrs } => {
                    if !valid_demand(*demand) {
                        return Err(MutationError::InvalidDemand {
                            index,
                            demand: *demand,
                        });
                    }
                    for &(t, w) in nbrs {
                        if t >= live.len() || !live[t] {
                            return Err(MutationError::UnknownNeighbour { index, task: t });
                        }
                        if !(w.is_finite() && w >= 0.0) {
                            return Err(MutationError::InvalidWeight { index, weight: w });
                        }
                    }
                    live.push(true);
                }
                Mutation::RemoveTask { task } => {
                    if *task >= live.len() || !live[*task] {
                        return Err(MutationError::UnknownTask { index, task: *task });
                    }
                    live[*task] = false;
                }
                Mutation::UpdateDemand { task, demand } => {
                    if *task >= live.len() || !live[*task] {
                        return Err(MutationError::UnknownTask { index, task: *task });
                    }
                    if !valid_demand(*demand) {
                        return Err(MutationError::InvalidDemand {
                            index,
                            demand: *demand,
                        });
                    }
                }
                Mutation::DrainLeaf { leaf } => {
                    if *leaf >= k {
                        return Err(MutationError::UnknownLeaf { index, leaf: *leaf });
                    }
                    if drained[*leaf] {
                        return Err(MutationError::AlreadyDrained { index, leaf: *leaf });
                    }
                    drained[*leaf] = true;
                    undrained -= 1;
                    if undrained == 0 {
                        return Err(MutationError::NoUndrainedLeaf { index });
                    }
                }
                Mutation::AddLeaves { groups } => {
                    if *groups == 0 {
                        return Err(MutationError::InvalidGroups { index });
                    }
                    let new_k = deg0
                        .checked_add(*groups)
                        .and_then(|d| d.checked_mul(cp1))
                        .unwrap_or(usize::MAX);
                    if new_k > MAX_PARSE_LEAVES {
                        return Err(MutationError::MachineTooLarge {
                            index,
                            leaves: new_k,
                        });
                    }
                    deg0 += *groups;
                    drained.resize(new_k, false);
                    undrained += new_k - k;
                    k = new_k;
                }
                Mutation::SetMultiplier { level, multiplier } => {
                    if *level > height {
                        return Err(MutationError::UnknownLevel {
                            index,
                            level: *level,
                        });
                    }
                    if !(multiplier.is_finite() && *multiplier >= 0.0) {
                        return Err(MutationError::InvalidMultiplier {
                            index,
                            multiplier: *multiplier,
                        });
                    }
                    let old = cm[*level];
                    cm[*level] = *multiplier;
                    if cm.windows(2).any(|w| w[0] < w[1]) {
                        cm[*level] = old;
                        return Err(MutationError::InvalidMultiplier {
                            index,
                            multiplier: *multiplier,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Equation-1 cost of `task`'s live edges if it sat on `leaf`.
    fn marginal(&self, task: usize, leaf: usize) -> f64 {
        self.adj[task]
            .iter()
            .filter(|&&(v, _)| self.active[v as usize])
            .map(|&(v, w)| {
                w * self
                    .h
                    .edge_multiplier(leaf, self.leaf_of[v as usize] as usize)
            })
            .sum()
    }

    /// The cheapest undrained leaf with room for `demand` (lowest index on
    /// ties); when none has room, the least-loaded undrained leaf, the
    /// violation accepted and visible in [`Session::max_load`].
    fn best_leaf(&self, task: usize, demand: f64) -> usize {
        let k = self.h.num_leaves();
        let mut best = usize::MAX;
        let mut best_cost = f64::INFINITY;
        for leaf in 0..k {
            if self.drained[leaf] || self.loads[leaf] + demand > 1.0 + 1e-9 {
                continue;
            }
            let c = self.marginal(task, leaf);
            if c < best_cost - 1e-15 {
                best_cost = c;
                best = leaf;
            }
        }
        if best == usize::MAX {
            // validation guarantees an undrained leaf exists
            (0..k)
                .filter(|&l| !self.drained[l])
                .min_by(|&a, &b| self.loads[a].partial_cmp(&self.loads[b]).unwrap())
                .expect("at least one undrained leaf")
        } else {
            best
        }
    }

    /// Appends a validated task, places it best-fit and returns its id.
    fn add_task(&mut self, demand: f64, neighbors: &[(usize, f64)]) -> usize {
        let id = self.demands.len();
        self.demands.push(demand);
        self.active.push(true);
        self.adj
            .push(neighbors.iter().map(|&(v, w)| (v as u32, w)).collect());
        for &(v, w) in neighbors {
            self.adj[v].push((id as u32, w));
        }
        self.leaf_of.push(0);
        let leaf = self.best_leaf(id, demand);
        self.leaf_of[id] = leaf as u32;
        self.loads[leaf] += demand;
        self.moves += 1;
        id
    }

    /// Retires a live task, freeing its capacity. Its id is never reused.
    fn remove_task(&mut self, task: usize) {
        self.active[task] = false;
        self.loads[self.leaf_of[task] as usize] -= self.demands[task];
    }

    /// Re-sizes a live task; relocates it best-fit only if its leaf
    /// overflows.
    fn update_demand(&mut self, task: usize, demand: f64) {
        let leaf = self.leaf_of[task] as usize;
        self.loads[leaf] += demand - self.demands[task];
        self.demands[task] = demand;
        if self.loads[leaf] > 1.0 + 1e-9 {
            self.loads[leaf] -= demand;
            let new_leaf = self.best_leaf(task, demand);
            self.leaf_of[task] = new_leaf as u32;
            self.loads[new_leaf] += demand;
            if new_leaf != leaf {
                self.moves += 1;
            }
        }
    }

    fn drain_leaf(&mut self, leaf: usize) {
        self.drained[leaf] = true;
        // evacuate in ascending id order — deterministic, and each task
        // lands best-fit against the placement as evacuated so far
        for t in 0..self.demands.len() {
            if self.active[t] && self.leaf_of[t] as usize == leaf {
                let d = self.demands[t];
                self.loads[leaf] -= d;
                let to = self.best_leaf(t, d);
                self.leaf_of[t] = to as u32;
                self.loads[to] += d;
                self.moves += 1;
            }
        }
    }

    fn add_leaves(&mut self, groups: usize) {
        // leaf indices are stable under root-degree growth (CP(1..) is
        // untouched), so the current placement carries over verbatim
        self.h.grow_root(groups);
        let k = self.h.num_leaves();
        self.loads.resize(k, 0.0);
        self.drained.resize(k, false);
    }

    /// The live tasks as a dense instance, or `None` when the session is
    /// empty.
    pub fn snapshot(&self) -> Option<SessionSnapshot> {
        let ids: Vec<usize> = (0..self.demands.len())
            .filter(|&t| self.active[t])
            .collect();
        if ids.is_empty() {
            return None;
        }
        let mut dense = vec![u32::MAX; self.demands.len()];
        for (i, &t) in ids.iter().enumerate() {
            dense[t] = i as u32;
        }
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        for &u in &ids {
            for &(v, w) in &self.adj[u] {
                let v = v as usize;
                if u < v && self.active[v] {
                    edges.push((dense[u], dense[v], w));
                }
            }
        }
        let graph = Graph::from_edges(ids.len(), &edges);
        let demands: Vec<f64> = ids.iter().map(|&t| self.demands[t]).collect();
        let leaves: Vec<u32> = ids.iter().map(|&t| self.leaf_of[t]).collect();
        Some(SessionSnapshot {
            instance: Instance::new(graph, demands),
            leaves,
            ids,
        })
    }

    /// Re-places the live tasks under a churn budget, warm-starting from
    /// the session's cached distribution and previous placement.
    ///
    /// Candidates (all costed exactly on the live instance):
    ///
    /// 1. the previous placement — zero moves, always available;
    /// 2. the best prefix, of length at most `budget.max_moves`, of one
    ///    hierarchy-aware FM pass seeded from the previous placement
    ///    (drained leaves fenced off);
    /// 3. the full pipeline's solution — warm (cached distribution,
    ///    previously-winning tree only) when no node-set edit invalidated
    ///    the cache, cold otherwise — admitted only when its churn fits
    ///    `budget.max_moves`, with tasks evacuated off drained leaves
    ///    first.
    ///
    /// The cheapest candidate wins; [`ChurnBudget::max_cost_ratio`] then
    /// trades cost slack for fewer moves. Committing updates the
    /// placement, the churn counter and the warm cache. The method never
    /// fails: if the pipeline solve errors (disconnected live graph,
    /// infeasible demands), candidate 3 is simply absent and the resolve
    /// degrades to FM-vs-previous.
    pub fn resolve(&mut self, opts: &ReplaceOptions) -> ResolveReport {
        let Some(snap) = self.snapshot() else {
            return ResolveReport {
                cost: 0.0,
                moves: 0,
                warm: false,
                choice: ResolveChoice::Previous,
                max_load: self.max_load(),
                active: 0,
                churn: self.churn(),
                target_cost: None,
                target_moves: None,
            };
        };
        let h = self.h.clone();
        let inst = &snap.instance;
        let k = h.num_leaves();
        let topo_fp = topology_fingerprint(inst.graph());
        let knobs_fp = dist_knobs_fp(&opts.solver);
        let warm = !opts.cold
            && self
                .cache
                .as_ref()
                .is_some_and(|c| c.topo_fp == topo_fp && c.knobs_fp == knobs_fp);

        // candidate 3: the pipeline's solution
        let mut built: Option<(Distribution, usize)> = None;
        let target = if warm {
            let c = self.cache.as_ref().expect("warm implies cache");
            let sub = Distribution {
                trees: vec![c.dist.trees[c.best_tree].clone()],
                lambdas: vec![1.0],
            };
            Solve::new(inst, &h)
                .options(opts.solver)
                .run_on(&sub)
                .ok()
                .map(|rep| rep.assignment.leaves().to_vec())
        } else {
            let req = Solve::new(inst, &h).options(opts.solver);
            match req.distribution() {
                Ok(dist) => match req.run_on(&dist) {
                    Ok(rep) => {
                        let leaves = rep.assignment.leaves().to_vec();
                        built = Some((dist, rep.best_tree));
                        Some(leaves)
                    }
                    Err(_) => None,
                },
                Err(_) => None,
            }
        };
        let target = target.map(|mut leaves| {
            self.evacuate_target(&mut leaves, inst, &h);
            let cost = Assignment::new(leaves.clone(), &h).cost(inst, &h);
            let moves = diff_count(&snap.leaves, &leaves);
            (leaves, cost, moves)
        });

        // candidate 1: stay put
        let prev_cost = Assignment::new(snap.leaves.clone(), &h).cost(inst, &h);

        // candidate 2: bounded FM from the previous placement
        let mut fm_leaves = snap.leaves.clone();
        let mut loads = vec![0.0f64; k];
        for (v, &l) in fm_leaves.iter().enumerate() {
            loads[l as usize] += inst.demand(v);
        }
        // feasibility budget: whatever the current placement already uses
        // (never below nominal capacity), so FM cannot be trapped by an
        // inherited violation
        let cap = loads.iter().cloned().fold(1.0f64, f64::max);
        for (l, load) in loads.iter_mut().enumerate() {
            if self.drained[l] {
                *load = f64::INFINITY;
            }
        }
        let pass = fm::hier_fm_pass_bounded(
            inst.graph(),
            inst.demands(),
            &h,
            &mut fm_leaves,
            &mut loads,
            cap,
            opts.budget.max_moves,
        );
        let fm_cost = Assignment::new(fm_leaves.clone(), &h).cost(inst, &h);

        // assemble and select
        struct Candidate<'a> {
            choice: ResolveChoice,
            leaves: &'a [u32],
            cost: f64,
            moves: usize,
        }
        let mut cands = vec![Candidate {
            choice: ResolveChoice::Previous,
            leaves: &snap.leaves,
            cost: prev_cost,
            moves: 0,
        }];
        if pass.moves > 0 {
            cands.push(Candidate {
                choice: ResolveChoice::Refined,
                leaves: &fm_leaves,
                cost: fm_cost,
                moves: pass.moves,
            });
        }
        let (mut target_cost, mut target_moves) = (None, None);
        if let Some((leaves, cost, moves)) = &target {
            target_cost = Some(*cost);
            target_moves = Some(*moves);
            if *moves <= opts.budget.max_moves {
                cands.push(Candidate {
                    choice: ResolveChoice::Solved,
                    leaves,
                    cost: *cost,
                    moves: *moves,
                });
            }
        }
        let min_cost = cands.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
        let ratio = opts.budget.max_cost_ratio.max(1.0);
        let threshold = if ratio.is_finite() {
            min_cost * ratio + 1e-9
        } else {
            f64::INFINITY
        };
        let chosen = cands
            .iter()
            .filter(|c| c.cost <= threshold)
            .min_by(|a, b| a.moves.cmp(&b.moves).then(a.cost.total_cmp(&b.cost)))
            .expect("the previous placement is always a candidate");

        // commit
        if chosen.moves > 0 {
            for (v, &l) in chosen.leaves.iter().enumerate() {
                self.leaf_of[snap.ids[v]] = l;
            }
            self.loads.iter_mut().for_each(|l| *l = 0.0);
            for t in 0..self.demands.len() {
                if self.active[t] {
                    self.loads[self.leaf_of[t] as usize] += self.demands[t];
                }
            }
            self.moves += chosen.moves as u64;
        }
        let report = ResolveReport {
            cost: chosen.cost,
            moves: chosen.moves,
            warm,
            choice: chosen.choice,
            max_load: self.max_load(),
            active: snap.ids.len(),
            churn: self.churn(),
            target_cost,
            target_moves,
        };
        if let Some((dist, best_tree)) = built {
            self.cache = Some(WarmCache {
                topo_fp,
                knobs_fp,
                dist,
                best_tree,
            });
        }
        if warm {
            self.warm_solves += 1;
        }
        report
    }

    /// Moves any task the pipeline placed on a drained leaf to its best
    /// undrained leaf (capacity-aware, ascending dense order).
    fn evacuate_target(&self, leaves: &mut [u32], inst: &Instance, h: &Hierarchy) {
        if !self.drained.iter().any(|&d| d) {
            return;
        }
        let k = h.num_leaves();
        let mut loads = vec![0.0f64; k];
        for (v, &l) in leaves.iter().enumerate() {
            loads[l as usize] += inst.demand(v);
        }
        for v in 0..leaves.len() {
            let from = leaves[v] as usize;
            if !self.drained[from] {
                continue;
            }
            let d = inst.demand(v);
            loads[from] -= d;
            let mut best = usize::MAX;
            let mut best_cost = f64::INFINITY;
            for (leaf, &load) in loads.iter().enumerate() {
                if self.drained[leaf] || load + d > 1.0 + 1e-9 {
                    continue;
                }
                let c = fm::marginal(inst.graph(), h, leaves, v, leaf);
                if c < best_cost - 1e-15 {
                    best_cost = c;
                    best = leaf;
                }
            }
            if best == usize::MAX {
                best = (0..k)
                    .filter(|&l| !self.drained[l])
                    .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).unwrap())
                    .expect("at least one undrained leaf");
            }
            leaves[v] = best as u32;
            loads[best] += d;
        }
    }
}

fn diff_count(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    fn machine() -> Hierarchy {
        presets::multicore(2, 2, 4.0, 1.0)
    }

    fn opts_fast() -> ReplaceOptions {
        ReplaceOptions::builder()
            .solver(SolverOptions::builder().trees(2).units(4).seed(7).build())
            .build()
    }

    fn add(s: &mut Session, demand: f64, nbrs: &[(usize, f64)]) -> usize {
        s.apply(&[Mutation::AddTask {
            demand,
            nbrs: nbrs.to_vec(),
        }])
        .unwrap()
        .added[0]
    }

    #[test]
    fn heavy_neighbours_colocate_on_arrival() {
        let mut s = Session::new(machine());
        let a = add(&mut s, 0.4, &[]);
        let b = add(&mut s, 0.4, &[(a, 10.0)]);
        assert_eq!(s.leaf_of(a), s.leaf_of(b), "heavy pair should share a leaf");
        assert_eq!(s.cost(), 0.0);
    }

    #[test]
    fn capacity_spreads_within_a_socket() {
        let mut s = Session::new(machine());
        let a = add(&mut s, 0.8, &[]);
        let b = add(&mut s, 0.8, &[(a, 5.0)]);
        let (la, lb) = (s.leaf_of(a).unwrap(), s.leaf_of(b).unwrap());
        assert_ne!(la, lb);
        // but they should at least share a socket (multiplier 1 not 4)
        assert_eq!(la / 2, lb / 2);
        assert!((s.cost() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn removal_frees_the_leaf_for_reuse_and_ids_are_never_recycled() {
        let mut s = Session::new(machine());
        let a = add(&mut s, 0.9, &[]);
        let leaf = s.leaf_of(a).unwrap();
        s.apply(&[Mutation::RemoveTask { task: a }]).unwrap();
        assert!(s.loads()[leaf].abs() < 1e-12);
        assert_eq!(s.num_active(), 0);
        let b = add(&mut s, 0.9, &[]);
        assert_ne!(a, b, "ids are monotone, never recycled");
        assert_eq!(s.leaf_of(b), Some(leaf), "freed leaf is reusable");
        assert_eq!(s.leaf_of(a), None, "the old id stays dead");
        let total: f64 = s.loads().iter().sum();
        assert!((total - 0.9).abs() < 1e-12, "dead id must not carry load");
    }

    #[test]
    fn demand_growth_relocates_on_overflow() {
        let mut s = Session::new(machine());
        let a = add(&mut s, 0.5, &[]);
        let b = add(&mut s, 0.5, &[(a, 1.0)]);
        assert_eq!(s.leaf_of(a), s.leaf_of(b));
        let delta = s
            .apply(&[Mutation::UpdateDemand {
                task: b,
                demand: 0.9,
            }])
            .unwrap();
        assert_ne!(s.leaf_of(a), s.leaf_of(b), "overflow must relocate");
        assert_eq!(delta.moves, 1);
        assert!(s.max_load() <= 1.0 + 1e-9);
    }

    #[test]
    fn churn_counts_arrivals_but_not_in_place_resizes() {
        let mut s = Session::new(machine());
        let a = add(&mut s, 0.3, &[]);
        add(&mut s, 0.3, &[(a, 1.0)]);
        assert_eq!(s.churn(), 2);
        s.apply(&[Mutation::UpdateDemand {
            task: a,
            demand: 0.4,
        }])
        .unwrap(); // no overflow -> no move
        assert_eq!(s.churn(), 2);
        s.apply(&[Mutation::RemoveTask { task: a }]).unwrap();
        assert_eq!(s.churn(), 2, "removals free capacity without moving");
    }

    #[test]
    fn growth_is_capped_at_the_descriptor_leaf_limit() {
        // 2 sockets x 4 cores: one level-1 group is 4 leaves
        let mut s = Session::new(presets::multicore(2, 4, 4.0, 1.0));
        let groups = MAX_PARSE_LEAVES / 4 - 2;
        let delta = s.apply(&[Mutation::AddLeaves { groups }]).unwrap();
        assert_eq!(delta.leaves, MAX_PARSE_LEAVES);
        let err = s.apply(&[Mutation::AddLeaves { groups: 1 }]).unwrap_err();
        assert_eq!(
            err,
            MutationError::MachineTooLarge {
                index: 0,
                leaves: MAX_PARSE_LEAVES + 4,
            }
        );
        assert_eq!(s.num_leaves(), MAX_PARSE_LEAVES, "rejected growth applied");
    }

    #[test]
    fn invalid_batch_leaves_state_untouched() {
        let mut s = Session::new(machine());
        s.apply(&[Mutation::AddTask {
            demand: 0.4,
            nbrs: vec![],
        }])
        .unwrap();
        let cost = s.cost();
        let churn = s.churn();
        let muts = s.mutations();
        // second mutation is invalid: the whole batch must be rejected
        let err = s
            .apply(&[
                Mutation::AddTask {
                    demand: 0.4,
                    nbrs: vec![],
                },
                Mutation::UpdateDemand {
                    task: 99,
                    demand: 0.5,
                },
            ])
            .unwrap_err();
        assert_eq!(err, MutationError::UnknownTask { index: 1, task: 99 });
        assert_eq!(s.num_active(), 1, "no partial application");
        assert_eq!(s.cost().to_bits(), cost.to_bits());
        assert_eq!(s.churn(), churn);
        assert_eq!(s.mutations(), muts);
    }

    #[test]
    fn batch_ids_are_referenceable_within_the_batch() {
        let mut s = Session::new(machine());
        let delta = s
            .apply(&[
                Mutation::AddTask {
                    demand: 0.3,
                    nbrs: vec![],
                },
                Mutation::AddTask {
                    demand: 0.3,
                    nbrs: vec![(0, 5.0)],
                },
                Mutation::RemoveTask { task: 1 },
            ])
            .unwrap();
        assert_eq!(delta.added, vec![0, 1]);
        assert!(s.is_live(0) && !s.is_live(1));
    }

    #[test]
    fn drain_evacuates_and_fences() {
        let mut s = Session::new(machine());
        s.apply(&[
            Mutation::AddTask {
                demand: 0.5,
                nbrs: vec![],
            },
            Mutation::AddTask {
                demand: 0.5,
                nbrs: vec![(0, 3.0)],
            },
        ])
        .unwrap();
        let leaf = s.leaf_of(0).unwrap();
        let delta = s.apply(&[Mutation::DrainLeaf { leaf }]).unwrap();
        assert!(s.is_drained(leaf));
        assert!(delta.moves >= 1, "drain must evacuate");
        assert_ne!(s.leaf_of(0), Some(leaf));
        assert!(s.loads()[leaf].abs() < 1e-12);
        // new arrivals avoid the drained leaf
        s.apply(&[Mutation::AddTask {
            demand: 0.9,
            nbrs: vec![],
        }])
        .unwrap();
        assert_ne!(s.leaf_of(2), Some(leaf));
        // draining everything is rejected up front
        let k = s.num_leaves();
        let batch: Vec<Mutation> = (0..k)
            .filter(|&l| l != leaf)
            .map(|l| Mutation::DrainLeaf { leaf: l })
            .collect();
        let err = s.apply(&batch).unwrap_err();
        assert!(matches!(err, MutationError::NoUndrainedLeaf { .. }));
        assert!(
            !s.is_drained((leaf + 1) % k),
            "rejected batch applied nothing"
        );
    }

    #[test]
    fn add_leaves_keeps_existing_placement_stable() {
        let mut s = Session::new(machine());
        s.apply(&[
            Mutation::AddTask {
                demand: 0.8,
                nbrs: vec![],
            },
            Mutation::AddTask {
                demand: 0.8,
                nbrs: vec![],
            },
        ])
        .unwrap();
        let before: Vec<_> = (0..2).map(|t| s.leaf_of(t)).collect();
        let k = s.num_leaves();
        let delta = s.apply(&[Mutation::AddLeaves { groups: 2 }]).unwrap();
        assert_eq!(delta.leaves, k + 2 * s.hierarchy().capacity(1));
        assert_eq!(delta.moves, 0, "growth never moves tasks");
        let after: Vec<_> = (0..2).map(|t| s.leaf_of(t)).collect();
        assert_eq!(before, after);
        // the new leaves are real placement targets
        s.apply(&[Mutation::AddTask {
            demand: 1.0,
            nbrs: vec![],
        }])
        .unwrap();
        assert!(s.leaf_of(2).unwrap() < s.num_leaves());
        assert!(s.max_load() <= 1.0 + 1e-9);
    }

    #[test]
    fn set_multiplier_guards_the_invariant_and_reprices() {
        let mut s = Session::new(machine());
        s.apply(&[
            Mutation::AddTask {
                demand: 0.8,
                nbrs: vec![],
            },
            Mutation::AddTask {
                demand: 0.8,
                nbrs: vec![(0, 1.0)],
            },
        ])
        .unwrap();
        let before = s.cost();
        assert!(before > 0.0, "pair must be split across leaves");
        // raising a *lower* level above its parent is rejected
        let err = s
            .apply(&[Mutation::SetMultiplier {
                level: 1,
                multiplier: 100.0,
            }])
            .unwrap_err();
        assert!(matches!(err, MutationError::InvalidMultiplier { .. }));
        // re-scaling the root level reprices without moving anything
        let delta = s
            .apply(&[Mutation::SetMultiplier {
                level: 0,
                multiplier: 8.0,
            }])
            .unwrap();
        assert_eq!(delta.moves, 0);
        assert!(s.hierarchy().cost_multiplier(0) == 8.0);
    }

    #[test]
    fn resolve_on_empty_session_is_trivial() {
        let mut s = Session::new(machine());
        let rep = s.resolve(&opts_fast());
        assert_eq!(rep.active, 0);
        assert_eq!(rep.moves, 0);
        assert_eq!(rep.cost, 0.0);
    }

    #[test]
    fn resolve_warms_up_after_a_cold_build_and_demand_edits_keep_it_warm() {
        let mut s = Session::new(machine());
        // a connected path of four tasks
        s.apply(&[
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
        ])
        .unwrap();
        let cold = s.resolve(&opts_fast());
        assert!(!cold.warm, "first resolve must build the distribution");
        s.apply(&[Mutation::UpdateDemand {
            task: 0,
            demand: 0.5,
        }])
        .unwrap();
        let rewarm = s.resolve(&opts_fast());
        assert!(rewarm.warm, "demand edits must not invalidate the cache");
        assert_eq!(s.warm_solves(), 1);
        // node-set edits invalidate
        s.apply(&[Mutation::AddTask {
            demand: 0.1,
            nbrs: vec![(3, 1.0)],
        }])
        .unwrap();
        let recold = s.resolve(&opts_fast());
        assert!(!recold.warm, "a node-set edit must fall back to cold");
        // forced cold ignores a valid cache
        let forced = s.resolve(&opts_fast().to_builder().cold(true).build());
        assert!(!forced.warm);
    }

    #[test]
    fn zero_budget_stays_put_and_budget_growth_is_pareto_monotone() {
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0), (1, 2, 0.1)]);
        let inst = Instance::uniform(g, 0.4);
        let h = machine();
        // deliberately bad: both heavy pairs split across sockets
        let bad = Assignment::new(vec![0, 3, 1, 2], &h);
        let base = Session::with_initial(h.clone(), &inst, &bad);
        let mut prev_cost = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 100] {
            let mut s = base.clone();
            let rep = s.resolve(
                &opts_fast()
                    .to_builder()
                    .budget(ChurnBudget::moves(budget))
                    .build(),
            );
            assert!(
                rep.moves <= budget,
                "budget {budget} exceeded: {}",
                rep.moves
            );
            assert!(
                rep.cost <= prev_cost + 1e-9,
                "cost must be non-increasing in the budget: {} after {prev_cost}",
                rep.cost
            );
            if budget == 0 {
                assert_eq!(rep.choice, ResolveChoice::Previous);
                assert_eq!(rep.cost.to_bits(), base.cost().to_bits());
            }
            prev_cost = rep.cost;
        }
    }

    #[test]
    fn unbounded_resolve_never_loses_to_from_scratch() {
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0), (1, 2, 0.1)]);
        let inst = Instance::uniform(g, 0.4);
        let h = machine();
        let bad = Assignment::new(vec![0, 3, 1, 2], &h);
        let mut s = Session::with_initial(h.clone(), &inst, &bad);
        let opts = opts_fast();
        let rep = s.resolve(&opts);
        let scratch = Solve::new(&inst, &h).options(opts.solver).run().unwrap();
        assert!(
            rep.cost <= scratch.cost + 1e-9,
            "resolve {} vs from-scratch {}",
            rep.cost,
            scratch.cost
        );
    }

    #[test]
    fn cost_ratio_trades_cost_for_fewer_moves() {
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0), (1, 2, 0.1)]);
        let inst = Instance::uniform(g, 0.4);
        let h = machine();
        let bad = Assignment::new(vec![0, 3, 1, 2], &h);
        let mut s = Session::with_initial(h.clone(), &inst, &bad);
        // an infinite ratio accepts any cost, so zero moves always wins
        let rep = s.resolve(
            &opts_fast()
                .to_builder()
                .max_cost_ratio(f64::INFINITY)
                .build(),
        );
        assert_eq!(rep.moves, 0);
        assert_eq!(rep.choice, ResolveChoice::Previous);
    }

    #[test]
    fn resolve_respects_drained_leaves() {
        let g = Graph::from_edges(4, &[(0, 1, 5.0), (2, 3, 5.0), (1, 2, 0.1)]);
        let inst = Instance::uniform(g, 0.4);
        let h = machine();
        let bad = Assignment::new(vec![0, 3, 1, 2], &h);
        let mut s = Session::with_initial(h.clone(), &inst, &bad);
        s.apply(&[Mutation::DrainLeaf { leaf: 0 }]).unwrap();
        let rep = s.resolve(&opts_fast());
        for t in 0..4 {
            assert_ne!(s.leaf_of(t), Some(0), "task {t} placed on a drained leaf");
        }
        assert!(rep.cost.is_finite());
    }
}
