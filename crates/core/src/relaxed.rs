//! The signature dynamic program for the Relaxed HGP on Trees (RHGPT),
//! §3 of the paper (Definition 8, Definition 9, Claim 1).
//!
//! # Formulation
//!
//! A solution to RHGPT assigns every tree edge `e` a *cut level*
//! `j_e ∈ {0, …, h}`: the edge is kept at levels `1..=j_e` and cut at
//! levels `j_e+1..=h`. The Level-`j` sets of Definition 4 are then the
//! leaf contents of the connected components of the forest containing the
//! edges with `j_e ≥ j`; the laminar/refinement constraints hold by
//! construction, and Theorem 3 (nice solutions) guarantees some optimal
//! RHGPT solution has this component form.
//!
//! The certificate cost of a labelling charges, for every edge `e` and
//! every level `k > j_e` at which the component below `e` is non-empty,
//! `w(e) · (cm(k-1) - cm(k))` — i.e. a cut edge pays both `hd(k)` halves
//! of Equation 3, one for the set on each side. Corollary 2 (certificate ≥
//! true mirror cost) and Corollary 3 (equality at the optimum) of the paper
//! justify optimising this certificate.
//!
//! # The DP
//!
//! Processing the tree bottom-up, the subproblem state at node `v` is the
//! *signature* `(D⁽¹⁾, …, D⁽ʰ⁾)`: the rounded demand of the `(v, j)`-active
//! set (the component currently containing `v`) per level. Children are
//! folded in one at a time — folding child `c` with cut level `j` adds
//! `c`'s signature prefix `1..=j` to `v`'s (Definition 9's
//! `(j₁, j₂)`-consistency) and pays the suffix charges. Folding children
//! sequentially is exactly the paper's binarised merge with dummy nodes,
//! without materialising the dummies.
//!
//! # Engine
//!
//! Signatures are packed into `u64` (16-bit lane per level, `h ≤ 4`).
//! The engine stores every table entry in one flat *arena*
//! (structure-of-arrays: interned `u64` signatures plus parallel vectors
//! of costs and `u32` backpointer indices) and resolves the
//! `(j₁, j₂)`-consistent merge by a sorted merge over candidate
//! signatures instead of hash probing; backpointer walking is then plain
//! index chasing. Its tie-breaks are those of the pre-arena per-node
//! hash-table DP (the "legacy" path the comments below refer to). That
//! DP is a parity oracle in the root test tree
//! (`tests/oracle/legacy_dp.rs`), and the root tests require
//! bit-identical `(cost, cut_level)` results from both.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
use crate::error::{check_height, HgpError};
use hgp_graph::tree::RootedTree;

/// Maximum supported hierarchy height (signature lanes in a `u64`). The
/// machine-descriptor parser enforces the same cap, so it is defined once
/// there.
pub const MAX_HEIGHT: usize = hgp_hierarchy::parse::MAX_PARSE_HEIGHT;

/// Reads lane `k` (level `k+1`) of a packed signature.
#[inline]
pub fn sig_lane(sig: u64, k: usize) -> u32 {
    ((sig >> (16 * k)) & 0xFFFF) as u32
}

/// Writes lane `k` of a packed signature.
#[inline]
pub fn sig_with_lane(sig: u64, k: usize, value: u32) -> u64 {
    debug_assert!(value <= u16::MAX as u32);
    (sig & !(0xFFFFu64 << (16 * k))) | ((value as u64) << (16 * k))
}

/// Iterates the per-level demands `D⁽¹⁾, …, D⁽ʰ⁾` of a packed signature
/// without allocating.
#[inline]
pub fn sig_lanes(sig: u64, h: usize) -> impl Iterator<Item = u32> {
    (0..h).map(move |k| sig_lane(sig, k))
}

/// Unpacks a signature into a caller-provided buffer (cleared first) —
/// the allocation-free counterpart of [`sig_unpack`] for hot paths.
#[inline]
pub fn sig_unpack_into(sig: u64, h: usize, out: &mut Vec<u32>) {
    out.clear();
    out.extend(sig_lanes(sig, h));
}

/// Unpacks a signature into per-level demands `[D⁽¹⁾, …, D⁽ʰ⁾]`.
pub fn sig_unpack(sig: u64, h: usize) -> Vec<u32> {
    sig_lanes(sig, h).collect()
}

/// Output of [`solve_relaxed`].
#[derive(Clone, Debug)]
pub struct RelaxedSolution {
    /// `cut_level[v]` for non-root `v` = the cut level `j_e` of the edge
    /// between `v` and its parent (`h` = never cut). `cut_level[root] = h`.
    pub cut_level: Vec<u8>,
    /// Optimal certificate cost (with normalised multipliers; add
    /// `cm(h) · Σ_e w(e)` to translate to un-normalised cost — Lemma 1).
    pub cost: f64,
    /// The root signature realising the optimum.
    pub root_signature: Vec<u32>,
    /// Total number of DP table entries created (size diagnostic for the
    /// `O(n · D^{3h+2})` running-time experiment T4).
    pub table_entries: usize,
    /// Entries dropped by dominance pruning (0 when
    /// [`solve_relaxed_with`] runs with pruning off).
    pub pruned_entries: usize,
}

/// Solves RHGPT exactly on rounded demands, dropping Pareto-dominated
/// table entries after every child fold.
///
/// * `tree` — rooted tree whose leaves carry tasks; infinite edge weights
///   mark uncuttable edges (dummy attachments).
/// * `leaf_units[v]` — rounded demand (≥ 1) of leaf `v`; ignored for
///   internal nodes.
/// * `caps[k]` — rounded capacity of Level-`k+1` sets (`CP(k+1)·Δ`).
/// * `deltas[k] = cm(k) - cm(k+1)` — the per-level cut charges.
///
/// # Errors
/// [`HgpError::CapacityInfeasible`] when no labelling satisfies the
/// capacities (e.g. the rounded total exceeds `CP(1)·Δ · DEG(0)` worth of
/// room); [`HgpError::HeightUnsupported`] when `caps` is empty or longer
/// than [`MAX_HEIGHT`]; [`HgpError::LaneOverflow`] when any capacity
/// exceeds the 16-bit lane; [`HgpError::InvalidDelta`] when a delta is
/// negative or non-finite. All four are reachable from untrusted input.
pub fn solve_relaxed(
    tree: &RootedTree,
    leaf_units: &[u32],
    caps: &[u32],
    deltas: &[f64],
) -> Result<RelaxedSolution, HgpError> {
    solve_relaxed_with(tree, leaf_units, caps, deltas, true)
}

/// [`solve_relaxed`] with dominance pruning selectable. `prune = false`
/// keeps every table exhaustive: slower, and free to settle a tie between
/// equal-cost optima differently. Every pipeline solve prunes; the
/// exhaustive table serves the engine-parity tests, which run both ways.
pub fn solve_relaxed_with(
    tree: &RootedTree,
    leaf_units: &[u32],
    caps: &[u32],
    deltas: &[f64],
    prune: bool,
) -> Result<RelaxedSolution, HgpError> {
    let h = caps.len();
    check_height(h)?;
    assert_eq!(deltas.len(), h);
    for (k, &c) in caps.iter().enumerate() {
        if c > u16::MAX as u32 {
            return Err(HgpError::LaneOverflow {
                level: k + 1,
                cap_units: c as u64,
            });
        }
    }
    for (k, &d) in deltas.iter().enumerate() {
        if !(d >= 0.0 && d.is_finite()) {
            return Err(HgpError::InvalidDelta { level: k, value: d });
        }
    }
    let n = tree.num_nodes();
    assert_eq!(leaf_units.len(), n);
    solve_arena(tree, leaf_units, caps, deltas, h, prune)
}

/// Sentinel arena index: "no predecessor" (first fold of a node) and
/// "no child" (leaf entries).
const NO_ENTRY: u32 = u32::MAX;

/// `LOW_LANES[j]` masks lanes `0..j` of a packed signature.
const LOW_LANES: [u64; MAX_HEIGHT + 1] = [0, 0xFFFF, 0xFFFF_FFFF, 0xFFFF_FFFF_FFFF, u64::MAX];

/// The flat DP table arena: one structure-of-arrays store for every entry
/// of every `(node, fold)` table. An entry is addressed by its `u32`
/// index; `prev`/`child` backpointers are indices too, so reconstructing
/// the optimal labelling is pure index chasing — no hash lookups and no
/// per-node table objects.
#[derive(Default)]
struct Arena {
    sig: Vec<u64>,
    cost: Vec<f64>,
    /// Index of the pre-fold state this entry extends (`NO_ENTRY` on a
    /// node's first fold).
    prev: Vec<u32>,
    /// Index of the child final-table entry folded in (`NO_ENTRY` for
    /// leaf entries).
    child: Vec<u32>,
    /// Cut level assigned to that child's edge.
    jlab: Vec<u8>,
}

impl Arena {
    #[inline]
    fn len(&self) -> u32 {
        debug_assert!(self.sig.len() < NO_ENTRY as usize);
        self.sig.len() as u32
    }
    #[inline]
    fn push(&mut self, sig: u64, cost: f64, prev: u32, child: u32, jlab: u8) {
        self.sig.push(sig);
        self.cost.push(cost);
        self.prev.push(prev);
        self.child.push(child);
        self.jlab.push(jlab);
    }
}

/// A merge candidate produced while folding one child into a node's
/// running table. Candidates are radix-sorted **stably** by `sig`, so
/// equal signatures stay in generation order; keeping the first strict
/// cost minimum per signature group then reproduces exactly the legacy
/// hash path's insertion tie-breaking (`cost < best` in probe order).
#[derive(Clone, Copy)]
struct Cand {
    sig: u64,
    cost: f64,
    prev: u32,
    child: u32,
    j: u8,
}

/// Stable LSD radix sort of `cands` by `sig`, one byte per pass.
///
/// `max_sig` is the OR of every candidate signature: bytes above its
/// width are constant zero and are never visited, and a counting pass
/// that finds a byte constant across the slice skips its scatter. In
/// practice only the low byte of each occupied 16-bit lane varies, so a
/// height-`h` fold pays ~`h` linear passes — no comparator, no log
/// factor, which is what lets the sorted merge beat hash probing.
fn radix_by_sig(cands: &mut Vec<Cand>, scratch: &mut Vec<Cand>, max_sig: u64) {
    let k = cands.len();
    if k <= 1 {
        return;
    }
    let bytes = (64 - max_sig.leading_zeros() as usize).div_ceil(8);
    scratch.clear();
    scratch.resize(k, cands[0]);
    let mut in_main = true;
    for b in 0..bytes {
        let shift = 8 * b;
        let (src, dst): (&[Cand], &mut [Cand]) = if in_main {
            (cands, scratch)
        } else {
            (scratch, cands)
        };
        let mut counts = [0u32; 256];
        for c in src {
            counts[((c.sig >> shift) & 0xFF) as usize] += 1;
        }
        if counts.iter().any(|&c| c as usize == k) {
            continue; // byte is constant: the pass would be the identity
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let run = *c;
            *c = sum;
            sum += run;
        }
        for c in src {
            let d = ((c.sig >> shift) & 0xFF) as usize;
            dst[counts[d] as usize] = *c;
            counts[d] += 1;
        }
        in_main = !in_main;
    }
    if !in_main {
        std::mem::swap(cands, scratch);
    }
}

/// Widest compact key the dense merge strategy will direct-address
/// (2²⁰ slots ≈ 24 MB of table); wider cap layouts fall back to the
/// radix-sorted merge.
const DENSE_MAX_BITS: u32 = 20;

/// Caps-derived compact signature layout for the dense fold strategy.
///
/// Lane `k` of a table signature is bounded by `caps[k]`, so it needs
/// only `bits(caps[k])` bits rather than a full 16-bit lane. The compact
/// key packs the lanes contiguously (lane 0 least significant, matching
/// the `u64` packing, so compact-key order ≡ packed-signature order)
/// with one spare *guard* bit per field. Two properties make the merge
/// loop nearly free:
///
/// * **Additivity** — each field holds `2·cap` without overflowing into
///   its neighbour, so for in-cap signatures `pack(a ⊕ b) = pack(a) +
///   pack(b)`: the `(j₁,j₂)`-consistent merge is one integer add.
/// * **SWAR capacity check** — `(pack(caps) | guards) - key` keeps every
///   guard bit set iff every lane of `key` is within its cap, and the
///   per-field differences cannot borrow across fields (each field's
///   minuend `cap + 2^w` exceeds any field sum `≤ 2·cap < 2^(w+1)`).
struct CkLayout {
    /// Bit offset of field `k`; `shift[h]` is the total width.
    shift: [u32; MAX_HEIGHT + 1],
    /// OR of the per-field guard bits.
    guards: u32,
    /// `pack(caps)`.
    capck: u32,
    /// `low[j]` masks fields `0..j` — the lanes merged at cut level `j`.
    low: [u32; MAX_HEIGHT + 1],
    h: usize,
}

impl CkLayout {
    /// Builds the layout, or `None` when it exceeds [`DENSE_MAX_BITS`].
    fn build(caps: &[u32], h: usize) -> Option<CkLayout> {
        let mut l = CkLayout {
            shift: [0; MAX_HEIGHT + 1],
            guards: 0,
            capck: 0,
            low: [0; MAX_HEIGHT + 1],
            h,
        };
        let mut at = 0u32;
        for k in 0..h {
            l.shift[k] = at;
            l.low[k] = (1u32 << at) - 1;
            at += (32 - caps[k].leading_zeros()) + 1; // value bits + guard
            if at > DENSE_MAX_BITS {
                return None;
            }
            l.guards |= 1 << (at - 1);
            l.capck |= caps[k] << l.shift[k];
        }
        l.shift[h] = at;
        l.low[h] = (1u32 << at) - 1;
        Some(l)
    }

    /// Packs an in-cap `u64` signature into its compact key.
    #[inline]
    fn pack(&self, sig: u64) -> u32 {
        let mut ck = 0u32;
        for k in 0..self.h {
            ck |= sig_lane(sig, k) << self.shift[k];
        }
        ck
    }

    /// Expands a compact key (guard bits clear) back to the `u64` packing.
    #[inline]
    fn unpack(&self, ck: u32) -> u64 {
        let mut sig = 0u64;
        for k in 0..self.h {
            let width = self.shift[k + 1] - self.shift[k];
            let lane = (ck >> self.shift[k]) & ((1u32 << width) - 1);
            sig |= (lane as u64) << (16 * k);
        }
        sig
    }
}

/// One slot of the dense fold table, addressed by compact key.
#[derive(Clone, Copy, Default)]
struct DenseSlot {
    cost: f64,
    prev: u32,
    child: u32,
    /// Fold stamp: the slot is live only when this matches the current
    /// fold's epoch, which makes per-fold clearing O(1). Folds stamp
    /// from 1, so zeroed slots start vacant.
    epoch: u32,
    j: u8,
}

/// Inserts a merge candidate into the dense fold table with exactly the
/// legacy hash path's semantics: first write wins the slot, later ones
/// replace it only on strictly lower cost — candidates arrive in the
/// legacy probe order, so ties resolve identically.
#[inline]
#[allow(clippy::too_many_arguments)] // hot path; a params struct would obscure the slot write
fn dense_probe(
    slots: &mut [DenseSlot],
    touched: &mut Vec<u32>,
    epoch: u32,
    ck: u32,
    cost: f64,
    prev: u32,
    child: u32,
    j: u8,
) {
    let s = &mut slots[ck as usize];
    if s.epoch != epoch {
        *s = DenseSlot {
            cost,
            prev,
            child,
            epoch,
            j,
        };
        touched.push(ck);
    } else if cost < s.cost {
        s.cost = cost;
        s.prev = prev;
        s.child = child;
        s.j = j;
    }
}

fn solve_arena(
    tree: &RootedTree,
    leaf_units: &[u32],
    caps: &[u32],
    deltas: &[f64],
    h: usize,
    prune: bool,
) -> Result<RelaxedSolution, HgpError> {
    let n = tree.num_nodes();
    let mut arena = Arena::default();
    // final_seg[v]: arena range of v's final (post-last-fold) table,
    // stored in ascending signature order.
    let mut final_seg: Vec<(u32, u32)> = vec![(0, 0); n];
    let mut table_entries = 0usize;
    let mut pruned_entries = 0usize;
    // Scratch reused across every fold of every node.
    let mut cands: Vec<Cand> = Vec::new();
    let mut radix_buf: Vec<Cand> = Vec::new();
    let mut winners: Vec<(u64, f64)> = Vec::new();
    let mut wentry: Vec<(u32, u32, u8)> = Vec::new();
    let mut prune_scratch = PruneScratch::default();
    // Dense strategy state: a direct-addressed slot per compact key when
    // the caps pack narrowly enough, otherwise the radix-merge fallback.
    let layout = CkLayout::build(caps, h);
    let mut slots: Vec<DenseSlot> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut ckcur: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    if let Some(l) = &layout {
        slots.resize(1usize << l.shift[h], DenseSlot::default());
    }

    for v in tree.postorder() {
        if tree.is_leaf(v) {
            let d = leaf_units[v];
            assert!(d >= 1, "leaf {v} has zero rounded demand");
            if (0..h).any(|k| d > caps[k]) {
                // a single task exceeds some level capacity
                return Err(HgpError::CapacityInfeasible);
            }
            let mut sig = 0u64;
            for k in 0..h {
                sig = sig_with_lane(sig, k, d);
            }
            let start = arena.len();
            arena.push(sig, 0.0, NO_ENTRY, NO_ENTRY, 0);
            final_seg[v] = (start, arena.len());
            table_entries += 1;
            continue;
        }

        // cur: arena range of the running fold table (None = the initial
        // empty-signature pseudo-state, sig 0 / cost 0).
        let mut cur: Option<(u32, u32)> = None;
        for &c in tree.children(v) {
            let c = c as usize;
            let w = tree.edge_weight(c);
            let (cs, ce) = final_seg[c];
            winners.clear();
            wentry.clear();
            if let Some(l) = &layout {
                // Dense strategy: every candidate lands in a
                // direct-addressed slot keyed by compact signature — the
                // merge is one add, the cap check one SWAR subtract, the
                // dedup one stamped store. Probe order is the legacy
                // (child entry, j, cur entry) order, so slot updates
                // reproduce hash-insertion tie-breaking exactly.
                epoch += 1;
                touched.clear();
                if let Some((ps, pe)) = cur {
                    ckcur.clear();
                    ckcur.extend((ps..pe).map(|pi| l.pack(arena.sig[pi as usize])));
                }
                let capg = l.capck | l.guards;
                for ci in cs..ce {
                    let csig = arena.sig[ci as usize];
                    let ccost = arena.cost[ci as usize];
                    // suffix charge: suf[j] = Σ_{k ≥ j, lane>0} w·δ(k)
                    let mut suf = [0.0f64; MAX_HEIGHT + 1];
                    if !w.is_infinite() {
                        for k in (0..h).rev() {
                            suf[k] = suf[k + 1]
                                + if sig_lane(csig, k) > 0 {
                                    w * deltas[k]
                                } else {
                                    0.0
                                };
                        }
                    }
                    let j_lo = if w.is_infinite() { h } else { 0 };
                    let ckchild = l.pack(csig);
                    for j in j_lo..=h {
                        // lanes 0..j of the child merge in (levels 1..=j
                        // stay connected)
                        let ckpre = ckchild & l.low[j];
                        let add = suf[j];
                        match cur {
                            None => {
                                // merging into the empty signature: the
                                // child table invariant (lanes ≤ caps)
                                // makes the cap check vacuous
                                dense_probe(
                                    &mut slots,
                                    &mut touched,
                                    epoch,
                                    ckpre,
                                    ccost + add,
                                    NO_ENTRY,
                                    ci,
                                    j as u8,
                                );
                            }
                            Some((ps, _)) => {
                                for (pii, &ckc) in ckcur.iter().enumerate() {
                                    let ck = ckc + ckpre;
                                    if capg.wrapping_sub(ck) & l.guards != l.guards {
                                        continue; // a lane sum exceeds its cap
                                    }
                                    let pi = ps + pii as u32;
                                    let cost = (arena.cost[pi as usize] + ccost) + add;
                                    dense_probe(
                                        &mut slots,
                                        &mut touched,
                                        epoch,
                                        ck,
                                        cost,
                                        pi,
                                        ci,
                                        j as u8,
                                    );
                                }
                            }
                        }
                    }
                }
                if touched.is_empty() {
                    return Err(HgpError::CapacityInfeasible); // infeasible below v
                }
                // ascending compact key ≡ ascending packed signature
                touched.sort_unstable();
                for &ck in &touched {
                    let s = slots[ck as usize];
                    winners.push((l.unpack(ck), s.cost));
                    wentry.push((s.prev, s.child, s.j));
                }
            } else {
                // Radix fallback for cap layouts too wide to
                // direct-address: materialise every candidate, then a
                // stable LSD radix sort groups equal signatures in
                // generation order.
                cands.clear();
                let mut max_sig = 0u64;
                for ci in cs..ce {
                    let csig = arena.sig[ci as usize];
                    let ccost = arena.cost[ci as usize];
                    // suffix charge: suf[j] = Σ_{k ≥ j, lane>0} w·δ(k)
                    let mut suf = [0.0f64; MAX_HEIGHT + 1];
                    if !w.is_infinite() {
                        for k in (0..h).rev() {
                            suf[k] = suf[k + 1]
                                + if sig_lane(csig, k) > 0 {
                                    w * deltas[k]
                                } else {
                                    0.0
                                };
                        }
                    }
                    let j_lo = if w.is_infinite() { h } else { 0 };
                    for j in j_lo..=h {
                        // lanes 0..j of the child merge in (levels 1..=j
                        // stay connected); per-lane headroom hoisted out
                        // of the inner loop
                        let pre = csig & LOW_LANES[j];
                        let add = suf[j];
                        let mut limit = [0u32; MAX_HEIGHT];
                        for k in 0..j {
                            // child table invariant: lane ≤ cap
                            limit[k] = caps[k] - sig_lane(csig, k);
                        }
                        match cur {
                            None => {
                                max_sig |= pre;
                                cands.push(Cand {
                                    sig: pre,
                                    cost: ccost + add,
                                    prev: NO_ENTRY,
                                    child: ci,
                                    j: j as u8,
                                });
                            }
                            Some((ps, pe)) => {
                                for pi in ps..pe {
                                    let cursig = arena.sig[pi as usize];
                                    let mut ok = true;
                                    for k in 0..j {
                                        if sig_lane(cursig, k) > limit[k] {
                                            ok = false;
                                            break;
                                        }
                                    }
                                    if !ok {
                                        continue;
                                    }
                                    // per-lane sums stay ≤ caps ≤ 0xFFFF,
                                    // so the add cannot carry across lanes
                                    let sig = cursig + pre;
                                    max_sig |= sig;
                                    cands.push(Cand {
                                        sig,
                                        cost: (arena.cost[pi as usize] + ccost) + add,
                                        prev: pi,
                                        child: ci,
                                        j: j as u8,
                                    });
                                }
                            }
                        }
                    }
                }
                if cands.is_empty() {
                    return Err(HgpError::CapacityInfeasible); // infeasible below v
                }
                // Sorted merge: radix-group the candidates by signature
                // (stable, so groups stay in generation order), then keep
                // the first strict cost minimum of each group —
                // byte-for-byte the hash path's `cost < best` insertion
                // semantics.
                radix_by_sig(&mut cands, &mut radix_buf, max_sig);
                let mut i = 0;
                while i < cands.len() {
                    let sig = cands[i].sig;
                    let mut best = i;
                    let mut next = i + 1;
                    while next < cands.len() && cands[next].sig == sig {
                        if cands[next].cost < cands[best].cost {
                            best = next;
                        }
                        next += 1;
                    }
                    winners.push((sig, cands[best].cost));
                    let cd = cands[best];
                    wentry.push((cd.prev, cd.child, cd.j));
                    i = next;
                }
            }
            let keep = if prune {
                prune_keep(&winners, h, &mut prune_scratch)
            } else {
                None
            };
            let start = arena.len();
            for (wi, &(sig, cost)) in winners.iter().enumerate() {
                if let Some(mask) = keep {
                    if !mask[wi] {
                        continue;
                    }
                }
                let (prev, child, j) = wentry[wi];
                arena.push(sig, cost, prev, child, j);
            }
            let end = arena.len();
            table_entries += (end - start) as usize;
            pruned_entries += winners.len() - (end - start) as usize;
            // entries were appended in ascending signature order, so the
            // next fold scans them exactly as the legacy sorted `cur`
            cur = Some((start, end));
        }
        final_seg[v] = cur.expect("internal node has at least one child");
    }

    // pick the best root entry: minimum cost, smallest signature on ties —
    // the segment is sig-sorted, so the first strict minimum wins
    let root = tree.root();
    let (rs, re) = final_seg[root];
    let mut best: Option<u32> = None;
    for i in rs..re {
        match best {
            None => best = Some(i),
            Some(b) => {
                if arena.cost[i as usize] < arena.cost[b as usize] {
                    best = Some(i);
                }
            }
        }
    }
    let Some(best) = best else {
        return Err(HgpError::CapacityInfeasible);
    };
    let best_cost = arena.cost[best as usize];
    let root_signature = sig_unpack(arena.sig[best as usize], h);

    // walk backpointers to label every edge — pure index chasing
    let mut cut_level = vec![h as u8; n];
    let mut stack = vec![(root, best)];
    while let Some((v, entry)) = stack.pop() {
        if tree.is_leaf(v) {
            continue;
        }
        let kids = tree.children(v);
        let mut e = entry as usize;
        for i in (0..kids.len()).rev() {
            let c = kids[i] as usize;
            cut_level[c] = arena.jlab[e];
            stack.push((c, arena.child[e]));
            let p = arena.prev[e];
            if i == 0 {
                debug_assert_eq!(p, NO_ENTRY, "fold chain must start empty");
                break;
            }
            e = p as usize;
        }
    }

    Ok(RelaxedSolution {
        cut_level,
        cost: best_cost,
        root_signature,
        table_entries,
        pruned_entries,
    })
}

/// Tables at or below this size skip dominance pruning: scanning a
/// handful of entries next fold is cheaper than sorting and pruning
/// them. The legacy test oracle restates this threshold and the `h ≥ 3`
/// bound in [`prune_keep`], so both keep identical tables.
const PRUNE_MIN_TABLE: usize = 9;

/// Scratch buffers for [`prune_keep`], reused across folds so the hot
/// path performs no per-call allocation once warmed up.
#[derive(Default)]
struct PruneScratch {
    keep: Vec<bool>,
    /// Fenwick array for the `h = 2` prefix-minimum sweep.
    fen: Vec<f64>,
    /// Hoisted `(cost, sig, index)` sort keys for `h ∈ {3, 4}`.
    keyed: Vec<(f64, u64, u32)>,
    kept_sigs: Vec<u64>,
}

/// Marks the Pareto frontier of a table sorted by ascending packed
/// signature: signature `A` dominates `B` when every lane of `A` is ≤ the
/// corresponding lane of `B` and `cost(A) ≤ cost(B)`. Dominated states
/// can never appear in an optimal completion (future folds only *add*
/// sibling demands and charge levels whose lanes are non-zero, both
/// monotone in the lane values), so pruning them is lossless. This is
/// what keeps fine rounding grids tractable — the paper's `D^h` signature
/// domain collapses to its Pareto frontier.
///
/// Returns `None` when nothing is pruned (table under the keep threshold,
/// or over the `h ≥ 3` quadratic-sweep bound), else the per-entry keep
/// mask. The kept set is the full non-dominated set — independent of the
/// scan order, because every scan below visits dominators before the
/// entries they dominate (packed signatures compare lane-monotonically)
/// and domination is transitive.
fn prune_keep<'a>(entries: &[(u64, f64)], h: usize, s: &'a mut PruneScratch) -> Option<&'a [bool]> {
    let n = entries.len();
    if n <= PRUNE_MIN_TABLE {
        return None;
    }
    s.keep.clear();
    s.keep.resize(n, true);
    match h {
        1 => {
            // sig order = lane0 ascending; keep the strict running cost
            // minimum
            let mut best = f64::INFINITY;
            for (i, &(_, cost)) in entries.iter().enumerate() {
                if cost >= best {
                    s.keep[i] = false;
                } else {
                    best = cost;
                }
            }
        }
        2 => {
            // sig order = (lane1, lane0) lexicographic; a dominator has
            // lane1 ≤ and lane0 ≤, so it always precedes — Fenwick
            // prefix-minimum over lane0 answers "cheapest kept entry with
            // lane0 ≤ mine"
            let max_l0 = entries.iter().map(|e| sig_lane(e.0, 0)).max().unwrap_or(0) as usize;
            s.fen.clear();
            s.fen.resize(max_l0 + 2, f64::INFINITY);
            for (i, &(sig, cost)) in entries.iter().enumerate() {
                let l0 = sig_lane(sig, 0) as usize;
                if fen_query(&s.fen, l0) <= cost {
                    s.keep[i] = false;
                } else {
                    fen_update(&mut s.fen, l0, cost);
                }
            }
        }
        _ => {
            // h in {3, 4}: quadratic sweep, bounded to modest tables
            if n > 6000 {
                return None;
            }
            s.keyed.clear();
            s.keyed.extend(
                entries
                    .iter()
                    .enumerate()
                    .map(|(i, &(sig, cost))| (cost, sig, i as u32)),
            );
            s.keyed
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            s.kept_sigs.clear();
            'outer: for &(_, sig, i) in &s.keyed {
                // earlier entries have lower cost: dominated iff some kept
                // entry is lane-wise <= sig
                for &k in &s.kept_sigs {
                    let mut dom = true;
                    for lane in 0..h {
                        if sig_lane(k, lane) > sig_lane(sig, lane) {
                            dom = false;
                            break;
                        }
                    }
                    if dom {
                        s.keep[i as usize] = false;
                        continue 'outer;
                    }
                }
                s.kept_sigs.push(sig);
            }
        }
    }
    Some(&s.keep)
}

/// Prefix-minimum query over a Fenwick array (`data[0]` unused).
fn fen_query(data: &[f64], i: usize) -> f64 {
    let mut i = i + 1;
    let mut m = f64::INFINITY;
    while i > 0 {
        m = m.min(data[i]);
        i -= i & i.wrapping_neg();
    }
    m
}

/// Point update of a Fenwick prefix-minimum array.
fn fen_update(data: &mut [f64], i: usize, v: f64) {
    let mut i = i + 1;
    while i < data.len() {
        if v < data[i] {
            data[i] = v;
        }
        i += i & i.wrapping_neg();
    }
}

/// Recomputes the certificate cost of an edge labelling from scratch
/// (test oracle for the DP's incremental accounting): for every edge `e`
/// and level `k > j_e` at which the component below `e` contains at least
/// one leaf, charge `w(e) · δ(k)`.
pub fn labelling_cost(
    tree: &RootedTree,
    leaf_units: &[u32],
    cut_level: &[u8],
    deltas: &[f64],
) -> f64 {
    let h = deltas.len();
    let n = tree.num_nodes();
    // component-below demand per level: D[v][k] = demand of the component
    // containing v inside subtree(v) at level k+1.
    let mut demand = vec![vec![0u64; h]; n];
    let mut cost = 0.0;
    for v in tree.postorder() {
        if tree.is_leaf(v) {
            for k in 0..h {
                demand[v][k] = leaf_units[v] as u64;
            }
            continue;
        }
        for &c in tree.children(v) {
            let c = c as usize;
            let w = tree.edge_weight(c);
            let j = cut_level[c] as usize;
            for k in 0..h {
                // lane k = level k+1; kept iff k+1 <= j
                if k < j {
                    demand[v][k] += demand[c][k];
                } else if demand[c][k] > 0 {
                    cost += w * deltas[k];
                }
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::tree::TreeBuilder;

    /// h=1, caps=[2Δ? ] simple star of two leaves under root.
    #[test]
    fn two_leaf_star_separates_on_cheap_edge() {
        // root with leaves a (edge 1.0) and b (edge 3.0)
        let mut b = TreeBuilder::new_root();
        let a = b.add_child(0, 1.0);
        let bb = b.add_child(0, 3.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 1;
        units[bb] = 1;
        // h=1, two parts of capacity 1 unit each -> must separate
        let sol = solve_relaxed(&t, &units, &[1], &[1.0]).unwrap();
        assert!(
            (sol.cost - 1.0).abs() < 1e-9,
            "should cut the cheap edge, cost {}",
            sol.cost
        );
        assert_eq!(sol.cut_level[a], 0);
        assert_eq!(sol.cut_level[bb], 1); // b's edge stays
                                          // oracle agrees
        let oracle = labelling_cost(&t, &units, &sol.cut_level, &[1.0]);
        assert!((oracle - sol.cost).abs() < 1e-9);
    }

    #[test]
    fn no_separation_needed_when_capacity_allows() {
        let mut b = TreeBuilder::new_root();
        let a = b.add_child(0, 1.0);
        let bb = b.add_child(0, 3.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 1;
        units[bb] = 1;
        // capacity 2: both fit together
        let sol = solve_relaxed(&t, &units, &[2], &[1.0]).unwrap();
        assert!(sol.cost.abs() < 1e-12);
        assert_eq!(sol.cut_level[a], 1);
        assert_eq!(sol.cut_level[bb], 1);
    }

    #[test]
    fn infeasible_when_task_exceeds_leaf() {
        let mut b = TreeBuilder::new_root();
        let a = b.add_child(0, 1.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 5;
        assert_eq!(
            solve_relaxed(&t, &units, &[4], &[1.0]).unwrap_err(),
            HgpError::CapacityInfeasible
        );
    }

    #[test]
    fn rejects_unsupported_heights_and_bad_inputs() {
        let mut b = TreeBuilder::new_root();
        let a = b.add_child(0, 1.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 1;
        // height 5 > MAX_HEIGHT
        assert_eq!(
            solve_relaxed(&t, &units, &[5, 4, 3, 2, 1], &[1.0; 5]).unwrap_err(),
            HgpError::HeightUnsupported { height: 5, max: 4 }
        );
        // height 0
        assert!(matches!(
            solve_relaxed(&t, &units, &[], &[]).unwrap_err(),
            HgpError::HeightUnsupported { height: 0, .. }
        ));
        // lane overflow
        assert_eq!(
            solve_relaxed(&t, &units, &[70_000], &[1.0]).unwrap_err(),
            HgpError::LaneOverflow {
                level: 1,
                cap_units: 70_000
            }
        );
        // NaN delta
        assert!(matches!(
            solve_relaxed(&t, &units, &[4], &[f64::NAN]).unwrap_err(),
            HgpError::InvalidDelta { level: 0, .. }
        ));
    }

    #[test]
    fn infinite_edges_are_never_cut() {
        // root - d(inf) - {a (1.0), b (1.0)}: separating a and b must cut
        // their own edges, not the dummy edge.
        let mut b = TreeBuilder::new_root();
        let d = b.add_child(0, f64::INFINITY);
        let a = b.add_child(d, 1.0);
        let bb = b.add_child(d, 2.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 1;
        units[bb] = 1;
        let sol = solve_relaxed(&t, &units, &[1], &[1.0]).unwrap();
        // cheapest separation: cut a's edge (1.0)
        assert!((sol.cost - 1.0).abs() < 1e-9);
        assert_eq!(sol.cut_level[d], 1, "infinite edge must stay uncut");
    }

    #[test]
    fn two_level_prefers_deep_cuts() {
        // path-ish tree: root with two subtrees of two leaves each;
        // h = 2: 2 groups x 2 leaves, cm = [10, 1, 0] -> deltas [9, 1]
        let mut b = TreeBuilder::new_root();
        let l = b.add_child(0, 1.0);
        let r = b.add_child(0, 1.0);
        let l1 = b.add_child(l, 5.0);
        let l2 = b.add_child(l, 5.0);
        let r1 = b.add_child(r, 5.0);
        let r2 = b.add_child(r, 5.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        for v in [l1, l2, r1, r2] {
            units[v] = 1;
        }
        // caps: level-1 sets hold 2 units, level-2 sets (leaves) hold 1
        let sol = solve_relaxed(&t, &units, &[2, 1], &[9.0, 1.0]).unwrap();
        // optimal: keep {l1,l2} and {r1,r2} as level-1 sets (cut the two
        // cheap root edges at level 0? no—cut them *between* the groups),
        // and split each pair at level 2 (cut one heavy edge per pair at
        // level 1).
        // charges: separating the two groups at level 1 costs the root
        // edges: cut l-edge at level 0: w=1, pays δ(1)+δ(2)? level-2
        // separation of the pairs costs one 5.0 edge each at δ(2)=1.
        // expected: cut level of l or r = 0 pays 1*(9+1)=10; plus leaf
        // splits: 5*1 per pair = 10 -> total 20. Alternative: everything
        // split at top = much worse.
        let oracle = labelling_cost(&t, &units, &sol.cut_level, &[9.0, 1.0]);
        assert!((oracle - sol.cost).abs() < 1e-9);
        assert!(
            (sol.cost - 20.0).abs() < 1e-9,
            "expected 20, got {}",
            sol.cost
        );
    }

    #[test]
    fn root_signature_is_monotone() {
        let mut b = TreeBuilder::new_root();
        let a = b.add_child(0, 1.0);
        let c = b.add_child(0, 1.0);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        units[a] = 1;
        units[c] = 1;
        let sol = solve_relaxed(&t, &units, &[2, 1], &[1.0, 1.0]).unwrap();
        let sig = &sol.root_signature;
        assert!(sig.windows(2).all(|w| w[0] >= w[1]), "signature {sig:?}");
    }

    #[test]
    fn lane_packing_roundtrips() {
        let mut sig = 0u64;
        sig = sig_with_lane(sig, 0, 17);
        sig = sig_with_lane(sig, 2, 65_535);
        sig = sig_with_lane(sig, 3, 1);
        assert_eq!(sig_lane(sig, 0), 17);
        assert_eq!(sig_lane(sig, 1), 0);
        assert_eq!(sig_lane(sig, 2), 65_535);
        assert_eq!(sig_unpack(sig, 4), vec![17, 0, 65_535, 1]);
        sig = sig_with_lane(sig, 2, 3);
        assert_eq!(sig_lane(sig, 2), 3);
        let mut buf = vec![99; 7];
        sig_unpack_into(sig, 4, &mut buf);
        assert_eq!(buf, vec![17, 0, 3, 1]);
        assert_eq!(sig_lanes(sig, 2).collect::<Vec<_>>(), vec![17, 0]);
    }

    #[test]
    fn widened_parity_caps_force_the_radix_fallback() {
        // the radix-fallback parity test in `tests/dp_exhaustive.rs`
        // widens every cap to at least 40 004 units so the arena takes the
        // radix merge; a compact key needs 17 bits per such lane, so two
        // lanes already overflow DENSE_MAX_BITS (and wider caps only widen)
        for h in 2..=4 {
            assert!(CkLayout::build(&vec![40_004; h], h).is_none(), "h {h}");
        }
    }
}
