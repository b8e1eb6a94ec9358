//! # hgp-multilevel — a V-cycle front-end for the exact HGP pipeline
//!
//! The Räcke-distribution + signature-DP pipeline in `hgp-core` is exact
//! (Theorem 1) but sized for hundreds of tasks. This crate lifts it to
//! 10⁵–10⁶-node communication graphs with the standard multilevel scheme
//! (KaHIP/METIS lineage, justified for well-clustered inputs by
//! Manghiuc–Sun, arXiv:2112.09055):
//!
//! 1. **Coarsen** — a ladder of weight-aware contractions; merged node
//!    demands stay within the leaf capacity `CP(1) = 1` (label propagation
//!    within a rounding tolerance of `1e-12`, which the rung instances
//!    clamp away), so every coarse graph is itself a valid [`Instance`],
//!    and each rung records its projection map. Mesh-like rungs use
//!    heavy-edge matching ([`hgp_graph::partition::coarsen_capped`]);
//!    degree-skewed rungs (power-law hubs, detected per rung) use
//!    size-constrained label propagation
//!    ([`hgp_graph::partition::coarsen_lp`]), capped at an 8× shrink per
//!    rung so intermediate resolutions survive for refinement.
//! 2. **Core solve** — the coarsest graph goes to the unchanged
//!    [`Solve`] façade: full tree distribution, arena DP, Theorem-5 repair.
//!    Because the Räcke-tree pipeline is a *bicriteria approximation*, a
//!    handful of independent seed placements — flat k-way recursive
//!    bisection plus the Equation-1 refiner — are scored against it and
//!    the best placement (feasible first, then cheaper) seeds the
//!    uncoarsening. This is the METIS-lineage "multiple initial
//!    partitions, keep the best" rule. The panel is not free: on the
//!    benchmark's 6 000-task instances it is about a quarter of the
//!    V-cycle's time.
//! 3. **Uncoarsen + refine** — the coarse placement is projected back one
//!    rung at a time; at every level a *hierarchy-aware* FM pass moves
//!    nodes between machine leaves scoring moves by true Equation-1 level
//!    costs (an edge crossing level `ℓ` pays `cm(ℓ)`), not flat edge cut.
//!    The pass hill-climbs in classic FM style — capacity-feasible
//!    negative-gain moves are allowed, and the journal rolls back to the
//!    best prefix — so each pass still never increases cost relative to
//!    the projected placement. Mid-sized rungs additionally try a
//!    from-scratch k-way re-seed at that rung's resolution, adopted only
//!    when it is cheaper and no less feasible, which recovers global
//!    packing structure invisible at the coarsest level.
//!
//! The driver reads its knobs from [`SolverOptions::multilevel`]
//! ([`hgp_core::MultilevelOptions`]); with `coarsen_until >= n` no
//! coarsening happens and [`solve_multilevel`] is **bit-identical** to
//! [`Solve::run`] — the parity the root test suite pins down.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use hgp_baselines::kway::{kway_partition, KwayOpts};
use hgp_baselines::refine::{refine, RefineOpts};
use hgp_core::fm::hier_fm_pass;
use hgp_core::solver::HgpReport;
use hgp_core::{Assignment, Instance, Solve, SolveError, SolverOptions};
use hgp_graph::partition::{coarsen_capped, coarsen_lp, Coarsening};
use hgp_graph::{Graph, NodeId};
use hgp_hierarchy::Hierarchy;
use hgp_obs::{names, SolveTrace, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decorrelates the coarsening ladder's RNG stream from the distribution
/// sampler, which consumes `SolverOptions::seed` directly.
const ML_SEED_SALT: u64 = 0x4D4C_5643_5943_4C45; // "MLVCYCLE"

/// Ring capacity for the V-cycle's own span sink (three stage spans plus
/// one per ladder rung fit easily).
const ML_SPAN_CAPACITY: usize = 256;

/// Independent k-way seed placements tried on the coarsest instance, each
/// polished by the Equation-1 refiner with pair swaps. The spread between
/// starts (±0.5 % final cost on clustered inputs) is exactly the margin
/// the bench's every-point acceptance bar needs. The panel is not free:
/// on `scale-ml`'s 6 000-task instances (coarsest graph ≤ 192 nodes, 16
/// leaves) the four starts take 14–16 ms per mesh instance and 45–57 ms
/// per power-law or clustered one on a 2-core Xeon VM, about a quarter of
/// the V-cycle.
const KWAY_SEED_STARTS: usize = 4;

/// Label-propagation sweeps per ladder rung on degree-skewed graphs.
const LP_ROUNDS: usize = 3;

/// Decorrelates the uncoarsening re-seed k-way starts from the ladder and
/// coarse-seed RNG streams.
const RESEED_SALT: u64 = 0x5245_5345_4544_3131; // "RESEED11"

/// Uncoarsening rungs at or below `n / RESEED_DIVISOR` nodes (with a
/// [`RESEED_FLOOR`] floor so tiny instances still qualify) get a
/// from-scratch k-way re-seed scored against the projected placement.
/// The relative gate bounds the extra work by a fraction of the flat
/// baseline's cost while still reaching the mid-sized rungs where global
/// packing structure — e.g. one node per planted cluster — is visible.
const RESEED_DIVISOR: usize = 16;

/// Absolute floor for the re-seed gate (see [`RESEED_DIVISOR`]).
const RESEED_FLOOR: usize = 512;

/// A rung coarsens by at most this factor, so label propagation — which
/// could collapse a power-law graph straight to the capacity floor — still
/// leaves the intermediate resolutions FM refinement needs.
const MAX_SHRINK_PER_LEVEL: usize = 8;

/// A ladder rung as an [`Instance`]. Label propagation admits a cluster
/// up to `1 + 1e-12`, a rounding error above the leaf capacity that
/// [`Instance::new`] rejects, so each demand is clamped to `1`; weights
/// within capacity pass through unchanged.
fn rung_instance(g: &Graph, w: &[f64]) -> Instance {
    Instance::new(g.clone(), w.iter().map(|&d| d.min(1.0)).collect())
}

/// Heavy-edge matching tears hub-and-spoke neighbourhoods apart one pair
/// at a time, so degree-skewed (power-law) graphs coarsen by clustering
/// instead: `true` when the maximum degree is far above the average.
fn degree_skewed(g: &Graph) -> bool {
    let n = g.num_nodes();
    if n == 0 {
        return false;
    }
    let avg = 2.0 * g.num_edges() as f64 / n as f64;
    let max = (0..n)
        .map(|v| g.neighbors(NodeId(v as u32)).count())
        .max()
        .unwrap_or(0);
    max as f64 > 8.0 * avg.max(1.0)
}

/// Outcome of [`solve_multilevel`].
#[derive(Clone, Debug)]
pub struct MlReport {
    /// Final leaf placement on the *original* graph.
    pub assignment: Assignment,
    /// Equation-1 cost of [`assignment`](Self::assignment).
    pub cost: f64,
    /// Worst per-level capacity-violation factor of the final placement.
    pub violation: f64,
    /// Coarsening levels built (0 = no coarsening happened).
    pub levels: usize,
    /// Nodes in the coarsest graph the exact core solved.
    pub coarsest_nodes: usize,
    /// `n / coarsest_nodes` — how much the ladder shrank the instance.
    pub reduction: f64,
    /// Total Equation-1 cost removed by hierarchy-aware refinement.
    pub refine_gain: f64,
    /// Worst per-level violation factor of the *selected* coarse seed
    /// placement. Projection preserves per-leaf loads exactly and FM only
    /// applies moves within `max(1, coarse_violation)` of capacity, so the
    /// final [`violation`](Self::violation) never exceeds this budget
    /// (clamped to at least the nominal capacity 1).
    pub coarse_violation: f64,
    /// `true` iff the k-way + refine seed beat the exact core's placement
    /// on the coarsest instance and seeded the uncoarsening.
    pub seeded_by_kway: bool,
    /// The exact pipeline's report on the coarsest instance. On the
    /// no-coarsening path this *is* the direct solve's report.
    pub core: HgpReport,
    /// V-cycle stage walls (`ml.coarsen` / `ml.core` / `ml.refine`),
    /// level counts and spans; `Some` iff [`SolverOptions::trace`] was
    /// set. The core solve's own trace rides inside [`core`](Self::core).
    pub trace: Option<SolveTrace>,
}

/// One rung of the coarsening ladder, kept for uncoarsening.
struct Level {
    /// The coarsening step that produced this rung's graph.
    step: Coarsening,
}

/// Solves `inst` on `h` through the multilevel V-cycle.
///
/// Honours `opts.multilevel` (`coarsen_until`, `refine_passes`) and every
/// pipeline knob (`seed`, trees, rounding, parallelism…) for the core
/// solve. When `opts.multilevel.coarsen_until >= inst.num_tasks()` this is
/// a pure pass-through: the direct solve's assignment, cost and winning
/// tree are returned unmodified, bit for bit.
///
/// # Errors
/// Propagates every [`SolveError`] of the underlying exact pipeline
/// (infeasibility, disconnected graph, unsupported height, …).
pub fn solve_multilevel(
    inst: &Instance,
    h: &Hierarchy,
    opts: &SolverOptions,
) -> Result<MlReport, SolveError> {
    let n = inst.num_tasks();
    let ml = opts.multilevel;
    if n <= ml.coarsen_until {
        // Bit-identical pass-through: no coarsening means nothing to
        // project and — by contract — nothing to refine.
        let core = Solve::new(inst, h).options(*opts).run()?;
        return Ok(MlReport {
            assignment: core.assignment.clone(),
            cost: core.cost,
            violation: core.violation.worst_factor(),
            levels: 0,
            coarsest_nodes: n,
            reduction: 1.0,
            refine_gain: 0.0,
            coarse_violation: core.violation.worst_factor(),
            seeded_by_kway: false,
            trace: core.trace.clone(),
            core,
        });
    }

    let sink = opts.trace.then(|| TraceSink::new(ML_SPAN_CAPACITY));
    let mut trace = opts.trace.then(SolveTrace::new);

    // ---- 1. coarsening ladder ------------------------------------------
    let coarsen_start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ ML_SEED_SALT);
    let mut ladder: Vec<Level> = Vec::new();
    {
        let _span = sink.as_ref().map(|s| s.span(names::ML_COARSEN));
        loop {
            let (g, w): (&Graph, &[f64]) = match ladder.last() {
                None => (inst.graph(), inst.demands()),
                Some(l) => (&l.step.graph, &l.step.node_w),
            };
            let cur_n = g.num_nodes();
            if cur_n <= ml.coarsen_until {
                break;
            }
            let step = if degree_skewed(g) {
                let floor = ml.coarsen_until.max(cur_n / MAX_SHRINK_PER_LEVEL);
                coarsen_lp(g, w, 1.0, floor, LP_ROUNDS, &mut rng)
            } else {
                coarsen_capped(g, w, 1.0, &mut rng)
            };
            // stalled ladder (capacity-saturated or matching-resistant
            // graphs): solve what we have rather than loop forever
            if step.graph.num_nodes() as f64 > 0.98 * cur_n as f64 {
                break;
            }
            ladder.push(Level { step });
        }
    }
    let coarsen_nanos = coarsen_start.elapsed().as_nanos() as u64;

    let (coarsest_graph, coarsest_w): (&Graph, &[f64]) = match ladder.last() {
        None => (inst.graph(), inst.demands()),
        Some(l) => (&l.step.graph, &l.step.node_w),
    };
    let coarsest_nodes = coarsest_graph.num_nodes();

    // ---- 2. exact core solve on the coarsest instance ------------------
    let core_start = std::time::Instant::now();
    let coarse_inst = rung_instance(coarsest_graph, coarsest_w);
    let (core, seed_assignment, seeded_by_kway) = {
        let _span = sink.as_ref().map(|s| s.span(names::ML_CORE));
        let core = Solve::new(&coarse_inst, h).options(*opts).run()?;
        // Alternative seeds: flat k-way recursive bisection + Equation-1
        // refinement on the coarsest graph, multi-started over a handful of
        // RNG streams (milliseconds each; see KWAY_SEED_STARTS). The
        // packing decisions made here fix the global structure the FM
        // below cannot rearrange. The Räcke-tree core carries a worst-case guarantee but
        // is an approximation, so whichever placement scores best (feasible
        // first, then cheaper) seeds the uncoarsening: the METIS-lineage
        // "multiple initial partitions, keep the best" rule.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ ML_SEED_SALT);
        let mut alt: Option<(f64, f64, Assignment)> = None;
        for _ in 0..KWAY_SEED_STARTS {
            let part = kway_partition(
                coarsest_graph,
                coarsest_w,
                h.num_leaves(),
                &KwayOpts::default(),
                &mut rng,
            );
            let mut a = Assignment::new(part, h);
            refine(&mut a, &coarse_inst, h, &RefineOpts::default());
            let viol = a.violation_report(&coarse_inst, h).worst_factor();
            let cost = a.cost(&coarse_inst, h);
            let better = match &alt {
                None => true,
                Some((bv, bc, _)) => match (viol <= 1.0 + 1e-9, *bv <= 1.0 + 1e-9) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => cost < *bc,
                },
            };
            if better {
                alt = Some((viol, cost, a));
            }
        }
        let (alt_viol, alt_cost, alt) = alt.expect("at least one k-way start");
        // feasible placements outrank infeasible ones; cost breaks the tie
        let core_viol = core.violation.worst_factor();
        let use_alt = match (core_viol <= 1.0 + 1e-9, alt_viol <= 1.0 + 1e-9) {
            (true, false) => false,
            (false, true) => true,
            _ => alt_cost < core.cost,
        };
        if use_alt {
            (core, alt, true)
        } else {
            let a = core.assignment.clone();
            (core, a, false)
        }
    };
    let coarse_violation = seed_assignment
        .violation_report(&coarse_inst, h)
        .worst_factor();
    let core_nanos = core_start.elapsed().as_nanos() as u64;

    // ---- 3. uncoarsen + hierarchy-aware refinement ---------------------
    let refine_start = std::time::Instant::now();
    let seed_leaves: Vec<u32> = seed_assignment.leaves().to_vec();
    // Projection preserves per-leaf loads exactly, so the feasibility
    // budget is whatever the coarse solve achieved (never below the
    // nominal capacity 1).
    let cap = {
        let mut loads = vec![0.0f64; h.num_leaves()];
        for (v, &l) in seed_leaves.iter().enumerate() {
            loads[l as usize] += coarsest_w[v];
        }
        loads.iter().cloned().fold(1.0f64, f64::max)
    };

    // One full uncoarsening descent. With `reseed`, cheap rungs get a
    // second opinion: a k-way + refine placement built at *this*
    // resolution, adopted when it is cheaper and within the capacity
    // budget. Single-node FM cannot re-pack global structure the coarsest
    // blobs froze in (on planted clusters the natural packing granularity
    // — one node per cluster — only exists at an intermediate rung), but
    // a from-scratch partition at that rung can. Both the rung sequence
    // and the RNG stream are independent of `refine_passes`, so the
    // refined-vs-projected cost monotonicity test still compares like
    // with like. Returns the final leaves, summed FM gain, and how many
    // re-seeds were adopted.
    let run_uncoarsen = |reseed: bool| -> (Vec<u32>, f64, usize) {
        let mut leaf_of = seed_leaves.clone();
        let mut refine_gain = 0.0;
        let mut adopted = 0usize;
        let mut loads = vec![0.0f64; h.num_leaves()];
        // refine the coarsest level in place first, then each projection
        let mut reseed_rng = StdRng::seed_from_u64(opts.seed ^ RESEED_SALT);
        for lvl in (0..=ladder.len()).rev() {
            if lvl < ladder.len() {
                // project one rung down: fine node v lives where its
                // coarse parent was placed
                let map = &ladder[lvl].step.map;
                leaf_of = map.iter().map(|&c| leaf_of[c as usize]).collect();
            }
            let (g, w): (&Graph, &[f64]) = if lvl == 0 {
                (inst.graph(), inst.demands())
            } else {
                (&ladder[lvl - 1].step.graph, &ladder[lvl - 1].step.node_w)
            };
            loads.iter_mut().for_each(|l| *l = 0.0);
            for (v, &l) in leaf_of.iter().enumerate() {
                loads[l as usize] += w[v];
            }
            for _ in 0..ml.refine_passes {
                let gain = hier_fm_pass(g, w, h, &mut leaf_of, &mut loads, cap);
                refine_gain += gain;
                if gain <= 1e-12 {
                    break;
                }
            }
            if reseed && g.num_nodes() <= (n / RESEED_DIVISOR).max(RESEED_FLOOR) {
                let rung_inst = rung_instance(g, w);
                let part =
                    kway_partition(g, w, h.num_leaves(), &KwayOpts::default(), &mut reseed_rng);
                let mut alt = Assignment::new(part, h);
                // relocation-only: pair swaps are O(n²) per pass and the
                // hierarchy-aware FM below polishes the winner anyway
                let reseed_refine = RefineOpts {
                    swaps: false,
                    ..Default::default()
                };
                refine(&mut alt, &rung_inst, h, &reseed_refine);
                let alt_worst = alt.violation_report(&rung_inst, h).worst_factor();
                if alt_worst <= cap + 1e-9 {
                    let cur = Assignment::new(leaf_of.clone(), h);
                    if alt.cost(&rung_inst, h) < cur.cost(&rung_inst, h) {
                        adopted += 1;
                        leaf_of = alt.leaves().to_vec();
                        loads.iter_mut().for_each(|l| *l = 0.0);
                        for (v, &l) in leaf_of.iter().enumerate() {
                            loads[l as usize] += w[v];
                        }
                    }
                }
            }
        }
        (leaf_of, refine_gain, adopted)
    };

    // A rung-local re-seed adoption is greedy: a placement cheaper at its
    // own resolution can descend to a worse final cost than the plain FM
    // trajectory would have reached. Run both arms and keep the cheaper
    // *final* placement; when nothing was adopted the arms are identical
    // and the second descent is skipped. The plain arm alone satisfies
    // refined-cost ≤ projected-cost, so the min does too.
    let (leaf_of, refine_gain) = {
        let _span = sink.as_ref().map(|s| s.span(names::ML_REFINE));
        let (leaf_a, gain_a, adopted) = run_uncoarsen(true);
        if adopted == 0 {
            (leaf_a, gain_a)
        } else {
            let (leaf_b, gain_b, _) = run_uncoarsen(false);
            let cost_a = Assignment::new(leaf_a.clone(), h).cost(inst, h);
            let cost_b = Assignment::new(leaf_b.clone(), h).cost(inst, h);
            if cost_a < cost_b {
                (leaf_a, gain_a)
            } else {
                (leaf_b, gain_b)
            }
        }
    };
    let refine_nanos = refine_start.elapsed().as_nanos() as u64;

    let assignment = Assignment::new(leaf_of, h);
    let cost = assignment.cost(inst, h);
    let violation = assignment.violation_report(inst, h).worst_factor();

    if let Some(t) = trace.as_mut() {
        t.stage(names::ML_COARSEN, coarsen_nanos);
        t.stage(names::ML_CORE, core_nanos);
        t.stage(names::ML_REFINE, refine_nanos);
        t.count(names::ML_LEVELS, ladder.len() as u64);
        t.count(names::ML_COARSEST_NODES, coarsest_nodes as u64);
        t.count(names::ML_SEEDED_BY_KWAY, u64::from(seeded_by_kway));
        if let Some(s) = sink.as_ref() {
            t.absorb_sink(s);
        }
    }

    Ok(MlReport {
        assignment,
        cost,
        violation,
        levels: ladder.len(),
        coarsest_nodes,
        reduction: n as f64 / coarsest_nodes.max(1) as f64,
        refine_gain,
        coarse_violation,
        seeded_by_kway,
        core,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_core::MultilevelOptions;
    use hgp_graph::generators;
    use hgp_hierarchy::presets;
    use rand::Rng;

    fn opts_ml(coarsen_until: usize) -> SolverOptions {
        SolverOptions::builder()
            .trees(4)
            .units(4)
            .seed(0xBEEF)
            .multilevel(MultilevelOptions {
                enabled: true,
                coarsen_until,
                refine_passes: 4,
            })
            .build()
    }

    fn mesh_instance(rows: usize, cols: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::grid2d(&mut rng, rows, cols, 0.5, 2.0);
        let n = rows * cols;
        let demands: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..0.04)).collect();
        Instance::new(g, demands)
    }

    #[test]
    fn vcycle_coarsens_solves_and_projects() {
        let inst = mesh_instance(24, 24, 7);
        let h = presets::multicore(4, 4, 4.0, 1.0);
        let rep = solve_multilevel(&inst, &h, &opts_ml(128)).unwrap();
        assert!(
            rep.levels >= 2,
            "576 nodes must coarsen, got {}",
            rep.levels
        );
        assert!(rep.coarsest_nodes <= 128);
        assert!(rep.reduction > 4.0);
        assert_eq!(rep.assignment.num_tasks(), 576);
        assert!(rep.cost.is_finite() && rep.cost > 0.0);
        // the refined projection must stay within the selected coarse
        // seed's feasibility budget
        assert!(rep
            .assignment
            .is_feasible(&inst, &h, rep.coarse_violation.max(1.0) + 1e-9));
    }

    #[test]
    fn refinement_never_increases_eq1_cost() {
        let inst = mesh_instance(16, 16, 11);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        let rep = solve_multilevel(&inst, &h, &opts_ml(64)).unwrap();
        // projected-without-refinement cost = final cost + claimed gain;
        // the claim must be honest up to fp noise
        assert!(rep.refine_gain >= 0.0);
        let unrefined = {
            let mut o = opts_ml(64);
            o.multilevel.refine_passes = 0;
            solve_multilevel(&inst, &h, &o).unwrap()
        };
        assert!(
            rep.cost <= unrefined.cost + 1e-9,
            "refined {} > unrefined {}",
            rep.cost,
            unrefined.cost
        );
    }

    #[test]
    fn passthrough_is_bit_identical_to_direct_solve() {
        let inst = mesh_instance(8, 8, 3);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        let opts = opts_ml(64); // coarsen_until >= n = 64
        let direct = Solve::new(&inst, &h).options(opts).run().unwrap();
        let ml = solve_multilevel(&inst, &h, &opts).unwrap();
        assert_eq!(ml.levels, 0);
        assert_eq!(ml.cost.to_bits(), direct.cost.to_bits());
        assert_eq!(ml.assignment.leaves(), direct.assignment.leaves());
        assert_eq!(ml.core.best_tree, direct.best_tree);
    }

    #[test]
    fn multilevel_is_deterministic() {
        let inst = mesh_instance(20, 20, 5);
        let h = presets::multicore(4, 4, 4.0, 1.0);
        let a = solve_multilevel(&inst, &h, &opts_ml(100)).unwrap();
        let b = solve_multilevel(&inst, &h, &opts_ml(100)).unwrap();
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.assignment.leaves(), b.assignment.leaves());
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn coarse_weights_a_rounding_error_over_capacity_still_solve() {
        // uniform demands on a power-law graph: label propagation fills
        // clusters a rounding error past 1, which a rung instance must
        // accept rather than panic on
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(&mut rng, 16_384, 2, 0.5, 3.0);
        let inst = Instance::new(g, vec![0.8 * 16.0 / 16_384.0; 16_384]);
        let h = presets::multicore(4, 4, 4.0, 1.0);
        let opts = SolverOptions::builder()
            .trees(4)
            .units(4)
            .threads(hgp_core::Parallelism::serial())
            .seed(1)
            .multilevel(MultilevelOptions {
                enabled: true,
                ..Default::default()
            })
            .build();
        let rep = solve_multilevel(&inst, &h, &opts).unwrap();
        assert!(rep.levels >= 1);
        assert_eq!(rep.assignment.num_tasks(), 16_384);
        assert!(rep.cost.is_finite() && rep.cost > 0.0);
    }

    #[test]
    fn trace_records_vcycle_stages() {
        let inst = mesh_instance(16, 16, 9);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        let opts = opts_ml(64).to_builder().trace(true).build();
        let rep = solve_multilevel(&inst, &h, &opts).unwrap();
        let t = rep.trace.expect("trace requested");
        for stage in [names::ML_COARSEN, names::ML_CORE, names::ML_REFINE] {
            assert!(t.stage_nanos(stage).is_some(), "missing stage {stage}");
        }
        assert_eq!(t.count_of(names::ML_LEVELS), Some(rep.levels as u64));
        assert_eq!(
            t.count_of(names::ML_COARSEST_NODES),
            Some(rep.coarsest_nodes as u64)
        );
        // untraced runs carry no trace
        let untraced = solve_multilevel(&inst, &h, &opts_ml(64)).unwrap();
        assert!(untraced.trace.is_none());
        // and tracing never changes the answer
        assert_eq!(rep.cost.to_bits(), untraced.cost.to_bits());
        assert_eq!(rep.assignment.leaves(), untraced.assignment.leaves());
    }
}
