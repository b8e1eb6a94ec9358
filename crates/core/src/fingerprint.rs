//! Stable structural fingerprints for caching and request deduplication.
//!
//! A long-running placement service (see `hgp-server`) amortises the
//! expensive Räcke-style tree-distribution construction across requests:
//! Andersen–Feige's analysis (arXiv:0907.3631) observes the distribution
//! depends only on the *topology*, not on which demand matrix is routed
//! over it, so repeat solves on the same communication graph can reuse it.
//! That requires a key. This module provides 64-bit FNV-1a fingerprints of
//! instances, topologies and distribution-build options that are
//!
//! * **stable across processes** (no `DefaultHasher` randomisation), so
//!   cache keys survive restarts and can be logged/compared;
//! * **structural**: two `Instance`s built from identical edge lists and
//!   demand vectors collide on purpose — that is the cache hit.
//!
//! Floating-point values are hashed by bit pattern (`f64::to_bits`), so
//! `-0.0` and `0.0` differ; demands and weights in this codebase are
//! positive, making that distinction irrelevant in practice.

use crate::solver::SolverOptions;
use crate::Instance;
use hgp_decomp::{CutOracle, DecompOpts};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over structural words.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprinter {
    state: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs one 64-bit word, byte by byte.
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `usize` (widened, so 32/64-bit hosts agree).
    pub fn write_usize(&mut self, x: usize) -> &mut Self {
        self.write_u64(x as u64)
    }

    /// Absorbs an `f64` by bit pattern.
    pub fn write_f64(&mut self, x: f64) -> &mut Self {
        self.write_u64(x.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprint of the communication topology and demands: node count, the
/// canonical edge list `(u, v, w)` in graph order, and the demand vector.
pub fn instance_fingerprint(inst: &Instance) -> u64 {
    let g = inst.graph();
    let mut fp = Fingerprinter::new();
    fp.write_usize(g.num_nodes()).write_usize(g.num_edges());
    for (_, u, v, w) in g.edges() {
        fp.write_usize(u.index())
            .write_usize(v.index())
            .write_f64(w);
    }
    for &d in inst.demands() {
        fp.write_f64(d);
    }
    fp.finish()
}

/// Weight-insensitive fingerprint of a communication **topology**: node
/// count, edge count, and the canonical endpoint pairs in graph order —
/// no edge weights, no demands.
///
/// Two instances that differ only in weights/demands collide here on
/// purpose. [`crate::elastic::Session::resolve`] compares this key with the
/// one its cached distribution was built for: a demand or weight edit
/// leaves the topology alone, so the cached trees still biject with the
/// tasks and a warm single-tree re-solve is sound; adding or removing tasks
/// or edges changes the key and forces a cold rebuild.
pub fn topology_fingerprint(g: &hgp_graph::Graph) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_usize(g.num_nodes()).write_usize(g.num_edges());
    for (_, u, v, _) in g.edges() {
        fp.write_usize(u.index()).write_usize(v.index());
    }
    fp.finish()
}

pub(crate) fn write_decomp_opts(fp: &mut Fingerprinter, opts: &DecompOpts) {
    let b = &opts.bisect;
    fp.write_f64(b.target0_frac)
        .write_f64(b.eps)
        .write_usize(b.fm_passes)
        .write_usize(b.tries)
        .write_usize(b.coarsen_until)
        .write_u64(b.no_refine as u64)
        .write_u64(match opts.oracle {
            CutOracle::Multilevel => 0,
            CutOracle::Spectral => 1,
        })
        // the MWU wave width changes which distribution is sampled (it is
        // an algorithm knob, unlike Parallelism), so it feeds the key
        .write_usize(opts.mwu_wave);
}

/// Cache key for a Räcke tree distribution: everything
/// [`crate::Solve::distribution`] reads — the instance topology plus
/// the distribution's construction knobs (`num_trees`, decomposition
/// options, seed). Deliberately excludes the hierarchy and rounding: the
/// same distribution serves solves against any machine shape.
pub fn distribution_fingerprint(inst: &Instance, opts: &SolverOptions) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u64(instance_fingerprint(inst))
        .write_usize(opts.num_trees)
        .write_u64(opts.seed);
    write_decomp_opts(&mut fp, &opts.decomp);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::Graph;

    fn inst() -> Instance {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        Instance::uniform(g, 0.5)
    }

    #[test]
    fn identical_structures_collide() {
        assert_eq!(instance_fingerprint(&inst()), instance_fingerprint(&inst()));
    }

    #[test]
    fn structural_changes_separate() {
        let base = instance_fingerprint(&inst());
        let heavier = Instance::uniform(Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 3.0)]), 0.5);
        assert_ne!(base, instance_fingerprint(&heavier));
        let denser = Instance::uniform(
            Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0)]),
            0.5,
        );
        assert_ne!(base, instance_fingerprint(&denser));
        let hungrier = Instance::uniform(Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]), 0.6);
        assert_ne!(base, instance_fingerprint(&hungrier));
    }

    #[test]
    fn topology_fingerprint_ignores_weights_but_not_structure() {
        let a = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let reweighted = Graph::from_edges(3, &[(0, 1, 9.0), (1, 2, 0.25)]);
        let rewired = Graph::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
        assert_eq!(
            topology_fingerprint(&a),
            topology_fingerprint(&reweighted),
            "weights must not feed the topology key"
        );
        assert_ne!(topology_fingerprint(&a), topology_fingerprint(&rewired));
        // and it differs from the weight-sensitive instance key on purpose
        assert_ne!(
            topology_fingerprint(&a),
            instance_fingerprint(&Instance::uniform(a.clone(), 0.5))
        );
    }

    #[test]
    fn distribution_key_covers_exactly_the_build_inputs() {
        let i = inst();
        let opts = SolverOptions::default();
        let key = distribution_fingerprint(&i, &opts);
        assert_eq!(key, distribution_fingerprint(&i, &opts));
        let mut reseeded = opts;
        reseeded.seed ^= 1;
        assert_ne!(key, distribution_fingerprint(&i, &reseeded));
        let mut waved = opts;
        waved.decomp.mwu_wave = 1;
        assert_ne!(
            key,
            distribution_fingerprint(&i, &waved),
            "the MWU wave width samples a different distribution"
        );
        let mut regridded = opts;
        regridded.rounding = crate::Rounding::with_units(3);
        assert_eq!(
            key,
            distribution_fingerprint(&i, &regridded),
            "the rounding grid belongs to the per-tree DP, not the build"
        );
        let mut wider = opts;
        wider.parallelism = crate::Parallelism::Fixed(7);
        assert_eq!(
            key,
            distribution_fingerprint(&i, &wider),
            "parallelism must not change the key"
        );
        let mut ml = opts;
        ml.multilevel.enabled = true;
        ml.multilevel.coarsen_until += 1;
        assert_eq!(
            key,
            distribution_fingerprint(&i, &ml),
            "multilevel knobs do not change which distribution is sampled"
        );
        let mut traced = opts;
        traced.trace = true;
        assert_eq!(
            key,
            distribution_fingerprint(&i, &traced),
            "tracing is observational and must not change the key"
        );
    }
}
