//! The hierarchy tree `H`: machine/cluster topologies with per-level
//! communication cost multipliers.
//!
//! `H` has height `h` and is regular at every level: each Level-`j` node has
//! exactly `DEG(j)` children (`j ∈ 0..h`), so there are `k = Π DEG(j)`
//! leaves, each of capacity 1. Level `j` carries a cost multiplier `cm(j)`
//! with `cm(0) ≥ cm(1) ≥ … ≥ cm(h)`: an edge of the task graph whose
//! endpoints are assigned to leaves whose lowest common ancestor sits at
//! level `j` costs `cm(j) · w(e)` (Equation 1 of the paper).
//!
//! Because `H` is regular, leaves are identified by dense indices
//! `0..k` and ancestors are pure arithmetic. The one per-leaf table is
//! the LCA code: each leaf's child digit at every level, packed into a
//! `u64` with level 0 most significant, so that the LCA level of two
//! leaves is the field of the highest bit in which their codes differ —
//! one XOR, one leading-zero count and one lookup per edge instead of a
//! division per level (see [`Hierarchy::lca_level`]). It costs 8 bytes per
//! leaf, shared between clones; no other tree structure is materialised.

#![warn(missing_docs)]

pub mod parse;
pub mod presets;

pub use parse::{parse_hierarchy, ParseErrorKind, ParseHierarchyError};

use std::sync::Arc;

/// A regular hierarchy tree with cost multipliers.
///
/// Invariants (checked at construction):
/// * `degrees.len() == h ≥ 1`, every degree ≥ 1 (level `j` nodes have
///   `degrees[j]` children);
/// * `cost_multipliers.len() == h + 1`, entries finite, non-negative and
///   non-increasing.
///
/// Equality compares the shape and the multipliers; the derived tables
/// (capacities, LCA codes) follow from them. Clones share the LCA codes,
/// so a clone costs O(h), not O(k).
#[derive(Clone)]
pub struct Hierarchy {
    degrees: Vec<usize>,
    cm: Vec<f64>,
    /// cp[j] = number of leaves under a Level-j node; cp[h] = 1.
    cp: Vec<usize>,
    /// code[leaf] = the leaf's child digit at each level `j`, in a field
    /// `ceil(log2 DEG(j))` bits wide, level 0 most significant.
    code: Arc<[u64]>,
    /// level_of_len[b] = the level whose field holds bit `b - 1` of a
    /// code, so that it maps the bit length of `code[a] ^ code[b]` to the
    /// LCA level; level_of_len[0] = h (equal codes, equal leaves). Boxed
    /// to keep `Hierarchy` small where it is embedded by value.
    level_of_len: Box<[usize; 65]>,
}

impl PartialEq for Hierarchy {
    fn eq(&self, other: &Self) -> bool {
        self.degrees == other.degrees && self.cm == other.cm
    }
}

impl std::fmt::Debug for Hierarchy {
    /// The shape, multipliers and capacities; the `k` LCA codes are left
    /// out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("degrees", &self.degrees)
            .field("cm", &self.cm)
            .field("cp", &self.cp)
            .finish_non_exhaustive()
    }
}

impl Hierarchy {
    /// Builds a hierarchy of height `degrees.len()` with the given per-level
    /// cost multipliers (`cost_multipliers[j] = cm(j)`, one per level
    /// `0..=h`).
    ///
    /// # Panics
    /// Panics if the invariants described on [`Hierarchy`] are violated,
    /// or if the tree has more than 2³² leaves (leaves are `u32` indices
    /// in every placement).
    pub fn new(degrees: Vec<usize>, cost_multipliers: Vec<f64>) -> Self {
        assert!(!degrees.is_empty(), "hierarchy height must be at least 1");
        assert!(
            degrees.iter().all(|&d| d >= 1),
            "every level degree must be at least 1"
        );
        check_multipliers(&cost_multipliers, degrees.len());
        let (cp, shift, level_of_len) = layout(&degrees);
        // leaf order is mixed radix with level 0 most significant, so
        // expanding the codes of one level into their children's, in
        // place and back to front, lists the codes in leaf order; the
        // slice is allocated once and written O(k) times per level at most
        let mut code: Arc<[u64]> = (0..cp[0]).map(|_| 0).collect();
        let slots = Arc::get_mut(&mut code).expect("a fresh slice is unshared");
        let mut len = 1;
        for (j, &d) in degrees.iter().enumerate() {
            for i in (0..len).rev() {
                let parent = slots[i];
                for (digit, slot) in slots[i * d..(i + 1) * d].iter_mut().enumerate() {
                    *slot = parent | (digit as u64) << shift[j];
                }
            }
            len *= d;
        }
        Self {
            degrees,
            cm: cost_multipliers,
            cp,
            code,
            level_of_len,
        }
    }

    /// Adds `groups` children to the root. Every existing leaf keeps its
    /// index and its LCA code (level 0 owns the most significant field),
    /// so a placement carries over verbatim. The codes keep spare room
    /// and are extended in place while unshared, so a run of growths
    /// costs amortised `O(groups · CP(1))` each, not `O(k)`.
    ///
    /// # Panics
    /// Panics if the grown tree would have more than 2³² leaves.
    pub fn grow_root(&mut self, groups: usize) {
        let mut degrees = self.degrees.clone();
        degrees[0] = degrees[0]
            .checked_add(groups)
            .expect("root degree overflows usize");
        let (cp, shift, level_of_len) = layout(&degrees);
        let (old_k, new_k, cp1) = (self.cp[0], cp[0], cp[1]);
        if Arc::get_mut(&mut self.code).is_none_or(|c| c.len() < new_k) {
            let mut grown: Arc<[u64]> = (0..new_k.max(2 * old_k)).map(|_| 0).collect();
            Arc::get_mut(&mut grown).expect("a fresh slice is unshared")[..old_k]
                .copy_from_slice(&self.code[..old_k]);
            self.code = grown;
        }
        let code = Arc::get_mut(&mut self.code).expect("unshared after the copy");
        // a new root child's leaves repeat the first child's codes under
        // their own root digit
        for root_digit in self.degrees[0]..degrees[0] {
            for i in 0..cp1 {
                code[root_digit * cp1 + i] = (root_digit as u64) << shift[0] | code[i];
            }
        }
        self.degrees = degrees;
        self.cp = cp;
        self.level_of_len = level_of_len;
    }

    /// Sets `cm(level)`, keeping the shape and the LCA codes: `O(h)`.
    ///
    /// # Panics
    /// Panics if the multipliers would break the invariants described on
    /// [`Hierarchy`].
    pub fn set_cost_multiplier(&mut self, level: usize, multiplier: f64) {
        let mut cm = self.cm.clone();
        cm[level] = multiplier;
        check_multipliers(&cm, self.height());
        self.cm = cm;
    }

    /// Height `h` of the tree (leaves are at level `h`).
    #[inline]
    pub fn height(&self) -> usize {
        self.degrees.len()
    }

    /// Number of leaves `k = CP(0)`.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.cp[0]
    }

    /// `DEG(j)`: the number of children of a Level-`j` node, `j ∈ 0..h`.
    #[inline]
    pub fn degree(&self, level: usize) -> usize {
        self.degrees[level]
    }

    /// `CP(j)`: the number of leaves (capacity) under a Level-`j` node.
    /// `CP(h) = 1`.
    #[inline]
    pub fn capacity(&self, level: usize) -> usize {
        self.cp[level]
    }

    /// `cm(j)`: cost multiplier for edges whose endpoints' LCA is at level
    /// `j`.
    #[inline]
    pub fn cost_multiplier(&self, level: usize) -> f64 {
        self.cm[level]
    }

    /// Number of Level-`j` nodes (`k / CP(j)`).
    #[inline]
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.cp[0] / self.cp[level]
    }

    /// The index (among Level-`j` nodes, left to right) of the Level-`j`
    /// ancestor of `leaf`.
    #[inline]
    pub fn ancestor_at_level(&self, leaf: usize, level: usize) -> usize {
        debug_assert!(leaf < self.num_leaves());
        leaf / self.cp[level]
    }

    /// Level of the lowest common ancestor of two leaves (two equal leaves
    /// have LCA level `h`): the deepest level at which their ancestors
    /// coincide, i.e. the first level, from the root down, whose child
    /// digits differ. Codes keep level 0 in the most significant field, so
    /// that level owns the highest bit of `code[a] ^ code[b]`.
    #[inline]
    pub fn lca_level(&self, a: usize, b: usize) -> usize {
        let x = self.code[a] ^ self.code[b];
        self.level_of_len[(u64::BITS - x.leading_zeros()) as usize]
    }

    /// The communication cost multiplier applied to an edge whose endpoints
    /// live on leaves `a` and `b` — `cm(LCA level)`. This is the per-edge
    /// factor in Equation 1 of the paper.
    #[inline]
    pub fn edge_multiplier(&self, a: usize, b: usize) -> f64 {
        self.cm[self.lca_level(a, b)]
    }

    /// True if `cm(h) == 0` (the normalised form assumed throughout §2+ of
    /// the paper).
    pub fn is_normalized(&self) -> bool {
        self.cm[self.height()] == 0.0
    }

    /// Lemma 1: converts to normalised cost multipliers. Returns the
    /// normalised hierarchy and the constant `cm(h)` that was subtracted
    /// from every level. For any assignment `p`,
    /// `cost_original(p) = cost_normalized(p) + cm(h) · Σ_e w(e)`,
    /// so optimising the normalised instance optimises the original.
    pub fn normalized(&self) -> (Hierarchy, f64) {
        let shift = self.cm[self.height()];
        let cm = self.cm.iter().map(|c| c - shift).collect();
        (Hierarchy { cm, ..self.clone() }, shift)
    }

    /// The per-level cost *deltas* `(cm(j-1) - cm(j)) / 2` for `j ∈ 1..=h`,
    /// as used by the mirror-function cost (Equation 3). Index 0 of the
    /// returned vector corresponds to `j = 1`.
    pub fn half_deltas(&self) -> Vec<f64> {
        (1..=self.height())
            .map(|j| (self.cm[j - 1] - self.cm[j]) / 2.0)
            .collect()
    }
}

/// Asserts one multiplier per level `0..=h`, each finite and
/// non-negative, non-increasing with level.
fn check_multipliers(cm: &[f64], h: usize) {
    assert_eq!(cm.len(), h + 1, "need one cost multiplier per level 0..=h");
    assert!(
        cm.iter().all(|c| c.is_finite() && *c >= 0.0),
        "cost multipliers must be finite and non-negative"
    );
    assert!(
        cm.windows(2).all(|w| w[0] >= w[1]),
        "cost multipliers must be non-increasing with level"
    );
}

/// The shape's capacities `CP(0..=h)`, the bit offset of each level's
/// code field, and the table from the bit length of `code[a] ^ code[b]`
/// to the LCA level.
///
/// # Panics
/// Panics on more than 2³² leaves (leaves are `u32` indices in every
/// placement).
fn layout(degrees: &[usize]) -> (Vec<usize>, Vec<u32>, Box<[usize; 65]>) {
    let h = degrees.len();
    let mut cp = vec![1usize; h + 1];
    for j in (0..h).rev() {
        cp[j] = cp[j + 1]
            .checked_mul(degrees[j])
            .expect("leaf count overflows usize");
    }
    assert!(
        cp[0] as u64 <= 1 << 32,
        "more than 2^32 leaves: leaves are u32 indices"
    );
    // field j is ceil(log2 DEG(j)) bits wide (0 for a degree-1 level);
    // each such field takes at most twice the bits of log2 DEG(j), so
    // k <= 2^32 keeps the whole code within 64 bits
    let width: Vec<u32> = degrees
        .iter()
        .map(|&d| usize::BITS - (d - 1).leading_zeros())
        .collect();
    assert!(width.iter().sum::<u32>() <= 64, "LCA code exceeds 64 bits");
    let mut shift = vec![0u32; h];
    for j in (0..h - 1).rev() {
        shift[j] = shift[j + 1] + width[j + 1];
    }
    let mut level_of_len = Box::new([0usize; 65]);
    level_of_len[0] = h;
    for j in 0..h {
        for bit in shift[j]..shift[j] + width[j] {
            level_of_len[bit as usize + 1] = j;
        }
    }
    (cp, shift, level_of_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Hierarchy {
        // 2 sockets × 3 cores, remote:shared:local = 4:1:0
        Hierarchy::new(vec![2, 3], vec![4.0, 1.0, 0.0])
    }

    #[test]
    fn capacities_and_counts() {
        let h = two_level();
        assert_eq!(h.height(), 2);
        assert_eq!(h.num_leaves(), 6);
        assert_eq!(h.capacity(0), 6);
        assert_eq!(h.capacity(1), 3);
        assert_eq!(h.capacity(2), 1);
        assert_eq!(h.nodes_at_level(1), 2);
        assert_eq!(h.nodes_at_level(2), 6);
    }

    #[test]
    fn lca_levels() {
        let h = two_level();
        assert_eq!(h.lca_level(0, 0), 2); // same leaf
        assert_eq!(h.lca_level(0, 2), 1); // same socket
        assert_eq!(h.lca_level(0, 3), 0); // across sockets
        assert_eq!(h.lca_level(5, 3), 1);
        assert!((h.edge_multiplier(0, 2) - 1.0).abs() < 1e-12);
        assert!((h.edge_multiplier(0, 3) - 4.0).abs() < 1e-12);
        assert!((h.edge_multiplier(1, 1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ancestors() {
        let h = two_level();
        assert_eq!(h.ancestor_at_level(4, 1), 1);
        assert_eq!(h.ancestor_at_level(2, 1), 0);
        assert_eq!(h.ancestor_at_level(5, 0), 0);
        assert_eq!(h.ancestor_at_level(5, 2), 5);
    }

    #[test]
    fn normalization_lemma1() {
        let h = Hierarchy::new(vec![2, 2], vec![5.0, 3.0, 2.0]);
        assert!(!h.is_normalized());
        let (hn, shift) = h.normalized();
        assert!((shift - 2.0).abs() < 1e-12);
        assert!(hn.is_normalized());
        // edge multipliers drop uniformly by the shift
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 3), (2, 2)] {
            assert!(
                (h.edge_multiplier(a, b) - hn.edge_multiplier(a, b) - shift).abs() < 1e-12,
                "multiplier shift mismatch for ({a},{b})"
            );
        }
    }

    #[test]
    fn half_deltas_match_cm() {
        let h = Hierarchy::new(vec![2, 2], vec![5.0, 3.0, 0.0]);
        let d = h.half_deltas();
        assert_eq!(d.len(), 2);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn three_level_lca() {
        // 2 racks × 2 servers × 2 cores
        let h = Hierarchy::new(vec![2, 2, 2], vec![10.0, 4.0, 1.0, 0.0]);
        assert_eq!(h.num_leaves(), 8);
        assert_eq!(h.lca_level(0, 1), 2);
        assert_eq!(h.lca_level(0, 2), 1);
        assert_eq!(h.lca_level(0, 4), 0);
        assert_eq!(h.lca_level(6, 7), 2);
        assert_eq!(h.lca_level(5, 6), 1);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_increasing_multipliers() {
        Hierarchy::new(vec![2], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one cost multiplier per level")]
    fn rejects_wrong_multiplier_count() {
        Hierarchy::new(vec![2, 2], vec![1.0, 0.0]);
    }

    /// The definition `lca_level` answers by table: the deepest level at
    /// which the two leaves' ancestors coincide, found by division.
    fn lca_by_division(h: &Hierarchy, a: usize, b: usize) -> usize {
        (0..=h.height())
            .rev()
            .find(|&l| a / h.capacity(l) == b / h.capacity(l))
            .unwrap()
    }

    /// Checks one pair against the division definition, and that
    /// `edge_multiplier` and `ancestor_at_level` agree with it.
    fn check_pair(h: &Hierarchy, a: usize, b: usize) {
        let l = lca_by_division(h, a, b);
        assert_eq!(h.lca_level(a, b), l, "{h:?}: lca({a}, {b})");
        assert_eq!(
            h.edge_multiplier(a, b).to_bits(),
            h.cost_multiplier(l).to_bits()
        );
        for j in 0..=h.height() {
            let same = h.ancestor_at_level(a, j) == h.ancestor_at_level(b, j);
            assert_eq!(same, j <= l, "{h:?}: ancestors of {a}, {b} at {j}");
        }
    }

    #[test]
    fn lca_level_matches_division_on_every_pair() {
        let shapes: [&[usize]; 14] = [
            &[1],
            &[5],
            &[2, 3],
            &[3, 5],
            &[1, 4],
            &[4, 1],
            &[2, 1, 3],
            &[2, 3, 4],
            &[1, 1, 2],
            &[3, 1, 1, 2],
            &[2, 2, 3, 2],
            &[7, 1, 5],
            &[5, 3, 1],
            &[2, 2, 2, 2],
        ];
        for degrees in shapes {
            let cm: Vec<f64> = (0..=degrees.len()).rev().map(|j| j as f64).collect();
            let h = Hierarchy::new(degrees.to_vec(), cm);
            let k = h.num_leaves();
            for a in 0..k {
                for b in 0..k {
                    check_pair(&h, a, b);
                }
            }
        }
    }

    #[test]
    fn lca_level_matches_division_at_the_leaf_cap() {
        // splitmix64: a seeded stream without a dependency
        let mut state = 0x1CA_2014u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize
        };
        for desc in [
            "65536",
            "256x256",
            "16x16x16x16",
            "4x4x4096",
            "2x1x32768",
            "3x5x7x624",
        ] {
            let h = parse_hierarchy(desc).unwrap();
            let k = h.num_leaves();
            assert!(k <= parse::MAX_PARSE_LEAVES && k > 60_000, "{desc}");
            check_pair(&h, 0, k - 1);
            for _ in 0..20_000 {
                let a = next() % k;
                // a partner under a random-level ancestor of `a`, so every
                // LCA level is drawn, not only the root
                let cp = h.capacity(next() % (h.height() + 1));
                let b = a / cp * cp + next() % cp;
                check_pair(&h, a, b);
                check_pair(&h, a, next() % k);
            }
        }
    }

    #[test]
    fn equality_and_debug_ignore_the_lca_table() {
        let h = Hierarchy::new(vec![2, 3], vec![4.0, 1.0, 0.0]);
        assert_eq!(h, two_level());
        assert_ne!(h, Hierarchy::new(vec![2, 3], vec![4.0, 2.0, 0.0]));
        assert_ne!(h, Hierarchy::new(vec![3, 2], vec![4.0, 1.0, 0.0]));
        let (hn, _) = Hierarchy::new(vec![2, 2], vec![5.0, 3.0, 2.0]).normalized();
        assert_eq!(hn, Hierarchy::new(vec![2, 2], vec![3.0, 1.0, 0.0]));
        let big = format!("{:?}", parse_hierarchy("65536").unwrap());
        assert!(big.len() < 200, "Debug dumps per-leaf state: {big}");
    }

    #[test]
    fn grown_root_scores_like_a_fresh_build() {
        for (degrees, growths) in [
            (vec![1], vec![1, 1, 2, 5, 1, 30]),
            (vec![2, 3], vec![1, 2, 1, 9]),
            (vec![3, 1, 2], vec![4, 1, 1]),
            (vec![1, 2, 2], vec![1, 3, 7]),
        ] {
            let cm: Vec<f64> = (0..=degrees.len()).rev().map(|j| j as f64).collect();
            let mut h = Hierarchy::new(degrees.clone(), cm.clone());
            let mut deg0 = degrees[0];
            for (step, groups) in growths.into_iter().enumerate() {
                // every other growth happens while a clone shares the
                // codes (it must keep its own shape); the others extend
                // them in place
                let before = (step % 2 == 0).then(|| h.clone());
                h.grow_root(groups);
                deg0 += groups;
                let mut shape = degrees.clone();
                shape[0] = deg0;
                let fresh = Hierarchy::new(shape, cm.clone());
                assert_eq!(h, fresh);
                assert_eq!(h.num_leaves(), fresh.num_leaves());
                for a in 0..h.num_leaves() {
                    for b in 0..h.num_leaves() {
                        check_pair(&h, a, b);
                    }
                }
                if let Some(before) = before {
                    for a in 0..before.num_leaves() {
                        for b in 0..before.num_leaves() {
                            check_pair(&before, a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn set_cost_multiplier_keeps_the_shape() {
        let mut h = parse_hierarchy("2x3x4:8,4,2,0").unwrap();
        h.set_cost_multiplier(1, 5.0);
        assert_eq!(h, parse_hierarchy("2x3x4:8,5,2,0").unwrap());
        for a in 0..h.num_leaves() {
            for b in 0..h.num_leaves() {
                check_pair(&h, a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn set_cost_multiplier_rejects_an_increasing_level() {
        parse_hierarchy("2x3:4,1,0")
            .unwrap()
            .set_cost_multiplier(2, 2.0);
    }

    #[test]
    #[should_panic(expected = "more than 2^32 leaves")]
    fn rejects_more_leaves_than_u32_indices() {
        Hierarchy::new(vec![1 << 16, 1 << 16, 2], vec![2.0, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn flat_hierarchy_is_kbgp() {
        let h = Hierarchy::new(vec![4], vec![1.0, 0.0]);
        assert_eq!(h.height(), 1);
        assert_eq!(h.num_leaves(), 4);
        assert_eq!(h.lca_level(0, 1), 0);
        assert_eq!(h.lca_level(2, 2), 1);
    }
}
