//! Bit-for-bit pins of the Equation-1 refiners.
//!
//! `refine` (single moves and pair swaps), the FM pass in its unbounded
//! and churn-bounded forms, and the multilevel V-cycle that drives both
//! score every move with `Hierarchy::lca_level`. Their answers — gains,
//! costs, move counts and the placements themselves — are recorded here as
//! literals, so a faster scorer has to reproduce each one exactly, not
//! approximately. The machines cover non-power-of-two degrees, a degree-1
//! level, a non-zero `cm(h)` and height 4, where a mistake in how leaves
//! are encoded or levels looked up shows first; every machine has a
//! distinct multiplier per level, so a level off by one changes a cost.

use hgp::baselines::mapping::random_placement;
use hgp::baselines::refine::{refine, RefineOpts};
use hgp::core::fm::{hier_fm_pass, hier_fm_pass_bounded};
use hgp::core::{Assignment, Instance, MultilevelOptions, Parallelism, SolverOptions};
use hgp::graph::{generators, Graph};
use hgp::hierarchy::{presets, Hierarchy};
use hgp::workloads::suite::scale_suite_sized;
use hgp_multilevel::solve_multilevel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a placement: pins every leaf without a literal per task.
fn fnv(leaves: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &l in leaves {
        for b in l.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn machines() -> Vec<(&'static str, Hierarchy)> {
    vec![
        ("3x5", Hierarchy::new(vec![3, 5], vec![6.0, 2.0, 0.0])),
        (
            "2x3x4",
            Hierarchy::new(vec![2, 3, 4], vec![9.0, 3.0, 1.0, 0.5]),
        ),
        (
            "4x1x3",
            Hierarchy::new(vec![4, 1, 3], vec![8.0, 5.0, 2.0, 0.0]),
        ),
        (
            "2x2x3x2",
            Hierarchy::new(vec![2, 2, 3, 2], vec![16.0, 8.0, 4.0, 1.0, 0.0]),
        ),
    ]
}

/// Two graphs per machine, with demands filling nine tenths of its leaves,
/// so that single moves are often blocked and pair swaps have work to do.
fn instances(k: usize, seed: u64) -> Vec<(&'static str, Instance)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs: [(&str, Graph); 2] = [
        (
            "gnp",
            generators::gnp_connected(&mut rng, 96, 0.06, 0.5, 3.0),
        ),
        (
            "ba",
            generators::barabasi_albert(&mut rng, 160, 2, 0.5, 3.0),
        ),
    ];
    graphs
        .into_iter()
        .map(|(name, g)| {
            let n = g.num_nodes();
            let mean = 0.9 * k as f64 / n as f64;
            let d: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(0.5 * mean..1.5 * mean).min(1.0))
                .collect();
            (name, Instance::new(g, d))
        })
        .collect()
}

fn loads_of(leaf_of: &[u32], w: &[f64], k: usize) -> Vec<f64> {
    let mut loads = vec![0.0; k];
    for (v, &l) in leaf_of.iter().enumerate() {
        loads[l as usize] += w[v];
    }
    loads
}

fn record(case: &str, gain: f64, cost: f64, moves: usize, leaves: &[u32]) -> String {
    format!(
        "{case} gain={:016x} cost={:016x} moves={moves} leaves={:016x}",
        gain.to_bits(),
        cost.to_bits(),
        fnv(leaves)
    )
}

/// Compares line by line and prints every actual record on a mismatch, so
/// a failure shows all that moved, not just the first line.
fn assert_records(actual: &[String], expected: &[&str]) {
    let same = actual.len() == expected.len() && actual.iter().zip(expected).all(|(a, e)| a == e);
    assert!(
        same,
        "records differ from the pinned literals; actual:\n{}",
        actual
            .iter()
            .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
            .map(|(a, e)| {
                let mark = if e.is_some_and(|e| e == a) { " " } else { "!" };
                format!("{mark} {a:?},")
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn refine_answers_are_pinned_bit_for_bit() {
    let variants = [
        ("swaps", RefineOpts::default()),
        (
            "noswaps",
            RefineOpts {
                swaps: false,
                ..Default::default()
            },
        ),
        (
            "cap1.3",
            RefineOpts {
                capacity_factor: 1.3,
                ..Default::default()
            },
        ),
    ];
    let mut actual = Vec::new();
    for (mi, (mname, h)) in machines().into_iter().enumerate() {
        for (gname, inst) in instances(h.num_leaves(), 0xF1_0000 + mi as u64) {
            let start = random_placement(&inst, &h, &mut StdRng::seed_from_u64(mi as u64));
            for (vname, opts) in &variants {
                let mut a = start.clone();
                let gain = refine(&mut a, &inst, &h, opts);
                let case = format!("{mname}/{gname}/{vname}");
                actual.push(record(&case, gain, a.cost(&inst, &h), 0, a.leaves()));
            }
        }
    }
    assert_records(&actual, &REFINE);
}

#[test]
fn fm_pass_answers_are_pinned_bit_for_bit() {
    let mut actual = Vec::new();
    for (mi, (mname, h)) in machines().into_iter().enumerate() {
        for (gname, inst) in instances(h.num_leaves(), 0xF2_0000 + mi as u64) {
            let start = random_placement(&inst, &h, &mut StdRng::seed_from_u64(mi as u64));
            let w = inst.demands();
            let k = h.num_leaves();
            let mut leaf_of = start.leaves().to_vec();
            let mut loads = loads_of(&leaf_of, w, k);
            let gain = hier_fm_pass(inst.graph(), w, &h, &mut leaf_of, &mut loads, 1.0);
            let cost = Assignment::new(leaf_of.clone(), &h).cost(&inst, &h);
            actual.push(record(
                &format!("{mname}/{gname}/fm"),
                gain,
                cost,
                0,
                &leaf_of,
            ));
            for budget in [1, 4, 16, 64] {
                let mut leaf_of = start.leaves().to_vec();
                let mut loads = loads_of(&leaf_of, w, k);
                let out = hier_fm_pass_bounded(
                    inst.graph(),
                    w,
                    &h,
                    &mut leaf_of,
                    &mut loads,
                    1.0,
                    budget,
                );
                let cost = Assignment::new(leaf_of.clone(), &h).cost(&inst, &h);
                actual.push(record(
                    &format!("{mname}/{gname}/fm{budget}"),
                    out.gain,
                    cost,
                    out.moves,
                    &leaf_of,
                ));
            }
        }
    }
    assert_records(&actual, &FM);
}

#[test]
fn multilevel_answers_are_pinned_bit_for_bit() {
    let seed = 0x5CA1_6000;
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let opts = SolverOptions::builder()
        .trees(4)
        .units(4)
        .threads(Parallelism::serial())
        .seed(seed)
        .multilevel(MultilevelOptions {
            enabled: true,
            ..Default::default()
        })
        .build();
    let mut actual = Vec::new();
    for w in scale_suite_sized(seed, h.num_leaves(), 6_000) {
        let rep = solve_multilevel(&w.inst, &h, &opts).unwrap();
        let case = format!(
            "{}/levels{}/kway{}",
            w.name,
            rep.levels,
            u8::from(rep.seeded_by_kway)
        );
        actual.push(record(
            &case,
            rep.refine_gain,
            rep.cost,
            0,
            rep.assignment.leaves(),
        ));
    }
    assert_records(&actual, &MULTILEVEL);
}

const REFINE: [&str; 24] = [
    "3x5/gnp/swaps gain=408f6a6071bb66e3 cost=409bafd4d84c9ba4 moves=0 leaves=982106638c758a48",
    "3x5/gnp/noswaps gain=408c1d797b9c7e4f cost=409d5648535c0fe9 moves=0 leaves=50da9365808ce1fe",
    "3x5/gnp/cap1.3 gain=4094b046e0305605 cost=4096b4be30f9f904 moves=0 leaves=c59315b916a84f3a",
    "3x5/ba/swaps gain=4095f02aca08b6e1 cost=409292e74c63969d moves=0 leaves=7d3bd6ef6d945f06",
    "3x5/ba/noswaps gain=40947fb8d2aa4171 cost=4094035943c20c09 moves=0 leaves=109598980bb62da1",
    "3x5/ba/cap1.3 gain=4096173b218bb901 cost=40926bd6f4e0947f moves=0 leaves=e9e3ed8e80ee872b",
    "2x3x4/gnp/swaps gain=4090e42477b0ba16 cost=40a1cfcf0d2d616e moves=0 leaves=f6320a9b1a5d87b9",
    "2x3x4/gnp/noswaps gain=4092e40705e86096 cost=40a0cfddc6118e2e moves=0 leaves=83af7b52b3c8c114",
    "2x3x4/gnp/cap1.3 gain=4097b715551c6890 cost=409cccad3cef1464 moves=0 leaves=519ef98f0ca55128",
    "2x3x4/ba/swaps gain=4097dd4ef8fe157c cost=40980cc790d027b0 moves=0 leaves=b35d3eed43674fba",
    "2x3x4/ba/noswaps gain=40962586bd367289 cost=4099c48fcc97caa1 moves=0 leaves=34c7b011a6cdd418",
    "2x3x4/ba/cap1.3 gain=409857970fda7f42 cost=4097927f79f3bde2 moves=0 leaves=1201a5ae7c9bfa9a",
    "4x1x3/gnp/swaps gain=40960956a1658c4c cost=40a27957d6596846 moves=0 leaves=9a240406cefad265",
    "4x1x3/gnp/noswaps gain=4093e89afd70e7fa cost=40a389b5a853ba72 moves=0 leaves=d675316c11b5b030",
    "4x1x3/gnp/cap1.3 gain=409951c6b351b550 cost=40a0d51fcd6353cb moves=0 leaves=247d6d5759a45b06",
    "4x1x3/ba/swaps gain=409ee125998edecd cost=409a647015841b9d moves=0 leaves=290ab4851cc353f2",
    "4x1x3/ba/noswaps gain=409c4193ab351218 cost=409d040203dde857 moves=0 leaves=d9f2ed55b8240056",
    "4x1x3/ba/cap1.3 gain=40a1370e9ccd9d80 cost=4096d7787577bf66 moves=0 leaves=8d2580e14fd6b794",
    "2x2x3x2/gnp/swaps gain=40a3b031393e3aaa cost=40b0be25be466bd5 moves=0 leaves=e6d1ca2bcaf6b9f8",
    "2x2x3x2/gnp/noswaps gain=409d0559b4efd626 cost=40b354e7eda993a5 moves=0 leaves=e160f0904f3dba97",
    "2x2x3x2/gnp/cap1.3 gain=40a40b5ff90ef81e cost=40b0908e5e5e0d1d moves=0 leaves=4195d4e0d13e41e2",
    "2x2x3x2/ba/swaps gain=40a8c611c96efa0c cost=40a6a356942b8abc moves=0 leaves=66ffae1711e24220",
    "2x2x3x2/ba/noswaps gain=40a5ddfde0ee75d8 cost=40a98b6a7cac0ef4 moves=0 leaves=2f44bbe8fde1c2d0",
    "2x2x3x2/ba/cap1.3 gain=40aa24176dbf9122 cost=40a54550efdaf3af moves=0 leaves=480a70042f4f1789",
];

const FM: [&str; 40] = [
    "3x5/gnp/fm gain=40912741b9fae2f4 cost=409d51ead94f0572 moves=0 leaves=87d852a10bbe580c",
    "3x5/gnp/fm1 gain=404e169294a16f80 cost=40a6c43bff526e76 moves=1 leaves=3bb82a2be056766b",
    "3x5/gnp/fm4 gain=406902db9fc69c59 cost=40a5ac688fa88a6e moves=4 leaves=0c1f825b0369421e",
    "3x5/gnp/fm16 gain=408084f3c2d5b73d cost=40a31b5958ef8665 moves=16 leaves=3ea8e454956603dc",
    "3x5/gnp/fm64 gain=4091116f510b71e2 cost=409d67bd423e7683 moves=64 leaves=dc84c35b0f08172d",
    "3x5/ba/fm gain=4089c1a55f01ab98 cost=409b26d9243b0b67 moves=0 leaves=59a761165d6dfe45",
    "3x5/ba/fm1 gain=4047cfd61030ae2a cost=40a3a496919d2de0 moves=1 leaves=671e7f053fc62bbf",
    "3x5/ba/fm4 gain=40659672065f8508 cost=40a2aa6ec977f849 moves=4 leaves=49951590df0a854f",
    "3x5/ba/fm16 gain=4078930499a5a7ce cost=40a0f17556a93ba3 moves=16 leaves=1c3aefc5aa77702e",
    "3x5/ba/fm64 gain=4088e386718935eb cost=409b95e89af7463f moves=63 leaves=2196646e2cea28bc",
    "2x3x4/gnp/fm gain=408d11d2fa39b0b6 cost=40a6a2dced8fe97d moves=0 leaves=9f76a2f60535357a",
    "2x3x4/gnp/fm1 gain=40556cbe7ee643e2 cost=40ad3bebb8272387 moves=1 leaves=a2d5c53322ed2e37",
    "2x3x4/gnp/fm4 gain=406de475716363ef cost=40ac090a55081f6c moves=4 leaves=cae458c1faa17d3e",
    "2x3x4/gnp/fm16 gain=408196b9e23c6f16 cost=40a981a3338f39e1 moves=16 leaves=f47e94b780b99bc6",
    "2x3x4/gnp/fm64 gain=408d11d2fa39b0b6 cost=40a6a2dced8fe97d moves=60 leaves=9f76a2f60535357a",
    "2x3x4/ba/fm gain=4090311e4a7b070f cost=409ffc457f3c4767 moves=0 leaves=8ae168d1aa870e7b",
    "2x3x4/ba/fm1 gain=40575e52194df32e cost=40a75bbf5411379f moves=1 leaves=704b53a37137fee1",
    "2x3x4/ba/fm4 gain=406b33549bce3a76 cost=40a6637c9b1ec390 moves=4 leaves=5f53f64dd4043ff2",
    "2x3x4/ba/fm16 gain=407e9b2c7ad39743 cost=40a4434c5581344e moves=16 leaves=2428fc38197c85a4",
    "2x3x4/ba/fm64 gain=408def9ac90a575d cost=40a09acb32991164 moves=64 leaves=80b0cdefcd1197f7",
    "4x1x3/gnp/fm gain=408e42e1760faadb cost=40a65a7ed9b4f4fa moves=0 leaves=bc5494152a3affed",
    "4x1x3/gnp/fm1 gain=4055575674e49970 cost=40ad407c8391bad9 moves=1 leaves=b0036cb82eddbef3",
    "4x1x3/gnp/fm4 gain=4067f6d4deb7a005 cost=40ac6bc9e94d65a6 moves=4 leaves=af8e0b16e6405565",
    "4x1x3/gnp/fm16 gain=408207e9f0daf9e7 cost=40a9693cbb022133 moves=16 leaves=4107b9e303ba409b",
    "4x1x3/gnp/fm64 gain=408e42e1760faadb cost=40a65a7ed9b4f4fa moves=58 leaves=bc5494152a3affed",
    "4x1x3/ba/fm gain=4098142eb688bcf5 cost=409f313d05a28bcd moves=0 leaves=efebe481e18edc71",
    "4x1x3/ba/fm1 gain=405a40401e917e40 cost=40aad0b3dd211870 moves=1 leaves=7335cf321ef36cdd",
    "4x1x3/ba/fm4 gain=407015ece8c8d81b cost=40a99ff840fc895e moves=4 leaves=0a55bd49c95b4589",
    "4x1x3/ba/fm16 gain=4084ff3c9c05151e cost=40a662e6b7145f1b moves=16 leaves=488e8b82d2e070f7",
    "4x1x3/ba/fm64 gain=4095c8205aaef73d cost=40a0bea5b0be28c3 moves=64 leaves=43cbd32eb9173a2f",
    "2x2x3x2/gnp/fm gain=40977ad3b1ca55a4 cost=40b48251d672dabc moves=0 leaves=3e73f60a4561f537",
    "2x2x3x2/gnp/fm1 gain=4069d251a8ab34eb cost=40b9927435a0167f moves=1 leaves=b32702d15c43d18b",
    "2x2x3x2/gnp/fm4 gain=4079c20453aac9e7 cost=40b8c4e67daac385 moves=4 leaves=da4874ea3e84e890",
    "2x2x3x2/gnp/fm16 gain=4088fce64a3b6e66 cost=40b74169f99e0253 moves=16 leaves=2c28fa788baa5a26",
    "2x2x3x2/gnp/fm64 gain=40977ad3b1ca55a4 cost=40b48251d672dabc moves=63 leaves=3e73f60a4561f537",
    "2x2x3x2/ba/fm gain=40a0db464cf1217e cost=40b0b9644361a14a moves=0 leaves=d64765e4212a5e96",
    "2x2x3x2/ba/fm1 gain=406c0279cc283b50 cost=40b846f39b78f02b moves=1 leaves=d23531e75817fd7e",
    "2x2x3x2/ba/fm4 gain=408403cf9055a4a0 cost=40b6a68d77cf7d71 moves=4 leaves=921864567af3c23a",
    "2x2x3x2/ba/fm16 gain=40966882f747691b cost=40b38ce6ac0857bf moves=16 leaves=e27d6527e1741a78",
    "2x2x3x2/ba/fm64 gain=40a0db464cf1217e cost=40b0b9644361a14a moves=57 leaves=d64765e4212a5e96",
];

const MULTILEVEL: [&str; 3] = [
    "grid2d-6k/levels6/kway1 gain=4074df80377956ca cost=4091a163c3d7f687 moves=0 leaves=fff410061a820f3e",
    "powerlaw-6k/levels2/kway1 gain=40b582559e783869 cost=40c030aaccb29d31 moves=0 leaves=331b89eac13a3218",
    "clustered-6k/levels6/kway1 gain=40b5580000000000 cost=40cd2cc000000000 moves=0 leaves=3d1f1cace45d8792",
];
