//! The multilevel front-end at 20 000 tasks: on each scale family the
//! V-cycle's Eq.-1 cost stays within 2 % of its recorded anchor and never
//! loses to flat k-way partitioning followed by the Eq.-1 refiner. Costs
//! are deterministic for a fixed seed, so any drift is a code change.
//! Experiment F6 runs the same configuration from 10³ to 10⁶ tasks.

use hgp::baselines::kway::{kway_partition, KwayOpts};
use hgp::baselines::refine::{refine, RefineOpts};
use hgp::core::{Assignment, MultilevelOptions, SolverOptions};
use hgp::hierarchy::presets;
use hgp::workloads::suite::scale_suite_sized;
use hgp_multilevel::solve_multilevel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(family, multilevel cost)` at n = 20 000, seed `0x5CA1_2014`.
const ANCHORS: [(&str, f64); 3] = [
    ("grid2d-20k", 2037.5564229519644),
    ("powerlaw-20k", 28657.676819494904),
    ("clustered-20k", 8334.0),
];

#[test]
fn multilevel_holds_the_20k_anchors_and_beats_flat() {
    let seed = 0x5CA1_2014;
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let opts = SolverOptions::builder()
        .trees(4)
        .units(4)
        .seed(seed)
        .multilevel(MultilevelOptions {
            enabled: true,
            ..Default::default()
        })
        .build();
    let suite = scale_suite_sized(seed, h.num_leaves(), 20_000);
    assert_eq!(suite.len(), ANCHORS.len());
    for (w, (name, anchor)) in suite.iter().zip(ANCHORS) {
        assert_eq!(w.name, name);
        let inst = &w.inst;
        let ml = solve_multilevel(inst, &h, &opts).unwrap().cost;
        // the flat reference: k-way, then the refiner without pairwise
        // swaps, which are quadratic per pass
        let part = kway_partition(
            inst.graph(),
            inst.demands(),
            h.num_leaves(),
            &KwayOpts::default(),
            &mut StdRng::seed_from_u64(seed),
        );
        let mut flat = Assignment::new(part, &h);
        let refine_opts = RefineOpts {
            swaps: false,
            ..Default::default()
        };
        refine(&mut flat, inst, &h, &refine_opts);
        let flat = flat.cost(inst, &h);
        assert!(
            ml <= anchor * 1.02,
            "{name}: multilevel {ml} vs anchor {anchor}"
        );
        assert!(
            ml <= flat * (1.0 + 1e-9),
            "{name}: multilevel {ml} loses to flat {flat}"
        );
    }
}
