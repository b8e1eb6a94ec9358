//! Elastic churn streams: epochs of demand drift for re-placement
//! experiments.
//!
//! A deployed streaming job's communication *topology* is comparatively
//! stable — operators come and go rarely — while per-operator CPU demand
//! drifts continuously with the input rate. That asymmetry is exactly
//! what the warm re-solve path in [`hgp_core::elastic`] exploits: demand
//! edits keep the cached tree distribution valid, so a re-solve skips the
//! expensive distribution stage. This module generates reproducible
//! streams of that shape — per epoch, a batch of
//! [`Mutation::UpdateDemand`]s multiplicatively jittering a random subset
//! of tasks — for the root test `standard_churn_replay_stays_warm` and
//! any harness that wants to replay realistic churn against a
//! [`hgp_core::Session`].

use hgp_core::{Instance, Mutation};
use rand::Rng;

/// Shape of a demand-churn stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnOpts {
    /// Number of epochs (batches) in the stream.
    pub epochs: usize,
    /// Demand edits per epoch.
    pub batch: usize,
    /// Maximum multiplicative drift per edit: each touched task's demand
    /// is scaled by a factor drawn uniformly from
    /// `[1 - jitter, 1 + jitter]`, then clamped into `(0, 1]`.
    pub jitter: f64,
}

impl Default for ChurnOpts {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch: 16,
            jitter: 0.3,
        }
    }
}

/// Generates a demand-churn stream against `inst`: `opts.epochs` batches
/// of `opts.batch` [`Mutation::UpdateDemand`]s each. Drift is cumulative
/// — each epoch jitters the demands left by the previous one — and every
/// produced demand stays in `(0, 1]`, so each batch is valid as a
/// [`hgp_core::Session::apply`] transaction for a session whose tasks
/// `0..inst.num_tasks()` are all live.
///
/// # Panics
/// Panics if `inst` has no tasks, `opts.batch` is zero, or `opts.jitter`
/// is outside `[0, 1)`.
pub fn demand_churn<R: Rng + ?Sized>(
    rng: &mut R,
    inst: &Instance,
    opts: &ChurnOpts,
) -> Vec<Vec<Mutation>> {
    let n = inst.num_tasks();
    assert!(n > 0, "churn needs at least one task");
    assert!(opts.batch > 0, "churn batches must be non-empty");
    assert!(
        (0.0..1.0).contains(&opts.jitter),
        "jitter must be in [0, 1)"
    );
    let mut demands: Vec<f64> = inst.demands().to_vec();
    let mut stream = Vec::with_capacity(opts.epochs);
    for _ in 0..opts.epochs {
        let mut batch = Vec::with_capacity(opts.batch);
        for _ in 0..opts.batch {
            let task = rng.gen_range(0..n);
            let factor = rng.gen_range(1.0 - opts.jitter..=1.0 + opts.jitter);
            // clamp into the valid demand range; the floor keeps a task
            // from drifting to zero and vanishing from the load picture
            let demand = (demands[task] * factor).clamp(1e-3, 1.0);
            demands[task] = demand;
            batch.push(Mutation::UpdateDemand { task, demand });
        }
        stream.push(batch);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{stream_dag, StreamOpts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> Instance {
        let mut rng = StdRng::seed_from_u64(7);
        stream_dag(
            &mut rng,
            &StreamOpts {
                queries: 4,
                depth: 3,
                max_width: 3,
                join_prob: 0.2,
                max_demand: 0.3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn stream_has_requested_shape_and_valid_demands() {
        let inst = small_instance();
        let opts = ChurnOpts {
            epochs: 5,
            batch: 8,
            jitter: 0.4,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let stream = demand_churn(&mut rng, &inst, &opts);
        assert_eq!(stream.len(), 5);
        for batch in &stream {
            assert_eq!(batch.len(), 8);
            for m in batch {
                let Mutation::UpdateDemand { task, demand } = m else {
                    panic!("demand churn must only emit demand updates");
                };
                assert!(*task < inst.num_tasks());
                assert!(*demand > 0.0 && *demand <= 1.0);
            }
        }
    }

    #[test]
    fn stream_is_deterministic_for_a_fixed_seed() {
        let inst = small_instance();
        let opts = ChurnOpts::default();
        let a = demand_churn(&mut StdRng::seed_from_u64(3), &inst, &opts);
        let b = demand_churn(&mut StdRng::seed_from_u64(3), &inst, &opts);
        assert_eq!(a, b);
        let c = demand_churn(&mut StdRng::seed_from_u64(4), &inst, &opts);
        assert_ne!(a, c, "different seeds should drift differently");
    }

    #[test]
    fn batches_apply_as_valid_transactions() {
        use hgp_core::{Assignment, Session, Solve};
        let inst = small_instance();
        let h = crate::suite::machines()
            .into_iter()
            .find(|(name, _)| *name == "multicore-16")
            .map(|(_, h)| h)
            .unwrap_or_else(|| hgp_hierarchy::presets::multicore(4, 4, 4.0, 1.0));
        let seed = Solve::new(&inst, &h)
            .run()
            .map(|r| r.assignment)
            .unwrap_or_else(|_| {
                Assignment::new(
                    (0..inst.num_tasks())
                        .map(|v| (v % h.num_leaves()) as u32)
                        .collect(),
                    &h,
                )
            });
        let mut session = Session::with_initial(h, &inst, &seed);
        let mut rng = StdRng::seed_from_u64(9);
        for batch in demand_churn(&mut rng, &inst, &ChurnOpts::default()) {
            session
                .apply(&batch)
                .expect("churn batches must be valid transactions");
        }
    }
}
