//! The typed failure taxonomy for the solve path.
//!
//! Everything a *request* can trigger — infeasible demands, unsupported
//! hierarchy heights, signature-lane overflow from a too-fine rounding
//! grid — is an [`HgpError`] variant rather than a panic, so callers
//! serving untrusted input (`hgp-server` in particular) can map failures
//! to wire errors without losing a worker thread. Panics remain only for
//! genuine internal invariants (backpointer chains, laminarity), and
//! [`HgpError::Internal`] carries the payload of any panic a supervising
//! boundary caught anyway.

use crate::relaxed::MAX_HEIGHT;
use crate::Infeasibility;

/// Failure modes of the HGP pipeline, from input validation to the DP.
#[derive(Clone, Debug, PartialEq)]
pub enum HgpError {
    /// Total demand exceeds the hierarchy's leaves.
    Infeasible(Infeasibility),
    /// The rounded DP admits no capacity-feasible labelling.
    CapacityInfeasible,
    /// `Solve::run_tree` was handed a graph that is not a tree.
    NotATree,
    /// The communication graph is disconnected.
    Disconnected,
    /// The hierarchy is taller than the DP's signature can represent.
    HeightUnsupported {
        /// Requested hierarchy height.
        height: usize,
        /// Maximum supported height ([`MAX_HEIGHT`]).
        max: usize,
    },
    /// A rounded level capacity exceeds the 16-bit signature lane.
    LaneOverflow {
        /// 1-based hierarchy level whose capacity overflows.
        level: usize,
        /// The offending capacity in rounding units.
        cap_units: u64,
    },
    /// A task demand lies outside `(0, 1]` (or is NaN).
    InvalidDemand {
        /// Task index.
        index: usize,
        /// The offending demand.
        value: f64,
    },
    /// A per-level cut charge is negative, NaN, or infinite.
    InvalidDelta {
        /// 0-based level index of the charge.
        level: usize,
        /// The offending delta.
        value: f64,
    },
    /// An internal invariant broke (a caught panic's payload, typically).
    Internal(String),
}

impl HgpError {
    /// `true` for errors caused by the *input* (reject as `bad-request` at
    /// a service boundary) as opposed to solve-time outcomes
    /// (`CapacityInfeasible`) or internal faults (`Internal`).
    pub fn is_input_error(&self) -> bool {
        matches!(
            self,
            HgpError::Infeasible(_)
                | HgpError::NotATree
                | HgpError::Disconnected
                | HgpError::HeightUnsupported { .. }
                | HgpError::LaneOverflow { .. }
                | HgpError::InvalidDemand { .. }
                | HgpError::InvalidDelta { .. }
        )
    }

    /// Wraps a caught panic payload as [`HgpError::Internal`].
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> HgpError {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        HgpError::Internal(msg)
    }
}

impl std::fmt::Display for HgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HgpError::Infeasible(i) => write!(f, "infeasible: {i}"),
            HgpError::CapacityInfeasible => {
                write!(f, "no capacity-feasible labelling at this rounding")
            }
            HgpError::NotATree => write!(f, "communication graph is not a tree"),
            HgpError::Disconnected => write!(f, "communication graph is disconnected"),
            HgpError::HeightUnsupported { height, max } => write!(
                f,
                "hierarchy height {height} unsupported (the signature DP packs \
                 at most {max} levels)"
            ),
            HgpError::LaneOverflow { level, cap_units } => write!(
                f,
                "level-{level} capacity {cap_units} units exceeds the 16-bit \
                 signature lane; reduce units_per_leaf"
            ),
            HgpError::InvalidDemand { index, value } => {
                write!(f, "demand {value} of task {index} outside (0, 1]")
            }
            HgpError::InvalidDelta { level, value } => {
                write!(
                    f,
                    "cut charge {value} at level {level} is not finite and >= 0"
                )
            }
            HgpError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for HgpError {}

/// Asserts the height is representable; shared by the rounding and DP entry
/// points.
pub(crate) fn check_height(h: usize) -> Result<(), HgpError> {
    if (1..=MAX_HEIGHT).contains(&h) {
        Ok(())
    } else {
        Err(HgpError::HeightUnsupported {
            height: h,
            max: MAX_HEIGHT,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_error_classification() {
        assert!(HgpError::NotATree.is_input_error());
        assert!(HgpError::HeightUnsupported { height: 5, max: 4 }.is_input_error());
        assert!(HgpError::LaneOverflow {
            level: 1,
            cap_units: 70_000
        }
        .is_input_error());
        assert!(!HgpError::CapacityInfeasible.is_input_error());
        assert!(!HgpError::Internal("boom".into()).is_input_error());
    }

    #[test]
    fn panic_payloads_become_internal() {
        let e = std::panic::catch_unwind(|| panic!("lane blew up")).unwrap_err();
        assert_eq!(
            HgpError::from_panic(e),
            HgpError::Internal("lane blew up".to_string())
        );
        let e = std::panic::catch_unwind(|| panic!("{} blew up", "lane")).unwrap_err();
        assert_eq!(
            HgpError::from_panic(e),
            HgpError::Internal("lane blew up".to_string())
        );
    }

    #[test]
    fn display_is_actionable() {
        let msg = HgpError::LaneOverflow {
            level: 1,
            cap_units: 280_000,
        }
        .to_string();
        assert!(msg.contains("16-bit"), "{msg}");
        assert!(msg.contains("units_per_leaf"), "{msg}");
        let msg = HgpError::HeightUnsupported { height: 5, max: 4 }.to_string();
        assert!(msg.contains("height 5"), "{msg}");
    }
}
