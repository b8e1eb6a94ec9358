//! Textual machine descriptors.
//!
//! Grammar: `DEG x DEG x … [: cm0, cm1, …, cmh]`, e.g.
//!
//! * `"2x8"` — 2 sockets × 8 cores with default geometric costs,
//! * `"4x8x2:8,2,1,0"` — the TidalRace server with explicit multipliers,
//! * `"16"` — flat 16-way partitioning.
//!
//! When multipliers are omitted, level `j` costs `2^(h-j) - 1` (geometric
//! with ratio 2, normalised so `cm(h) = 0`).

use crate::Hierarchy;

/// Tallest machine a descriptor may describe. The signature DP's
/// `MAX_HEIGHT` (one 16-bit lane per level in a `u64`) is defined as this
/// constant: descriptors that could never be solved are rejected here, at
/// the text boundary, with a message instead of a downstream panic.
pub const MAX_PARSE_HEIGHT: usize = 4;

/// Most leaves a descriptor may describe. Keeps adversarial shapes like
/// `"1000x1000"` (10⁶ leaves) from allocating per-leaf state downstream.
/// Elastic sessions in `hgp-core` cap machine growth at the same count.
pub const MAX_PARSE_LEAVES: usize = 65_536;

/// Coarse classification of a [`ParseHierarchyError`], for transports
/// that map parse failures onto distinct wire error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The descriptor is malformed or semantically invalid.
    Invalid,
    /// The descriptor is well-formed but describes a machine beyond the
    /// supported caps ([`MAX_PARSE_HEIGHT`] levels, [`MAX_PARSE_LEAVES`]
    /// leaves).
    TooLarge,
}

/// Parse failure for a machine descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHierarchyError {
    /// What went wrong.
    pub msg: String,
    /// Which class of failure this is.
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseHierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad machine descriptor: {}", self.msg)
    }
}

impl std::error::Error for ParseHierarchyError {}

fn err(msg: impl Into<String>) -> ParseHierarchyError {
    ParseHierarchyError {
        msg: msg.into(),
        kind: ParseErrorKind::Invalid,
    }
}

fn too_large(msg: impl Into<String>) -> ParseHierarchyError {
    ParseHierarchyError {
        msg: msg.into(),
        kind: ParseErrorKind::TooLarge,
    }
}

/// Parses a machine descriptor (see the module docs for the grammar).
pub fn parse_hierarchy(desc: &str) -> Result<Hierarchy, ParseHierarchyError> {
    let desc = desc.trim();
    let (shape, costs) = match desc.split_once(':') {
        Some((s, c)) => (s, Some(c)),
        None => (desc, None),
    };
    let degrees: Vec<usize> = shape
        .split('x')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| err(format!("bad degree {t:?}")))
                .and_then(|d| {
                    if d >= 1 {
                        Ok(d)
                    } else {
                        Err(err("degrees must be >= 1"))
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    if degrees.is_empty() {
        return Err(err("empty shape"));
    }
    if degrees.len() > MAX_PARSE_HEIGHT {
        return Err(too_large(format!(
            "height {} exceeds the supported maximum of {MAX_PARSE_HEIGHT} levels",
            degrees.len()
        )));
    }
    // overflow-safe product check: degrees are >= 1 so a running product
    // that exceeds the cap can only grow
    let mut leaves: usize = 1;
    for &d in &degrees {
        leaves = leaves.saturating_mul(d);
        if leaves > MAX_PARSE_LEAVES {
            return Err(too_large(format!(
                "shape describes more than {MAX_PARSE_LEAVES} leaves"
            )));
        }
    }
    let h = degrees.len();
    let cm: Vec<f64> = match costs {
        Some(c) => {
            let cm: Vec<f64> = c
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<f64>()
                        .map_err(|_| err(format!("bad multiplier {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            if cm.len() != h + 1 {
                return Err(err(format!(
                    "need {} multipliers for height {h}, got {}",
                    h + 1,
                    cm.len()
                )));
            }
            if cm.iter().any(|c| !c.is_finite() || *c < 0.0) {
                return Err(err("multipliers must be finite and non-negative"));
            }
            if cm.windows(2).any(|w| w[0] < w[1]) {
                return Err(err("multipliers must be non-increasing"));
            }
            cm
        }
        None => (0..=h).map(|j| (2f64.powi((h - j) as i32)) - 1.0).collect(),
    };
    Ok(Hierarchy::new(degrees, cm))
}

impl std::str::FromStr for Hierarchy {
    type Err = ParseHierarchyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_hierarchy(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_descriptor() {
        let h = parse_hierarchy("16").unwrap();
        assert_eq!(h.height(), 1);
        assert_eq!(h.num_leaves(), 16);
        assert_eq!(h.cost_multiplier(0), 1.0);
        assert_eq!(h.cost_multiplier(1), 0.0);
    }

    #[test]
    fn default_costs_are_geometric() {
        let h = parse_hierarchy("2x8x2").unwrap();
        assert_eq!(h.num_leaves(), 32);
        assert_eq!(h.cost_multiplier(0), 7.0);
        assert_eq!(h.cost_multiplier(1), 3.0);
        assert_eq!(h.cost_multiplier(2), 1.0);
        assert_eq!(h.cost_multiplier(3), 0.0);
    }

    #[test]
    fn explicit_costs() {
        let h: Hierarchy = "4x8x2:8,2,1,0".parse().unwrap();
        assert_eq!(h.num_leaves(), 64);
        assert_eq!(h.cost_multiplier(0), 8.0);
        assert_eq!(h.cost_multiplier(3), 0.0);
    }

    #[test]
    fn whitespace_tolerated() {
        let h = parse_hierarchy(" 2 x 4 : 4, 1, 0 ").unwrap();
        assert_eq!(h.num_leaves(), 8);
        assert_eq!(h.cost_multiplier(1), 1.0);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_hierarchy("").unwrap_err().msg.contains("bad degree"));
        assert_eq!(
            parse_hierarchy("").unwrap_err().kind,
            ParseErrorKind::Invalid
        );
        assert!(parse_hierarchy("2xfoo")
            .unwrap_err()
            .msg
            .contains("bad degree"));
        assert!(parse_hierarchy("0x2").unwrap_err().msg.contains(">= 1"));
        assert!(parse_hierarchy("2x2:1,2,3")
            .unwrap_err()
            .msg
            .contains("non-increasing"));
        assert!(parse_hierarchy("2x2:1,0")
            .unwrap_err()
            .msg
            .contains("need 3 multipliers"));
        assert!(parse_hierarchy("2x2:3,x,0")
            .unwrap_err()
            .msg
            .contains("bad multiplier"));
    }

    #[test]
    fn rejects_unsupported_heights() {
        // height 4 is the ceiling; 5 levels must fail at parse, not panic
        // later inside the signature DP
        assert!(parse_hierarchy("2x2x2x2").is_ok());
        let e = parse_hierarchy("2x2x2x2x2").unwrap_err();
        assert!(e.msg.contains("height 5"), "{e}");
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
        let e = parse_hierarchy("2x2x2x2x2:16,8,4,2,1,0").unwrap_err();
        assert!(e.msg.contains("height 5"), "{e}");
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
    }

    #[test]
    fn rejects_oversized_shapes() {
        // 10^6 leaves
        let e = parse_hierarchy("1000x1000").unwrap_err();
        assert!(e.msg.contains("leaves"), "{e}");
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
        // usize-overflow attempt must not wrap around the cap
        let e = parse_hierarchy(&format!("{0}x{0}x{0}", u64::MAX)).unwrap_err();
        assert!(e.msg.contains("leaves"), "{e}");
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
        // the boundary itself is fine
        assert_eq!(parse_hierarchy("65536").unwrap().num_leaves(), 65_536);
        assert!(parse_hierarchy("65537").is_err());
    }
}
