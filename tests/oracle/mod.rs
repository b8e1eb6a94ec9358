//! Reference implementations the root tests compare the production
//! pipeline against, bit for bit. They call only the public API, so each
//! is an independent copy of its stage, not a second entry point into it.
//!
//! * [`legacy_dp`] — the pre-arena hash-table signature DP;
//! * [`alloc_sampler`] — the allocating decomposition-tree builder and
//!   Räcke-distribution sampler that predate the scratch arenas;
//! * [`alloc_bisection`] — the recursive, allocating multilevel bisection
//!   (greedy growing, FM, heavy-edge matching) that predates the scratch
//!   engine. The sampler oracle bisects through it, so the oracle chain
//!   shares no code with the pipeline down to the bisection.

// every test crate that declares `mod oracle;` uses a different part
#![allow(dead_code)]

pub mod alloc_bisection;
pub mod alloc_sampler;
pub mod legacy_dp;
