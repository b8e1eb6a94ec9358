//! The experiment implementations. Ids, workloads and expected shapes are
//! documented in DESIGN.md §4 and EXPERIMENTS.md.

pub mod common;

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
