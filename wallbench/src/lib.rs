//! `wallbench`: the wall-clock benchmark of the vdisk stack.
//!
//! The simulated clock (`bench_gate`) stays the fidelity instrument
//! for the paper's testbed; this crate measures what the code costs
//! on the machine it runs on. It drives the public queues of the
//! stack from one client thread on payload-storing clusters, checks
//! every byte against a plaintext oracle, and touches no file outside
//! its own directory, so every layer is measured from outside.

pub mod catalog;
pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod rig;
pub mod stats;
pub mod trace;
pub mod workload;
