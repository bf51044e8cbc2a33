//! A small discrete-event **cost simulator** for storage stacks.
//!
//! The reproduction separates *function* from *time*: the object store,
//! the LSM and the encryption layer all operate on real bytes, while
//! the time each operation would take on the paper's testbed is
//! computed here. An IO is described as a [`Plan`] — a fork/join DAG of
//! resource usages (`Seq`/`Par`/`Op`/`Delay`) — and executed against
//! [`ResourceSpec`]s that model pipes (NICs, links), k-way parallel
//! servers (NVMe channels, CPU pools) and fixed latencies.
//!
//! The execution model is *reservation order = submission order*: each
//! `Op` reserves the earliest-free server of its resource at the moment
//! the plan step becomes ready. This is the classic approximation for
//! closed-loop FIFO pipelines and is exact for the steady-state
//! throughput questions the paper's figures ask.
//!
//! # Example
//!
//! ```
//! use vdisk_sim::{Plan, ResourceSpec, SimDuration, Simulator};
//!
//! let mut sim = Simulator::new();
//! let nic = sim.add_resource(ResourceSpec::pipe("nic", 1.0e9, SimDuration::from_micros(5)));
//! let disk = sim.add_resource(ResourceSpec::servers(
//!     "disk", 4, 0.5e9, SimDuration::from_micros(80)));
//!
//! // One 4 KB write: NIC transfer, then disk commit.
//! let plan = Plan::seq([Plan::op(nic, 4096), Plan::op(disk, 4096)]);
//! let stats = sim.run_closed_loop(32, 1000, |_| (plan.clone(), 4096));
//! assert!(stats.bandwidth_mb_s() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closed_loop;
mod engine;
mod plan;
mod resource;
mod time;

pub use closed_loop::{ClosedLoopStats, LatencyStats};
pub use engine::Simulator;
pub use plan::Plan;
pub use resource::{ResourceId, ResourceSpec};
pub use time::{SimDuration, SimTime};
