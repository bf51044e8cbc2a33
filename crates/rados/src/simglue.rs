//! Glue to the simulated clock: the resource handles and crypto-cost
//! plans upper layers build their [`Plan`]s from, and the closed-loop
//! harness that runs plans against the simulated testbed.

use crate::cluster::Cluster;
use crate::cost::ResourceHandles;
use std::sync::PoisonError;
use vdisk_sim::{ClosedLoopStats, Plan};

impl Cluster {
    /// The installed resource handles (for plan construction by upper
    /// layers, e.g. client-side crypto cost).
    #[must_use]
    pub fn resources(&self) -> ResourceHandles {
        self.control.handles.clone()
    }

    /// Convenience: a plan occupying the client crypto workers for
    /// `bytes` of encryption/decryption work.
    #[must_use]
    pub fn crypto_plan(&self, bytes: u64) -> Plan {
        Plan::op(self.control.handles.client_crypto, bytes)
    }

    /// A crypto plan whose `bytes` of work are split over `lanes`
    /// near-equal parallel chunks — the cost shape of the encryption
    /// layer running one sector-crypto job per lane. Degenerates to
    /// [`Cluster::crypto_plan`] at one lane (or when the split would
    /// produce empty chunks).
    #[must_use]
    pub fn crypto_plan_parallel(&self, bytes: u64, lanes: usize) -> Plan {
        if lanes <= 1 || bytes < lanes as u64 {
            return self.crypto_plan(bytes);
        }
        let lanes = lanes as u64;
        let chunk = bytes / lanes;
        let remainder = bytes % lanes;
        Plan::par((0..lanes).map(|lane| {
            let extra = u64::from(lane < remainder);
            Plan::op(self.control.handles.client_crypto, chunk + extra)
        }))
    }

    /// Runs pre-built plans in a closed loop (fio-style, fixed queue
    /// depth) against this cluster's simulated hardware.
    #[must_use]
    pub fn run_closed_loop(&self, queue_depth: usize, plans: Vec<(Plan, u64)>) -> ClosedLoopStats {
        let mut sim = self.sim.lock().unwrap_or_else(PoisonError::into_inner);
        let total = plans.len() as u64;
        let mut plans = plans.into_iter();
        // `total` is `plans.len()`, so the sim asks for exactly as many
        // plans as there are; past the end there is nothing to run.
        sim.run_closed_loop(queue_depth, total, move |_| {
            plans.next().unwrap_or((Plan::Noop, 0))
        })
    }

    /// Per-resource utilization of the last closed-loop run.
    #[must_use]
    pub fn utilization_report(&self) -> Vec<vdisk_sim::ResourceUsage> {
        self.sim
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .utilization_report()
    }
}
