//! Plans: fork/join cost DAGs describing what an IO does to the
//! simulated hardware.

use crate::resource::ResourceId;
use crate::time::SimDuration;

/// A cost plan. Composable with [`Plan::seq`] and [`Plan::par`]; the
/// receipt of every storage operation in the stack (RADOS ops, OMAP
/// updates, crypto work, replication fan-out) prices into one of these
/// (`vdisk_rados::Testbed::plan_of`).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Occupy one server of `resource` for its per-op cost plus the
    /// transfer time of `bytes`.
    Op {
        /// Which resource the op runs on.
        resource: ResourceId,
        /// Payload size driving the transfer-time component.
        bytes: u64,
    },
    /// Occupy one server of `resource` for an explicit duration
    /// (used when the service time is computed elsewhere, e.g. from an
    /// LSM work receipt).
    Busy {
        /// Which resource the op runs on.
        resource: ResourceId,
        /// How long one server is occupied.
        time: SimDuration,
    },
    /// A fixed, uncontended delay (e.g. propagation latency).
    Delay(SimDuration),
    /// Children run one after another.
    Seq(Vec<Plan>),
    /// Children all start together; the plan completes when the last
    /// child completes (fork/join). A batched dispatch prices to one of
    /// these per batch, one child per transaction or object read.
    Par(Vec<Plan>),
    /// Completes immediately.
    Noop,
}

impl Plan {
    /// An op on `resource` moving `bytes`.
    #[must_use]
    pub fn op(resource: ResourceId, bytes: u64) -> Plan {
        Plan::Op { resource, bytes }
    }

    /// Occupies `resource` for an explicit duration.
    #[must_use]
    pub fn busy(resource: ResourceId, time: SimDuration) -> Plan {
        Plan::Busy { resource, time }
    }

    /// A pure delay.
    #[must_use]
    pub fn delay(d: SimDuration) -> Plan {
        Plan::Delay(d)
    }

    /// Sequential composition; flattens nested `Seq`s and drops
    /// `Noop`s.
    #[must_use]
    pub fn seq(children: impl IntoIterator<Item = Plan>) -> Plan {
        let mut out = Vec::new();
        for child in children {
            match child {
                Plan::Noop => {}
                Plan::Seq(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Plan::Noop,
            1 => out.pop().expect("len checked"),
            _ => Plan::Seq(out),
        }
    }

    /// Parallel composition; flattens nested `Par`s and drops `Noop`s.
    #[must_use]
    pub fn par(children: impl IntoIterator<Item = Plan>) -> Plan {
        let mut out = Vec::new();
        for child in children {
            match child {
                Plan::Noop => {}
                Plan::Par(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Plan::Noop,
            1 => out.pop().expect("len checked"),
            _ => Plan::Par(out),
        }
    }

    /// `self` then `next`.
    #[must_use]
    pub fn then(self, next: Plan) -> Plan {
        Plan::seq([self, next])
    }

    /// Total bytes moved by all ops in the plan (for sanity checks).
    #[must_use]
    pub fn total_op_bytes(&self) -> u64 {
        match self {
            Plan::Op { bytes, .. } => *bytes,
            Plan::Busy { .. } | Plan::Delay(_) | Plan::Noop => 0,
            Plan::Seq(children) | Plan::Par(children) => {
                children.iter().map(Plan::total_op_bytes).sum()
            }
        }
    }

    /// Number of `Op` leaves (for sanity checks, e.g. "a 4 KB write
    /// touches N disk ops").
    #[must_use]
    pub fn op_count(&self) -> usize {
        match self {
            Plan::Op { .. } | Plan::Busy { .. } => 1,
            Plan::Delay(_) | Plan::Noop => 0,
            Plan::Seq(children) | Plan::Par(children) => children.iter().map(Plan::op_count).sum(),
        }
    }

    /// Number of ops hitting a specific resource.
    #[must_use]
    pub fn op_count_on(&self, resource: ResourceId) -> usize {
        match self {
            Plan::Op { resource: r, .. } | Plan::Busy { resource: r, .. } => {
                usize::from(*r == resource)
            }
            Plan::Delay(_) | Plan::Noop => 0,
            Plan::Seq(children) | Plan::Par(children) => {
                children.iter().map(|c| c.op_count_on(resource)).sum()
            }
        }
    }

    /// Bytes moved over a specific resource.
    #[must_use]
    pub fn bytes_on(&self, resource: ResourceId) -> u64 {
        match self {
            Plan::Op { resource: r, bytes } => {
                if *r == resource {
                    *bytes
                } else {
                    0
                }
            }
            Plan::Busy { .. } | Plan::Delay(_) | Plan::Noop => 0,
            Plan::Seq(children) | Plan::Par(children) => {
                children.iter().map(|c| c.bytes_on(resource)).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: ResourceId = ResourceId(0);
    const R1: ResourceId = ResourceId(1);

    #[test]
    fn seq_flattens_and_prunes() {
        let p = Plan::seq([
            Plan::Noop,
            Plan::seq([Plan::op(R0, 1), Plan::op(R0, 2)]),
            Plan::op(R1, 3),
        ]);
        match &p {
            Plan::Seq(children) => assert_eq!(children.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
        assert_eq!(p.total_op_bytes(), 6);
    }

    #[test]
    fn singleton_collapses() {
        assert_eq!(Plan::seq([Plan::op(R0, 5)]), Plan::op(R0, 5));
        assert_eq!(Plan::par([Plan::op(R0, 5)]), Plan::op(R0, 5));
        assert_eq!(Plan::seq([]), Plan::Noop);
        assert_eq!(Plan::par([Plan::Noop, Plan::Noop]), Plan::Noop);
    }

    #[test]
    fn counting_helpers() {
        let p = Plan::par([
            Plan::op(R0, 100),
            Plan::seq([Plan::op(R1, 50), Plan::op(R0, 25)]),
            Plan::delay(SimDuration::from_micros(1)),
        ]);
        assert_eq!(p.op_count(), 3);
        assert_eq!(p.op_count_on(R0), 2);
        assert_eq!(p.op_count_on(R1), 1);
        assert_eq!(p.bytes_on(R0), 125);
        assert_eq!(p.bytes_on(R1), 50);
        assert_eq!(p.total_op_bytes(), 175);
    }

    #[test]
    fn then_chains() {
        let p = Plan::op(R0, 1).then(Plan::op(R1, 2)).then(Plan::op(R0, 3));
        assert_eq!(p.op_count(), 3);
        match p {
            Plan::Seq(c) => assert_eq!(c.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
    }
}
