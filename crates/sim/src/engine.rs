//! The plan executor: an event-driven simulator with work-conserving
//! FIFO resources.
//!
//! Plans compile to DAGs of nodes (`Op`/`Busy`/`Delay`). A node is
//! dispatched to its resource **when it becomes ready** (all
//! predecessors done), in global ready-time order — so concurrent IOs
//! interleave stage-by-stage exactly as a pipelined storage stack does,
//! and a resource is never left idle while ready work queues behind an
//! unrelated plan (the classic flaw of reserve-at-issue simulators).

use crate::plan::Plan;
use crate::resource::{ResourceId, ResourceSpec};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) struct ResourceState {
    spec: ResourceSpec,
    /// Earliest-free instant of each server (persists across
    /// [`Simulator::execute`] calls; cleared by [`Simulator::reset`]).
    free_at: Vec<SimTime>,
}

impl ResourceState {
    fn new(spec: ResourceSpec) -> Self {
        let servers = spec.servers;
        ResourceState {
            spec,
            free_at: vec![SimTime::ZERO; servers],
        }
    }

    /// Starts service on the earliest-free server no earlier than
    /// `ready`; returns the completion time.
    fn dispatch(&mut self, ready: SimTime, service: SimDuration) -> SimTime {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("resource has at least one server");
        let start = self.free_at[idx].max(ready);
        let done = start + service;
        self.free_at[idx] = done;
        done
    }

    fn reset(&mut self) {
        self.free_at.fill(SimTime::ZERO);
    }
}

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    Op {
        resource: ResourceId,
        bytes: u64,
    },
    Busy {
        resource: ResourceId,
        time: SimDuration,
    },
    Delay(SimDuration),
}

struct Node {
    kind: NodeKind,
    preds_remaining: usize,
    succs: Vec<usize>,
    ready: SimTime,
}

pub(crate) struct Instance {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    remaining: usize,
    pub(crate) issued_at: SimTime,
    pub(crate) completed_at: Option<SimTime>,
}

impl Instance {
    /// Compiles a plan into a dependency DAG.
    pub(crate) fn compile(plan: &Plan, issued_at: SimTime) -> Instance {
        let mut nodes = Vec::new();
        // `frontier` = exits of the already-compiled prefix; the next
        // stage depends on all of them.
        fn build(plan: &Plan, preds: &[usize], nodes: &mut Vec<Node>) -> Vec<usize> {
            match plan {
                Plan::Noop => preds.to_vec(),
                Plan::Op { resource, bytes } => vec![push_node(
                    nodes,
                    NodeKind::Op {
                        resource: *resource,
                        bytes: *bytes,
                    },
                    preds,
                )],
                Plan::Busy { resource, time } => vec![push_node(
                    nodes,
                    NodeKind::Busy {
                        resource: *resource,
                        time: *time,
                    },
                    preds,
                )],
                Plan::Delay(d) => vec![push_node(nodes, NodeKind::Delay(*d), preds)],
                Plan::Seq(children) => {
                    let mut frontier = preds.to_vec();
                    for child in children {
                        frontier = build(child, &frontier, nodes);
                    }
                    frontier
                }
                Plan::Par(children) => {
                    let mut exits = Vec::new();
                    for child in children {
                        exits.extend(build(child, preds, nodes));
                    }
                    exits
                }
            }
        }
        fn push_node(nodes: &mut Vec<Node>, kind: NodeKind, preds: &[usize]) -> usize {
            let id = nodes.len();
            nodes.push(Node {
                kind,
                preds_remaining: preds.len(),
                succs: Vec::new(),
                ready: SimTime::ZERO,
            });
            for &p in preds {
                nodes[p].succs.push(id);
            }
            id
        }
        build(plan, &[], &mut nodes);
        let roots: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| (n.preds_remaining == 0).then_some(i))
            .collect();
        let remaining = nodes.len();
        Instance {
            nodes,
            roots,
            remaining,
            issued_at,
            completed_at: if remaining == 0 {
                Some(issued_at)
            } else {
                None
            },
        }
    }
}

/// The event-driven core shared by [`Simulator::execute`] and the
/// closed-loop runner.
pub(crate) struct Engine<'a> {
    pub(crate) resources: &'a mut Vec<ResourceState>,
    pub(crate) instances: Vec<Instance>,
    /// Min-heap of (completion_time, tiebreak, instance, node).
    heap: BinaryHeap<Reverse<(SimTime, u64, usize, usize)>>,
    seq: u64,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(resources: &'a mut Vec<ResourceState>) -> Self {
        Engine {
            resources,
            instances: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Issues a compiled instance; returns its index.
    pub(crate) fn issue(&mut self, plan: &Plan, at: SimTime) -> usize {
        let instance = Instance::compile(plan, at);
        let idx = self.instances.len();
        let roots = instance.roots.clone();
        self.instances.push(instance);
        for node in roots {
            self.node_ready(idx, node, at);
        }
        idx
    }

    fn node_ready(&mut self, inst: usize, node: usize, at: SimTime) {
        let done = match self.instances[inst].nodes[node].kind {
            NodeKind::Delay(d) => at + d,
            NodeKind::Op { resource, bytes } => {
                let state = self
                    .resources
                    .get_mut(resource.0)
                    .expect("plan references unknown resource");
                let service = state.spec.service_time(bytes);
                state.dispatch(at, service)
            }
            NodeKind::Busy { resource, time } => {
                let state = self
                    .resources
                    .get_mut(resource.0)
                    .expect("plan references unknown resource");
                state.dispatch(at, time)
            }
        };
        self.seq += 1;
        self.heap.push(Reverse((done, self.seq, inst, node)));
    }

    /// Processes events until an instance completes; returns
    /// `(instance, completion_time)`. `None` when no events remain.
    pub(crate) fn run_until_completion(&mut self) -> Option<(usize, SimTime)> {
        while let Some(Reverse((t, _, inst, node))) = self.heap.pop() {
            // Fan out to successors.
            let succs = std::mem::take(&mut self.instances[inst].nodes[node].succs);
            for s in &succs {
                let succ = &mut self.instances[inst].nodes[*s];
                succ.ready = succ.ready.max(t);
                succ.preds_remaining -= 1;
                if succ.preds_remaining == 0 {
                    let ready = succ.ready;
                    self.node_ready(inst, *s, ready);
                }
            }
            self.instances[inst].nodes[node].succs = succs;
            self.instances[inst].remaining -= 1;
            if self.instances[inst].remaining == 0 {
                self.instances[inst].completed_at = Some(t);
                return Some((inst, t));
            }
        }
        None
    }

    /// Drains every pending event.
    pub(crate) fn run_to_idle(&mut self) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some((_, t)) = self.run_until_completion() {
            last = last.max(t);
        }
        last
    }
}

/// Executes [`Plan`]s against registered resources and tracks
/// contention.
///
/// See the [crate docs](crate) for the execution model.
pub struct Simulator {
    pub(crate) resources: Vec<ResourceState>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Simulator({} resources)", self.resources.len())
    }
}

impl Simulator {
    /// Creates an empty simulator.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            resources: Vec::new(),
        }
    }

    /// Registers a resource and returns its handle.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        self.resources.push(ResourceState::new(spec));
        ResourceId(self.resources.len() - 1)
    }

    /// Executes a single plan whose first step becomes ready at
    /// `start`; returns the completion instant. Server occupancy
    /// persists across calls (sequential `execute`s contend), until
    /// [`Simulator::reset`].
    ///
    /// # Panics
    ///
    /// Panics if the plan references a resource not registered here.
    pub fn execute(&mut self, plan: &Plan, start: SimTime) -> SimTime {
        let mut engine = Engine::new(&mut self.resources);
        engine.issue(plan, start);
        let done = engine.run_to_idle();
        done.max(start)
    }

    /// Clears all occupancy (the resource set is kept).
    pub fn reset(&mut self) {
        for r in &mut self.resources {
            r.reset();
        }
    }

    /// The spec a resource was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this simulator.
    #[must_use]
    pub fn spec(&self, id: ResourceId) -> &ResourceSpec {
        &self.resources[id.0].spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micros(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn single_op_timing() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::pipe("p", 1e9, micros(10)));
        let done = sim.execute(&Plan::op(r, 1000), SimTime::ZERO);
        // 10µs per-op + 1µs transfer.
        assert_eq!(done.as_nanos(), 11_000);
    }

    #[test]
    fn ops_on_one_server_serialize() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::pipe("p", 1e9, micros(10)));
        let p = Plan::par([Plan::op(r, 0), Plan::op(r, 0)]);
        let done = sim.execute(&p, SimTime::ZERO);
        assert_eq!(done.as_nanos(), 20_000, "two ops must serialize");
    }

    #[test]
    fn ops_on_k_servers_parallelize() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::servers("p", 2, 1e9, micros(10)));
        let p = Plan::par([Plan::op(r, 0), Plan::op(r, 0)]);
        let done = sim.execute(&p, SimTime::ZERO);
        assert_eq!(done.as_nanos(), 10_000, "two servers run concurrently");
    }

    #[test]
    fn seq_sums_par_maxes() {
        let mut sim = Simulator::new();
        let a = sim.add_resource(ResourceSpec::latency_only("a", 8, micros(5)));
        let b = sim.add_resource(ResourceSpec::latency_only("b", 8, micros(9)));
        let seq = sim.execute(&Plan::seq([Plan::op(a, 0), Plan::op(b, 0)]), SimTime::ZERO);
        assert_eq!(seq.as_nanos(), 14_000);
        sim.reset();
        let par = sim.execute(&Plan::par([Plan::op(a, 0), Plan::op(b, 0)]), SimTime::ZERO);
        assert_eq!(par.as_nanos(), 9_000);
    }

    #[test]
    fn delay_is_uncontended() {
        let mut sim = Simulator::new();
        let p = Plan::par([
            Plan::delay(micros(50)),
            Plan::delay(micros(50)),
            Plan::delay(micros(50)),
        ]);
        let done = sim.execute(&p, SimTime::ZERO);
        assert_eq!(done.as_nanos(), 50_000, "delays never queue");
    }

    #[test]
    fn busy_occupies_for_explicit_duration() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::latency_only("kv", 1, micros(1)));
        let p = Plan::par([Plan::busy(r, micros(100)), Plan::busy(r, micros(100))]);
        let done = sim.execute(&p, SimTime::ZERO);
        assert_eq!(done.as_nanos(), 200_000, "busy times serialize too");
    }

    #[test]
    fn reservations_persist_across_execute_calls() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::pipe("p", 1e9, micros(10)));
        let first = sim.execute(&Plan::op(r, 0), SimTime::ZERO);
        let second = sim.execute(&Plan::op(r, 0), SimTime::ZERO);
        assert_eq!(first.as_nanos(), 10_000);
        assert_eq!(second.as_nanos(), 20_000);
        sim.reset();
        let third = sim.execute(&Plan::op(r, 0), SimTime::ZERO);
        assert_eq!(third.as_nanos(), 10_000);
    }

    #[test]
    fn diamond_dependency_joins_at_max() {
        // Seq[a, Par[b_fast, c_slow], d]: d starts when BOTH b and c
        // are done.
        let mut sim = Simulator::new();
        let fast = sim.add_resource(ResourceSpec::latency_only("fast", 4, micros(1)));
        let slow = sim.add_resource(ResourceSpec::latency_only("slow", 4, micros(100)));
        let p = Plan::seq([
            Plan::op(fast, 0),
            Plan::par([Plan::op(fast, 0), Plan::op(slow, 0)]),
            Plan::op(fast, 0),
        ]);
        let done = sim.execute(&p, SimTime::ZERO);
        assert_eq!(done.as_nanos(), 102_000);
    }

    #[test]
    fn ready_time_respected() {
        let mut sim = Simulator::new();
        let r = sim.add_resource(ResourceSpec::pipe("p", 1e9, micros(10)));
        let done = sim.execute(&Plan::op(r, 0), SimTime::from_nanos(100_000));
        assert_eq!(done.as_nanos(), 110_000);
    }

    #[test]
    fn noop_completes_instantly() {
        let mut sim = Simulator::new();
        let t = SimTime::from_nanos(5);
        assert_eq!(sim.execute(&Plan::Noop, t), t);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut sim = Simulator::new();
        let bogus = ResourceId(7);
        sim.execute(&Plan::op(bogus, 0), SimTime::ZERO);
    }
}
