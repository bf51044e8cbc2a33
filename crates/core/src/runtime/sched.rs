//! The arbiter: weighted fair scheduling over a shared in-flight
//! budget, the only copy of every tenant's backlog, and the
//! bookkeeping behind the runtime's stats snapshots.
//!
//! The scheduler is a classic virtual-time WFQ. Every tenant carries a
//! virtual clock that advances by `cost / weight` per dispatched op
//! (cost = payload bytes, min 1), so at any instant the backlogged
//! tenant with the smallest clock is the one furthest below its fair
//! share. Free in-flight slots are allocated by simulating that rule
//! over *all* backlogged tenants — the claiming tenant realizes only
//! its own share, the rest of the allocation acts as a reservation so
//! a hot tenant cannot claim slots the clock says belong to a quieter
//! one.
//!
//! Everything here runs under the runtime's single mutex; physical
//! dispatch never happens here. A tenant's admitted ops wait in its
//! backlog below; a claim hands the granted ones to the tenant, which
//! submits them on its own thread — what lets hundreds of queues share
//! one arbiter without the arbiter owning any queue.

use std::collections::VecDeque;
use std::sync::Arc;
use vdisk_rados::{Doorbell, ExecStats};
use vdisk_rbd::IoOp;

use super::{TenantId, TenantSpec, TenantStats};

/// Sub-byte precision for the virtual clocks: costs are scaled up
/// before dividing by the weight so small ops under large weights
/// still advance the clock.
const VTIME_SHIFT: u32 = 16;

/// The payload cost of an op in bytes (min 1, so zero-length ops
/// still advance the fairness clock). Only a scheduling weight: a
/// scatter read whose lengths overflow `u64` saturates here, and its
/// dispatch then reports it out of bounds.
fn op_cost(op: &IoOp) -> u64 {
    let bytes = match op {
        IoOp::Write { data, .. } => data.len() as u64,
        IoOp::Writev { buffers, .. } => buffers.iter().map(|b| b.len() as u64).sum(),
        IoOp::Read { len, .. } => *len,
        IoOp::Readv { lens, .. } => lens.iter().fold(0u64, |sum, &len| sum.saturating_add(len)),
    };
    bytes.max(1)
}

/// One admitted, undispatched op.
pub(crate) struct Queued {
    /// The tenant queue's completion id for the op.
    pub(crate) outer: u64,
    /// Its scheduling cost ([`op_cost`]).
    pub(crate) cost: u64,
    /// The op itself, handed to the tenant's queue when granted.
    pub(crate) op: IoOp,
}

/// Running per-tenant totals behind [`TenantStats`].
#[derive(Default)]
struct Totals {
    admitted_ops: u64,
    rejected_ops: u64,
    dispatched_ops: u64,
    completed_ops: u64,
    failed_ops: u64,
    completed_bytes: u64,
    exec: ExecStats,
}

struct TenantState {
    name: String,
    weight: u32,
    qd_cap: usize,
    backlog_cap: usize,
    /// Admitted-but-undispatched ops, in submission order.
    backlog: VecDeque<Queued>,
    in_flight: usize,
    vtime: u128,
    /// Highest open-op count (backlog + in flight) since the last
    /// [`Arbiter::take_demand_peak_excluding`] sample — the runtime's
    /// own pressure signal, per tenant, so a background driver can
    /// sense foreground demand without counting its own submissions.
    demand_peak: u64,
    /// Whether a `TenantQueue` currently owns this tenant's dispatch.
    attached: bool,
    /// The attached queue's doorbell, rung on grant-affecting changes.
    bell: Option<Arc<Doorbell>>,
    totals: Totals,
}

impl TenantState {
    /// Active tenants pin the virtual clock floor: a tenant with work
    /// queued or in flight is competing right now.
    fn is_active(&self) -> bool {
        !self.backlog.is_empty() || self.in_flight > 0
    }

    fn vtime_step(&self, cost: u64) -> u128 {
        (u128::from(cost) << VTIME_SHIFT) / u128::from(self.weight.max(1))
    }

    /// Folds the current open-op count into the demand-peak window.
    /// Demand only grows at admission (dispatch moves an op from
    /// backlog to in-flight without changing the sum), so this is
    /// called from `try_admit` alone.
    fn note_demand(&mut self) {
        let demand = (self.backlog.len() + self.in_flight) as u64;
        self.demand_peak = self.demand_peak.max(demand);
    }
}

pub(crate) struct Arbiter {
    budget: usize,
    in_flight_total: usize,
    tenants: Vec<TenantState>,
}

impl Arbiter {
    pub(crate) fn new(budget: usize) -> Arbiter {
        // vdisk-lint: allow(hot-path-panic) reason="documented panic of Runtime::new: a zero budget could never dispatch, so every tenant would hang instead"
        assert!(budget > 0, "runtime in-flight budget must be at least 1");
        Arbiter {
            budget,
            in_flight_total: 0,
            tenants: Vec::new(),
        }
    }

    /// The state for a registered tenant. `TenantId`s are minted only
    /// by [`Arbiter::register`] and the tenant table is append-only,
    /// so the index is in range by construction.
    fn tenant(&self, id: TenantId) -> &TenantState {
        // vdisk-lint: allow(hot-path-index) reason="TenantId is minted by register() and the table is append-only; in range by construction"
        &self.tenants[id.0 as usize]
    }

    /// Mutable variant of [`Arbiter::tenant`]; same index invariant.
    fn tenant_mut(&mut self, id: TenantId) -> &mut TenantState {
        // vdisk-lint: allow(hot-path-index) reason="TenantId is minted by register() and the table is append-only; in range by construction"
        &mut self.tenants[id.0 as usize]
    }

    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    pub(crate) fn in_flight_total(&self) -> usize {
        self.in_flight_total
    }

    pub(crate) fn register(&mut self, spec: &TenantSpec) -> TenantId {
        // vdisk-lint: allow(hot-path-panic) reason="documented panic of Runtime::register on caller input, at setup: a zero cap never admits an op and a zero weight has no fair share"
        assert!(
            spec.weight >= 1 && spec.qd_cap >= 1 && spec.backlog_cap >= 1,
            "tenant weight, QD cap and backlog cap must each be at least 1"
        );
        // vdisk-lint: allow(hot-path-panic) reason="registration is setup-path; more than u32::MAX tenants is a configuration bug, not an IO fault"
        let id = TenantId(u32::try_from(self.tenants.len()).expect("tenant count fits u32"));
        self.tenants.push(TenantState {
            name: spec.name.clone(),
            weight: spec.weight,
            qd_cap: spec.qd_cap,
            backlog_cap: spec.backlog_cap,
            backlog: VecDeque::new(),
            in_flight: 0,
            vtime: 0,
            demand_peak: 0,
            attached: false,
            bell: None,
            totals: Totals::default(),
        });
        id
    }

    pub(crate) fn attach(&mut self, id: TenantId, bell: Arc<Doorbell>) {
        let state = self.tenant_mut(id);
        // vdisk-lint: allow(hot-path-panic) reason="documented panic of TenantHandle::attach: a second queue would share the tenant's one bell and budget slots"
        assert!(
            !state.attached,
            "tenant {} already has an attached queue",
            state.name
        );
        state.attached = true;
        state.bell = Some(bell);
    }

    /// Releases a dropped queue's claim on the tenant: queued work
    /// disappears and its in-flight slots return to the pool (the ops
    /// still complete at the cluster; nobody will report them).
    pub(crate) fn detach(&mut self, id: TenantId) {
        let state = self.tenant_mut(id);
        state.attached = false;
        state.bell = None;
        state.backlog.clear();
        let freed = std::mem::take(&mut state.in_flight);
        self.in_flight_total -= freed;
        self.ring_backlogged(Some(id));
    }

    /// Admission control at submit: rejects with `(backlog, cap)` when
    /// the tenant's backlog cap is reached, otherwise queues `op` under
    /// the tenant queue's completion id `outer`.
    pub(crate) fn try_admit(
        &mut self,
        id: TenantId,
        outer: u64,
        op: IoOp,
    ) -> Result<(), (usize, usize)> {
        // The virtual clock floor must be read before the borrow below.
        let floor = self.active_vtime_floor(id);
        let state = self.tenant_mut(id);
        if state.backlog.len() >= state.backlog_cap {
            state.totals.rejected_ops += 1;
            return Err((state.backlog.len(), state.backlog_cap));
        }
        if !state.is_active() {
            // Re-activation: an idle tenant's clock rejoins at the
            // active floor, so sitting out does not bank credit.
            if let Some(floor) = floor {
                state.vtime = state.vtime.max(floor);
            }
        }
        let cost = op_cost(&op);
        state.backlog.push_back(Queued { outer, cost, op });
        state.totals.admitted_ops += 1;
        state.note_demand();
        Ok(())
    }

    /// Revokes the admission of `outer` if it is still the tenant's
    /// newest backlog entry, and says whether it did: the tenant
    /// queue's `submit` un-admits the op it just queued when pumping
    /// an *earlier* op's dispatch fails, so an error return never
    /// strands an admitted op whose completion token the caller never
    /// saw.
    pub(crate) fn unadmit_newest(&mut self, id: TenantId, outer: u64) -> bool {
        let state = self.tenant_mut(id);
        if state.backlog.back().map(|newest| newest.outer) != Some(outer) {
            return false;
        }
        state.backlog.pop_back();
        state.totals.admitted_ops -= 1;
        true
    }

    /// Ops admitted for `id` and not yet granted.
    pub(crate) fn backlog_len(&self, id: TenantId) -> usize {
        self.tenant(id).backlog.len()
    }

    /// Whether a submit for `id` would be rejected right now.
    pub(crate) fn backlog_full(&self, id: TenantId) -> bool {
        let state = self.tenant(id);
        state.backlog.len() >= state.backlog_cap
    }

    fn active_vtime_floor(&self, excluding: TenantId) -> Option<u128> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != excluding.0 as usize && t.is_active())
            .map(|(_, t)| t.vtime)
            .min()
    }

    /// Allocates the free budget over every backlogged tenant in
    /// virtual-time order and realizes the claiming tenant's share:
    /// its granted ops leave the backlog, count in flight and are
    /// returned in submission order for the caller to dispatch. Other
    /// tenants' shares are reservations — they realize them on their
    /// own claims.
    pub(crate) fn claim(&mut self, id: TenantId) -> Vec<Queued> {
        let free = self.budget - self.in_flight_total;
        let me = id.0 as usize;

        // Scratch view of every backlogged tenant for the simulation.
        struct Scratch<'a> {
            idx: usize,
            state: &'a TenantState,
            vtime: u128,
            pos: usize,
            in_flight: usize,
        }
        let mut scratch: Vec<Scratch<'_>> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.backlog.is_empty())
            .map(|(idx, state)| Scratch {
                idx,
                state,
                vtime: state.vtime,
                pos: 0,
                in_flight: state.in_flight,
            })
            .collect();

        let mut granted = 0usize;
        for _ in 0..free {
            let next = scratch
                .iter_mut()
                .filter(|s| s.in_flight < s.state.qd_cap)
                .filter_map(|s| {
                    let cost = s.state.backlog.get(s.pos)?.cost;
                    Some((s, cost))
                })
                .min_by_key(|(s, _)| (s.vtime, s.idx));
            let Some((next, cost)) = next else { break };
            next.vtime += next.state.vtime_step(cost);
            next.pos += 1;
            next.in_flight += 1;
            if next.idx == me {
                granted += 1;
            }
        }

        // Realize the claimer's share.
        let state = self.tenant_mut(id);
        let ops: Vec<Queued> = state.backlog.drain(..granted).collect();
        for op in &ops {
            state.vtime += state.vtime_step(op.cost);
        }
        state.in_flight += granted;
        state.totals.dispatched_ops += granted as u64;
        self.in_flight_total += granted;
        ops
    }

    /// Refunds a claim whose dispatch failed synchronously (out of
    /// bounds): the failing op's slot returns to the pool, and `rest`,
    /// the granted ops never handed to the inner queue, goes back to
    /// the *front* of the backlog in submission order with its slots
    /// and clock advance refunded, so it dispatches on a later pump
    /// instead of leaking shared budget forever.
    pub(crate) fn dispatch_aborted(&mut self, id: TenantId, rest: Vec<Queued>) {
        let undone = rest.len() + 1;
        let state = self.tenant_mut(id);
        for queued in rest.into_iter().rev() {
            let step = state.vtime_step(queued.cost);
            state.vtime = state.vtime.saturating_sub(step);
            state.backlog.push_front(queued);
        }
        state.in_flight -= undone;
        state.totals.dispatched_ops -= undone as u64;
        self.in_flight_total -= undone;
        self.ring_backlogged(Some(id));
    }

    /// The highest open-op count (backlog + in flight) any tenant
    /// other than `excluding` reached since its window last restarted,
    /// maxed across those tenants; every sampled window then restarts
    /// at the tenant's current open count, so still-open pressure
    /// stays visible to the next sample.
    pub(crate) fn take_demand_peak_excluding(&mut self, excluding: TenantId) -> u64 {
        let mut peak = 0;
        for (idx, tenant) in self.tenants.iter_mut().enumerate() {
            if idx == excluding.0 as usize {
                continue;
            }
            peak = peak.max(tenant.demand_peak);
            tenant.demand_peak = (tenant.backlog.len() + tenant.in_flight) as u64;
        }
        peak
    }

    /// Folds reaped completions back in: slots free up, per-tenant
    /// totals absorb the per-op [`ExecStats`] deltas, and every other
    /// backlogged tenant's doorbell rings — freed slots may turn their
    /// next claim positive.
    pub(crate) fn complete(&mut self, id: TenantId, ops: usize, bytes: u64, exec: &ExecStats) {
        let state = self.tenant_mut(id);
        state.in_flight -= ops;
        state.totals.completed_ops += ops as u64;
        state.totals.completed_bytes += bytes;
        state.totals.exec.absorb(exec);
        self.in_flight_total -= ops;
        self.ring_backlogged(Some(id));
    }

    /// Folds ops the inner queue consumed with a reap error back in:
    /// their slots free up exactly like completions (freeing the
    /// shared budget and ringing other backlogged tenants), but the
    /// ops count as failed — no bytes, no exec stats, nothing
    /// finished.
    pub(crate) fn fail(&mut self, id: TenantId, ops: usize) {
        if ops == 0 {
            return;
        }
        let state = self.tenant_mut(id);
        state.in_flight -= ops;
        state.totals.failed_ops += ops as u64;
        self.in_flight_total -= ops;
        self.ring_backlogged(Some(id));
    }

    /// Rings the doorbell of every attached tenant with queued work,
    /// optionally skipping one (the caller's own thread is awake).
    /// With no timed wait anywhere in the runtime, this ring is the
    /// only thing that wakes a tenant parked on backlog alone.
    fn ring_backlogged(&self, except: Option<TenantId>) {
        for (idx, tenant) in self.tenants.iter().enumerate() {
            if except.is_some_and(|id| id.0 as usize == idx) {
                continue;
            }
            if !tenant.backlog.is_empty() {
                if let Some(bell) = tenant.bell.as_ref() {
                    bell.ring();
                }
            }
        }
    }

    pub(crate) fn tenant_stats(&self, id: TenantId) -> TenantStats {
        let state = self.tenant(id);
        TenantStats {
            id,
            name: state.name.clone(),
            weight: state.weight,
            admitted_ops: state.totals.admitted_ops,
            rejected_ops: state.totals.rejected_ops,
            dispatched_ops: state.totals.dispatched_ops,
            completed_ops: state.totals.completed_ops,
            failed_ops: state.totals.failed_ops,
            completed_bytes: state.totals.completed_bytes,
            backlog_ops: state.backlog.len(),
            in_flight_ops: state.in_flight,
            exec: state.totals.exec,
        }
    }

    pub(crate) fn all_stats(&self) -> Vec<TenantStats> {
        (0..self.tenants.len())
            .map(|i| self.tenant_stats(TenantId(i as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(len: u64) -> IoOp {
        IoOp::Read { offset: 0, len }
    }

    fn spec(name: &str, weight: u32) -> TenantSpec {
        TenantSpec::new(name)
            .weight(weight)
            .qd_cap(8)
            .backlog_cap(1024)
    }

    /// Drives the arbiter with a deterministic completion model: every
    /// round each tenant tops up its backlog and claims; the oldest
    /// dispatched op then completes. Returns per-tenant dispatch
    /// counts.
    fn drive_rounds(weights: &[u32], budget: usize, rounds: usize) -> Vec<u64> {
        let mut arb = Arbiter::new(budget);
        let ids: Vec<TenantId> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| arb.register(&spec(&format!("t{i}"), *w)))
            .collect();
        let mut fifo: VecDeque<TenantId> = VecDeque::new();
        for _ in 0..rounds {
            for &id in &ids {
                while arb.tenant_stats(id).backlog_ops < 8 {
                    arb.try_admit(id, 0, read(4096)).unwrap();
                }
                for _ in arb.claim(id) {
                    fifo.push_back(id);
                }
            }
            if let Some(done) = fifo.pop_front() {
                arb.complete(done, 1, 4096, &ExecStats::default());
            }
        }
        ids.iter()
            .map(|&id| arb.tenant_stats(id).dispatched_ops)
            .collect()
    }

    #[test]
    fn dispatch_shares_track_weights() {
        let counts = drive_rounds(&[3, 1], 4, 400);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "3:1 weights must yield ~3:1 dispatches, got {counts:?}"
        );
    }

    #[test]
    fn equal_weights_split_evenly() {
        let counts = drive_rounds(&[2, 2, 2], 6, 600);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "equal weights must dispatch evenly, got {counts:?}"
        );
    }

    #[test]
    fn idle_tenant_rejoins_at_the_clock_floor_without_banked_credit() {
        let mut arb = Arbiter::new(2);
        let a = arb.register(&spec("a", 1));
        let b = arb.register(&spec("b", 1));
        // A runs alone for a while, advancing its clock.
        for _ in 0..64 {
            arb.try_admit(a, 0, read(4096)).unwrap();
            assert_eq!(arb.claim(a).len(), 1);
            arb.complete(a, 1, 4096, &ExecStats::default());
        }
        // B wakes up: its zero clock must be lifted to A's, not let it
        // monopolize the budget for 64 ops of "catch-up".
        for _ in 0..8 {
            arb.try_admit(a, 0, read(4096)).unwrap();
            arb.try_admit(b, 0, read(4096)).unwrap();
        }
        let granted_b = arb.claim(b).len();
        let granted_a = arb.claim(a).len();
        assert_eq!(granted_b, 1, "B gets its fair half of the budget");
        assert_eq!(granted_a, 1, "A keeps its half despite B's backlog");
    }

    #[test]
    fn qd_cap_binds_a_single_tenant() {
        let mut arb = Arbiter::new(16);
        let a = arb.register(&TenantSpec::new("capped").qd_cap(2).backlog_cap(64));
        for _ in 0..8 {
            arb.try_admit(a, 0, read(512)).unwrap();
        }
        assert_eq!(
            arb.claim(a).len(),
            2,
            "QD cap must bind before the global budget"
        );
        arb.complete(a, 2, 1024, &ExecStats::default());
        assert_eq!(arb.claim(a).len(), 2);
    }

    #[test]
    fn admission_rejects_past_the_backlog_cap() {
        let mut arb = Arbiter::new(4);
        let a = arb.register(&TenantSpec::new("small").backlog_cap(2));
        arb.try_admit(a, 0, read(1)).unwrap();
        arb.try_admit(a, 1, read(1)).unwrap();
        assert_eq!(arb.try_admit(a, 2, read(1)), Err((2, 2)));
        let stats = arb.tenant_stats(a);
        assert_eq!(stats.admitted_ops, 2);
        assert_eq!(stats.rejected_ops, 1);
    }

    #[test]
    fn aborted_grants_return_to_the_backlog_mirror() {
        let mut arb = Arbiter::new(4);
        let a = arb.register(&spec("a", 1));
        for outer in 0..3 {
            arb.try_admit(a, outer, read(4096)).unwrap();
        }
        let granted = arb.claim(a);
        assert_eq!(granted.len(), 3);
        // The first dispatch failed synchronously; the two remaining
        // grants were never handed to the inner queue.
        arb.dispatch_aborted(a, granted.into_iter().skip(1).collect());
        assert_eq!(arb.in_flight_total(), 0, "aborted grants leaked budget");
        let stats = arb.tenant_stats(a);
        assert_eq!(stats.in_flight_ops, 0);
        assert_eq!(stats.backlog_ops, 2, "aborted grants left the backlog");
        assert_eq!(stats.dispatched_ops, 0);
        // The refunded ops are claimable again, still in order.
        let outers: Vec<u64> = arb.claim(a).iter().map(|q| q.outer).collect();
        assert_eq!(outers, [1, 2]);
    }

    #[test]
    fn unadmit_newest_revokes_the_last_admission() {
        let mut arb = Arbiter::new(4);
        let a = arb.register(&spec("a", 1));
        arb.try_admit(a, 0, read(4096)).unwrap();
        arb.try_admit(a, 1, read(8192)).unwrap();
        assert!(!arb.unadmit_newest(a, 0), "only the newest id is revoked");
        assert!(arb.unadmit_newest(a, 1));
        assert!(!arb.unadmit_newest(a, 1), "a revoked id is gone");
        let stats = arb.tenant_stats(a);
        assert_eq!(stats.admitted_ops, 1);
        assert_eq!(stats.backlog_ops, 1);
        let outers: Vec<u64> = arb.claim(a).iter().map(|q| q.outer).collect();
        assert_eq!(outers, [0]);
    }

    #[test]
    fn demand_peak_excludes_the_sampler_and_restarts_at_open_demand() {
        let mut arb = Arbiter::new(8);
        let rekey = arb.register(&spec("rekey", 1));
        let client = arb.register(&spec("client", 1));
        for _ in 0..4 {
            arb.try_admit(client, 0, read(4096)).unwrap();
        }
        for _ in 0..6 {
            arb.try_admit(rekey, 0, read(4096)).unwrap();
        }
        // The sampler's own demand never counts toward its reading.
        assert_eq!(arb.take_demand_peak_excluding(client), 6);
        assert_eq!(arb.take_demand_peak_excluding(rekey), 4);
        // Still-open demand survives the window restart…
        assert_eq!(arb.claim(client).len(), 4);
        arb.complete(client, 4, 4 * 4096, &ExecStats::default());
        assert_eq!(arb.take_demand_peak_excluding(rekey), 4);
        // …and a fully drained tenant finally samples as quiet.
        assert_eq!(arb.take_demand_peak_excluding(rekey), 0);
    }

    #[test]
    fn reservation_protects_a_low_depth_tenant() {
        // Budget 2, a hog with a deep backlog and a victim with one op:
        // the hog's claim must leave the victim's fair slot unclaimed.
        let mut arb = Arbiter::new(2);
        let hog = arb.register(&spec("hog", 1));
        let victim = arb.register(&spec("victim", 1));
        for _ in 0..8 {
            arb.try_admit(hog, 0, read(4096)).unwrap();
        }
        arb.try_admit(victim, 0, read(4096)).unwrap();
        assert_eq!(
            arb.claim(hog).len(),
            1,
            "the victim's reserved slot must not go to the hog"
        );
        assert_eq!(arb.claim(victim).len(), 1);
    }
}
