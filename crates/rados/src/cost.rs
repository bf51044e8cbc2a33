//! The testbed cost model: resources calibrated to the paper's cluster
//! (§3.2), and [`Testbed`], which prices the [`Receipt`]s the IO path
//! returns into [`vdisk_sim::Plan`]s and replays them in a closed loop.
//! Every pricing decision lives here — message sizes, the replication
//! fan-out, the deferred-write threshold, RMW reads, OMAP engine time,
//! the client cipher's split over the crypto workers — and nothing on
//! the IO path builds a plan: only the figure harnesses, `bench_gate`
//! and tests price.
//!
//! Calibration sources, from the paper:
//! - 3 OSD nodes, Xeon E5-2650 v4, 9 × 1.8 TB NVMe each;
//! - 100 Gb/s links but ~13 Gb/s measured per iperf stream (§3.2), so a
//!   per-OSD stream moves ≈ 1.6 GB/s and a multi-stream client NIC
//!   sustains ≈ 2.8 GB/s;
//! - 3-way replication (client → primary → 2 replicas);
//! - fio QD 32, one client.
//!
//! Absolute bandwidths need only land in the right regime; the
//! *relative* overheads of the IV layouts — the paper's actual result —
//! emerge from sector counts, read-modify-writes and KV work, not from
//! these constants.

use crate::placement::OsdId;
use crate::receipt::{OpEffect, ReadEffect, ReadWork, Receipt, TxWork};
use vdisk_kv::CostProfile;
use vdisk_sim::{ClosedLoopStats, Plan, ResourceId, ResourceSpec, SimDuration, Simulator};

/// Writes at least this large spread their cipher work over all of the
/// client's crypto workers; the paper's client split them, and left
/// smaller IOs on one worker.
const PARALLEL_CRYPTO_MIN_BYTES: u64 = 128 << 10;

/// Hardware constants of the simulated testbed.
#[derive(Debug, Clone)]
pub struct TestbedProfile {
    /// Client NIC transmit rate (bytes/s), aggregate over streams.
    pub client_nic_tx: f64,
    /// Client NIC receive rate (bytes/s).
    pub client_nic_rx: f64,
    /// Per-message NIC cost.
    pub nic_per_op: SimDuration,
    /// One network stream to/from an OSD (bytes/s) — the ~13 Gb/s
    /// iperf figure.
    pub link_rate: f64,
    /// Per-message link cost (propagation + framing).
    pub link_per_op: SimDuration,
    /// OSD request-processing cost per op.
    pub osd_cpu_per_op: SimDuration,
    /// OSD worker threads.
    pub osd_cpu_servers: usize,
    /// Per-NVMe-channel read throughput (bytes/s).
    pub disk_read_rate: f64,
    /// Per-NVMe-channel write throughput (bytes/s).
    pub disk_write_rate: f64,
    /// Per-read-op disk latency.
    pub disk_read_per_op: SimDuration,
    /// Per-write-op disk latency (includes transaction commit).
    pub disk_write_per_op: SimDuration,
    /// Per-op latency of the deferred (WAL-backed) small-write path
    /// BlueStore uses for sub-block writes.
    pub disk_deferred_per_op: SimDuration,
    /// Writes at or below this size take the deferred path and skip
    /// read-modify-write (the journal absorbs them).
    pub deferred_write_threshold: u64,
    /// Per-batch latency of an OMAP WAL commit (RocksDB group commit).
    pub kv_wal_per_op: SimDuration,
    /// OMAP WAL append bandwidth (bytes/s).
    pub kv_wal_rate: f64,
    /// NVMe channels per OSD (the paper's nodes have 9 disks).
    pub disk_servers: usize,
    /// Concurrent OMAP (RocksDB) engine threads per OSD.
    pub kv_servers: usize,
    /// Client-side encryption throughput (bytes/s per thread).
    pub crypto_rate: f64,
    /// Client crypto worker threads. A write of at least 128 KiB
    /// splits its cipher work evenly over all of them; smaller writes
    /// and every read use one.
    pub crypto_servers: usize,
    /// Per-IO crypto setup cost.
    pub crypto_per_op: SimDuration,
    /// Acknowledgement round-trip tail.
    pub ack_delay: SimDuration,
    /// Fixed protocol header bytes added to each message.
    pub msg_header_bytes: u64,
}

impl Default for TestbedProfile {
    fn default() -> Self {
        TestbedProfile {
            client_nic_tx: 2.70e9,
            client_nic_rx: 2.85e9,
            nic_per_op: SimDuration::from_micros(6),
            link_rate: 1.55e9,
            link_per_op: SimDuration::from_micros(12),
            osd_cpu_per_op: SimDuration::from_micros(130),
            osd_cpu_servers: 8,
            disk_read_rate: 1.10e9,
            disk_write_rate: 0.30e9,
            disk_read_per_op: SimDuration::from_micros(50),
            disk_write_per_op: SimDuration::from_micros(270),
            disk_deferred_per_op: SimDuration::from_micros(60),
            deferred_write_threshold: 2048,
            kv_wal_per_op: SimDuration::from_micros(20),
            kv_wal_rate: 0.40e9,
            disk_servers: 9,
            kv_servers: 1,
            crypto_rate: 1.70e9,
            crypto_servers: 4,
            crypto_per_op: SimDuration::from_micros(5),
            ack_delay: SimDuration::from_micros(25),
            msg_header_bytes: 512,
        }
    }
}

/// Resource ids of an installed testbed.
#[derive(Debug, Clone)]
pub struct ResourceHandles {
    /// Client NIC, transmit direction.
    pub client_nic_tx: ResourceId,
    /// Client NIC, receive direction.
    pub client_nic_rx: ResourceId,
    /// Client-side encryption workers.
    pub client_crypto: ResourceId,
    /// Per-OSD network stream.
    pub osd_link: Vec<ResourceId>,
    /// Per-OSD request CPUs.
    pub osd_cpu: Vec<ResourceId>,
    /// Per-OSD NVMe array (reads and writes contend on the same
    /// device channels).
    pub osd_disk: Vec<ResourceId>,
    /// Per-OSD OMAP (KV) engine.
    pub osd_kv: Vec<ResourceId>,
}

impl TestbedProfile {
    /// Disk service time of a full-path read of `bytes`.
    #[must_use]
    pub fn disk_read_time(&self, bytes: u64) -> SimDuration {
        self.disk_read_per_op + SimDuration::from_secs_f64(bytes as f64 / self.disk_read_rate)
    }

    /// Disk service time of a full-path write of `bytes`.
    #[must_use]
    pub fn disk_write_time(&self, bytes: u64) -> SimDuration {
        self.disk_write_per_op + SimDuration::from_secs_f64(bytes as f64 / self.disk_write_rate)
    }

    /// Disk service time of a deferred (journaled) small write.
    #[must_use]
    pub fn disk_deferred_time(&self, bytes: u64) -> SimDuration {
        self.disk_deferred_per_op + SimDuration::from_secs_f64(bytes as f64 / self.disk_write_rate)
    }

    /// Disk service time of an OMAP WAL commit of `bytes`.
    #[must_use]
    pub fn kv_wal_time(&self, bytes: u64) -> SimDuration {
        self.kv_wal_per_op + SimDuration::from_secs_f64(bytes as f64 / self.kv_wal_rate)
    }
}

/// A simulated testbed: a [`TestbedProfile`]'s resources installed for
/// one cluster geometry, and the prices that turn a [`Receipt`] into a
/// [`Plan`] over them.
pub struct Testbed {
    profile: TestbedProfile,
    /// The OMAP engine's cost model.
    kv: CostProfile,
    handles: ResourceHandles,
    /// Reset at the start of every closed-loop run.
    sim: Simulator,
}

impl Testbed {
    /// Installs `profile`'s resources for `osd_count` OSDs. The
    /// client-crypto resource gets `profile.crypto_servers` servers: the
    /// paper's client, whatever the host running the simulation has.
    #[must_use]
    pub fn new(profile: TestbedProfile, osd_count: usize) -> Testbed {
        let p = profile;
        let mut sim = Simulator::new();
        let client_nic_tx = sim.add_resource(ResourceSpec::pipe(
            "client-nic-tx",
            p.client_nic_tx,
            p.nic_per_op,
        ));
        let client_nic_rx = sim.add_resource(ResourceSpec::pipe(
            "client-nic-rx",
            p.client_nic_rx,
            p.nic_per_op,
        ));
        let client_crypto = sim.add_resource(ResourceSpec::servers(
            "client-crypto",
            p.crypto_servers,
            p.crypto_rate,
            p.crypto_per_op,
        ));
        let mut osd_link = Vec::new();
        let mut osd_cpu = Vec::new();
        let mut osd_disk = Vec::new();
        let mut osd_kv = Vec::new();
        for i in 0..osd_count {
            osd_link.push(sim.add_resource(ResourceSpec::pipe(
                &format!("osd{i}-link"),
                p.link_rate,
                p.link_per_op,
            )));
            osd_cpu.push(sim.add_resource(ResourceSpec::latency_only(
                &format!("osd{i}-cpu"),
                p.osd_cpu_servers,
                p.osd_cpu_per_op,
            )));
            // A single per-OSD NVMe array; service times are computed
            // per op type (read/write/deferred) and charged as `Busy`.
            osd_disk.push(sim.add_resource(ResourceSpec::latency_only(
                &format!("osd{i}-disk"),
                p.disk_servers,
                SimDuration::ZERO,
            )));
            osd_kv.push(sim.add_resource(ResourceSpec::latency_only(
                &format!("osd{i}-kv"),
                p.kv_servers,
                SimDuration::ZERO,
            )));
        }
        let handles = ResourceHandles {
            client_nic_tx,
            client_nic_rx,
            client_crypto,
            osd_link,
            osd_cpu,
            osd_disk,
            osd_kv,
        };
        Testbed {
            profile: p,
            kv: CostProfile::default(),
            handles,
            sim,
        }
    }

    /// The installed resources, in the order registered (to inspect
    /// plans by resource).
    #[must_use]
    pub fn handles(&self) -> &ResourceHandles {
        &self.handles
    }

    /// The cost plan of the IO `receipt` records: the boundary reads an
    /// unaligned write performed, then the client cipher and the
    /// dispatch — the cipher before a write's transactions, after a
    /// read's fetches. The dispatch runs every transaction or
    /// per-object read in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the receipt names an OSD this testbed was not
    /// installed for.
    #[must_use]
    pub fn plan_of(&self, receipt: &Receipt) -> Plan {
        let write = !receipt.txs.is_empty();
        let crypto = self.crypto_plan(receipt.crypto, write);
        let dispatch = Plan::par(
            receipt
                .txs
                .iter()
                .map(|tx| self.tx_plan(tx))
                .chain(receipt.reads.iter().map(|read| self.read_plan(read))),
        );
        let rmw = Plan::par(receipt.rmw.iter().map(|read| self.plan_of(read)));
        // A read decrypts what it fetched; a write dispatches what it
        // encrypted.
        if write {
            Plan::seq([rmw, crypto, dispatch])
        } else {
            Plan::seq([rmw, dispatch, crypto])
        }
    }

    /// Runs `ops` — each a receipt and the payload bytes it is credited
    /// with — in a closed loop at `queue_depth` (fio-style) on this
    /// testbed's hardware, pricing each receipt as the loop issues it.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or `queue_depth` is zero.
    pub fn run_closed_loop<'r>(
        &mut self,
        queue_depth: usize,
        ops: impl ExactSizeIterator<Item = (&'r Receipt, u64)>,
    ) -> ClosedLoopStats {
        let total = ops.len() as u64;
        let mut sim = std::mem::take(&mut self.sim);
        let stats = {
            let mut plans = ops.map(|(receipt, bytes)| (self.plan_of(receipt), bytes));
            // `total` is `ops.len()`, so the loop asks for exactly as
            // many plans as there are.
            sim.run_closed_loop(queue_depth, total, |_| {
                plans.next().unwrap_or((Plan::Noop, 0))
            })
        };
        self.sim = sim;
        stats
    }

    /// `bytes` of client cipher work: a write of at least
    /// [`PARALLEL_CRYPTO_MIN_BYTES`] split over the crypto servers in
    /// near-equal parallel chunks, anything else one op; nothing for no
    /// bytes.
    fn crypto_plan(&self, bytes: u64, write: bool) -> Plan {
        let crypto = self.handles.client_crypto;
        let servers = self.profile.crypto_servers as u64;
        if bytes == 0 {
            return Plan::Noop;
        }
        if !write || bytes < PARALLEL_CRYPTO_MIN_BYTES || servers <= 1 {
            return Plan::op(crypto, bytes);
        }
        let (chunk, remainder) = (bytes / servers, bytes % servers);
        Plan::par((0..servers).map(|i| Plan::op(crypto, chunk + u64::from(i < remainder))))
    }

    /// A replicated write: client NIC → primary link → primary CPU →
    /// in parallel {primary disk work; per replica: link → CPU → disk
    /// work} → ack.
    fn tx_plan(&self, tx: &TxWork) -> Plan {
        let h = &self.handles;
        let msg = tx.payload_bytes + self.profile.msg_header_bytes;
        let Some((&primary, replicas)) = tx.acting.split_first() else {
            return Plan::Noop;
        };
        let fanout =
            std::iter::once(self.osd_write_plan(primary, tx)).chain(replicas.iter().map(|&osd| {
                Plan::seq([
                    Plan::op(h.osd_link[osd.0], msg),
                    Plan::op(h.osd_cpu[osd.0], 0),
                    self.osd_write_plan(osd, tx),
                ])
            }));
        Plan::seq([
            Plan::op(h.client_nic_tx, msg),
            Plan::op(h.osd_link[primary.0], msg),
            Plan::op(h.osd_cpu[primary.0], 0),
            Plan::par(fanout),
            Plan::delay(self.profile.ack_delay),
        ])
    }

    /// One replica's disk and OMAP work for `tx`. Writes up to the
    /// deferred threshold ride the journal without a foreground RMW;
    /// larger ones read their partial blocks first (the summed RMW
    /// reads split evenly) and are sequenced before the deferred ones.
    fn osd_write_plan(&self, osd: OsdId, tx: &TxWork) -> Plan {
        let p = &self.profile;
        let disk = self.handles.osd_disk[osd.0];
        let (mut rmw_ops, mut rmw_bytes) = (0u64, 0u64);
        let mut full = Vec::new();
        let mut deferred = Vec::new();
        let (mut kv_time, mut wal_bytes) = (SimDuration::ZERO, 0u64);
        for (_, effect) in tx.effects.iter().filter(|(on, _)| *on == osd) {
            match *effect {
                OpEffect::Write { len, profile } if len <= p.deferred_write_threshold => {
                    deferred.push(Plan::busy(disk, p.disk_deferred_time(profile.write_bytes)));
                }
                OpEffect::Write { profile, .. } => {
                    rmw_ops += profile.rmw_read_ops;
                    rmw_bytes += profile.rmw_read_bytes;
                    full.push(Plan::busy(disk, p.disk_write_time(profile.write_bytes)));
                }
                // Each receipt priced on its own: the sum of rounded
                // times is the engine's time.
                OpEffect::Omap(receipt) => {
                    kv_time += self.kv.write_time(&receipt);
                    wal_bytes += receipt.wal_bytes;
                }
            }
        }
        let rmw_read = rmw_bytes
            .checked_div(rmw_ops)
            .map(|per| Plan::busy(disk, p.disk_read_time(per)));
        let rmw = std::iter::repeat_n(rmw_read, rmw_ops as usize).flatten();
        // RMW reads gate the writes; the OMAP engine runs beside them.
        Plan::par([
            Plan::seq([Plan::par(rmw), Plan::seq(full.into_iter().chain(deferred))]),
            self.kv_plan(osd, kv_time, wal_bytes),
        ])
    }

    /// A read served by the primary: request in, disk and OMAP work,
    /// response out.
    fn read_plan(&self, read: &ReadWork) -> Plan {
        let (p, h) = (&self.profile, &self.handles);
        let osd = read.primary;
        let mut blocks = Vec::new();
        let mut kv_time = SimDuration::ZERO;
        for effect in &read.effects {
            match effect {
                ReadEffect::Blocks(bytes) => {
                    blocks.push(Plan::busy(h.osd_disk[osd.0], p.disk_read_time(*bytes)));
                }
                ReadEffect::Omap(receipt) => kv_time += self.kv.read_time(receipt),
            }
        }
        let req = p.msg_header_bytes;
        let resp = read.response_bytes + p.msg_header_bytes;
        Plan::seq([
            Plan::op(h.client_nic_tx, req),
            Plan::op(h.osd_link[osd.0], req),
            Plan::op(h.osd_cpu[osd.0], 0),
            Plan::par([Plan::par(blocks), self.kv_plan(osd, kv_time, 0)]),
            Plan::op(h.osd_link[osd.0], resp),
            Plan::op(h.client_nic_rx, resp),
        ])
    }

    /// The OMAP engine busy for `kv_time` while its WAL commit of
    /// `wal_bytes` rides the OSD's disk; nothing when there was no
    /// OMAP work.
    fn kv_plan(&self, osd: OsdId, kv_time: SimDuration, wal_bytes: u64) -> Plan {
        if kv_time == SimDuration::ZERO && wal_bytes == 0 {
            return Plan::Noop;
        }
        Plan::par([
            Plan::busy(self.handles.osd_kv[osd.0], kv_time),
            Plan::busy(
                self.handles.osd_disk[osd.0],
                self.profile.kv_wal_time(wal_bytes),
            ),
        ])
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ExtentProfile;
    use vdisk_sim::SimTime;

    fn setup() -> Testbed {
        Testbed::new(TestbedProfile::default(), 3)
    }

    /// A transaction on `acting` whose every replica applied the same
    /// ops.
    fn tx(payload_bytes: u64, acting: &[usize], ops: &[OpEffect]) -> Receipt {
        let acting: Vec<OsdId> = acting.iter().map(|&osd| OsdId(osd)).collect();
        let effects = acting
            .iter()
            .flat_map(|&osd| ops.iter().map(move |&op| (osd, op)))
            .collect();
        Receipt {
            txs: vec![TxWork {
                acting,
                payload_bytes,
                effects,
            }],
            ..Receipt::default()
        }
    }

    /// A full-path write of `bytes` with no RMW.
    fn write(bytes: u64) -> OpEffect {
        OpEffect::Write {
            len: bytes,
            profile: ExtentProfile {
                write_bytes: bytes,
                ..ExtentProfile::default()
            },
        }
    }

    #[test]
    fn install_registers_all_resources() {
        let testbed = setup();
        let handles = testbed.handles();
        assert_eq!(handles.osd_link.len(), 3);
        assert_eq!(handles.osd_kv.len(), 3);
        assert_eq!(testbed.sim.spec(handles.client_crypto).servers, 4);
        assert_eq!(testbed.sim.spec(handles.osd_disk[0]).servers, 9);
    }

    #[test]
    fn write_plan_touches_every_replica() {
        let mut testbed = setup();
        let plan = testbed.plan_of(&tx(4096, &[0, 1, 2], &[write(4096)]));
        for osd in 0..3 {
            assert_eq!(
                plan.op_count_on(testbed.handles().osd_disk[osd]),
                1,
                "osd {osd} must take one disk write"
            );
        }
        // Replicas get the payload over their links; the primary's link
        // carries it once from the client.
        assert!(plan.bytes_on(testbed.handles().osd_link[1]) >= 4096);
        let done = testbed.sim.execute(&plan, SimTime::ZERO);
        assert!(done.as_nanos() > 0);
    }

    #[test]
    fn replication_makes_writes_slower_than_single_copy() {
        let mut testbed = setup();
        let single = testbed.plan_of(&tx(1 << 20, &[0], &[write(1 << 20)]));
        let t1 = testbed.sim.execute(&single, SimTime::ZERO);
        testbed.sim.reset();
        let triple = testbed.plan_of(&tx(1 << 20, &[0, 1, 2], &[write(1 << 20)]));
        let t3 = testbed.sim.execute(&triple, SimTime::ZERO);
        assert!(t3 > t1, "replication must add latency: {t1:?} vs {t3:?}");
    }

    #[test]
    fn rmw_reads_gate_disk_writes() {
        let mut testbed = setup();
        let no_rmw = testbed.plan_of(&tx(4096, &[0], &[write(4096)]));
        let t_plain = testbed.sim.execute(&no_rmw, SimTime::ZERO);
        testbed.sim.reset();
        let with_rmw = testbed.plan_of(&tx(
            4096,
            &[0],
            &[OpEffect::Write {
                len: 4096,
                profile: ExtentProfile {
                    rmw_read_ops: 2,
                    rmw_read_bytes: 8192,
                    write_bytes: 12288,
                },
            }],
        ));
        let t_rmw = testbed.sim.execute(&with_rmw, SimTime::ZERO);
        assert!(
            t_rmw.as_nanos() > t_plain.as_nanos() + 50_000,
            "RMW must add at least a disk read: {t_plain:?} vs {t_rmw:?}"
        );
    }

    #[test]
    fn read_plan_returns_payload_over_rx_nic() {
        let mut testbed = setup();
        let read = Receipt {
            reads: vec![ReadWork {
                primary: OsdId(1),
                response_bytes: 65536,
                effects: vec![ReadEffect::Blocks(65536)],
            }],
            ..Receipt::default()
        };
        let plan = testbed.plan_of(&read);
        let handles = testbed.handles();
        assert!(plan.bytes_on(handles.client_nic_rx) >= 65536);
        assert_eq!(plan.op_count_on(handles.osd_disk[1]), 1);
        assert_eq!(plan.op_count_on(handles.osd_disk[0]), 0);
        let done = testbed.sim.execute(&plan, SimTime::ZERO);
        assert!(done.as_nanos() > 0);
    }

    #[test]
    fn kv_busy_time_charged_on_kv_resource() {
        let testbed = setup();
        let omap = OpEffect::Omap(vdisk_kv::WriteReceipt {
            keys_written: 1,
            wal_bytes: 64,
            ..vdisk_kv::WriteReceipt::default()
        });
        let plan = testbed.plan_of(&tx(64, &[2], &[omap]));
        assert_eq!(plan.op_count_on(testbed.handles().osd_kv[2]), 1);
    }
}
