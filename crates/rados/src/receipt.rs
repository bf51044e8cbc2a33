//! Receipts: the unpriced record of the physical work one IO did.
//!
//! Serving a submission records, per transaction, what every applied
//! op did on every replica of the acting set (a payload write with its
//! block profile, or an OMAP batch with its `vdisk-kv` receipt) and, per
//! object read, the blocks read, the OMAP lookups and the bytes
//! returned. The layers above pass the record up and the encryption
//! layer adds its cipher work and the boundary reads of an unaligned
//! write. Nothing here carries a time: [`crate::cost::Testbed`] prices
//! a receipt into a simulated-clock plan after the fact, and only
//! where that clock is wanted — the same split `vdisk-kv` makes
//! between its work receipts and its cost profile.

use crate::object::ExtentProfile;
use crate::placement::OsdId;

/// The physical work of one IO.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Receipt {
    /// Transactions applied, in submission order (a write).
    pub txs: Vec<TxWork>,
    /// Per-object reads served, in submission order (a read).
    pub reads: Vec<ReadWork>,
    /// Client-side cipher work in bytes: encrypted before a write
    /// dispatched, or decrypted after a read landed. `0` when the IO ran
    /// no cipher. How many workers shared it is the testbed's to say.
    pub crypto: u64,
    /// The boundary-sector reads an unaligned write performed before
    /// it encrypted, one receipt each.
    pub rmw: Vec<Receipt>,
}

/// What applying one transaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxWork {
    /// The acting set, primary first.
    pub acting: Vec<OsdId>,
    /// Bytes the transaction carried; every message it sent is this
    /// plus a protocol header.
    pub payload_bytes: u64,
    /// What each op did on each replica, in apply order, tagged with
    /// the replica's OSD.
    pub effects: Vec<(OsdId, OpEffect)>,
}

/// What serving one object's read ops did on its primary. A read of an
/// object absent (now, or at the requested snapshot) still made the
/// round trip and did nothing else: no effects, no response bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadWork {
    /// The OSD that served the read.
    pub primary: OsdId,
    /// Payload bytes sent back.
    pub response_bytes: u64,
    /// What each op did, in order.
    pub effects: Vec<ReadEffect>,
}

/// The physical work one applied op caused on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEffect {
    /// A payload write of `len` bytes.
    Write {
        /// Bytes the op carried.
        len: u64,
        /// Blocks read (RMW) and written.
        profile: ExtentProfile,
    },
    /// An OMAP batch (set or remove).
    Omap(vdisk_kv::WriteReceipt),
}

/// The physical work one read op caused on the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEffect {
    /// The whole blocks covering one non-empty extent, in bytes.
    Blocks(u64),
    /// One OMAP lookup or range scan.
    Omap(vdisk_kv::ReadReceipt),
}
