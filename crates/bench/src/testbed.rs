//! The paper's testbed (§3.2) as reusable builders: IO-size sweep,
//! encryption variants, and cluster/disk construction.

use vdisk_core::{EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::{Cluster, Testbed, TestbedProfile};
use vdisk_rbd::Image;

/// The paper's IO-size sweep: 4 KB to 4 MB (Fig. 3/4 x-axis).
pub const PAPER_IO_SIZES_KB: [u64; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The queue depth fio was run with ("32 maximum parallel accesses").
pub const PAPER_QUEUE_DEPTH: usize = 32;

/// Image size used by the harness. The paper uses a 64 GiB image; the
/// simulated cost model has no cache effects that depend on image
/// size, so a smaller footprint sweeps faster at identical shapes.
pub const BENCH_IMAGE_SIZE: u64 = 128 << 20;

/// IO sizes in bytes.
#[must_use]
pub fn paper_io_sizes() -> Vec<u64> {
    PAPER_IO_SIZES_KB.iter().map(|kb| kb * 1024).collect()
}

/// One line of the paper's figure legend.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Legend label ("LUKS2", "Unaligned", "Object end", "OMAP").
    pub label: &'static str,
    /// The encryption configuration behind it.
    pub config: EncryptionConfig,
}

/// The four variants of Fig. 3/4, in the paper's order.
#[must_use]
pub fn paper_variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "LUKS2",
            config: EncryptionConfig::luks2_baseline(),
        },
        Variant {
            label: "Unaligned",
            config: EncryptionConfig::random_iv(MetaLayout::Unaligned),
        },
        Variant {
            label: "Object end",
            config: EncryptionConfig::random_iv(MetaLayout::ObjectEnd),
        },
        Variant {
            label: "OMAP",
            config: EncryptionConfig::random_iv(MetaLayout::Omap),
        },
    ]
}

/// The shared configuration of every bench cluster. Both cluster
/// flavours derive from this builder so calibration changes apply to
/// all benchmark rows at once. Receipts record what each op did, not
/// the bytes it stored, so the priced figures do not depend on the
/// payload; the cost of storing it is harness memory.
///
/// The client-side IV/metadata cache is **off** here: the paper's
/// figures measure the layouts' *inherent* per-sector metadata costs,
/// which the cache exists to hide. Cache ablations opt back in via
/// [`cached_bench_disk`].
fn bench_builder() -> vdisk_rados::ClusterBuilder {
    Cluster::builder()
        .meta_cache_bytes(0)
        // Pinned to the in-memory backend, overriding any
        // `VDISK_BACKEND` environment selection: the figure harnesses
        // and the gated bench groups measure the simulated cost model,
        // which host-file IO must never perturb. FileStore bench rows
        // opt in explicitly via [`filestore_bench_disk`].
        .backend(vdisk_rados::BackendKind::Memory)
}

/// A fresh paper-calibrated cluster for benchmarking.
#[must_use]
pub fn bench_cluster() -> Cluster {
    bench_builder().build()
}

/// The paper's simulated testbed sized to `cluster`'s OSDs, to price
/// its receipts.
#[must_use]
pub fn simulated(cluster: &Cluster) -> Testbed {
    Testbed::new(TestbedProfile::default(), cluster.osd_count())
}

/// Builds an encrypted disk of `size` bytes on a fresh bench cluster.
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn bench_disk(config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    disk_on(bench_cluster(), config, size, seed)
}

/// Builds an encrypted disk on a bench cluster with the per-shard
/// worker threads **forced on** — the setup for queue-depth workloads,
/// where submissions must genuinely overlap on the shard workers
/// regardless of the host's core count.
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn queued_bench_disk(config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    disk_on(
        bench_builder().concurrent_apply(true).build(),
        config,
        size,
        seed,
    )
}

/// Builds an encrypted disk with the client-side IV/metadata cache
/// **enabled** at its default 4 MiB budget, on an inline-mode bench
/// cluster (submissions apply at submit, so the reap-time cache fills
/// happen at deterministic points — identical receipts to the
/// worker-thread mode, but hit patterns and therefore simulated
/// results are exactly reproducible across hosts; the bench gate
/// depends on that).
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn cached_bench_disk(config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    disk_on(
        bench_builder()
            .meta_cache_bytes(vdisk_rados::DEFAULT_META_CACHE_BYTES)
            .concurrent_apply(false)
            .build(),
        config,
        size,
        seed,
    )
}

/// A [`cached_bench_disk`] on a cluster widened to 12 OSDs
/// (replication factor unchanged), for the serial-vs-parallel crypto
/// comparison of the large-block QD 32 bench group.
///
/// On the default 3-OSD map every write's payload crosses **all
/// three** single-stream links, and at 1.55 GB/s per link that floor
/// sits above the 1.70 GB/s serial-crypto rate — the network would
/// hide the crypto pipeline entirely. Fanned out over 12 OSDs the
/// links drop below the client NIC, which is where the paper's
/// testbed actually saturates, and client-side crypto becomes the
/// serial bottleneck the crypto workers exist to remove.
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn wide_cached_bench_disk(config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    disk_on(
        bench_builder()
            .meta_cache_bytes(vdisk_rados::DEFAULT_META_CACHE_BYTES)
            .concurrent_apply(false)
            .osd_count(12)
            .build(),
        config,
        size,
        seed,
    )
}

/// The cache-off twin of [`cached_bench_disk`]: identical cluster mode
/// (inline apply) so cache-on/cache-off comparisons differ in exactly
/// one variable.
#[must_use]
pub fn uncached_bench_disk(config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    disk_on(
        bench_builder().concurrent_apply(false).build(),
        config,
        size,
        seed,
    )
}

/// Builds an encrypted disk on a **file-backed** bench cluster rooted
/// at `dir` (inline apply, like [`cached_bench_disk`], so results stay
/// deterministic). Its receipts are identical to the in-memory
/// backend's by construction — what this measures is that
/// the durable commit path stays functional under a bench workload;
/// its wall-clock is reported, never regression-gated.
///
/// # Panics
///
/// Panics if the store directory cannot be opened or formatting fails
/// (benchmark setup).
#[must_use]
pub fn filestore_bench_disk(
    config: &EncryptionConfig,
    size: u64,
    seed: u64,
    dir: std::path::PathBuf,
) -> EncryptedImage {
    disk_on(
        bench_builder()
            .backend(vdisk_rados::BackendKind::File { dir })
            .concurrent_apply(false)
            .build(),
        config,
        size,
        seed,
    )
}

/// A [`cached_bench_disk`] whose cluster carries a **fault plane**
/// injecting transient shard errors at `rate`, absorbed by the
/// default retry policy. Inline apply keeps the injection schedule —
/// a pure function of (seed, shard, draw index) — identical across
/// hosts, but the retry layer's backoff is real wall-clock sleep, so
/// rows built on this disk are reported, never regression-gated.
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn faulty_bench_disk(
    config: &EncryptionConfig,
    size: u64,
    seed: u64,
    rate: f64,
) -> EncryptedImage {
    disk_on(
        bench_builder()
            .meta_cache_bytes(vdisk_rados::DEFAULT_META_CACHE_BYTES)
            .concurrent_apply(false)
            .fault_plane(vdisk_rados::FaultConfig::new(seed).transient_rate(rate))
            .build(),
        config,
        size,
        seed,
    )
}

/// Builds `n` encrypted disks named `tenant-0..n` on **one shared**
/// inline-mode cached bench cluster — the multi-tenant analogue of
/// [`cached_bench_disk`]: every image's IO contends for the same
/// shards, and inline apply keeps completion order (and therefore the
/// fair scheduler's dispatch trace) bit-identical across hosts, which
/// the gated `multitenant-*` bench groups depend on.
///
/// # Panics
///
/// Panics if image creation or formatting fails (benchmark setup).
#[must_use]
pub fn tenant_bench_disks(
    config: &EncryptionConfig,
    n: usize,
    size: u64,
    seed: u64,
) -> Vec<EncryptedImage> {
    let cluster = bench_builder()
        .meta_cache_bytes(vdisk_rados::DEFAULT_META_CACHE_BYTES)
        .concurrent_apply(false)
        .build();
    (0..n)
        .map(|i| {
            named_disk_on(
                &cluster,
                &format!("tenant-{i}"),
                config,
                size,
                seed + i as u64,
            )
        })
        .collect()
}

fn disk_on(cluster: Cluster, config: &EncryptionConfig, size: u64, seed: u64) -> EncryptedImage {
    named_disk_on(&cluster, "bench", config, size, seed)
}

/// Builds an encrypted disk with an explicit image name, for clusters
/// hosting more than one bench image.
#[must_use]
pub fn named_disk_on(
    cluster: &Cluster,
    name: &str,
    config: &EncryptionConfig,
    size: u64,
    seed: u64,
) -> EncryptedImage {
    let image = Image::create(cluster, name, size).expect("create bench image");
    EncryptedImage::format_with_iv_source(
        image,
        config,
        b"bench-passphrase",
        Box::new(SeededIvSource::new(seed)),
    )
    .expect("format bench image")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ascending_and_paper_shaped() {
        let sizes = paper_io_sizes();
        assert_eq!(sizes.first(), Some(&4096));
        assert_eq!(sizes.last(), Some(&(4 << 20)));
        assert!(sizes.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn variants_match_figure_legend() {
        let v = paper_variants();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].label, "LUKS2");
        assert_eq!(v[0].config.meta_entry_len(), 0);
        for variant in &v[1..] {
            // 16-byte IV + the 4-byte key-epoch tag.
            assert_eq!(variant.config.meta_entry_len(), 20);
            variant.config.validate().unwrap();
        }
    }

    #[test]
    fn bench_disk_builds() {
        let disk = bench_disk(&EncryptionConfig::random_iv_object_end(), 8 << 20, 1);
        assert_eq!(disk.image().size(), 8 << 20);
    }
}
