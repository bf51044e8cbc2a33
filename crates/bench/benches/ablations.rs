//! Ablations beyond the paper's headline figures: the §2.2/§4
//! extensions (per-sector MAC, AES-GCM, EME2 wide-block), the LUKS1
//! 512-byte-sector comparison (footnote 4), and a queue-depth sweep.

use vdisk_bench::fio::{self, IoPattern, JobSpec};
use vdisk_bench::testbed;
use vdisk_core::{Cipher, EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::Cluster;
use vdisk_rbd::Image;

const IMAGE: u64 = 64 << 20;
const SIZES: [u64; 4] = [4 << 10, 64 << 10, 512 << 10, 4 << 20];

fn disk_for(config: &EncryptionConfig) -> EncryptedImage {
    let cluster = Cluster::builder().build();
    let image = Image::create(&cluster, "ablate", IMAGE).expect("image");
    EncryptedImage::format_with_iv_source(image, config, b"pass", Box::new(SeededIvSource::new(11)))
        .expect("format")
}

fn write_bw(config: &EncryptionConfig, io_size: u64, qd: usize) -> f64 {
    let mut disk = disk_for(config);
    fio::precondition(&mut disk).expect("precondition");
    fio::run_job(
        &mut disk,
        &JobSpec {
            pattern: IoPattern::RandWrite,
            io_size,
            queue_depth: qd,
            ops: fio::default_ops_for(io_size).min(192),
            seed: 5,
        },
    )
    .expect("job")
    .bandwidth_mb_s()
}

fn main() {
    let qd = testbed::PAPER_QUEUE_DEPTH;

    println!("=== Ablation 1: extensions on top of object-end (write bandwidth, MB/s) ===");
    let variants: Vec<(&str, EncryptionConfig)> = vec![
        ("LUKS2 baseline", EncryptionConfig::luks2_baseline()),
        ("random IV", EncryptionConfig::random_iv_object_end()),
        (
            "random IV + MAC",
            EncryptionConfig::random_iv_object_end().with_mac(),
        ),
        (
            "random IV + MAC + snap-bind",
            EncryptionConfig::random_iv_object_end()
                .with_mac()
                .with_snapshot_binding(),
        ),
        (
            "AES-GCM (auth enc)",
            EncryptionConfig::random_iv(MetaLayout::ObjectEnd).with_cipher(Cipher::Aes256Gcm),
        ),
        (
            "EME2 wide-block (det.)",
            EncryptionConfig::luks2_baseline().with_cipher(Cipher::Eme2Aes256),
        ),
    ];
    print!("{:>28}", "variant \\ IO");
    for s in SIZES {
        print!("{:>10}K", s / 1024);
    }
    println!();
    let mut baseline_row = Vec::new();
    for (label, config) in &variants {
        print!("{label:>28}");
        for (i, &s) in SIZES.iter().enumerate() {
            let bw = write_bw(config, s, qd);
            if *label == "LUKS2 baseline" {
                baseline_row.push(bw);
            }
            let pct = if baseline_row.len() > i {
                format!(" ({:+.0}%)", (bw / baseline_row[i] - 1.0) * 100.0)
            } else {
                String::new()
            };
            print!("{:>7.0}{pct:<4}", bw);
        }
        println!();
    }

    println!("\n=== Ablation 2: 512 B sectors (LUKS1, fn. 4) vs 4 KB (LUKS2) — OMAP layout ===");
    // The footnote-4 effect: with 512 B encryption sectors every IO
    // carries 8x the per-sector entries. OMAP pays per key, so the
    // cost is directly visible there; and the metadata footprint grows
    // 8x for every layout.
    for io in [4u64 << 10, 64 << 10] {
        let base = write_bw(&EncryptionConfig::luks2_baseline(), io, qd);
        for (label, ss) in [("4 KB sectors", 4096u32), ("512 B sectors", 512)] {
            let config = EncryptionConfig::random_iv(MetaLayout::Omap).with_sector_size(ss);
            let bw = write_bw(&config, io, qd);
            println!(
                "{:>4}K IO, {label:>14}: {bw:>6.0} MB/s ({:+.0}% vs baseline)",
                io / 1024,
                (bw / base - 1.0) * 100.0
            );
        }
    }
    let per_tb = |ss: u64| (1u64 << 40) / ss * 16 / (1 << 20);
    println!(
        "metadata footprint per TB: {} MiB at 4 KB sectors vs {} MiB at 512 B sectors",
        per_tb(4096),
        per_tb(512)
    );

    println!("\n=== Ablation 3: queue-depth sweep (object end, 64 KB writes) ===");
    for qd in [1usize, 4, 8, 16, 32, 64] {
        let bw = write_bw(&EncryptionConfig::random_iv_object_end(), 64 << 10, qd);
        println!("QD {qd:>3}: {bw:>8.0} MB/s");
    }
}
