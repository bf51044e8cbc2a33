//! Property tests on the encryption layer's public surface: geometry
//! bijections, header robustness, and end-to-end IO identities.

use proptest::prelude::*;
use vdisk_core::layout::{Geometry, Placement};
use vdisk_core::luks::LuksHeader;
use vdisk_core::{EncryptedImage, EncryptionConfig, MetaLayout};
use vdisk_crypto::rng::SeededIvSource;
use vdisk_rados::Cluster;
use vdisk_rbd::Image;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The unaligned interleave/deinterleave pair is a bijection for
    /// any sector count.
    #[test]
    fn unaligned_interleave_bijection(
        count in 1usize..32,
        seed in any::<u8>(),
    ) {
        let geometry = Geometry::new(4 << 20, 4096, 16);
        let sectors: Vec<u8> = (0..count)
            .flat_map(|i| vec![seed.wrapping_add(i as u8); 4096])
            .collect();
        let metas: Vec<u8> = (0..count)
            .flat_map(|i| vec![seed.wrapping_mul(i as u8 + 1); 16])
            .collect();
        let buf = geometry.interleave_unaligned_run(&sectors, &metas);
        prop_assert_eq!(buf.len(), count * (4096 + 16));
        let mut out = vec![0u8; sectors.len()];
        let parsed_metas = geometry.deinterleave_unaligned_run(&buf, &mut out);
        prop_assert_eq!(out, sectors);
        prop_assert_eq!(parsed_metas, metas);
    }

    /// Data extents of distinct sector ranges never overlap, for every
    /// layout (no layout may alias two sectors onto the same bytes).
    #[test]
    fn extents_never_overlap(
        a in 0u64..1000,
        b in 0u64..1000,
        len_a in 1u64..24,
        len_b in 1u64..24,
    ) {
        prop_assume!(a + len_a <= b || b + len_b <= a); // disjoint sector ranges
        let geometry = Geometry::new(4 << 20, 4096, 16);
        for layout in [None, Some(MetaLayout::Unaligned), Some(MetaLayout::ObjectEnd), Some(MetaLayout::Omap)] {
            let placement = Placement::new(layout, geometry);
            let (off_a, sz_a) = placement.data_extent(a, len_a);
            let (off_b, sz_b) = placement.data_extent(b, len_b);
            prop_assert!(
                off_a + sz_a <= off_b || off_b + sz_b <= off_a,
                "layout {:?}: [{},{}) overlaps [{},{})",
                layout, off_a, off_a + sz_a, off_b, off_b + sz_b
            );
        }
    }

    /// Meta extents (object end) stay strictly above the data region
    /// and below the object footprint.
    #[test]
    fn object_end_meta_extent_in_bounds(first in 0u64..1024, count in 1u64..64) {
        prop_assume!(first + count <= 1024);
        let placement = Placement::ObjectEnd(Geometry::new(4 << 20, 4096, 16));
        let (off, len) = placement.meta_extent(first, count).unwrap();
        prop_assert!(off >= 4 << 20);
        prop_assert!(off + len <= placement.object_footprint());
    }

    /// Header decode never panics on arbitrary mutations; it either
    /// round-trips or errors.
    #[test]
    fn header_decode_is_total(
        flip_at in 0usize..900,
        flip_bit in 0u8..8,
    ) {
        let mut rng = SeededIvSource::new(3);
        let (header, _master) = LuksHeader::format(
            &EncryptionConfig::random_iv_object_end(),
            b"pw",
            &mut rng,
        )
        .unwrap();
        let mut bytes = header.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // Must not panic; any result is acceptable.
        let _ = LuksHeader::decode(&bytes);
    }

    /// End-to-end: arbitrary (offset, data) writes read back
    /// identically through every layout, including unaligned ones.
    #[test]
    fn write_read_identity(
        offset in 0u64..(8 << 20) - 20_000,
        len in 1usize..16_000,
        fill in any::<u8>(),
        layout_idx in 0usize..3,
    ) {
        let layout = MetaLayout::ALL[layout_idx];
        let cluster = Cluster::builder().build();
        let image = Image::create(&cluster, "prop", 8 << 20).unwrap();
        let mut disk = EncryptedImage::format_with_iv_source(
            image,
            &EncryptionConfig::random_iv(layout),
            b"pw",
            Box::new(SeededIvSource::new(9)),
        )
        .unwrap();
        let data = vec![fill; len];
        disk.write(offset, &data).unwrap();
        let mut buf = vec![0u8; len];
        disk.read(offset, &mut buf).unwrap();
        prop_assert_eq!(buf, data);
    }
}
