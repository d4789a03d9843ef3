//! Mimalloc-style size classes.
//!
//! Small allocations are rounded up to a class from a geometric-ish table
//! (8-byte spacing up to 64 B, then four classes per power of two), so every
//! 4 KiB heap page serves blocks of exactly one size and the per-page bitmap
//! has one bit per block.

use crate::PAGE_SIZE;

/// The size-class table, in bytes. The largest class fills half a page;
/// anything bigger is a *large* allocation served by whole page runs.
pub const SIZE_CLASSES: [usize; 24] = [
    8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 768,
    1024, 1536, 2048,
];

/// A validated index into [`SIZE_CLASSES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeClass(pub(crate) u8);

impl SizeClass {
    /// The block size of this class, in bytes.
    #[expect(
        clippy::indexing_slicing,
        reason = "SizeClass wraps a validated index: size_class_of is the only non-test constructor and bounds it"
    )]
    pub fn block_size(self) -> usize {
        SIZE_CLASSES[self.0 as usize]
    }

    /// Number of blocks of this class that fit in one heap page.
    pub fn blocks_per_page(self) -> usize {
        PAGE_SIZE / self.block_size()
    }

    /// The class index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Returns the smallest size class holding `size` bytes, or `None` if the
/// request is a large allocation (> half page).
pub fn size_class_of(size: usize) -> Option<SizeClass> {
    #[expect(
        clippy::indexing_slicing,
        reason = "evaluated at compile time: an out-of-bounds index fails the build"
    )]
    const LARGEST: usize = SIZE_CLASSES[SIZE_CLASSES.len() - 1];
    if size == 0 || size > LARGEST {
        return None;
    }
    let idx = SIZE_CLASSES.partition_point(|&c| c < size);
    Some(SizeClass(idx as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_strictly_increasing_and_divide_sanely() {
        for w in SIZE_CLASSES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, &c) in SIZE_CLASSES.iter().enumerate() {
            let sc = SizeClass(i as u8);
            assert_eq!(sc.block_size(), c);
            assert!(sc.blocks_per_page() >= 2, "class {c} must pack ≥2 blocks");
        }
    }

    #[test]
    fn lookup_rounds_up() {
        assert_eq!(size_class_of(1).unwrap().block_size(), 8);
        assert_eq!(size_class_of(8).unwrap().block_size(), 8);
        assert_eq!(size_class_of(9).unwrap().block_size(), 16);
        assert_eq!(size_class_of(65).unwrap().block_size(), 80);
        assert_eq!(size_class_of(2048).unwrap().block_size(), 2048);
    }

    #[test]
    fn zero_and_large_have_no_class() {
        assert!(size_class_of(0).is_none());
        assert!(size_class_of(2049).is_none());
        assert!(size_class_of(PAGE_SIZE).is_none());
    }

    #[test]
    fn every_small_size_fits_its_class() {
        for size in 1..=2048usize {
            let c = size_class_of(size).unwrap();
            assert!(c.block_size() >= size);
            // Tightness: the class below (if any) is too small.
            if c.index() > 0 {
                assert!(SIZE_CLASSES[c.index() - 1] < size);
            }
        }
    }
}
