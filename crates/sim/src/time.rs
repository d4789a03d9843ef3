//! Virtual-time primitives.
//!
//! All durations and instants in the simulation are expressed in virtual
//! nanoseconds ([`Ns`]). Each simulated CPU core's clock lives on its
//! node's [`Machine`](crate::machine::Machine).

/// A virtual-time instant or duration, in nanoseconds.
pub type Ns = u64;

/// The page size used throughout DiLOS, matching the x86-64 base page.
pub const PAGE_SIZE: usize = 4096;

/// Base-2 logarithm of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Splits the byte range `[addr, addr + len)` at page boundaries: one
/// `(page number, offset in page, span of the caller's buffer)` per page
/// touched, in address order. Every page-granular copy loop — the compute
/// nodes' access paths, the memory node's store walk — iterates this.
#[inline]
pub fn page_chunks(
    addr: u64,
    len: usize,
) -> impl Iterator<Item = (u64, usize, std::ops::Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let a = addr + done as u64;
        let off = (a % PAGE_SIZE as u64) as usize;
        let span = done..done + (PAGE_SIZE - off).min(len - done);
        done = span.end;
        Some((a >> PAGE_SHIFT, off, span))
    })
}

/// Converts a CPU cycle count to nanoseconds at the given clock rate.
///
/// The paper's testbed runs at 2.3 GHz; §6.2 expresses the AIFM TCP handicap
/// as "14,000 cycles", which this helper converts.
pub fn cycles_to_ns(cycles: u64, ghz: f64) -> Ns {
    (cycles as f64 / ghz) as Ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_conversion_matches_paper_handicap() {
        // 14,000 cycles at 2.3 GHz is roughly 6.09 µs (§6.2 footnote 2).
        let ns = cycles_to_ns(14_000, 2.3);
        assert!((6_000..6_200).contains(&ns), "got {ns}");
    }
}
