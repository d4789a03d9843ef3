//! The unified page table (§4.1).
//!
//! "At the heart of DiLOS' paging subsystem lies the unified page table. It
//! has a compact form representing the memory space for both local DRAM and
//! remote memory without using the swap system or the swap cache."
//!
//! The table is a software implementation of the Intel four-level layout:
//! 512-entry tables, 9 bits of index per level, 4 KiB leaves. Each leaf PTE
//! carries one of the four DiLOS tags, identified — exactly as the paper
//! describes — by the three least-significant bits (present, write, user):
//!
//! | tag      | P | W | U | payload (bits 12..52)            |
//! |----------|---|---|---|----------------------------------|
//! | local    | 1 | – | – | physical frame number            |
//! | none     | 0 | 0 | 0 | (zero PTE: unmapped / first-touch)|
//! | remote   | 0 | 1 | 0 | remote page slot                 |
//! | fetching | 0 | 0 | 1 | in-flight table index            |
//! | action   | 0 | 1 | 1 | guide action-table index         |
//!
//! Local PTEs also carry the x86 accessed (bit 5) and dirty (bit 6) flags,
//! which the PTE hit tracker and the cleaner scan.

/// Number of entries per table level.
pub const ENTRIES: usize = 512;
/// Levels in the radix tree (PML4 → PDPT → PD → PT).
pub const LEVELS: usize = 4;

const P: u64 = 1 << 0;
const W: u64 = 1 << 1;
const U: u64 = 1 << 2;
const ACCESSED: u64 = 1 << 5;
const DIRTY: u64 = 1 << 6;
const PAYLOAD_SHIFT: u32 = 12;
const PAYLOAD_MASK: u64 = ((1u64 << 40) - 1) << PAYLOAD_SHIFT;

/// A decoded leaf PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pte {
    /// Unmapped (or never-touched DDC page: zero-fill on first access).
    None,
    /// Resident: payload is the local frame number.
    Local {
        /// Local frame number.
        frame: u32,
        /// x86 accessed bit.
        accessed: bool,
        /// x86 dirty bit.
        dirty: bool,
    },
    /// Evicted to the memory node: payload is the remote slot.
    Remote {
        /// Remote page slot (page-granular index into the registered region).
        slot: u64,
    },
    /// A fetch is in flight: payload indexes the in-flight table.
    Fetching {
        /// In-flight table index.
        inflight: u32,
    },
    /// Evicted under a guide: payload indexes the action table (§4.4).
    Action {
        /// Action-table index holding the guide's fetch vector.
        action: u32,
    },
}

impl Pte {
    /// Encodes to the raw 64-bit format.
    pub fn encode(self) -> u64 {
        match self {
            Pte::None => 0,
            Pte::Local {
                frame,
                accessed,
                dirty,
            } => {
                let mut v = P | ((frame as u64) << PAYLOAD_SHIFT);
                if accessed {
                    v |= ACCESSED;
                }
                if dirty {
                    v |= DIRTY;
                }
                v
            }
            Pte::Remote { slot } => W | (slot << PAYLOAD_SHIFT),
            Pte::Fetching { inflight } => U | ((inflight as u64) << PAYLOAD_SHIFT),
            Pte::Action { action } => W | U | ((action as u64) << PAYLOAD_SHIFT),
        }
    }

    /// Decodes from the raw 64-bit format.
    pub fn decode(v: u64) -> Pte {
        let payload = (v & PAYLOAD_MASK) >> PAYLOAD_SHIFT;
        if v & P != 0 {
            Pte::Local {
                frame: payload as u32,
                accessed: v & ACCESSED != 0,
                dirty: v & DIRTY != 0,
            }
        } else {
            match (v & W != 0, v & U != 0) {
                (false, false) => Pte::None,
                (true, false) => Pte::Remote { slot: payload },
                (false, true) => Pte::Fetching {
                    inflight: payload as u32,
                },
                (true, true) => Pte::Action {
                    action: payload as u32,
                },
            }
        }
    }
}

#[derive(Debug)]
struct Table {
    entries: Box<[u64; ENTRIES]>,
}

impl Table {
    fn new() -> Self {
        Self {
            entries: Box::new([0; ENTRIES]),
        }
    }
}

/// The four-level unified page table.
///
/// Interior levels store child-table indices (with bit 0 set as a present
/// marker); leaves store encoded [`Pte`]s. Virtual page numbers (VPNs) are
/// 36-bit (48-bit virtual addresses).
#[derive(Debug)]
pub struct PageTable {
    tables: Vec<Table>,
    /// Monotone generation, bumped on every leaf change; the per-core
    /// software TLB uses it for cheap invalidation.
    generation: u64,
    resident: usize,
    /// Walk cache: `(vpn >> 9, leaf table index)` of the last walk. Interior
    /// tables are never freed or moved once created, so a cached entry can
    /// never go stale — it only short-circuits the three upper levels.
    leaf_cache: std::cell::Cell<(u64, u32)>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty table (root preallocated).
    pub fn new() -> Self {
        Self {
            tables: vec![Table::new()],
            generation: 0,
            resident: 0,
            leaf_cache: std::cell::Cell::new((u64::MAX, 0)),
        }
    }

    /// Current generation (bumped on every modification).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of `Local` leaf PTEs.
    pub fn resident(&self) -> usize {
        self.resident
    }

    fn level_index(vpn: u64, level: usize) -> usize {
        // level 0 is the root (top 9 bits of the 36-bit VPN).
        ((vpn >> (9 * (LEVELS - 1 - level))) & 0x1FF) as usize
    }

    fn walk_index(&self, vpn: u64) -> Option<(usize, usize)> {
        let key = vpn >> 9;
        let (ck, ct) = self.leaf_cache.get();
        if ck == key {
            return Some((ct as usize, (vpn & 0x1FF) as usize));
        }
        let mut ti = 0usize;
        for level in 0..LEVELS - 1 {
            let e = self.tables[ti].entries[Self::level_index(vpn, level)];
            if e & P == 0 {
                return None;
            }
            ti = (e >> PAYLOAD_SHIFT) as usize;
        }
        self.leaf_cache.set((key, ti as u32));
        Some((ti, Self::level_index(vpn, LEVELS - 1)))
    }

    fn ensure_index(&mut self, vpn: u64) -> (usize, usize) {
        let key = vpn >> 9;
        let (ck, ct) = self.leaf_cache.get();
        if ck == key {
            return (ct as usize, (vpn & 0x1FF) as usize);
        }
        let mut ti = 0usize;
        for level in 0..LEVELS - 1 {
            let idx = Self::level_index(vpn, level);
            let e = self.tables[ti].entries[idx];
            if e & P == 0 {
                let child = self.tables.len();
                self.tables.push(Table::new());
                self.tables[ti].entries[idx] = P | ((child as u64) << PAYLOAD_SHIFT);
                ti = child;
            } else {
                ti = (e >> PAYLOAD_SHIFT) as usize;
            }
        }
        self.leaf_cache.set((key, ti as u32));
        (ti, Self::level_index(vpn, LEVELS - 1))
    }

    /// Reads the leaf PTE for `vpn` (missing interior levels decode as
    /// [`Pte::None`]).
    pub fn get(&self, vpn: u64) -> Pte {
        match self.walk_index(vpn) {
            Some((t, i)) => Pte::decode(self.tables[t].entries[i]),
            None => Pte::None,
        }
    }

    /// Writes the leaf PTE for `vpn`, creating interior levels as needed.
    pub fn set(&mut self, vpn: u64, pte: Pte) {
        let (t, i) = self.ensure_index(vpn);
        let old = Pte::decode(self.tables[t].entries[i]);
        if matches!(old, Pte::Local { .. }) && !matches!(pte, Pte::Local { .. }) {
            self.resident -= 1;
        } else if !matches!(old, Pte::Local { .. }) && matches!(pte, Pte::Local { .. }) {
            self.resident += 1;
        }
        self.tables[t].entries[i] = pte.encode();
        self.generation += 1;
    }

    /// Sets the accessed (and optionally dirty) flags on a local PTE.
    ///
    /// This is the MMU's job on a real machine, so it does **not** bump the
    /// generation: TLB entries stay valid across flag updates, exactly like
    /// hardware.
    pub fn mark_access(&mut self, vpn: u64, write: bool) {
        if let Some((t, i)) = self.walk_index(vpn) {
            let e = &mut self.tables[t].entries[i];
            if *e & P != 0 {
                *e |= ACCESSED;
                if write {
                    *e |= DIRTY;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pte_encoding_roundtrips() {
        let cases = [
            Pte::None,
            Pte::Local {
                frame: 0,
                accessed: false,
                dirty: false,
            },
            Pte::Local {
                frame: 123_456,
                accessed: true,
                dirty: false,
            },
            Pte::Local {
                frame: u32::MAX >> 4,
                accessed: true,
                dirty: true,
            },
            Pte::Remote { slot: 0 },
            Pte::Remote {
                slot: (1 << 36) - 1,
            },
            Pte::Fetching { inflight: 77 },
            Pte::Action { action: 0xFFFF },
        ];
        for c in cases {
            assert_eq!(Pte::decode(c.encode()), c, "case {c:?}");
        }
    }

    #[test]
    fn tags_use_the_three_low_bits() {
        // The paper's encoding trick: user/write/present distinguish tags.
        assert_eq!(Pte::Remote { slot: 5 }.encode() & 0b111, 0b010);
        assert_eq!(Pte::Fetching { inflight: 5 }.encode() & 0b111, 0b100);
        assert_eq!(Pte::Action { action: 5 }.encode() & 0b111, 0b110);
        assert_eq!(
            Pte::Local {
                frame: 5,
                accessed: false,
                dirty: false
            }
            .encode()
                & 1,
            1
        );
    }

    #[test]
    fn sparse_lookups_default_to_none() {
        let pt = PageTable::new();
        assert_eq!(pt.get(0), Pte::None);
        assert_eq!(pt.get((1 << 36) - 1), Pte::None);
    }

    #[test]
    fn set_get_across_distant_vpns() {
        let mut pt = PageTable::new();
        let vpns = [
            0u64,
            1,
            511,
            512,
            513,
            1 << 18,
            (1 << 27) + 42,
            (1 << 36) - 1,
        ];
        for (i, &v) in vpns.iter().enumerate() {
            pt.set(
                v,
                Pte::Local {
                    frame: i as u32,
                    accessed: false,
                    dirty: false,
                },
            );
        }
        for (i, &v) in vpns.iter().enumerate() {
            assert_eq!(
                pt.get(v),
                Pte::Local {
                    frame: i as u32,
                    accessed: false,
                    dirty: false
                }
            );
        }
        assert_eq!(pt.resident(), vpns.len());
    }

    #[test]
    fn resident_count_tracks_transitions() {
        let mut pt = PageTable::new();
        pt.set(7, Pte::Remote { slot: 7 });
        assert_eq!(pt.resident(), 0);
        pt.set(
            7,
            Pte::Local {
                frame: 1,
                accessed: false,
                dirty: false,
            },
        );
        assert_eq!(pt.resident(), 1);
        pt.set(7, Pte::Fetching { inflight: 0 });
        assert_eq!(pt.resident(), 0);
    }

    #[test]
    fn access_flags_behave_like_hardware() {
        let mut pt = PageTable::new();
        pt.set(
            9,
            Pte::Local {
                frame: 3,
                accessed: false,
                dirty: false,
            },
        );
        let gen = pt.generation();
        pt.mark_access(9, false);
        assert!(matches!(pt.get(9), Pte::Local { accessed: true, .. }));
        assert_eq!(pt.generation(), gen, "MMU flag updates don't shoot TLBs");
        assert!(!matches!(pt.get(9), Pte::Local { dirty: true, .. }));
        pt.mark_access(9, true);
        assert!(matches!(pt.get(9), Pte::Local { dirty: true, .. }));
        // Flags on non-local PTEs are inert.
        pt.set(10, Pte::Remote { slot: 10 });
        pt.mark_access(10, true);
        assert_eq!(pt.get(10), Pte::Remote { slot: 10 });
    }

    #[test]
    fn generation_bumps_on_mapping_changes() {
        let mut pt = PageTable::new();
        let g0 = pt.generation();
        pt.set(1, Pte::Remote { slot: 1 });
        assert!(pt.generation() > g0);
    }
}
