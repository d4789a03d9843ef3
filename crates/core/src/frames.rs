//! The local DRAM cache: a fixed arena of 4 KiB frames.
//!
//! The compute node's local memory is a fixed set of frames sized at boot (the
//! "local cache" the evaluation sweeps from 12.5 % to 100 % of the working
//! set). Frames carry the metadata the page manager needs: the VPN they back
//! and, for frames filled by an in-flight fetch, the virtual time at which
//! the payload actually arrives.
//!
//! Each frame holds a copy-on-write [`Page`] image: a whole-page fill shares
//! the memory node's, and the first store copies it (`Rc::make_mut`), so no
//! frame write reaches the store before a write verb (DESIGN.md, "A page is
//! shared until written"). A frame is just its page's bytes: frames are
//! recycled without being wiped, and [`zero`](FrameArena::zero) clears the
//! whole page before a zero-fill.

use std::rc::Rc;

use dilos_sim::{Ns, Observability, Page, TraceEvent, TraceSink, PAGE_SIZE};

/// Per-frame metadata.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// The virtual page this frame backs (`u64::MAX` when free).
    pub vpn: u64,
    /// When the frame's payload is valid (fetch completion time). Accesses
    /// before this wait on the in-flight fetch.
    pub ready_at: Ns,
}

const NO_VPN: u64 = u64::MAX;

/// A free frame and the time at which it may be reused (its previous
/// content's writeback completion).
#[derive(Debug, Clone, Copy)]
struct FreeFrame {
    frame: u32,
    available_at: Ns,
}

/// The frame arena: page images, metadata, and the free list.
#[derive(Debug)]
pub struct FrameArena {
    pages: Vec<Page>,
    meta: Vec<FrameMeta>,
    free: Vec<FreeFrame>,
    trace: TraceSink,
}

impl FrameArena {
    /// Creates an arena of `frames` local pages, all free.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "local cache needs at least one frame");
        // Every frame starts as one shared zero page.
        let zero: Page = Rc::new([0; PAGE_SIZE]);
        Self {
            pages: vec![zero; frames],
            meta: vec![
                FrameMeta {
                    vpn: NO_VPN,
                    ready_at: 0,
                };
                frames
            ],
            free: (0..frames as u32)
                .rev()
                .map(|frame| FreeFrame {
                    frame,
                    available_at: 0,
                })
                .collect(),
            trace: TraceSink::disabled(),
        }
    }

    /// Does nothing. A compatibility shim for existing callers, going with
    /// the verb shims (ROADMAP item 5).
    pub fn set_live(&mut self, _frame: u32, _n: usize) {}

    /// Zeroes the frame: in place when it holds the only reference to its
    /// page, or — when the page is shared (with the store, say) — by taking
    /// a fresh one.
    pub fn zero(&mut self, frame: u32) {
        let page = &mut self.pages[frame as usize];
        match Rc::get_mut(page) {
            Some(bytes) => bytes.fill(0),
            None => *page = Rc::new([0; PAGE_SIZE]),
        }
    }

    /// Routes frame alloc/free events into the bundle's trace sink.
    pub fn observe(&mut self, obs: &Observability) {
        self.trace = obs.trace().clone();
    }

    /// Total frames in the arena.
    pub fn total(&self) -> usize {
        self.meta.len()
    }

    /// Frames currently on the free list (including not-yet-available ones).
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Pops a frame whose previous writeback has completed by `now`.
    pub fn pop_free(&mut self, now: Ns) -> Option<u32> {
        let idx = self.free.iter().position(|f| f.available_at <= now)?;
        let frame = self.free.swap_remove(idx).frame;
        self.trace.emit(now, TraceEvent::FrameAlloc { frame });
        Some(frame)
    }

    /// The earliest time any free-list frame becomes available, if the list
    /// is non-empty but nothing is available at `now`.
    pub fn earliest_available(&self) -> Option<Ns> {
        self.free.iter().map(|f| f.available_at).min()
    }

    /// Returns frame `frame` to the free list, reusable from `available_at`.
    pub fn push_free(&mut self, frame: u32, available_at: Ns) {
        self.meta[frame as usize] = FrameMeta {
            vpn: NO_VPN,
            ready_at: 0,
        };
        self.free.push(FreeFrame {
            frame,
            available_at,
        });
        self.trace
            .emit(available_at, TraceEvent::FrameFree { frame });
    }

    /// Frame metadata.
    pub fn meta(&self, frame: u32) -> &FrameMeta {
        &self.meta[frame as usize]
    }

    /// Mutable frame metadata.
    pub fn meta_mut(&mut self, frame: u32) -> &mut FrameMeta {
        &mut self.meta[frame as usize]
    }

    /// The frame's 4 KiB of bytes.
    pub fn bytes(&self, frame: u32) -> &[u8] {
        &self.pages[frame as usize][..]
    }

    /// The frame's page image, for a whole-page write-back to share.
    pub(crate) fn page(&self, frame: u32) -> &Page {
        &self.pages[frame as usize]
    }

    /// The frame's page image, for a whole-page fill to replace.
    pub(crate) fn page_mut(&mut self, frame: u32) -> &mut Page {
        &mut self.pages[frame as usize]
    }

    /// Mutable bytes, copied first if the page is shared (`Rc::make_mut`).
    pub fn bytes_mut(&mut self, frame: u32) -> &mut [u8] {
        &mut Rc::make_mut(&mut self.pages[frame as usize])[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_starts_fully_free() {
        let a = FrameArena::new(8);
        assert_eq!(a.total(), 8);
        assert_eq!(a.free_count(), 8);
    }

    #[test]
    fn pop_respects_availability_times() {
        let mut a = FrameArena::new(2);
        let f0 = a.pop_free(0).unwrap();
        let f1 = a.pop_free(0).unwrap();
        assert!(a.pop_free(0).is_none());
        a.push_free(f0, 1_000);
        a.push_free(f1, 500);
        assert!(a.pop_free(100).is_none(), "nothing available yet");
        assert_eq!(a.earliest_available(), Some(500));
        assert_eq!(a.pop_free(600), Some(f1));
        assert_eq!(a.pop_free(2_000), Some(f0));
    }

    #[test]
    fn bytes_are_per_frame_and_zeroed() {
        let mut a = FrameArena::new(2);
        a.bytes_mut(0).fill(0xAB);
        assert!(a.bytes(1).iter().all(|&b| b == 0));
        assert!(a.bytes(0).iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn push_free_resets_meta() {
        let mut a = FrameArena::new(1);
        let f = a.pop_free(0).unwrap();
        a.meta_mut(f).vpn = 42;
        a.meta_mut(f).ready_at = 99;
        a.push_free(f, 0);
        assert_eq!(a.meta(f).vpn, u64::MAX);
        assert_eq!(a.meta(f).ready_at, 0);
    }
}
