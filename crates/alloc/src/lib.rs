//! A mimalloc-flavoured user-level allocator with per-page liveness bitmaps.
//!
//! §5 of the DiLOS paper: "The app-aware allocator guide of DiLOS is based on
//! Microsoft's mimalloc … DiLOS' allocator tracks subpage usages via
//! bitmaps", and §6.3: "The original mimalloc uses a list to track freed
//! chunks. We modify the mimalloc code to use bitmaps to track freed chunks."
//!
//! This crate reimplements that allocator design from scratch:
//!
//! - size-class-segregated allocation (mimalloc-style class spacing),
//! - each 4 KiB heap page serves blocks of exactly one size class,
//! - a **per-page allocation bitmap** records which blocks are live,
//! - large allocations take contiguous page runs,
//! - [`Heap::live_segments`] coalesces the bitmap, in one pass, into at most
//!   `max_segments` covering ranges held inline in a [`LiveVector`] — the
//!   scatter/gather vectors guided paging (§4.4) posts instead of
//!   whole-page transfers. Each page caches the last vector it produced,
//!   so the pass runs once per change to the page's bitmap, not once per
//!   eviction.
//!
//! The allocator manages *virtual addresses* in a disaggregated heap; it
//! never touches the bytes itself, so the same instance can serve a DiLOS
//! node, the Redis workload, and the paging guide simultaneously.
//!
//! `alloc` is the only crate the fault path (`dilos-core`, `dilos-sim`)
//! calls into, so it holds itself to their panic policy and more: on top of
//! the workspace's `unwrap`/`expect`/`panic!` denial, every index, slice and
//! `unreachable!` in non-test code is an error unless an `#[expect]` states
//! the bound that makes it safe. Tests index freely, as they unwrap freely.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod bitmap;
mod heap;
mod liveness;
mod size_class;

pub use bitmap::PageBitmap;
pub use heap::{AllocError, Heap, HeapStats};
pub use liveness::{LiveVector, PageLiveness};
pub use size_class::{size_class_of, SizeClass, SIZE_CLASSES};

/// The heap page size (matches the OS/DiLOS page size).
pub const PAGE_SIZE: usize = 4096;
