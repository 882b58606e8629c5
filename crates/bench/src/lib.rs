//! Helpers shared by the benchmark bins: a counting global allocator for
//! the steady-state allocation gates and a best-of-N wall-clock timer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator for steady-state probes: every `alloc` / `realloc`
/// bumps a counter, so a loop that reuses its buffers shows a *flat*
/// per-round count instead of growth. A bin opts in with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Allocations (`alloc` + `realloc`) made so far by the process.
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees under the `GlobalAlloc` contract are exactly
// the ones `System` requires; counting touches only an atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Best-of-`iters` wall time of `f` in seconds — minimum, not mean, so
/// one scheduler preemption (likely on small CI hosts) cannot sink a row.
pub fn min_time(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
