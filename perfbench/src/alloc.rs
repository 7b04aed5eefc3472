//! A counting global allocator. It only counts while armed, which the
//! traced run does around the stages it attributes; the untraced runs pay
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        PROCESS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only atomics and a const-initialised thread-local without a destructor,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Allocations counted process-wide while armed.
pub fn process_count() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread while armed.
pub fn thread_count() -> u64 {
    THREAD.with(Cell::get)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the C heap's free pages back to the kernel, in every malloc arena.
///
/// Each catch-up builds a whole replica in this process and drops it, and
/// each round a whole primary; deployed, each is a process of its own.
/// Without this, a dropped node stays resident in whichever arenas its
/// threads happened to use, and `peak_rss_mb` grows by a run-dependent
/// share of a node per catch-up and per round.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only returns unused heap pages to the kernel;
    // it takes the arenas' own locks and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}
