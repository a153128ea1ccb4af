//! Shared allocation instrumentation for the study benches (`parallel`,
//! `fullscale`): a counting `#[global_allocator]` with a live-bytes
//! high-water mark.
//!
//! ## The observer effect, and why counting is gated
//!
//! The first version of this instrument counted every allocation event
//! into a single `AtomicU64` — including during the timed runs. One
//! shared, contended cache line hit ~230M times per study run taxes
//! precisely the configurations the bench exists to showcase: with 8
//! workers on 8 cores, every allocation bounces the counter line across
//! cores, and the "scaling" curve measured the *instrument*, not the
//! executor. The counter is therefore (a) **gated** — timed runs pay one
//! relaxed load of a read-shared flag, never a write — and (b) **sharded**
//! into cache-line-padded per-thread slots for the dedicated accounting
//! runs, so even those don't serialize on one line.
//!
//! ## Live bytes and the peak
//!
//! Each shard tracks net live bytes (`alloc` adds the layout size,
//! `dealloc` subtracts it, `realloc` adds the delta) and folds a
//! `fetch_max` high-water mark per shard. Because a block may be freed on
//! a different thread (shard) than the one that allocated it, a shard's
//! live count can go negative; the per-shard peaks are monotone
//! regardless, and their sum is reported as `peak_bytes` — an **upper
//! bound** on the study's net allocation growth inside the accounting
//! window (the true global peak cannot exceed the sum of per-shard
//! maxima). Memory allocated before the window opens and freed inside it
//! only pushes shards *down*, so it never inflates the bound.
//!
//! ## What the window includes
//!
//! Everything allocated while counting is on, the worker pool's own
//! allocations included: `substrate::pool::par_map` spawns its worker
//! threads and grows one result list per worker, which scales with the
//! worker knob while the study's work does not. So
//! `alloc_events_workers{N}` drifts upward with N by a few hundred events
//! out of tens of millions. At workers 1 the pool runs inline and spawns
//! nothing, which is why the pinned figures come from that run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Shard count for the event counter. More than any worker count the bench
/// drives *cores* at (threads share slots round-robin beyond this), enough
/// that concurrent counting threads virtually never share a line.
const COUNTER_SHARDS: usize = 16;

/// One shard alone on its cache line, so shards never false-share.
#[repr(align(64))]
struct Shard {
    /// Allocation events (`alloc` + `realloc` calls; frees are not events —
    /// per-probe churn is what the lint pass targets).
    events: AtomicU64,
    /// Net live bytes attributed to this shard; may go negative when a
    /// block is freed on a different thread than allocated it.
    live: AtomicI64,
    /// High-water mark of `live`, folded via `fetch_max`.
    peak: AtomicI64,
}

/// Whether allocation events are being counted. Off during timed runs:
/// the only cost the instrument may impose there is a relaxed load of
/// this flag — a read-shared line, never written mid-run.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Per-thread-assigned counter shards (see [`COUNTER_SHARDS`]).
static SHARDS: [Shard; COUNTER_SHARDS] = [const {
    Shard {
        events: AtomicU64::new(0),
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
    }
}; COUNTER_SHARDS];

/// Next shard to hand to a counting thread that doesn't have one yet.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// This thread's shard index; `usize::MAX` until first counted event.
    /// Const-initialized `Cell` so the TLS access itself never allocates
    /// (the allocator must not re-enter itself).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard, assigning one on first use.
#[inline]
fn my_shard() -> &'static Shard {
    MY_SHARD.with(|slot| {
        let mut k = slot.get();
        if k == usize::MAX {
            k = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            slot.set(k);
        }
        &SHARDS[k]
    })
}

/// Record an allocation event growing live bytes by `grow`.
#[inline]
fn record_event(grow: i64) {
    let shard = my_shard();
    shard.events.fetch_add(1, Ordering::Relaxed);
    let now = shard
        .live
        .fetch_add(grow, Ordering::Relaxed)
        .wrapping_add(grow);
    shard.peak.fetch_max(now, Ordering::Relaxed);
}

/// Record a free shrinking live bytes by `bytes` (not an event).
#[inline]
fn record_free(bytes: i64) {
    my_shard().live.fetch_sub(bytes, Ordering::Relaxed);
}

/// Open the accounting window.
pub fn counting_on() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Close the accounting window.
pub fn counting_off() {
    COUNTING.store(false, Ordering::Relaxed);
}

/// Sum of all shards' event counts. Only meaningful while no one counts.
pub fn total_events() -> u64 {
    SHARDS
        .iter()
        .map(|c| c.events.load(Ordering::Relaxed))
        .sum()
}

/// Upper bound on the peak net live-byte growth inside the accounting
/// window: the sum of per-shard high-water marks (see module docs).
pub fn peak_bytes() -> u64 {
    SHARDS
        .iter()
        .map(|c| c.peak.load(Ordering::Relaxed).max(0) as u64)
        .sum()
}

/// Zero all shards.
pub fn reset() {
    for c in &SHARDS {
        c.events.store(0, Ordering::Relaxed);
        c.live.store(0, Ordering::Relaxed);
        c.peak.store(0, Ordering::Relaxed);
    }
}

/// `System` with the gated, sharded accounting described in the module
/// docs. Counts `alloc` and `realloc` calls as events — the events a
/// hot-path `format!` or `.clone()` emits — and tracks net live bytes for
/// the `peak_bytes` high-water mark.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            record_event(layout.size() as i64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            record_free(layout.size() as i64);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            record_event(new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
}
