//! A frame allocates per frame, never per URL: `ShardedIndex::check_many`
//! resolves the delta into one slot vector, fills its misses from the
//! baked base in place, and returns it as the verdicts. A counting
//! allocator checks that over a baked base.

use freephish_mapidx::{IndexWriter, SnapshotIndex};
use freephish_serve::{ShardedIndex, UrlChecker};
use freephish_store::testutil::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to `System` unchanged; the thread-local
// counter is const-initialised and needs no allocation of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made on this thread by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const BAKED: usize = 10_000;

#[test]
fn a_frame_over_a_baked_base_allocates_per_frame_not_per_url() {
    let dir = TempDir::new("overlay-allocs");
    let url = |i: usize| format!("https://a{i}.weebly.com/login");
    let out = dir.path().join("base.mapidx");
    let mut writer = IndexWriter::create(dir.path().join("spill")).unwrap();
    for i in 0..BAKED {
        writer.add(&url(i), 0.5 + i as f64 / 1e6).unwrap();
    }
    writer.finish(&out).unwrap();
    let overlay = ShardedIndex::new(4);
    overlay.set_base(SnapshotIndex::open(&out).unwrap());
    // A delta that shadows some of the frame, so both levels answer.
    for i in 0..BAKED / 10 {
        overlay.add(&url(i * 10), 0.99).unwrap();
    }
    // Baked, shadowed and absent URLs.
    let frame: Vec<String> = (0..64).map(|i| url(i * 313 % (2 * BAKED))).collect();
    let (one, _) = allocations(|| overlay.check_many(&frame[..1]));
    let (n, verdicts) = allocations(|| overlay.check_many(&frame));
    assert_eq!(verdicts.len(), 64);
    assert!(verdicts.iter().any(|v| v.is_phishing()));
    assert!(verdicts.iter().any(|v| !v.is_phishing()));
    assert_eq!(
        n, one,
        "a 64-URL frame allocated {n} times, a 1-URL frame {one}"
    );
    assert!(n <= 2, "{n} allocations for one frame");
}
