//! A bake allocates per run, never per entry: `IndexWriter::{add, spill,
//! finish}` keep every entry in one key arena and fixed records, and
//! `ScaleWorld::bake_index` renders every URL into one reused `String`.
//! A counting allocator checks both over 10,000-entry bakes.

use freephish_core::{ScaleWorld, ScaleWorldConfig};
use freephish_mapidx::IndexWriter;
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

const ENTRIES: u64 = 10_000;

fn world() -> ScaleWorld {
    ScaleWorld::new(ScaleWorldConfig {
        sites: ENTRIES,
        seed: 3,
        ..ScaleWorldConfig::default()
    })
}

#[test]
fn a_spilling_bake_allocates_per_run_not_per_entry() {
    let dir = TempDir::new("bake-allocs-spill");
    let w = world();
    let mut url = String::new();
    let (n, summary) = allocations(|| {
        let mut writer = IndexWriter::with_run_bytes(dir.path().join("spill"), 200_000).unwrap();
        for i in 0..ENTRIES {
            let score = w.verdict_into(i, &mut url);
            writer.add(&url, score).unwrap();
        }
        writer.finish(dir.path().join("idx.mapidx")).unwrap()
    });
    assert!(summary.spill_runs >= 2, "{} spills", summary.spill_runs);
    assert_eq!(summary.entries, ENTRIES);
    // Arena growth, plus a handful per spilled run and per merge source.
    assert!(n < 200, "{n} allocations for {ENTRIES} entries");
}

#[test]
fn bake_index_allocates_per_bake_not_per_entry() {
    let dir = TempDir::new("bake-allocs-index");
    let w = world();
    let (n, summary) = allocations(|| {
        w.bake_index(ENTRIES, &dir.path().join("idx.mapidx"))
            .unwrap()
    });
    assert_eq!(summary.entries, ENTRIES);
    assert!(n < 100, "{n} allocations for {ENTRIES} entries");
}
