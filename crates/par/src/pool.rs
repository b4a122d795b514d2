//! The scoped worker pool: chunk-claiming `par_map` with ordered results.
//!
//! Work is split into chunks of a few items; workers claim chunks off a
//! shared atomic cursor (dynamic load balancing — tag sweeps have wildly
//! uneven per-item cost) and return `(chunk_start, results)` pairs, which
//! the caller reassembles in input order. Panics in worker closures
//! propagate to the caller through `join`.

use crate::metrics;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Target chunks per worker: enough granularity to balance uneven items
/// without paying a cursor round-trip per item.
const CHUNKS_PER_WORKER: usize = 8;

/// Map `f` over `items` on the configured worker pool (see
/// [`crate::configured_threads`]), returning results in input order.
///
/// Determinism: for a pure `f`, the output is identical at every thread
/// count — `FREEPHISH_THREADS=1` runs the exact serial `iter().map()`
/// path, and any parallel run computes each index exactly once.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, t| f(t))
}

/// [`par_map`] with an explicit thread count, bypassing the environment.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(threads, items, |_, t| f(t))
}

/// Map `f(index, &item)` over `items` in input order on the configured pool.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    // A map of 0 or 1 items never fans out, so it never sizes the pool.
    let threads = if items.len() <= 1 {
        1
    } else {
        crate::configured_threads()
    };
    par_map_indexed_with(threads, items, f)
}

/// Map `f(index)` over `0..n` in order on the configured pool — the
/// row-sweep shape the ML scorers use.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // A unit slice carries the length; the closure only needs the index.
    let items: Vec<()> = vec![(); n];
    par_map_indexed(&items, |i, ()| f(i))
}

/// The general form: explicit thread count, indexed closure, ordered output.
pub fn par_map_indexed_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let m = metrics();
    if n > 1 {
        m.threads_configured.set(threads.max(1) as i64);
    }
    m.tasks.add(n as u64);

    // The determinism contract's serial leg: one thread (or nothing to
    // gain from fan-out) runs the plain iterator map, no pool at all.
    if threads <= 1 || n <= 1 {
        m.serial_jobs.inc();
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    m.jobs.inc();

    let workers = threads.min(n);
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let n_chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);

    let mut parts: Vec<(usize, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    m.workers_busy.inc();
                    let mut out: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        m.queue_depth.record((n_chunks - c - 1) as f64);
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        let mut results = Vec::with_capacity(end - start);
                        for (i, item) in items[start..end].iter().enumerate() {
                            results.push(f(start + i, item));
                        }
                        out.push((start, results));
                    }
                    m.workers_busy.dec();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par worker panicked"))
            .collect()
    });

    // Reassemble in input order: chunk starts are unique, so an unstable
    // sort is deterministic.
    parts.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_thread_override;

    #[test]
    fn ordered_results_match_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_with(threads, &items, |x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn indexed_sees_correct_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed_with(4, &items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn range_map() {
        let out = with_thread_override(4, || par_map_range(100, |i| i * 2));
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_with(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map_with(8, &[7u32], |x| *x + 1), vec![8]);
    }

    #[test]
    fn override_is_scoped() {
        assert_eq!(with_thread_override(3, crate::configured_threads), 3);
        let nested = with_thread_override(3, || with_thread_override(1, crate::configured_threads));
        assert_eq!(nested, 1);
    }

    #[test]
    fn uneven_chunks_cover_everything() {
        // n not divisible by chunk size, workers > chunks, etc.
        for n in [2usize, 3, 17, 63, 64, 65, 255] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map_with(8, &items, |x| x + 1);
            assert_eq!(out, (1..=n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "par worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        par_map_with(4, &items, |x| {
            assert!(*x < 63, "boom");
            *x
        });
    }

    #[test]
    fn metrics_accumulate() {
        let before = crate::metrics_snapshot();
        let items: Vec<u32> = (0..100).collect();
        par_map_with(4, &items, |x| *x);
        par_map_with(1, &items, |x| *x);
        let after = crate::metrics_snapshot();
        let count = |s: &freephish_obs::MetricsSnapshot, name: &str| s.counter(name, &[]);
        assert!(count(&after, "par_tasks_total") >= count(&before, "par_tasks_total") + 200);
        assert!(count(&after, "par_jobs_total") > count(&before, "par_jobs_total"));
        assert!(count(&after, "par_serial_jobs_total") > count(&before, "par_serial_jobs_total"));
    }
}
