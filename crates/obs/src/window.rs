//! Rolling windowed histograms: SLO-grade quantiles over the *recent*
//! past instead of process-lifetime aggregates.
//!
//! A [`WindowedHistogram`] keeps a ring of fixed-width windows, each a
//! full log-bucketed [`Histogram`]. Samples land in the window owning the
//! current instant; a window slot is reclaimed (cleared and re-stamped)
//! the first time a sample arrives for a window id that maps onto it, so
//! data older than the horizon ages out without a background thread.
//!
//! Two clocks:
//!
//! * **wall** — windows are fixed wall-time spans (e.g. eight 1-second
//!   windows ≈ "the last 8 seconds"). This is what the serve engines use.
//! * **manual** — windows advance only via [`WindowedHistogram::advance`].
//!   Deterministic; used by unit and property tests.
//!
//! Reading merges the in-horizon window snapshots with
//! [`HistogramSnapshot::merge`], so the rolling view composes with every
//! existing quantile/export path. Slot reclamation races with concurrent
//! recorders at most once per rotation; a racing sample can be dropped,
//! which is acceptable metric-grade loss (bounded by one sample per
//! recorder per rotation, never corrupts bucket counts).

use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Stamp meaning "this slot has never held a window".
const EMPTY_WID: u64 = u64::MAX;

enum Clock {
    /// Window id advances only through [`WindowedHistogram::advance`].
    Manual(AtomicU64),
    /// Window id is `elapsed-since-epoch / width`.
    Wall { epoch: Instant, width_nanos: u64 },
}

struct WindowSlot {
    /// Window id currently stored here, or [`EMPTY_WID`].
    wid: AtomicU64,
    hist: Histogram,
}

/// A ring of fixed-width histogram windows; see the module docs.
pub struct WindowedHistogram {
    slots: Box<[WindowSlot]>,
    clock: Clock,
}

impl WindowedHistogram {
    /// A wall-clock windowed histogram: `windows` windows of `width`
    /// each, so the rolling horizon is `windows * width`.
    pub fn wall(windows: usize, width: Duration) -> WindowedHistogram {
        WindowedHistogram::with_clock(
            windows,
            Clock::Wall {
                epoch: Instant::now(),
                width_nanos: width.as_nanos().max(1) as u64,
            },
        )
    }

    /// A manually-ticked windowed histogram (deterministic; for tests).
    pub fn manual(windows: usize) -> WindowedHistogram {
        WindowedHistogram::with_clock(windows, Clock::Manual(AtomicU64::new(0)))
    }

    fn with_clock(windows: usize, clock: Clock) -> WindowedHistogram {
        let windows = windows.max(1);
        WindowedHistogram {
            slots: (0..windows)
                .map(|_| WindowSlot {
                    wid: AtomicU64::new(EMPTY_WID),
                    hist: Histogram::new(),
                })
                .collect(),
            clock,
        }
    }

    /// Number of windows in the rolling horizon.
    pub fn windows(&self) -> usize {
        self.slots.len()
    }

    /// The current window id.
    pub fn current_window(&self) -> u64 {
        match &self.clock {
            Clock::Manual(w) => w.load(Ordering::Relaxed),
            Clock::Wall { epoch, width_nanos } => (epoch.elapsed().as_nanos() as u64) / width_nanos,
        }
    }

    /// Advance the manual clock by one window. No-op under a wall clock
    /// (wall windows advance on their own).
    pub fn advance(&self) {
        if let Clock::Manual(w) = &self.clock {
            w.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one sample into the current window.
    pub fn record(&self, v: f64) {
        let wid = self.current_window();
        let slot = &self.slots[(wid % self.slots.len() as u64) as usize];
        let mut cur = slot.wid.load(Ordering::Acquire);
        loop {
            if cur == wid {
                break;
            }
            if cur != EMPTY_WID && cur > wid {
                // A newer window already claimed this slot (we raced
                // across a rotation); the sample is too old to matter.
                return;
            }
            match slot
                .wid
                .compare_exchange(cur, wid, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // A never-used slot's histogram is already empty;
                    // clearing it would drop samples that recorders which
                    // saw the new stamp have already added.
                    if cur != EMPTY_WID {
                        slot.hist.clear();
                    }
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        slot.hist.record(v);
    }

    /// Per-window snapshots inside the rolling horizon, oldest first:
    /// `(window_id, snapshot)` for every populated window whose id is in
    /// `[current - windows + 1, current]`.
    pub fn window_snapshots(&self) -> Vec<(u64, HistogramSnapshot)> {
        let cur = self.current_window();
        let lo = cur.saturating_sub(self.slots.len() as u64 - 1);
        let mut out: Vec<(u64, HistogramSnapshot)> = self
            .slots
            .iter()
            .filter_map(|s| {
                let wid = s.wid.load(Ordering::Acquire);
                (wid != EMPTY_WID && wid >= lo && wid <= cur).then(|| (wid, s.hist.snapshot()))
            })
            .collect();
        out.sort_by_key(|(wid, _)| *wid);
        out
    }

    /// All in-horizon windows merged into one snapshot — the rolling
    /// distribution over the last `windows()` windows.
    pub fn merged(&self) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::empty();
        for (_, s) in self.window_snapshots() {
            acc.merge(&s);
        }
        acc
    }

    /// Rolling quantile over the horizon (`None` when no samples).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.merged().quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        let w = WindowedHistogram::manual(4);
        assert_eq!(w.quantile(0.5), None);
        assert_eq!(w.merged().count, 0);
        assert!(w.window_snapshots().is_empty());
    }

    #[test]
    fn samples_accumulate_within_horizon() {
        let w = WindowedHistogram::manual(4);
        w.record(1.0);
        w.advance();
        w.record(2.0);
        w.advance();
        w.record(4.0);
        let m = w.merged();
        assert_eq!(m.count, 3);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
        assert_eq!(w.window_snapshots().len(), 3);
    }

    #[test]
    fn old_windows_age_out() {
        let w = WindowedHistogram::manual(2);
        w.record(100.0);
        // Two advances put window 0 outside the [1, 2] horizon.
        w.advance();
        w.advance();
        // Its slot still holds data until reclaimed, but reads exclude it.
        assert_eq!(w.merged().count, 0);
        w.record(1.0);
        let m = w.merged();
        assert_eq!(m.count, 1);
        assert_eq!(m.max, 1.0, "window-0 sample must not leak back in");
    }

    #[test]
    fn slot_reuse_clears_stale_data() {
        let w = WindowedHistogram::manual(2);
        w.record(5.0);
        w.record(5.0);
        w.advance();
        w.advance();
        // Window 2 maps onto window 0's slot; recording must reclaim it.
        w.record(7.0);
        let snaps = w.window_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 2);
        assert_eq!(snaps[0].1.count, 1);
        assert_eq!(snaps[0].1.max, 7.0);
    }

    #[test]
    fn rolling_quantiles_track_recent_distribution() {
        let w = WindowedHistogram::manual(3);
        for _ in 0..100 {
            w.record(0.001);
        }
        w.advance();
        w.advance();
        w.advance(); // slow era begins after the fast era aged out
        for _ in 0..100 {
            w.record(1.0);
        }
        let p50 = w.quantile(0.5).unwrap();
        assert!(p50 > 0.5, "p50={p50} still dominated by aged-out samples");
    }

    #[test]
    fn wall_clock_records_now() {
        let w = WindowedHistogram::wall(8, Duration::from_secs(1));
        w.record(0.25);
        w.record(0.5);
        let m = w.merged();
        assert_eq!(m.count, 2);
        assert_eq!(m.max, 0.5);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let w = std::sync::Arc::new(WindowedHistogram::manual(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = w.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        w.record(i as f64 * 1e-4 + 1e-4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // No rotation happened, so nothing may be lost.
        assert_eq!(w.merged().count, 8_000);
    }
}
