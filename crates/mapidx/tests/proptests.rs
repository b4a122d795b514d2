//! Property tests for the index file's corruption totality contract:
//! whatever happens to the bytes — truncation at any point, bit flips in
//! the header, records, key heap or bucket table, or outright garbage —
//! the loader returns a typed [`IndexError`] or a wrong-but-safe answer.
//! It never panics, and the *verified* open never accepts a flipped bit.
//!
//! Alongside the adversarial properties, a round-trip property pins the
//! writer's semantics: arbitrary entry streams with duplicate keys and
//! tiny spill budgets always bake to exactly the last-write-wins map a
//! `HashMap` replay produces, bit-for-bit, and the same bytes whatever
//! the budget.

use freephish_mapidx::read::PROBE_LANE;
use freephish_mapidx::{IndexError, IndexWriter, SnapshotIndex};
use freephish_simclock::prop::{check, Gen};
use freephish_store::testutil::TempDir;
use std::collections::HashMap;
use std::path::Path;

/// Bake `entries` with the given in-memory run budget; tiny budgets
/// force multi-run external merges.
fn bake(dir: &Path, entries: &[(String, f64)], run_bytes: usize) -> std::path::PathBuf {
    let out = dir.join("baked.mapidx");
    let mut w = IndexWriter::with_run_bytes(dir.join("spill"), run_bytes).unwrap();
    for (url, score) in entries {
        w.add(url, *score).unwrap();
    }
    w.finish(&out).unwrap();
    out
}

fn entries(g: &mut Gen) -> Vec<(String, f64)> {
    // Keys drawn from a small id space so duplicate keys (the
    // last-write-wins path) are common; scores are arbitrary f64 bit
    // patterns, NaN and infinities included — the format stores bits.
    g.vec(0..200, |g| {
        let id = g.u64_in(0..60);
        (format!("https://site-{id}.weebly.com/login"), g.f64_bits())
    })
}

/// Probe keys that exercise hits, misses, and empty/long shapes.
fn probe(idx: &SnapshotIndex) {
    for key in [
        "",
        "https://site-3.weebly.com/login",
        "https://never-baked.wixsite.com/x",
        "https://site-59.weebly.com/login",
    ] {
        let _ = idx.get(key);
    }
    let _ = idx.iter().count();
}

#[test]
fn bakes_replay_to_last_write_wins_bit_identically() {
    check(64, |g| {
        let (entries, run_bytes) = (entries(g), g.usize_in(64..4096));
        let dir = TempDir::new("mapidx-prop-rt");
        let out = bake(dir.path(), &entries, run_bytes);
        let idx = SnapshotIndex::open_verified(&out).unwrap();

        let mut replay: HashMap<&str, f64> = HashMap::new();
        for (url, score) in &entries {
            replay.insert(url, *score);
        }
        assert_eq!(idx.len() as usize, replay.len());
        for (url, score) in &replay {
            let got = idx.get(url);
            assert_eq!(
                got.map(f64::to_bits),
                Some(score.to_bits()),
                "lookup of {} diverged from replay",
                url
            );
        }
        assert_eq!(idx.get("https://absent.weebly.com/"), None);
        // An empty stream is a loadable, all-miss index, not an error.
        if entries.is_empty() {
            assert!(idx.is_empty());
        }
    });
}

#[test]
fn the_run_budget_never_changes_the_bytes() {
    check(64, |g| {
        // As `entries`, plus the empty key: runs of it share no offset.
        let entries = g.vec(0..200, |g| {
            let id = g.u64_in(0..64);
            let url = match id {
                60.. => String::new(),
                _ => format!("https://site-{id}.weebly.com/login"),
            };
            (url, g.f64_bits())
        });
        let run_bytes = g.usize_in(64..4096);
        let spilled = TempDir::new("mapidx-prop-budget-spilled");
        let in_memory = TempDir::new("mapidx-prop-budget-in-memory");
        let a = std::fs::read(bake(spilled.path(), &entries, run_bytes)).unwrap();
        let b = std::fs::read(bake(in_memory.path(), &entries, usize::MAX)).unwrap();
        assert!(a == b, "budget {run_bytes} baked different bytes");
    });
}

#[test]
fn truncation_at_any_point_is_a_typed_error() {
    check(64, |g| {
        let (entries, cut_fraction) = (entries(g), g.f64_in(0.0..1.0));
        let dir = TempDir::new("mapidx-prop-trunc");
        let out = bake(dir.path(), &entries, 1024);
        let bytes = std::fs::read(&out).unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut >= bytes.len() {
            return;
        }
        std::fs::write(&out, &bytes[..cut]).unwrap();

        for verified in [false, true] {
            let opened = if verified {
                SnapshotIndex::open_verified(&out)
            } else {
                SnapshotIndex::open(&out)
            };
            match opened {
                Err(
                    IndexError::TooSmall { .. }
                    | IndexError::LengthMismatch { .. }
                    | IndexError::HeaderCrc { .. }
                    | IndexError::Io(_),
                ) => {}
                Err(other) => {
                    panic!("truncation to {cut} bytes must map to a length-ish error, got {other}")
                }
                Ok(_) => panic!("truncated file must not load"),
            }
        }
    });
}

#[test]
fn single_bit_flips_never_panic_and_never_pass_verification() {
    check(64, |g| {
        let (entries, pos, bit) = (entries(g), g.u32(), g.u64_in(0..8));
        let dir = TempDir::new("mapidx-prop-flip");
        let out = bake(dir.path(), &entries, 1024);
        let mut bytes = std::fs::read(&out).unwrap();
        let at = pos as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&out, &bytes).unwrap();

        // The distrustful open detects every flipped bit: the header is
        // CRC'd (padding pinned to zero), everything after it is under
        // the body checksum.
        assert!(
            SnapshotIndex::open_verified(&out).is_err(),
            "flip at byte {} bit {} survived verification",
            at,
            bit
        );

        // The fast open may or may not notice (body flips are invisible
        // to it by design) — but whatever it returns, lookups stay
        // bounds-checked and panic-free.
        if let Ok(idx) = SnapshotIndex::open(&out) {
            probe(&idx);
        }
    });
}

#[test]
fn arbitrary_garbage_never_panics() {
    check(64, |g| {
        let blob = g.vec(0..4096, Gen::u8);
        let dir = TempDir::new("mapidx-prop-garbage");
        let out = dir.path().join("garbage.mapidx");
        std::fs::write(&out, &blob).unwrap();
        if let Ok(idx) = SnapshotIndex::open(&out) {
            probe(&idx);
        }
        let _ = SnapshotIndex::open_verified(&out);
    });
}

/// The widest frame a serve node hands the index: `serve::proto::MAX_BATCH`.
const MAX_BATCH: usize = 256;

/// A `get_many` batch and its answer slots. Keys are baked, absent (ids
/// 60..64 and a foreign host) or empty, drawn with replacement so
/// duplicates are common; lengths fall short of a lane, on it, just past
/// it and up to a whole frame; about a quarter of the slots arrive
/// answered and must be left alone.
fn probe_batch(g: &mut Gen) -> (Vec<String>, Vec<Option<f64>>) {
    let len = match g.u64_in(0..6) {
        0 => g.usize_in(0..PROBE_LANE),
        1 => PROBE_LANE,
        2 => PROBE_LANE + 1,
        3 => MAX_BATCH,
        _ => g.usize_in(PROBE_LANE + 2..MAX_BATCH),
    };
    let keys = (0..len)
        .map(|_| match g.u64_in(0..10) {
            0 => String::new(),
            1 => format!("https://never-baked-{}.wixsite.com/x", g.u64_in(0..4)),
            _ => format!("https://site-{}.weebly.com/login", g.u64_in(0..64)),
        })
        .collect();
    let slots = (0..len)
        .map(|_| (g.u64_in(0..4) == 0).then(|| g.f64_bits()))
        .collect();
    (keys, slots)
}

/// `get_many` over `keys` with `slots` answers each prefilled slot with
/// its own bits and every other slot exactly as `get` does.
fn assert_get_many_is_get(idx: &SnapshotIndex, keys: &[String], slots: &[Option<f64>]) {
    let mut out = slots.to_vec();
    idx.get_many(keys, &mut out);
    for ((key, before), after) in keys.iter().zip(slots).zip(&out) {
        let want = before.or_else(|| idx.get(key));
        assert_eq!(
            after.map(f64::to_bits),
            want.map(f64::to_bits),
            "slot for {key:?} (prefilled {before:?})"
        );
    }
}

#[test]
fn get_many_answers_every_slot_as_get_does() {
    check(64, |g| {
        // As `entries`, plus the empty key.
        let entries = g.vec(0..200, |g| {
            let id = g.u64_in(0..64);
            let url = match id {
                60.. => String::new(),
                _ => format!("https://site-{id}.weebly.com/login"),
            };
            (url, g.f64_bits())
        });
        let dir = TempDir::new("mapidx-prop-get-many");
        let idx = SnapshotIndex::open(bake(dir.path(), &entries, g.usize_in(64..4096))).unwrap();
        let replay: HashMap<&str, f64> = entries.iter().map(|(u, s)| (u.as_str(), *s)).collect();
        for _ in 0..4 {
            let (keys, slots) = probe_batch(g);
            assert_get_many_is_get(&idx, &keys, &slots);
            // And `get` itself is the baked map, bit for bit.
            for key in &keys {
                assert_eq!(
                    idx.get(key).map(f64::to_bits),
                    replay.get(key.as_str()).map(|s| s.to_bits()),
                    "{key:?}"
                );
            }
        }
    });
}

#[test]
fn get_many_on_damaged_files_never_panics_and_equals_get() {
    check(64, |g| {
        let entries = entries(g);
        let dir = TempDir::new("mapidx-prop-get-many-damaged");
        let out = bake(dir.path(), &entries, 1024);
        let mut bytes = std::fs::read(&out).unwrap();
        if g.bool() {
            let at = g.usize_in(0..bytes.len());
            bytes[at] ^= 1 << g.u64_in(0..8);
        } else {
            bytes.truncate(g.usize_in(0..bytes.len()));
        }
        std::fs::write(&out, &bytes).unwrap();
        // The fast open accepts body flips by design (and refuses every
        // truncation): whatever it accepts must probe without panicking.
        if let Ok(idx) = SnapshotIndex::open(&out) {
            for _ in 0..4 {
                let (keys, slots) = probe_batch(g);
                assert_get_many_is_get(&idx, &keys, &slots);
            }
        }
    });
}
