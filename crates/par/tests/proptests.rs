//! Property tests for the determinism contract: `par_map` output equals
//! the serial `map` for random inputs at thread counts 1, 2, and 8, and
//! order is preserved regardless of chunk interleaving.

use freephish_par::{par_map_with, pool::par_map_indexed_with};
use freephish_simclock::prop::check;

/// par_map == serial map, bit-for-bit, at every thread count.
#[test]
fn par_map_matches_serial() {
    check(256, |g| {
        let items = g.vec(0..300, |g| g.u64_in(0..1_000_000));
        let serial: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(2654435761).rotate_left(7))
            .collect();
        for threads in [1usize, 2, 8] {
            let par = par_map_with(threads, &items, |x| {
                x.wrapping_mul(2654435761).rotate_left(7)
            });
            assert_eq!(&par, &serial, "threads={threads}");
        }
    });
}

/// Indexed mapping hands every closure its own input position.
#[test]
fn indexed_positions_are_exact() {
    check(256, |g| {
        let (n, threads) = (g.usize_in(0..400), g.usize_in(1..9));
        let items: Vec<usize> = (0..n).map(|i| i * 3).collect();
        let out = par_map_indexed_with(threads, &items, |i, v| (i, *v));
        let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3)).collect();
        assert_eq!(out, expected);
    });
}

/// String outputs (heap-owned) survive the reassembly in order.
#[test]
fn owned_outputs_keep_order() {
    check(256, |g| {
        let items = g.vec(0..120, |g| g.string("a-z", 0..13));
        let threads = g.usize_in(1..9);
        let serial: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        let par = par_map_with(threads, &items, |s| format!("{s}!"));
        assert_eq!(par, serial);
    });
}
