//! A seeded property-test runner over [`Rng64`], in plain functions.
//!
//! A property is a closure that draws its inputs from a [`Gen`] and checks
//! them with `assert!`. [`check`] runs it on a constant number of cases
//! seeded from the test's name (libtest names each test's thread after it),
//! so a failure reproduces by rerunning the test. Every value is a monotone
//! function of a recorded tape of `u64` draws, 0 giving the lower bound, so
//! shrinking needs no per-type code: it deletes chunks of the tape, halves
//! down to single entries, then lowers entries, keeping what still fails.

use crate::rng::Rng64;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Property runs one shrink may spend replaying candidate tapes.
const SHRINK_ATTEMPTS: usize = 2048;

/// Start/end pairs of [`Gen::text`]'s blocks, none with a control or format
/// char: ASCII, Latin-1 + Extended-A, combining marks, Cyrillic, CJK, emoji.
const TEXT_BLOCKS: [u32; 12] = [
    0x20, 0x7f, 0xae, 0x180, 0x300, 0x370, 0x410, 0x450, 0x4e00, 0x9fa6, 0x1f600, 0x1f650,
];

/// A property's inputs: a tape of draws, fresh from a seeded [`Rng64`] or
/// replayed (0 past its end) while shrinking.
pub struct Gen {
    rng: Option<Rng64>,
    tape: Vec<u64>,
    pos: usize,
}

impl Gen {
    fn new(rng: Option<Rng64>, tape: Vec<u64>) -> Gen {
        Gen { rng, tape, pos: 0 }
    }

    /// The draws this run consumed, less trailing zeros.
    fn consumed(mut self) -> Vec<u64> {
        let used = self.tape[..self.pos].iter().rposition(|&d| d != 0);
        self.tape.truncate(used.map_or(0, |i| i + 1));
        self.tape
    }

    fn draw(&mut self) -> u64 {
        if self.pos == self.tape.len() {
            let fresh = self.rng.as_mut().map_or(0, Rng64::next_u64);
            self.tape.push(fresh);
        }
        self.pos += 1;
        self.tape[self.pos - 1]
    }

    /// Uniform in `range`, monotone in the draw; an empty range gives its start.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        let width = u128::from(range.end.saturating_sub(range.start));
        range.start + ((u128::from(self.draw()) * width) >> 64) as u64
    }

    /// Uniform in `range`; an empty range gives its start.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform in `range` (53 bits of the draw).
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.draw() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + (range.end - range.start) * unit
    }

    pub fn u64(&mut self) -> u64 {
        self.draw()
    }

    pub fn u32(&mut self) -> u32 {
        (self.draw() >> 32) as u32
    }

    pub fn u16(&mut self) -> u16 {
        (self.draw() >> 48) as u16
    }

    pub fn u8(&mut self) -> u8 {
        (self.draw() >> 56) as u8
    }

    pub fn bool(&mut self) -> bool {
        self.draw() >> 63 == 1
    }

    /// Any f64 bit pattern, a quarter of the draws being NaN, ±∞, -0.0 or 5e-324.
    pub fn f64_bits(&mut self) -> f64 {
        const RARE: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324];
        if self.usize_in(0..4) == 3 {
            *self.pick(&RARE)
        } else {
            f64::from_bits(self.u64())
        }
    }

    /// `None` or `Some` of a drawn value, evenly.
    pub fn option<T>(&mut self, value: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| value(self))
    }

    /// A `Vec` with a length uniform in `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| elem(self)).collect()
    }

    /// One of `items`, uniformly. Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0..items.len())]
    }

    /// A string with a length uniform in `len` over a regex-style class such
    /// as `a-z0-9._-` (ranges and characters; a first or last `-` is literal).
    pub fn string(&mut self, class: &str, len: Range<usize>) -> String {
        let spec: Vec<char> = class.chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < spec.len() {
            let range = i + 2 < spec.len() && spec[i + 1] == '-';
            chars.extend(spec[i]..=spec[if range { i + 2 } else { i }]);
            i += if range { 3 } else { 1 };
        }
        self.vec(len, |g| *g.pick(&chars)).into_iter().collect()
    }

    /// Printable text with a length uniform in `len` (the regex
    /// `\PC{lo,hi}`), seven characters in twelve ASCII.
    pub fn text(&mut self, len: Range<usize>) -> String {
        let chars = self.vec(len, |g| {
            let b = 2 * g.usize_in(0..12).saturating_sub(6);
            let c = g.u64_in(u64::from(TEXT_BLOCKS[b])..u64::from(TEXT_BLOCKS[b + 1]));
            char::from_u32(c as u32).unwrap()
        });
        chars.into_iter().collect()
    }
}

/// Runs `prop` on `cases` cases seeded from the calling test's name, then
/// panics with the seed, case number and message of a shrunk failure.
pub fn check(cases: u32, prop: impl Fn(&mut Gen)) {
    let name = std::thread::current().name().unwrap_or("main").to_owned();
    // FNV-1a: a stable seed that differs from test to test.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..cases {
        let rng = Rng64::new(seed.wrapping_add(u64::from(case)));
        let mut g = Gen::new(Some(rng), Vec::new());
        if run(&prop, &mut g).is_ok() {
            continue;
        }
        let mut s = Shrinker {
            prop: &prop,
            tape: g.consumed(),
            budget: SHRINK_ATTEMPTS,
        };
        s.shrink();
        let attempts = SHRINK_ATTEMPTS - s.budget;
        let message = run(&prop, &mut Gen::new(None, s.tape)).err();
        panic!(
            "property `{name}` failed on case {case} of {cases} (seed {seed:#x}); shrunk in \
             {attempts} attempts to a case that {}",
            message.unwrap_or_default()
        );
    }
}

// While `CATCHING`, this thread's panic messages go to `CAUGHT`.
thread_local! {
    static CATCHING: Cell<bool> = const { Cell::new(false) };
    static CAUGHT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs one case; a failure's message carries the panic's location.
fn run(prop: &impl Fn(&mut Gen), g: &mut Gen) -> Result<(), String> {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| match CATCHING.get() {
            true => CAUGHT.set(Some(info.to_string())),
            false => default(info),
        }));
    });
    CATCHING.set(true);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(g)));
    CATCHING.set(false);
    // A panic re-raised from another thread never reached the hook here.
    outcome.map_err(|_| CAUGHT.take().unwrap_or_default())
}

/// One shrink: the smallest failing tape so far and the replays left.
struct Shrinker<'p, P> {
    prop: &'p P,
    tape: Vec<u64>,
    budget: usize,
}

impl<P: Fn(&mut Gen)> Shrinker<'_, P> {
    /// Replays `candidate`; if it fails, adopts the tape it consumed.
    fn attempt(&mut self, candidate: Vec<u64>) -> bool {
        let mut g = Gen::new(None, candidate);
        let failed = self.budget > 0 && run(self.prop, &mut g).is_err();
        self.budget = self.budget.saturating_sub(1);
        if failed {
            self.tape = g.consumed();
        }
        failed
    }

    fn shrink(&mut self) {
        let mut before = Vec::new();
        while self.tape != before && self.budget > 0 {
            before = self.tape.clone();
            // Chunks deleted, their width halving from half the tape to one.
            let mut width = self.tape.len().div_ceil(2);
            while width > 0 {
                let mut i = 0;
                while i + width <= self.tape.len() {
                    let mut shorter = self.tape.clone();
                    shorter.drain(i..i + width);
                    i += if self.attempt(shorter) { 0 } else { width };
                }
                width /= 2;
            }
            // Entries lowered to 0, else to their least failing value.
            let mut i = 0;
            while i < self.tape.len() {
                let (mut lo, mut hi) = (0, self.tape[i]);
                while lo < hi && i < self.tape.len() {
                    let mid = if lo == 0 { 0 } else { lo + (hi - lo) / 2 };
                    let mut lower = self.tape.clone();
                    lower[i] = mid;
                    match self.attempt(lower) {
                        true => hi = mid,
                        false => lo = mid + 1,
                    }
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `check` on a thread named `name` and returns every case's
    /// drawn values.
    fn cases_under(name: &str) -> Vec<Vec<u64>> {
        std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(|| {
                let seen = Mutex::new(Vec::new());
                check(16, |g| {
                    let v = g.vec(0..8, |g| g.u64_in(0..1000));
                    seen.lock().unwrap().push(v);
                });
                seen.into_inner().unwrap()
            })
            .unwrap()
            .join()
            .unwrap()
    }

    /// The message `check` panicked with.
    fn failure(prop: impl Fn(&mut Gen)) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(|| check(256, prop)))
            .expect_err("the property must fail");
        payload.downcast_ref::<String>().cloned().unwrap()
    }

    #[test]
    fn the_same_name_gives_the_same_cases() {
        let a = cases_under("prop-a");
        assert_eq!(a, cases_under("prop-a"));
        assert_ne!(a, cases_under("prop-b"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn a_vec_with_a_large_element_shrinks_to_that_element_alone() {
        let msg = failure(|g| {
            let v = g.vec(0..20, Gen::u64);
            assert!(v.iter().all(|&x| x < 100), "v={v:?}");
        });
        assert!(msg.ends_with("v=[100]"), "{msg}");
        assert!(msg.contains(" of 256 (seed 0x"), "{msg}");
    }

    #[test]
    fn a_long_string_shrinks_to_the_shortest_of_the_first_character() {
        let msg = failure(|g| {
            let s = g.string("c-z0-9", 0..40);
            assert!(s.len() < 5, "s={s:?}");
        });
        assert!(msg.ends_with("s=\"ccccc\""), "{msg}");
    }

    #[test]
    fn empty_ranges_and_zero_length_vecs_do_not_panic() {
        check(64, |g| {
            assert_eq!(g.u64_in(7..7), 7);
            assert_eq!(g.usize_in(3..3), 3);
            assert_eq!(g.f64_in(1.5..1.5), 1.5);
            assert!(g.vec(0..0, Gen::u8).is_empty());
            assert!(g.vec(0..1, Gen::u8).is_empty());
            assert_eq!(g.string("a-z", 0..0), "");
            assert_eq!(g.text(2..2).chars().count(), 2);
        });
    }

    #[test]
    fn text_is_printable_and_classes_expand_their_ranges() {
        check(256, |g| {
            let t = g.text(0..40);
            assert!(t.chars().all(|c| !c.is_control()), "{t:?}");
            let s = g.string("a-c-", 1..20);
            assert!(s.chars().all(|c| "abc-".contains(c)), "{s:?}");
        });
    }
}
