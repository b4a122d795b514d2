//! A small, self-contained, deterministic PRNG plus the handful of
//! distributions the ecosystem behaviour models need.
//!
//! The reproduction must be bit-for-bit deterministic across runs and
//! platforms so that every table and figure regenerates identically. Rather
//! than depending on a specific version of an external RNG crate for the
//! substrates, we implement `xoshiro256**` (public domain, Blackman/Vigna)
//! seeded through SplitMix64 — about forty lines — and the distributions on
//! top of it: uniform, Bernoulli, normal (Box–Muller), log-normal
//! (parameterised by *median* and shape, matching how the paper reports
//! response times), exponential, and Zipf (for the brand popularity of
//! Figure 5).

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Derive an independent child generator; used to give each subsystem
    /// (each blocklist, each FWB) its own stream so adding a draw in one
    /// subsystem does not perturb another.
    pub fn fork(&mut self, tag: u64) -> Rng64 {
        Rng64::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). Panics if n == 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire-style rejection-free enough for simulation purposes:
        // multiply-shift with negligible bias for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform usize index in [0, n).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform integer in [lo, hi] inclusive.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform f64 in [lo, hi).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Log-normal draw parameterised by its *median* and log-space sigma.
    ///
    /// The paper reports median response times; a log-normal with
    /// `mu = ln(median)` has exactly that median, making calibration direct.
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        (median.max(f64::MIN_POSITIVE).ln() + sigma * self.normal()).exp()
    }

    /// Pick a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Weighted choice: returns an index with probability proportional to
    /// `weights[i]`. Panics on empty or all-zero weights.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted: zero total weight");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from [0, n) (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n);
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k positions need to be final.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Zipf sampler over ranks `1..=n` with exponent `s`, used for the brand
/// popularity distribution (a few brands dominate phishing targets).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a 0-based rank (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no ranks (never: `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(9);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
        // n = 1 always yields 0.
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng64::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_u64(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = Rng64::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn lognormal_median_is_the_median() {
        let mut r = Rng64::new(13);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal_median(360.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[n / 2];
        assert!((med / 360.0 - 1.0).abs() < 0.08, "median={med}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(17);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn choose_weighted_prefers_heavy() {
        let mut r = Rng64::new(19);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng64::new(29);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20);
        assert!(d.iter().all(|&i| i < 50));
    }

    #[test]
    fn zipf_head_heavy() {
        let z = Zipf::new(100, 1.2);
        let mut r = Rng64::new(31);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[50] * 5);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
