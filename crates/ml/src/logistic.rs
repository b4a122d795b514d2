//! L2-regularised logistic regression trained by mini-batch SGD.
//!
//! This powers the URLNet-style baseline: the original URLNet learns URL
//! representations with character- and word-level CNNs; the offline Rust
//! equivalent hashes character n-grams into a fixed-width sparse vector and
//! fits a linear model — the same "URL string only" information source with
//! the same speed profile (fast, weakest accuracy of the Table 2 line-up).

use freephish_simclock::Rng64;

/// Hyper-parameters for SGD training.
#[derive(Debug, Clone)]
pub struct LogisticConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 penalty.
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            epochs: 30,
            learning_rate: 0.1,
            l2: 1e-4,
        }
    }
}

/// A fitted linear classifier over dense feature vectors.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl LogisticRegression {
    /// Train on parallel rows/labels. Rows must share a width.
    pub fn train(
        config: &LogisticConfig,
        rows: &[Vec<f64>],
        labels: &[u8],
        rng: &mut Rng64,
    ) -> LogisticRegression {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty());
        let dim = rows[0].len();
        let mut w = vec![0.0f64; dim];
        let mut b = 0.0f64;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let row = &rows[i];
                debug_assert_eq!(row.len(), dim);
                let z: f64 = b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>();
                let err = sigmoid(z) - labels[i] as f64;
                for (wi, xi) in w.iter_mut().zip(row) {
                    *wi -= config.learning_rate * (err * xi + config.l2 * *wi);
                }
                b -= config.learning_rate * err;
            }
        }
        LogisticRegression {
            weights: w,
            bias: b,
        }
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let z: f64 = self.bias
            + self
                .weights
                .iter()
                .zip(row)
                .map(|(wi, xi)| wi * xi)
                .sum::<f64>();
        sigmoid(z)
    }

    /// Hard prediction at 0.5.
    pub fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }
}

/// Hash a string's character n-grams into a `dim`-wide dense count vector
/// (L2-normalised). This is the featurisation the URLNet-style model uses.
pub fn char_ngram_vector(s: &str, n: usize, dim: usize) -> Vec<f64> {
    assert!(n >= 1 && dim >= 1);
    let mut v = vec![0.0f64; dim];
    let bytes = s.as_bytes();
    if bytes.len() >= n {
        for w in bytes.windows(n) {
            let h = freephish_simclock::fnv_shaped(w);
            v[(h % dim as u64) as usize] += 1.0;
        }
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_boundary() {
        let mut rng = Rng64::new(1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..400 {
            let y = rng.chance(0.5);
            let c = if y { 1.5 } else { -1.5 };
            rows.push(vec![rng.normal_ms(c, 1.0), rng.normal_ms(c, 1.0)]);
            labels.push(u8::from(y));
        }
        let model = LogisticRegression::train(&LogisticConfig::default(), &rows, &labels, &mut rng);
        let correct = rows
            .iter()
            .zip(&labels)
            .filter(|(r, &y)| model.predict(r) == y)
            .count();
        assert!(correct as f64 / rows.len() as f64 > 0.9);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let mut rng = Rng64::new(2);
        let rows = vec![vec![0.0], vec![100.0], vec![-100.0]];
        let labels = vec![0, 1, 0];
        let model = LogisticRegression::train(&LogisticConfig::default(), &rows, &labels, &mut rng);
        for r in &rows {
            let p = model.predict_proba(r);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn ngram_vector_is_normalised() {
        let v = char_ngram_vector("https://evil.weebly.com/login", 3, 128);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ngram_vector_short_string() {
        let v = char_ngram_vector("ab", 3, 64);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn similar_strings_similar_vectors() {
        let a = char_ngram_vector("https://paypal-login.weebly.com/", 3, 256);
        let b = char_ngram_vector("https://paypal-log1n.weebly.com/", 3, 256);
        let c = char_ngram_vector("completely different string!!", 3, 256);
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
        assert!(dot(&a, &b) > dot(&a, &c));
    }

    #[test]
    fn ngram_classifier_separates_vocabularies() {
        // "login"-flavoured strings vs "garden"-flavoured strings.
        let mut rng = Rng64::new(3);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let (s, y) = if i % 2 == 0 {
                (format!("secure-login-verify-{i}.example.com/account"), 1)
            } else {
                (format!("garden-flowers-{i}.example.com/plants"), 0)
            };
            rows.push(char_ngram_vector(&s, 3, 256));
            labels.push(y);
        }
        let model = LogisticRegression::train(&LogisticConfig::default(), &rows, &labels, &mut rng);
        let p_phish = model.predict_proba(&char_ngram_vector(
            "new-secure-login-verify.example.com/account",
            3,
            256,
        ));
        let p_benign = model.predict_proba(&char_ngram_vector(
            "my-garden-flowers.example.com/plants",
            3,
            256,
        ));
        assert!(p_phish > 0.5, "p_phish={p_phish}");
        assert!(p_benign < 0.5, "p_benign={p_benign}");
    }
}
