//! The benchmark's own seeded generator (splitmix64), so generated
//! inputs depend only on `--seed` and never on the program under test.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// independent, so each phase can draw its own inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// `n` uniform random bits.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let w = self.next_u64();
            out.extend((0..64.min(n - out.len())).map(|i| w >> i & 1 == 1));
        }
        out
    }

    /// `n` bits in `k` individually sorted groups (zeros, then ones), each
    /// with a uniform ones-count: a valid input of the fish k-way merger.
    pub fn k_sorted_bits(&mut self, n: usize, k: usize) -> Vec<bool> {
        let block = n / k;
        let mut out = Vec::with_capacity(n);
        for _ in 0..k {
            let ones = self.below(block as u64 + 1) as usize;
            out.extend((0..block).map(|i| i >= block - ones));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_and_k_sorted() {
        assert_eq!(Rng::new(7, 1).bits(100), Rng::new(7, 1).bits(100));
        assert_ne!(Rng::new(7, 1).bits(100), Rng::new(7, 2).bits(100));
        let v = Rng::new(3, 0).k_sorted_bits(64, 4);
        for g in v.chunks(16) {
            assert!(g.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
