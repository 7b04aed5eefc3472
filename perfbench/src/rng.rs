//! Seeded randomness for the benchmark's inputs: every population, key
//! choice and arrival gap derives from `--seed` through these generators,
//! so the same seed always yields the same requests.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        // Mix both inputs: SplitMix states that differ by a small multiple
        // of the increment would replay each other's sequence.
        Rng(mix(mix(seed) ^ mix(salt.wrapping_add(0x5A17))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// A 40-hex-digit identifier (the shape of a software id).
    pub fn hex40(&mut self) -> String {
        format!("{:016x}{:016x}{:08x}", self.next_u64(), self.next_u64(), self.next_u64() as u32)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks over `n` items, mapped through a seeded
/// permutation so the hot items are scattered over the key space.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}
