//! The benchmark's own deterministic generator: inputs depend only on
//! the `--seed` argument.

/// splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed` (mixed with a per-use `salt`).
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `m` distinct ids from `0..n`, in draw order.
    pub fn subset(&mut self, n: usize, m: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in 0..m.min(n) {
            let j = i + self.below(n - i);
            ids.swap(i, j);
        }
        ids.truncate(m.min(n));
        ids
    }
}
