//! The benchmark's only source of randomness: a splitmix64 stream seeded
//! from `--seed`. It fixes tenant order, house strings, rent amounts, the
//! read mix and request ids; the node receives only the generated
//! requests, so the same seed gives the same chain, byte for byte.

/// Splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`label`), so adding draws to
    /// one part of the generator does not shift the values of another.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut parent = SplitMix64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2^-40 and identical for every run of a seed).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn shuffle_is_a_permutation_and_below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        let mut items: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
