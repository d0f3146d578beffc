//! Integration test support crate for nisim (tests live in `tests/tests`).

/// The property tests' generator: a hand-rolled LCG, since the build is
/// offline (no proptest) — deterministic, so failures reproduce exactly.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A value in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A finite, sign-varied f64 with both integral and fractional cases.
    pub fn float(&mut self) -> f64 {
        let numer = self.below(1 << 53) as f64;
        let denom = (self.below(1000) + 1) as f64;
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * numer / denom
    }
}
