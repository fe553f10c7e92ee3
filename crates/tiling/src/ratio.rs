//! Minimal exact rational arithmetic for the `upd_num` derivation (stage 3)
//! and the per-graph proof that lets statistics skip it.

/// Greatest common divisor (Euclid). `gcd(0, n) = n`.
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; saturates rather than overflowing.
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Least common multiple, or `None` on overflow.
pub(crate) fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// An exact non-negative rational, always kept in lowest terms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Ratio {
    pub num: u64,
    pub den: u64,
}

impl Ratio {
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        let g = gcd(num, den).max(1);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    pub fn from_int(n: u64) -> Self {
        Ratio { num: n, den: 1 }
    }

    pub fn mul_int(self, k: u64) -> Self {
        Ratio::new(self.num.saturating_mul(k), self.den)
    }

    pub fn div_int(self, k: u64) -> Self {
        assert!(k != 0);
        Ratio::new(self.num, self.den.saturating_mul(k))
    }

    /// [`mul_int`](Self::mul_int), or `None` where it would saturate.
    pub fn checked_mul_int(self, k: u64) -> Option<Self> {
        Some(Ratio::new(self.num.checked_mul(k)?, self.den))
    }

    /// [`div_int`](Self::div_int), or `None` where it would saturate.
    pub fn checked_div_int(self, k: u64) -> Option<Self> {
        assert!(k != 0);
        Some(Ratio::new(self.num, self.den.checked_mul(k)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 1), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(2, 2), 2);
        assert_eq!(lcm(0, 3), 0);
    }

    #[test]
    fn checked_ops_refuse_to_saturate() {
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(u64::MAX, u64::MAX - 1), None);
        let r = Ratio::new(3, 4);
        assert_eq!(r.checked_mul_int(8), Some(r.mul_int(8)));
        assert_eq!(r.checked_div_int(3), Some(r.div_int(3)));
        assert_eq!(Ratio::new(u64::MAX, 1).checked_mul_int(2), None);
        assert_eq!(Ratio::new(1, u64::MAX).checked_div_int(2), None);
    }

    #[test]
    fn ratio_normalizes() {
        assert_eq!(Ratio::new(4, 8), Ratio { num: 1, den: 2 });
        assert_eq!(Ratio::new(0, 3), Ratio { num: 0, den: 1 });
    }

    #[test]
    fn ratio_ops() {
        let r = Ratio::new(3, 4);
        assert_eq!(r.mul_int(8), Ratio { num: 6, den: 1 });
        assert_eq!(r.div_int(3), Ratio { num: 1, den: 4 });
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }
}
