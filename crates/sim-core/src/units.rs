//! Byte-size and cost units shared by the storage, coordination and cost
//! accounting crates.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A number of bytes.
///
/// The clouds' price books (paper §4.5) charge per GB of outbound traffic and
/// per GB-month of storage, so we keep byte counts in a dedicated type to
/// avoid unit mistakes between bytes, kilobytes and gigabytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from a raw byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` kibibytes (1024 bytes).
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This size expressed in (binary) gigabytes, as used by the price book.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// This size expressed in mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;

    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Bytes {
    type Output = Bytes;

    fn sub(self, rhs: Bytes) -> Bytes {
        self.saturating_sub(rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else if b >= 1024 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// An amount of money in micro-dollars (10⁻⁶ USD), matching the unit the
/// paper uses for per-operation costs (Figure 11(b)).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MicroDollars(pub f64);

impl MicroDollars {
    /// Zero cost.
    pub const ZERO: MicroDollars = MicroDollars(0.0);

    /// From a micro-dollar amount.
    pub const fn new(micros: f64) -> Self {
        MicroDollars(micros)
    }

    /// From whole dollars.
    pub fn from_dollars(d: f64) -> Self {
        MicroDollars(d * 1e6)
    }

    /// The amount in micro-dollars.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The amount in dollars.
    pub fn as_dollars(self) -> f64 {
        self.0 / 1e6
    }
}

impl Add for MicroDollars {
    type Output = MicroDollars;

    fn add(self, rhs: MicroDollars) -> MicroDollars {
        MicroDollars(self.0 + rhs.0)
    }
}

impl AddAssign for MicroDollars {
    fn add_assign(&mut self, rhs: MicroDollars) {
        self.0 += rhs.0;
    }
}

impl Sub for MicroDollars {
    type Output = MicroDollars;

    fn sub(self, rhs: MicroDollars) -> MicroDollars {
        MicroDollars(self.0 - rhs.0)
    }
}

impl Mul<f64> for MicroDollars {
    type Output = MicroDollars;

    fn mul(self, rhs: f64) -> MicroDollars {
        MicroDollars(self.0 * rhs)
    }
}

impl Sum for MicroDollars {
    fn sum<I: Iterator<Item = MicroDollars>>(iter: I) -> MicroDollars {
        iter.fold(MicroDollars::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for MicroDollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for MicroDollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "${:.2}", self.as_dollars())
        } else {
            write!(f, "{:.2}µ$", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(4).get(), 4096);
        assert_eq!(Bytes::mib(1).get(), 1024 * 1024);
        assert_eq!(Bytes::gib(1).get(), 1 << 30);
        assert!((Bytes::gib(2).as_gib_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn byte_arithmetic_saturates() {
        let a = Bytes::new(10);
        let b = Bytes::new(30);
        assert_eq!(a - b, Bytes::ZERO);
        assert_eq!(b - a, Bytes::new(20));
        assert_eq!(a + b, Bytes::new(40));
    }

    #[test]
    fn byte_display() {
        assert_eq!(format!("{}", Bytes::new(512)), "512B");
        assert_eq!(format!("{}", Bytes::kib(16)), "16.00KiB");
        assert_eq!(format!("{}", Bytes::mib(4)), "4.00MiB");
        assert_eq!(format!("{}", Bytes::gib(3)), "3.00GiB");
    }

    #[test]
    fn byte_sum() {
        let total: Bytes = vec![Bytes::kib(1), Bytes::kib(3)].into_iter().sum();
        assert_eq!(total, Bytes::kib(4));
    }

    #[test]
    fn money_conversions() {
        let c = MicroDollars::from_dollars(0.12);
        assert!((c.get() - 120_000.0).abs() < 1e-9);
        assert!((c.as_dollars() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn money_arithmetic() {
        let a = MicroDollars::new(10.0);
        let b = MicroDollars::new(2.5);
        assert!(((a + b).get() - 12.5).abs() < 1e-12);
        assert!(((a - b).get() - 7.5).abs() < 1e-12);
        assert!(((a * 3.0).get() - 30.0).abs() < 1e-12);
        let s: MicroDollars = vec![a, b].into_iter().sum();
        assert!((s.get() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn money_display() {
        assert_eq!(format!("{}", MicroDollars::new(11.32)), "11.32µ$");
        assert_eq!(format!("{}", MicroDollars::from_dollars(39.6)), "$39.60");
    }
}
