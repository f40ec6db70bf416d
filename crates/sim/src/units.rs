//! Data-size and bandwidth units.
//!
//! The VMM, network, and workload crates all reason about byte counts and
//! transfer rates; keeping the arithmetic here (with explicit units in the
//! names) avoids the classic bits-vs-bytes and GB-vs-GiB calibration bugs.

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A count of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// ZERO.
    pub const ZERO: Bytes = Bytes(0);

    #[inline]
    /// Creates a new instance.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    #[inline]
    /// Constructs from kib.
    pub const fn from_kib(k: u64) -> Self {
        Bytes(k << 10)
    }

    #[inline]
    /// Constructs from mib.
    pub const fn from_mib(m: u64) -> Self {
        Bytes(m << 20)
    }

    #[inline]
    /// Constructs from gib.
    pub const fn from_gib(g: u64) -> Self {
        Bytes(g << 30)
    }

    #[inline]
    /// Borrow the entry by id.
    pub const fn get(self) -> u64 {
        self.0
    }

    #[inline]
    /// Views this as f64, if applicable.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Number of whole pages of `page_size` bytes needed to hold this many
    /// bytes (ceiling division).
    #[inline]
    pub fn pages(self, page_size: Bytes) -> u64 {
        debug_assert!(page_size.0 > 0, "page size must be nonzero");
        self.0.div_ceil(page_size.0)
    }

    #[inline]
    /// Returns the saturating sub.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    /// Smallest recorded sample.
    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }

    #[inline]
    /// Whether this is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Self {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2}GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2}MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A transfer rate. Stored in bits per second because interconnect specs
/// (QDR InfiniBand = 32 Gbit/s effective, 10 GbE = 10 Gbit/s) are quoted
/// that way.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// Construct from gigabits per second.
    pub fn from_gbps(g: f64) -> Self {
        assert!(
            g >= 0.0 && g.is_finite(),
            "bandwidth must be finite and >= 0"
        );
        Bandwidth {
            bits_per_sec: g * 1e9,
        }
    }

    /// Construct from bytes per second.
    pub fn from_bytes_per_sec(b: f64) -> Self {
        assert!(
            b >= 0.0 && b.is_finite(),
            "bandwidth must be finite and >= 0"
        );
        Bandwidth {
            bits_per_sec: b * 8.0,
        }
    }

    /// Views this as gbps, if applicable.
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// Returns the bytes per sec.
    pub fn bytes_per_sec(self) -> f64 {
        self.bits_per_sec / 8.0
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    /// A zero bandwidth yields `SimDuration::MAX` ("never completes"),
    /// which callers treat as an unreachable link.
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        if self.bits_per_sec <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bytes.as_f64() / self.bytes_per_sec())
    }

    /// The smaller of two bandwidths (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.bits_per_sec <= other.bits_per_sec {
            self
        } else {
            other
        }
    }

    /// Scale by a non-negative factor (e.g. efficiency or contention share).
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and >= 0"
        );
        Bandwidth {
            bits_per_sec: self.bits_per_sec * factor,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_units() {
        assert_eq!(Bytes::from_kib(1).get(), 1024);
        assert_eq!(Bytes::from_mib(1).get(), 1 << 20);
        assert_eq!(Bytes::from_gib(1).get(), 1 << 30);
    }

    #[test]
    fn page_count_is_ceiling() {
        let page = Bytes::from_kib(4);
        assert_eq!(Bytes::new(0).pages(page), 0);
        assert_eq!(Bytes::new(1).pages(page), 1);
        assert_eq!(Bytes::new(4096).pages(page), 1);
        assert_eq!(Bytes::new(4097).pages(page), 2);
        assert_eq!(Bytes::from_gib(1).pages(page), 262_144);
    }

    #[test]
    fn transfer_time_matches_hand_calculation() {
        // 1.3 Gbit/s moving 2 GiB: 2 * 2^30 * 8 / 1.3e9 seconds.
        let bw = Bandwidth::from_gbps(1.3);
        let t = bw.transfer_time(Bytes::from_gib(2));
        let expect = 2.0 * (1u64 << 30) as f64 * 8.0 / 1.3e9;
        assert!((t.as_secs_f64() - expect).abs() < 1e-6, "{t} vs {expect}");
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        let bw = Bandwidth::from_gbps(0.0);
        assert_eq!(bw.transfer_time(Bytes::new(1)), SimDuration::MAX);
    }

    #[test]
    fn bottleneck_min() {
        let ib = Bandwidth::from_gbps(32.0);
        let eth = Bandwidth::from_gbps(10.0);
        assert_eq!(ib.min(eth).as_gbps(), 10.0);
    }

    #[test]
    fn scale_contention() {
        let bw = Bandwidth::from_gbps(10.0).scale(0.5);
        assert!((bw.as_gbps() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bytes::from_gib(2)), "2.00GiB");
        assert_eq!(format!("{}", Bandwidth::from_gbps(1.3)), "1.30Gbps");
    }
}
