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

/// A transfer rate, in whole bits per second: interconnect specs (QDR
/// InfiniBand = 32 Gbit/s effective, 10 GbE = 10 Gbit/s) are quoted in
/// bits, and every rate the testbed uses is a whole number of them, so
/// rates compare, hash and divide exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Construct from whole bits per second.
    pub const fn from_bits_per_sec(bits: u64) -> Self {
        Bandwidth { bits_per_sec: bits }
    }

    /// Construct from gigabits per second, rounded to the nearest bit/s.
    pub fn from_gbps(g: f64) -> Self {
        Bandwidth::rounded(g * 1e9)
    }

    /// Construct from bytes per second, rounded to the nearest bit/s.
    pub fn from_bytes_per_sec(b: f64) -> Self {
        Bandwidth::rounded(b * 8.0)
    }

    /// `bits` per second, rounded to the nearest whole bit/s.
    fn rounded(bits: f64) -> Self {
        assert!(
            (0.0..u64::MAX as f64).contains(&bits),
            "bandwidth must be finite, >= 0 and below 2^64 bit/s"
        );
        Bandwidth {
            bits_per_sec: bits.round() as u64,
        }
    }

    /// The rate in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Views this as gbps, if applicable.
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Time to serialize `bytes` onto a link of this bandwidth, rounded
    /// up to the nanosecond. A zero bandwidth yields `SimDuration::MAX`
    /// ("never completes"), which callers treat as an unreachable link.
    pub fn transfer_time(self, bytes: Bytes) -> SimDuration {
        drain_time(transfer_work(bytes), self.bits_per_sec)
    }

    /// Scale by a non-negative factor (e.g. efficiency or contention
    /// share), rounded to the nearest bit/s.
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and >= 0"
        );
        Bandwidth::rounded(self.bits_per_sec as f64 * factor)
    }
}

/// The work of moving `bytes`, in bits × 10⁹: the unit a rate of one
/// bit/s drains by one per nanosecond, so `dt` ns at `r` bit/s does
/// exactly `r · dt` of it.
pub fn transfer_work(bytes: Bytes) -> u128 {
    u128::from(bytes.get()) * 8_000_000_000
}

/// Time to drain `work` (see [`transfer_work`]) at `bits_per_sec`,
/// rounded **up** to the nanosecond: the one time-rounding rule of
/// every transfer, so advancing to it always finishes the work. A zero
/// rate, or a time past the clock's range, yields `SimDuration::MAX`
/// ("never completes").
pub fn drain_time(work: u128, bits_per_sec: u64) -> SimDuration {
    if bits_per_sec == 0 {
        return SimDuration::MAX;
    }
    let ns = work.div_ceil(u128::from(bits_per_sec));
    u64::try_from(ns).map_or(SimDuration::MAX, SimDuration::from_nanos)
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
        // 1.3 Gbit/s moving 2 GiB: 2 * 2^30 * 8 / 1.3e9 s = 13.2152839877 s,
        // rounded up to the nanosecond.
        let bw = Bandwidth::from_gbps(1.3);
        assert_eq!(bw.bits_per_sec(), 1_300_000_000);
        let t = bw.transfer_time(Bytes::from_gib(2));
        assert_eq!(t, SimDuration::from_nanos(13_215_283_988));
        // A whole number of nanoseconds is not rounded.
        let t = Bandwidth::from_gbps(8.0).transfer_time(Bytes::new(1000));
        assert_eq!(t, SimDuration::from_nanos(1000));
    }

    #[test]
    fn drain_time_saturates() {
        let slow = Bandwidth::from_gbps(1e-9);
        assert_eq!(slow.bits_per_sec(), 1);
        assert_eq!(slow.transfer_time(Bytes::from_gib(4)), SimDuration::MAX);
        assert_eq!(
            drain_time(1, slow.bits_per_sec()),
            SimDuration::from_nanos(1)
        );
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
        assert_eq!(ib.min(eth), eth);
    }

    #[test]
    fn scale_contention() {
        let bw = Bandwidth::from_gbps(10.0).scale(0.5);
        assert_eq!(bw, Bandwidth::from_gbps(5.0));
        let third = Bandwidth::from_gbps(10.0).scale(1.0 / 3.0);
        assert_eq!(third.bits_per_sec(), 3_333_333_333);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bytes::from_gib(2)), "2.00GiB");
        assert_eq!(format!("{}", Bandwidth::from_gbps(1.3)), "1.30Gbps");
    }
}
