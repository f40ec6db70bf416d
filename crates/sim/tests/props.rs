//! Property-based tests of the simulation kernel.

use ninja_sim::{Bandwidth, Bytes, Histogram, SimDuration, SimRng, Summary};
use proptest::prelude::*;

proptest! {
    /// Summary::merge is equivalent to sequential accumulation for any
    /// split point.
    #[test]
    fn summary_merge_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 1..300),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut whole = Summary::new();
        for &x in &xs { whole.record(x); }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..split] { a.record(x); }
        for &x in &xs[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance().abs()));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    /// Transfer time scales linearly with bytes and inversely with
    /// bandwidth.
    #[test]
    fn bandwidth_transfer_scaling(
        bytes in 1u64..(1 << 40),
        gbps in 0.01f64..100.0,
    ) {
        let bw = Bandwidth::from_gbps(gbps);
        let t1 = bw.transfer_time(Bytes::new(bytes));
        let t2 = bw.transfer_time(Bytes::new(bytes * 2));
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        prop_assert!((ratio - 2.0).abs() < 1e-6, "double bytes doubles time: {ratio}");
        let fast = Bandwidth::from_gbps(gbps * 2.0);
        let t3 = fast.transfer_time(Bytes::new(bytes));
        let ratio = t1.as_secs_f64() / t3.as_secs_f64();
        prop_assert!((ratio - 2.0).abs() < 1e-6, "double rate halves time: {ratio}");
    }

    /// Duration arithmetic never underflows/overflows (saturates).
    #[test]
    fn duration_arithmetic_total(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da && sum >= db);
        let diff = da - db;
        prop_assert!(diff <= da);
    }

    /// RNG streams are deterministic and uniform() stays in [0, 1).
    #[test]
    fn rng_determinism_and_range(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            let x = a.uniform();
            prop_assert_eq!(x, b.uniform());
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    /// Histogram quantiles are monotone in q.
    #[test]
    fn histogram_quantiles_monotone(xs in prop::collection::vec(0.001f64..1e6, 1..200)) {
        let mut h = Histogram::exponential(0.001, 2.0, 40);
        for &x in &xs { h.record(x); }
        let mut prev = 0.0f64;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= prev, "q={q}: {v} < {prev}");
            prev = v;
        }
    }
}
