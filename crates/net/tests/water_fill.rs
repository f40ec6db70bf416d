//! The link's cached, cap-sorted water-fill against the partition
//! algorithm, over seeded random arrivals and every drain after them.

mod oracle;

use ninja_sim::{Bandwidth, Bytes, SimDuration, SimRng, SimTime};
use oracle::CheckedLink;

#[test]
fn cached_rates_match_partition_water_fill() {
    let mut rng = SimRng::new(0xfa12_0001);
    for _ in 0..50 {
        let gbps = 1.0 + rng.uniform() * 39.0;
        let mut link = CheckedLink::new(Bandwidth::from_gbps(gbps));
        let n = 2 + (rng.next_u64() % 24) as usize;
        let mut at = SimTime::ZERO;
        for _ in 0..n {
            at += SimDuration::from_secs_f64(rng.uniform() * 3.0);
            let bytes = Bytes::new(1 + rng.next_u64() % (4 << 30));
            let cap = rng
                .chance(0.7)
                .then(|| Bandwidth::from_gbps(0.1 + rng.uniform() * gbps));
            link.open(at, bytes, cap);
        }
        while let Some(next) = link.link.next_completion() {
            link.advance_to(next);
        }
    }
}
