//! Unified message-cost model over the calibrated transports.
//!
//! The MPI byte-transfer layer asks one question of the network: *how long
//! does an n-byte message take between these two endpoints, and how much
//! host CPU does it burn?* [`CostModel`] answers with a LogGP-style
//! `latency + max(wire time, CPU time x contention)` composition.
//!
//! The CPU term is what reproduces Fig. 8's "2 hosts (TCP)" result: with
//! two 8-vCPU VMs consolidated on one 8-core host, the TCP stack's
//! per-byte CPU cost doubles in wall-clock terms, while RDMA traffic
//! (cpu_sec_per_byte = 0) would be unaffected.

use crate::calib::TransportCalib;
use ninja_sim::{Bandwidth, Bytes, SimDuration};

/// Which transport a message travels over. Ordered by typical preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransportKind {
    /// TCP/IP over an Ethernet (or IPoIB) device.
    Tcp,
    /// Native InfiniBand verbs via a VMM-bypass HCA.
    OpenIb,
    /// Intra-VM shared memory.
    SharedMemory,
    /// Loopback within a single process.
    SelfLoop,
}

impl TransportKind {
    /// The Open MPI BTL name of the transport (`tcp`, `openib`, `sm`,
    /// `self`), as reports and metric labels print it.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::OpenIb => "openib",
            TransportKind::SharedMemory => "sm",
            TransportKind::SelfLoop => "self",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-message cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageCost {
    /// Wall-clock time for the message to be delivered.
    pub elapsed: SimDuration,
    /// Host-CPU seconds consumed at each endpoint (protocol processing).
    pub cpu_seconds: f64,
}

/// The calibrated cost model for one transport.
#[derive(Debug, Clone)]
pub struct CostModel {
    kind: TransportKind,
    calib: TransportCalib,
}

impl CostModel {
    /// Creates a new instance.
    pub fn new(kind: TransportKind, calib: TransportCalib) -> Self {
        CostModel { kind, calib }
    }

    /// The kind.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Returns the latency.
    pub fn latency(&self) -> SimDuration {
        self.calib.latency
    }

    /// Returns the bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.calib.bandwidth
    }

    /// Returns the calib.
    pub fn calib(&self) -> &TransportCalib {
        &self.calib
    }

    /// Host-CPU seconds to process an `n`-byte message at one endpoint.
    pub fn cpu_seconds(&self, bytes: Bytes) -> f64 {
        self.calib.cpu_sec_per_msg + self.calib.cpu_sec_per_byte * bytes.as_f64()
    }

    /// Time and CPU for one point-to-point message, given a CPU-contention
    /// factor (`1.0` = dedicated cores, `2.0` = 2x over-commit, ...).
    ///
    /// Model: `latency + max(wire, cpu * contention)`. The wire and the CPU
    /// pipeline overlap for streamed messages, so the slower of the two
    /// gates throughput; contention stretches only the CPU side.
    pub fn message(&self, bytes: Bytes, cpu_contention: f64) -> MessageCost {
        assert!(cpu_contention >= 1.0, "contention factor is >= 1");
        let wire = self.calib.bandwidth.transfer_time(bytes);
        let cpu = self.cpu_seconds(bytes);
        let cpu_wall = SimDuration::from_secs_f64(cpu * cpu_contention);
        let elapsed = self.calib.latency + wire.max(cpu_wall);
        MessageCost {
            elapsed,
            cpu_seconds: cpu,
        }
    }
}

/// Pre-built cost models for the paper's testbed.
pub mod models {
    use super::*;
    use crate::calib;

    /// VMM-bypass QDR InfiniBand (normal operation on the IB cluster).
    pub fn openib() -> CostModel {
        CostModel::new(TransportKind::OpenIb, calib::infiniband_qdr())
    }

    /// TCP over virtio-net (fallback operation on the Ethernet cluster).
    pub fn tcp() -> CostModel {
        CostModel::new(TransportKind::Tcp, calib::tcp_virtio_10gbe())
    }

    /// TCP over IPoIB (forced-TCP on the IB cluster; migration channel).
    pub fn tcp_ipoib() -> CostModel {
        CostModel::new(TransportKind::Tcp, calib::tcp_ipoib())
    }

    /// Intra-VM shared memory.
    pub fn sm() -> CostModel {
        CostModel::new(TransportKind::SharedMemory, calib::shared_memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uncontended message time.
    fn message_time(model: &CostModel, bytes: Bytes) -> SimDuration {
        model.message(bytes, 1.0).elapsed
    }

    #[test]
    fn ib_beats_tcp_at_every_size() {
        let ib = models::openib();
        let tcp = models::tcp();
        for kib in [1u64, 64, 1024, 65536, 1 << 20] {
            let b = Bytes::from_kib(kib);
            assert!(
                message_time(&ib, b) < message_time(&tcp, b),
                "size {kib}KiB: ib {} vs tcp {}",
                message_time(&ib, b),
                message_time(&tcp, b)
            );
        }
    }

    #[test]
    fn latency_dominates_small_messages() {
        let tcp = models::tcp();
        let t = message_time(&tcp, Bytes::new(8));
        // within 10% of pure latency
        let lat = tcp.latency().as_secs_f64();
        assert!((t.as_secs_f64() - lat) / lat < 0.25, "{t}");
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let ib = models::openib();
        let b = Bytes::from_gib(1);
        let t = message_time(&ib, b).as_secs_f64();
        let wire = ib.bandwidth().transfer_time(b).as_secs_f64();
        assert!((t - wire).abs() / wire < 0.01, "{t} vs {wire}");
    }

    #[test]
    fn contention_slows_tcp_but_not_ib() {
        let tcp = models::tcp();
        let ib = models::openib();
        let b = Bytes::from_gib(1);
        let tcp1 = tcp.message(b, 1.0).elapsed;
        let tcp2 = tcp.message(b, 2.0).elapsed;
        assert!(tcp2 > tcp1, "over-commit must slow TCP: {tcp1} -> {tcp2}");
        let ib1 = ib.message(b, 1.0).elapsed;
        let ib2 = ib.message(b, 2.0).elapsed;
        assert_eq!(ib1, ib2, "RDMA is CPU-free, unaffected by over-commit");
    }

    #[test]
    fn cost_is_monotone_in_size() {
        for model in [models::openib(), models::tcp(), models::sm()] {
            let mut prev = SimDuration::ZERO;
            for mib in [1u64, 2, 4, 8, 16, 32] {
                let t = message_time(&model, Bytes::from_mib(mib));
                assert!(t >= prev, "{}: {t} < {prev}", model.kind());
                prev = t;
            }
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(models::openib().kind().to_string(), "openib");
        assert_eq!(models::tcp().kind().to_string(), "tcp");
        assert_eq!(models::sm().kind().to_string(), "sm");
    }
}
