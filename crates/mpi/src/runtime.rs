//! The MPI runtime: BTL module lifecycle across checkpoints and
//! migrations.
//!
//! Implements the guest-side half of Ninja migration exactly as Section
//! III-C describes it:
//!
//! 1. **pre-checkpoint** ([`MpiRuntime::release_network`]) — "Open MPI
//!    CRS releases all resources allocated on Infiniband devices": every
//!    QP is destroyed and (with `mpi_leave_pinned`) every MR
//!    deregistered, leaving the HCA safe to hot-unplug;
//! 2. **continue / restart** ([`MpiRuntime::continue_after`]) — "BTL
//!    modules are reconstructed and connections are re-established",
//!    choosing transports afresh by exclusivity, "so there are no
//!    problems even if Local IDs or Queue Pair Numbers are changed";
//! 3. the quirk the paper calls out: "if the TCP BTL module is only
//!    available for inter-node communication, BTL reconstruction is not
//!    executed" — TCP connections survive a live migration, so after a
//!    *recovery* migration nothing looks broken and the job would stay
//!    on TCP forever. Setting `ompi_cr_continue_like_restart`
//!    ([`MpiConfig::continue_like_restart`]) forces the rebuild that
//!    rediscovers InfiniBand.

use crate::btl::{BtlRegistry, Connection, Endpoint};
use crate::layout::{JobLayout, Rank};
use ninja_cluster::{DataCenter, DeviceId};
use ninja_net::{IbError, MrKey, TransportKind};
use ninja_sim::{Bytes, SimTime};
use ninja_vmm::{VmId, VmPool};
use std::collections::BTreeMap;
use std::fmt;

/// Runtime configuration (the paper's `mpirun` options).
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// `ompi_cr_continue_like_restart`: force BTL reconstruction on
    /// continue. The paper sets this so recovery migration switches back
    /// to InfiniBand.
    pub continue_like_restart: bool,
    /// `mpi_leave_pinned`: keep registered MRs across messages. The paper
    /// runs with `--mca mpi_leave_pinned 0`.
    pub leave_pinned: bool,
    /// Compiled-in BTL components (`--mca btl ...` restriction).
    pub registry: BtlRegistry,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            continue_like_restart: true,
            leave_pinned: false,
            registry: BtlRegistry::default(),
        }
    }
}

/// Errors from the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Two ranks have no mutually reachable BTL.
    /// Documented item.
    /// NoRoute.
    NoRoute {
        /// One endpoint of the unreachable pair.
        a: Rank,
        /// The other endpoint.
        b: Rank,
    },
    /// Operation in the wrong lifecycle state.
    NotActive,
    /// An InfiniBand verb failed.
    Ib(IbError),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::NoRoute { a, b } => write!(f, "no reachable BTL between {a} and {b}"),
            MpiError::NotActive => write!(f, "runtime is not in the Active state"),
            MpiError::Ib(e) => write!(f, "verbs error: {e}"),
        }
    }
}

impl std::error::Error for MpiError {}

impl From<IbError> for MpiError {
    fn from(e: IbError) -> Self {
        MpiError::Ib(e)
    }
}

/// Lifecycle state of the BTL machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeState {
    /// `MPI_Init` not yet run.
    Uninit,
    /// Modules built, connections live.
    Active,
    /// Pre-checkpoint executed: IB resources released, job quiesced.
    NetworkReleased,
}

/// Summary of a module build/reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Established connections per transport.
    pub by_kind: BTreeMap<TransportKind, usize>,
    /// The reconstruction epoch these connections belong to.
    pub epoch: u32,
}

impl BuildReport {
    /// Count for one kind (0 if absent).
    pub fn count(&self, kind: TransportKind) -> usize {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// The single inter-VM transport in use, if uniform.
    pub fn uniform_network_kind(&self) -> Option<TransportKind> {
        let nets: Vec<_> = self
            .by_kind
            .iter()
            .filter(|(k, n)| **n > 0 && matches!(k, TransportKind::OpenIb | TransportKind::Tcp))
            .map(|(k, _)| *k)
            .collect();
        match nets.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// Outcome of the continue/restart phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContinueOutcome {
    /// Modules were rebuilt (new epoch).
    Reconstructed(BuildReport),
    /// Existing (TCP) connections were still valid and were kept —
    /// the paper's "BTL reconstruction is not executed" case.
    KeptExisting,
}

/// Per-transport wire accounting: how many messages and bytes a job has
/// pushed over each transport kind.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Messages sent over this transport.
    pub messages: u64,
    /// Payload bytes sent over this transport.
    pub bytes: u64,
}

/// One in-flight point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflightMsg {
    /// The from.
    pub from: Rank,
    /// The to.
    pub to: Rank,
    /// The bytes.
    pub bytes: Bytes,
    /// The deliver at.
    pub deliver_at: SimTime,
}

/// The per-job MPI runtime.
#[derive(Debug)]
pub struct MpiRuntime {
    layout: JobLayout,
    config: MpiConfig,
    state: RuntimeState,
    epoch: u32,
    connections: BTreeMap<(u32, u32), Connection>,
    /// MRs pinned on behalf of openib connections (leave_pinned mode).
    pinned: Vec<(VmId, DeviceId, MrKey)>,
    next_port: u16,
    inflight: Vec<InflightMsg>,
    sent: u64,
    delivered: u64,
    wire: BTreeMap<TransportKind, TransportStats>,
}

impl MpiRuntime {
    /// Creates a new instance.
    pub fn new(layout: JobLayout, config: MpiConfig) -> Self {
        MpiRuntime {
            layout,
            config,
            state: RuntimeState::Uninit,
            epoch: 0,
            connections: BTreeMap::new(),
            pinned: Vec::new(),
            next_port: 1024,
            inflight: Vec::new(),
            sent: 0,
            delivered: 0,
            wire: BTreeMap::new(),
        }
    }

    /// Returns the layout.
    pub fn layout(&self) -> &JobLayout {
        &self.layout
    }

    /// Returns the config.
    pub fn config(&self) -> &MpiConfig {
        &self.config
    }

    /// Returns the state.
    pub fn state(&self) -> RuntimeState {
        self.state
    }

    /// Returns the epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// `MPI_Init`: build BTL modules and establish all connections.
    pub fn init(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<BuildReport, MpiError> {
        let report = self.build_connections(pool, dc, now)?;
        self.state = RuntimeState::Active;
        Ok(report)
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        p
    }

    /// Establish connections for every cross-process pair. Existing
    /// connections are torn down first (their IB resources must already
    /// have been released by `release_network`; sockets close silently).
    fn build_connections(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<BuildReport, MpiError> {
        self.connections.clear();
        self.epoch += 1;
        let epoch = self.epoch;
        let mut by_kind: BTreeMap<TransportKind, usize> = BTreeMap::new();
        let pairs: Vec<(Rank, Rank)> = self.layout.pairs().collect();
        for (a, b) in pairs {
            let kind = self
                .config
                .registry
                .select(&self.layout, a, b, pool, dc, now)
                .ok_or(MpiError::NoRoute { a, b })?;
            let va = self.layout.vm_of(a);
            let vb = self.layout.vm_of(b);
            let conn = match kind {
                TransportKind::SharedMemory | TransportKind::SelfLoop => Connection {
                    kind: TransportKind::SharedMemory,
                    endpoint: Endpoint::Sm,
                    epoch,
                    ib_devices: None,
                    vms: (va, vb),
                },
                TransportKind::Tcp => {
                    let a_port = self.alloc_port();
                    let b_port = self.alloc_port();
                    Connection {
                        kind,
                        endpoint: Endpoint::Tcp { a_port, b_port },
                        epoch,
                        ib_devices: None,
                        vms: (va, vb),
                    }
                }
                TransportKind::OpenIb => {
                    let (dev_a, ep_a) = Self::ib_endpoint(pool, dc, va, now)?;
                    let (dev_b, ep_b) = Self::ib_endpoint(pool, dc, vb, now)?;
                    // Cross-connect the queue pairs (RESET -> RTS).
                    dc.devices
                        .as_ib_mut(dev_a)
                        .expect("ib device")
                        .connect_qp(ep_a.1, ep_b)?;
                    dc.devices
                        .as_ib_mut(dev_b)
                        .expect("ib device")
                        .connect_qp(ep_b.1, ep_a)?;
                    if self.config.leave_pinned {
                        let eager = Bytes::from_mib(4);
                        let mr_a = dc.devices.as_ib_mut(dev_a).unwrap().register_mr(eager);
                        let mr_b = dc.devices.as_ib_mut(dev_b).unwrap().register_mr(eager);
                        self.pinned.push((va, dev_a, mr_a));
                        self.pinned.push((vb, dev_b, mr_b));
                    }
                    Connection {
                        kind,
                        endpoint: Endpoint::Ib { a: ep_a, b: ep_b },
                        epoch,
                        ib_devices: Some((dev_a, dev_b)),
                        vms: (va, vb),
                    }
                }
            };
            *by_kind.entry(conn.kind).or_insert(0) += 1;
            self.connections.insert((a.0, b.0), conn);
        }
        Ok(BuildReport { by_kind, epoch })
    }

    /// Create a QP on the VM's attached HCA and return (device, (lid, qpn)).
    fn ib_endpoint(
        pool: &VmPool,
        dc: &mut DataCenter,
        vm: VmId,
        now: SimTime,
    ) -> Result<(DeviceId, (ninja_net::Lid, ninja_net::QpNum)), MpiError> {
        let v = pool.get(vm);
        let dev = v
            .passthrough(&dc.devices)
            .find(|&d| {
                dc.devices
                    .as_ib(d)
                    .map(|h| h.is_active_at(now))
                    .unwrap_or(false)
            })
            .expect("selection guaranteed an active HCA");
        let cid = dc.cluster_of(v.node);
        let (lid, qpn) = dc
            .with_ib_fabric(cid, |fabric, devices| {
                let hca = devices.as_ib_mut(dev).expect("ib device");
                let lid = hca.lid().expect("plugged HCA has a LID");
                hca.create_qp(fabric, now).map(|q| (lid, q))
            })
            .expect("IB cluster")?;
        Ok((dev, (lid, qpn)))
    }

    /// The transport currently connecting two ranks (Sm for co-located,
    /// SelfLoop for a rank with itself).
    pub fn transport_between(&self, a: Rank, b: Rank) -> Option<TransportKind> {
        if a == b {
            return Some(TransportKind::SelfLoop);
        }
        let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.connections.get(&key).map(|c| c.kind)
    }

    /// Look up a connection (diagnostics/tests).
    pub fn connection(&self, a: Rank, b: Rank) -> Option<&Connection> {
        let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.connections.get(&key)
    }

    /// Connections per transport kind, live view.
    pub fn kind_census(&self) -> BTreeMap<TransportKind, usize> {
        let mut m = BTreeMap::new();
        for c in self.connections.values() {
            *m.entry(c.kind).or_insert(0) += 1;
        }
        m
    }

    /// The single inter-VM transport currently in use, if uniform.
    pub fn uniform_network_kind(&self) -> Option<TransportKind> {
        let mut kinds = self
            .connections
            .values()
            .filter(|c| matches!(c.kind, TransportKind::OpenIb | TransportKind::Tcp))
            .map(|c| c.kind);
        let first = kinds.next()?;
        if kinds.all(|k| k == first) {
            Some(first)
        } else {
            None
        }
    }

    /// **Pre-checkpoint phase** — release all InfiniBand resources so the
    /// HCAs can be detached safely. TCP sockets are left alone: they
    /// survive live migration. The job must be quiesced first (see
    /// [`crate::crcp`]); this method asserts there are no in-flight
    /// messages, because releasing QPs with data in flight loses it.
    pub fn release_network(&mut self, dc: &mut DataCenter, pool: &VmPool) -> Result<(), MpiError> {
        if self.state != RuntimeState::Active {
            return Err(MpiError::NotActive);
        }
        assert!(
            self.inflight.is_empty(),
            "release_network with {} in-flight messages: quiesce first",
            self.inflight.len()
        );
        // Deregister pinned MRs.
        for (_vm, dev, mr) in self.pinned.drain(..) {
            if let Some(hca) = dc.devices.as_ib_mut(dev) {
                // The MR may already be gone if the device was unplugged.
                let _ = hca.deregister_mr(mr);
            }
        }
        // Destroy QPs of every IB connection; drop the IB connections but
        // keep TCP/SM ones (they remain valid).
        let mut keep = BTreeMap::new();
        for (key, conn) in std::mem::take(&mut self.connections) {
            if let (TransportKind::OpenIb, Some((dev_a, dev_b))) = (conn.kind, conn.ib_devices) {
                if let Endpoint::Ib { a, b } = &conn.endpoint {
                    if let Some(h) = dc.devices.as_ib_mut(dev_a) {
                        let _ = h.destroy_qp(a.1);
                    }
                    if let Some(h) = dc.devices.as_ib_mut(dev_b) {
                        let _ = h.destroy_qp(b.1);
                    }
                }
            } else {
                keep.insert(key, conn);
            }
        }
        self.connections = keep;
        let _ = pool;
        self.state = RuntimeState::NetworkReleased;
        Ok(())
    }

    /// Would [`MpiRuntime::continue_after`] rebuild modules right now?
    /// True when connections are missing (openib modules were torn down
    /// pre-checkpoint) or `continue_like_restart` forces it. The
    /// orchestrator uses this to decide whether the application must
    /// wait out IB link training before it can resume.
    pub fn needs_reconstruction(&self) -> bool {
        let total_pairs = self.layout.pairs().count();
        self.connections.len() != total_pairs || self.config.continue_like_restart
    }

    /// **Continue/restart phase** — decide whether to rebuild modules.
    ///
    /// Reconstruction happens when (a) any pair is missing a connection
    /// (its openib module was torn down pre-checkpoint), or (b)
    /// `continue_like_restart` forces it. Otherwise the surviving TCP
    /// connections are kept as-is — the paper's recovery-migration trap.
    pub fn continue_after(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<ContinueOutcome, MpiError> {
        if self.state != RuntimeState::NetworkReleased {
            return Err(MpiError::NotActive);
        }
        let total_pairs = self.layout.pairs().count();
        let all_present = self.connections.len() == total_pairs;
        if all_present && !self.config.continue_like_restart {
            self.state = RuntimeState::Active;
            return Ok(ContinueOutcome::KeptExisting);
        }
        let report = self.build_connections(pool, dc, now)?;
        self.state = RuntimeState::Active;
        Ok(ContinueOutcome::Reconstructed(report))
    }

    /// **Restart** (BLCR-style checkpoint/restart): the processes come
    /// back inside *new* VMs restored from checkpoint images (same shape),
    /// in the state an image holds: no connections, nothing in flight,
    /// network released. The continue phase
    /// ([`MpiRuntime::continue_after`]) then rebuilds every connection.
    pub fn restore_onto(&mut self, new_vms: Vec<VmId>) {
        assert_eq!(
            new_vms.len(),
            self.layout.vms().len(),
            "restart preserves the job shape"
        );
        self.layout = JobLayout::new(new_vms, self.layout.procs_per_vm());
        self.connections.clear();
        self.inflight.clear();
        self.delivered = self.sent; // everything in the image is settled
        self.state = RuntimeState::NetworkReleased;
    }

    // ----- traffic accounting (used by the CRCP quiesce protocol) -----

    /// Record a message leaving rank `from` toward `to`.
    pub fn record_send(&mut self, from: Rank, to: Rank, bytes: Bytes, deliver_at: SimTime) {
        self.sent += 1;
        let kind = self
            .transport_between(from, to)
            .unwrap_or(TransportKind::SelfLoop);
        let stats = self.wire.entry(kind).or_default();
        stats.messages += 1;
        stats.bytes += bytes.get();
        self.inflight.push(InflightMsg {
            from,
            to,
            bytes,
            deliver_at,
        });
    }

    /// Mark every message due by `now` as delivered.
    pub fn deliver_due(&mut self, now: SimTime) {
        let before = self.inflight.len();
        self.inflight.retain(|m| m.deliver_at > now);
        self.delivered += (before - self.inflight.len()) as u64;
    }

    /// Number of messages still in flight.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// The latest delivery time among in-flight messages.
    pub fn inflight_horizon(&self) -> Option<SimTime> {
        self.inflight.iter().map(|m| m.deliver_at).max()
    }

    /// Message conservation: sent == delivered + in flight.
    pub fn conservation_holds(&self) -> bool {
        self.sent == self.delivered + self.inflight.len() as u64
    }

    /// Per-transport wire accounting accumulated by `record_send`.
    pub fn wire_census(&self) -> &BTreeMap<TransportKind, TransportStats> {
        &self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_cluster::StorageId;
    use ninja_sim::SimRng;
    use ninja_vmm::VmSpec;

    /// 4 VMs on the IB cluster, HCAs attached and trained, 1 rank each.
    fn ib_world(procs_per_vm: u32) -> (DataCenter, VmPool, MpiRuntime, SimTime, SimRng) {
        let (mut dc, ib, _eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(5);
        let mut vms = Vec::new();
        let mut ready = SimTime::ZERO;
        for i in 0..4 {
            let node = dc.cluster(ib).nodes[i];
            let vm = pool
                .create(
                    format!("vm{i}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            let (_, active_at) = pool
                .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            ready = ready.max(active_at);
            vms.push(vm);
        }
        let layout = JobLayout::new(vms, procs_per_vm);
        let rt = MpiRuntime::new(layout, MpiConfig::default());
        (dc, pool, rt, ready, rng)
    }

    #[test]
    fn init_selects_openib_on_ib_cluster() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(1);
        let report = rt.init(&pool, &mut dc, ready).unwrap();
        assert_eq!(report.count(TransportKind::OpenIb), 6, "C(4,2) pairs");
        assert_eq!(report.count(TransportKind::Tcp), 0);
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
    }

    #[test]
    fn init_uses_sm_within_vm() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(2);
        let report = rt.init(&pool, &mut dc, ready).unwrap();
        // 8 ranks total: 4 intra-VM pairs, 24 inter-VM pairs.
        assert_eq!(report.count(TransportKind::SharedMemory), 4);
        assert_eq!(report.count(TransportKind::OpenIb), 24);
    }

    #[test]
    fn init_before_linkup_falls_back_to_tcp() {
        let (mut dc, pool, mut rt, _ready, _) = ib_world(1);
        // At t=0 the HCAs are still polling: tcp is the only route.
        let report = rt.init(&pool, &mut dc, SimTime::ZERO).unwrap();
        assert_eq!(report.count(TransportKind::Tcp), 6);
        assert_eq!(report.count(TransportKind::OpenIb), 0);
    }

    #[test]
    fn release_then_continue_rebuilds_on_ib() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(1);
        rt.init(&pool, &mut dc, ready).unwrap();
        let conn_before = rt.connection(Rank(0), Rank(1)).unwrap().clone();
        rt.release_network(&mut dc, &pool).unwrap();
        assert_eq!(rt.state(), RuntimeState::NetworkReleased);
        // HCAs are now resource-free and detachable.
        for vm in pool.iter() {
            for d in vm.passthrough(&dc.devices) {
                assert!(!dc.devices.as_ib(d).unwrap().has_resources());
            }
        }
        let out = rt.continue_after(&pool, &mut dc, ready).unwrap();
        let report = match out {
            ContinueOutcome::Reconstructed(r) => r,
            o => panic!("expected rebuild, got {o:?}"),
        };
        assert_eq!(report.count(TransportKind::OpenIb), 6);
        let conn_after = rt.connection(Rank(0), Rank(1)).unwrap();
        assert_ne!(
            conn_before.endpoint, conn_after.endpoint,
            "QPNs change across reconstruction (Section III-C)"
        );
    }

    #[test]
    fn continue_without_flag_keeps_tcp() {
        let (mut dc, pool, mut rt, _ready, _) = ib_world(1);
        // Force TCP from the start (links still polling at t=0)...
        rt.config.continue_like_restart = false;
        rt.init(&pool, &mut dc, SimTime::ZERO).unwrap();
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
        rt.release_network(&mut dc, &pool).unwrap();
        // ...then continue once IB would be available: without the flag,
        // the surviving TCP connections mask the better transport.
        let later = SimTime::ZERO + ninja_sim::SimDuration::from_secs(60);
        let out = rt.continue_after(&pool, &mut dc, later).unwrap();
        assert_eq!(out, ContinueOutcome::KeptExisting);
        assert_eq!(
            rt.uniform_network_kind(),
            Some(TransportKind::Tcp),
            "stuck on TCP"
        );
    }

    #[test]
    fn continue_with_flag_rediscovers_ib() {
        let (mut dc, pool, mut rt, _ready, _) = ib_world(1);
        rt.init(&pool, &mut dc, SimTime::ZERO).unwrap(); // tcp epoch
        rt.release_network(&mut dc, &pool).unwrap();
        let later = SimTime::ZERO + ninja_sim::SimDuration::from_secs(60);
        let out = rt.continue_after(&pool, &mut dc, later).unwrap();
        match out {
            ContinueOutcome::Reconstructed(r) => {
                assert_eq!(r.count(TransportKind::OpenIb), 6, "back on InfiniBand");
            }
            o => panic!("expected rebuild, got {o:?}"),
        }
    }

    #[test]
    fn release_requires_quiesced_job() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(1);
        rt.init(&pool, &mut dc, ready).unwrap();
        rt.record_send(Rank(0), Rank(1), Bytes::from_kib(4), ready);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = rt.release_network(&mut dc, &pool);
        }));
        assert!(result.is_err(), "must panic on un-quiesced release");
    }

    #[test]
    fn traffic_conservation() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(1);
        rt.init(&pool, &mut dc, ready).unwrap();
        let later = ready + ninja_sim::SimDuration::from_secs(1);
        rt.record_send(Rank(0), Rank(1), Bytes::from_kib(64), later);
        rt.record_send(Rank(1), Rank(2), Bytes::from_kib(64), ready);
        assert!(rt.conservation_holds());
        assert_eq!(rt.inflight_count(), 2);
        rt.deliver_due(ready);
        assert_eq!(rt.inflight_count(), 1);
        assert!(rt.conservation_holds());
        rt.deliver_due(later);
        assert_eq!(rt.inflight_count(), 0);
        assert!(rt.conservation_holds());
    }

    #[test]
    fn wire_census_tracks_transport_and_latency() {
        let (mut dc, pool, mut rt, ready, _) = ib_world(1);
        rt.init(&pool, &mut dc, ready).unwrap();
        let later = ready + ninja_sim::SimDuration::from_millis(2);
        rt.record_send(Rank(0), Rank(1), Bytes::from_kib(64), later);
        rt.record_send(Rank(2), Rank(2), Bytes::from_kib(1), ready);
        let census = rt.wire_census();
        let ib = &census[&TransportKind::OpenIb];
        assert_eq!(ib.messages, 1);
        assert_eq!(ib.bytes, Bytes::from_kib(64).get());
        let lo = &census[&TransportKind::SelfLoop];
        assert_eq!(lo.messages, 1);
        rt.deliver_due(later);
    }

    #[test]
    fn leave_pinned_registers_and_releases_mrs() {
        let (mut dc, pool, _, ready, _) = ib_world(1);
        let layout = JobLayout::new(pool.ids().collect(), 1);
        let cfg = MpiConfig {
            leave_pinned: true,
            ..MpiConfig::default()
        };
        let mut rt = MpiRuntime::new(layout, cfg);
        rt.init(&pool, &mut dc, ready).unwrap();
        let pinned_total: u64 = pool
            .iter()
            .flat_map(|v| v.passthrough(&dc.devices))
            .map(|d| dc.devices.as_ib(d).unwrap().pinned_bytes().get())
            .sum();
        assert!(pinned_total > 0, "leave_pinned pins eager buffers");
        rt.release_network(&mut dc, &pool).unwrap();
        let pinned_after: u64 = pool
            .iter()
            .flat_map(|v| v.passthrough(&dc.devices))
            .map(|d| dc.devices.as_ib(d).unwrap().pinned_bytes().get())
            .sum();
        assert_eq!(pinned_after, 0, "pre-checkpoint released every MR");
    }

    #[test]
    fn mixed_cluster_job_has_no_uniform_kind() {
        // 2 VMs on IB (trained) + 2 on Ethernet: inter-cluster pairs use
        // tcp, IB-internal pairs use openib -> census is mixed.
        let (mut dc, ib, eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(9);
        let mut vms = Vec::new();
        let mut ready = SimTime::ZERO;
        for i in 0..2 {
            let vm = pool
                .create(
                    format!("ib{i}"),
                    VmSpec::paper_vm(),
                    dc.cluster(ib).nodes[i],
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            let (_, at) = pool
                .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            ready = ready.max(at);
            vms.push(vm);
        }
        for i in 0..2 {
            let vm = pool
                .create(
                    format!("eth{i}"),
                    VmSpec::paper_vm(),
                    dc.cluster(eth).nodes[i],
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            vms.push(vm);
        }
        let mut rt = MpiRuntime::new(JobLayout::new(vms, 1), MpiConfig::default());
        let report = rt.init(&pool, &mut dc, ready).unwrap();
        assert_eq!(report.count(TransportKind::OpenIb), 1, "the one IB-IB pair");
        assert_eq!(report.count(TransportKind::Tcp), 5);
        assert_eq!(rt.uniform_network_kind(), None);
    }
}
