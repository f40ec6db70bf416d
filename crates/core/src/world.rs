//! Scenario world: the bundle of simulated state a scenario runs over.
//!
//! [`World`] owns the data center, the VM pool, the snapshot store, the
//! RNG, the trace, and the virtual clock, and provides the setup helpers
//! every experiment starts from (boot VMs on a cluster, attach HCAs,
//! wait for link training, start an MPI job).

use crate::stepper::MigrationSeries;
use ninja_cluster::{ClusterId, DataCenter, NodeId, StorageId};
use ninja_mpi::{CommEnv, JobLayout, MpiConfig, MpiRuntime};
use ninja_sim::{
    MetricsRegistry, SeriesId, SimDuration, SimRng, SimTime, TimeSeriesRecorder, Trace, TraceLevel,
};
use ninja_symvirt::{FaultPlan, SymVirtError, VmSpan};
use ninja_vmm::{SnapshotStore, VmId, VmPool, VmSpec};

/// All mutable simulation state for one scenario.
#[derive(Debug)]
pub struct World {
    /// The physical data center.
    pub dc: DataCenter,
    /// All VMs.
    pub pool: VmPool,
    /// The checkpoint images on the shared NFS export.
    pub snapshots: SnapshotStore,
    /// Scenario RNG (forked per subsystem as needed).
    pub rng: SimRng,
    /// Structured trace (typed spans feed the benchmark harness and the
    /// Chrome-trace exporter).
    pub trace: Trace,
    /// Labeled counters/gauges/histograms (Prometheus exposition).
    /// Replacing the registry mid-run invalidates the cached
    /// per-migration series ids kept beside it.
    pub metrics: MetricsRegistry,
    /// Series ids of the per-migration metrics in `metrics`.
    pub(crate) migration_series: MigrationSeries,
    /// Reused phase × VM bitmap of the per-VM spans one migration has
    /// recorded (one byte per VM, one bit per phase).
    pub(crate) covered: Vec<u8>,
    /// Buffers for the controller's per-VM intervals, returned by the
    /// migrations that recorded them into the trace for the next ones
    /// to reuse (one per migration in flight at once).
    pub(crate) span_bufs: Vec<Vec<VmSpan>>,
    /// The virtual clock. Private so that only [`World::advance_to`]
    /// moves it, and only forwards.
    clock: SimTime,
    /// The IB cluster id (AGC layout).
    pub ib_cluster: ClusterId,
    /// The Ethernet cluster id (AGC layout).
    pub eth_cluster: ClusterId,
    /// Injected faults the migration stepper consults before each
    /// phase. Empty by default — an empty plan fires nothing, draws no
    /// randomness, and leaves every run bit-identical.
    pub faults: FaultPlan,
    /// Optional virtual-time metric scraper. `None` by default — with
    /// no recorder installed, clock advancement is exactly the old
    /// `max(clock, t)` and every run stays bit-identical.
    pub recorder: Option<TimeSeriesRecorder>,
}

impl World {
    /// Build the paper's AGC testbed with the given seed.
    pub fn agc(seed: u64) -> Self {
        let (dc, ib, eth) = DataCenter::agc();
        World {
            dc,
            pool: VmPool::new(),
            snapshots: SnapshotStore::new(),
            rng: SimRng::new(seed),
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            migration_series: MigrationSeries::default(),
            covered: Vec::new(),
            span_bufs: Vec::new(),
            clock: SimTime::ZERO,
            ib_cluster: ib,
            eth_cluster: eth,
            faults: FaultPlan::new(),
            recorder: None,
        }
    }

    /// Same, but with tracing disabled (for long property-test runs).
    pub fn agc_untraced(seed: u64) -> Self {
        let mut w = World::agc(seed);
        w.trace = Trace::disabled();
        w
    }

    /// Build a world over a custom data center. `primary` plays the role
    /// of the "IB cluster" in the boot helpers and `secondary` the
    /// "Ethernet cluster" — for Fig. 6's setup both may be InfiniBand.
    pub fn from_parts(dc: DataCenter, primary: ClusterId, secondary: ClusterId, seed: u64) -> Self {
        World {
            dc,
            pool: VmPool::new(),
            snapshots: SnapshotStore::new(),
            rng: SimRng::new(seed),
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            migration_series: MigrationSeries::default(),
            covered: Vec::new(),
            span_bufs: Vec::new(),
            clock: SimTime::ZERO,
            ib_cluster: primary,
            eth_cluster: secondary,
            faults: FaultPlan::new(),
            recorder: None,
        }
    }

    /// Node `i` of an arbitrary cluster.
    pub fn cluster_node(&self, cluster: ClusterId, i: usize) -> NodeId {
        self.dc.cluster(cluster).nodes[i]
    }

    /// The current virtual time.
    #[inline]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advance the clock by `d`, never backwards.
    pub fn advance(&mut self, d: SimDuration) {
        let t = self.clock + d;
        self.advance_to(t);
    }

    /// Advance the clock to `t` if it is later than now, draining the
    /// data center's migration fabric to the same instant: the world
    /// clock is the fabric's clock. With a recorder installed, every
    /// scrape instant between the old and new clock is snapshotted
    /// first (a scrape at virtual time `s` sees the registry as of the
    /// last event before `s`).
    pub fn advance_to(&mut self, t: SimTime) {
        let t = self.clock.max(t);
        if let Some(rec) = self.recorder.as_mut() {
            rec.advance_to(t, &mut self.metrics, &mut self.trace);
        }
        self.clock = t;
        self.dc.migration_fabric.advance_to(t);
    }

    /// Advance to the migration fabric's next drain: a serial driver's
    /// answer to [`StepOutcome::OnLink`](crate::StepOutcome::OnLink).
    /// Fails with [`SymVirtError::ClockExhausted`] when no stream can
    /// drain before the end of the clock.
    pub fn advance_to_next_drain(&mut self) -> Result<(), SymVirtError> {
        match self.dc.migration_fabric.next_completion() {
            Some(t) if t < SimTime::MAX => {
                self.advance_to(t);
                Ok(())
            }
            _ => Err(SymVirtError::ClockExhausted),
        }
    }

    /// Installs a time-series recorder, performing its baseline scrape
    /// at the current clock. Subsequent [`World::advance`] /
    /// [`World::advance_to`] calls drive the scrapes.
    pub fn install_recorder(&mut self, mut rec: TimeSeriesRecorder) {
        rec.start_at(self.clock, &mut self.metrics, &mut self.trace);
        self.recorder = Some(rec);
    }

    /// Drains the recorder at end of run: one trailing scrape for the
    /// terminal registry state, plus (bounded) extra scrapes while
    /// alerts are still firing so rate/burn rules can resolve.
    /// Idempotent; a no-op without a recorder.
    pub fn finish_recorder(&mut self) {
        if let Some(mut rec) = self.recorder.take() {
            rec.finish(&mut self.metrics, &mut self.trace);
            self.recorder = Some(rec);
        }
    }

    /// IB-cluster node `i`.
    pub fn ib_node(&self, i: usize) -> NodeId {
        let nodes = &self.dc.cluster(self.ib_cluster).nodes;
        assert!(
            i < nodes.len(),
            "IB cluster has {} nodes, asked for {i}",
            nodes.len()
        );
        nodes[i]
    }

    /// Ethernet-cluster node `i`.
    pub fn eth_node(&self, i: usize) -> NodeId {
        let nodes = &self.dc.cluster(self.eth_cluster).nodes;
        assert!(
            i < nodes.len(),
            "secondary cluster has {} nodes, asked for {i}",
            nodes.len()
        );
        nodes[i]
    }

    /// Boot `n` paper-shaped VMs on the IB cluster (one per node), pass
    /// an HCA through to each, and advance the clock past link training
    /// so the job can start on InfiniBand. Returns the VM ids.
    pub fn boot_ib_vms(&mut self, n: usize) -> Vec<VmId> {
        let mut vms = Vec::with_capacity(n);
        let mut ready = self.clock;
        for i in 0..n {
            let node = self.ib_node(i);
            let vm = self
                .pool
                .create(
                    format_args!("vm{i}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut self.dc,
                )
                .expect("AGC node holds one paper VM");
            let (_, active_at) = self
                .pool
                .attach_ib_hca(vm, &mut self.dc, self.clock, &mut self.rng)
                .expect("AGC IB node has a free HCA");
            ready = ready.max(active_at);
            vms.push(vm);
        }
        self.advance_to(ready);
        if self.trace.is_enabled() {
            self.trace
                .add_instant("world", "boot.ib", self.clock, TraceLevel::Info)
                .label_fmt(
                    "detail",
                    format_args!("{n} VMs on InfiniBand, links trained"),
                );
        }
        vms
    }

    /// Boot `n` paper-shaped VMs on the Ethernet cluster (one per node).
    pub fn boot_eth_vms(&mut self, n: usize) -> Vec<VmId> {
        let mut vms = Vec::with_capacity(n);
        for i in 0..n {
            let node = self.eth_node(i);
            let vm = self
                .pool
                .create(
                    format_args!("vm{i}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut self.dc,
                )
                .expect("AGC node holds one paper VM");
            vms.push(vm);
        }
        if self.trace.is_enabled() {
            self.trace
                .add_instant("world", "boot.eth", self.clock, TraceLevel::Info)
                .label_fmt("detail", format_args!("{n} VMs on Ethernet"));
        }
        vms
    }

    /// Start an MPI job over `vms` with `procs_per_vm` ranks each, using
    /// the default (paper) runtime configuration.
    pub fn start_job(&mut self, vms: Vec<VmId>, procs_per_vm: u32) -> MpiRuntime {
        self.start_job_with(vms, procs_per_vm, MpiConfig::default())
    }

    /// Start an MPI job with an explicit runtime configuration.
    pub fn start_job_with(
        &mut self,
        vms: Vec<VmId>,
        procs_per_vm: u32,
        config: MpiConfig,
    ) -> MpiRuntime {
        let layout = JobLayout::new(vms, procs_per_vm);
        let mut rt = MpiRuntime::new(layout, config);
        let report = rt
            .init(&self.pool, &mut self.dc, self.clock)
            .expect("connected cluster");
        if self.trace.is_enabled() {
            let ranks = rt.layout().total_ranks();
            self.trace
                .add_instant("mpi", "job.launched", self.clock, TraceLevel::Info)
                .label_fmt(
                    "detail",
                    format_args!("{ranks} ranks, transports {:?}", report.by_kind),
                );
        }
        rt
    }

    /// Snapshot the communication environment (CPU contention, NIC
    /// sharing) for the current placement.
    pub fn comm_env(&self) -> CommEnv {
        CommEnv::from_world(&self.pool, &self.dc)
    }

    /// Fold the runtimes' per-transport wire censuses into the metrics
    /// registry: message and byte counters per transport kind. The
    /// metrics are described and each series is resolved once per call,
    /// however many runtimes it folds in.
    pub fn record_wire_metrics<'a>(&mut self, runtimes: impl IntoIterator<Item = &'a MpiRuntime>) {
        let m = &mut self.metrics;
        m.describe(
            "ninja_mpi_messages_total",
            "MPI messages sent, by transport",
        );
        m.describe(
            "ninja_mpi_message_bytes_total",
            "MPI payload bytes sent, by transport",
        );
        // Per transport kind: the message and byte series, each resolved
        // where its first write is.
        let mut ids = [[None::<SeriesId>; 2]; 4];
        for rt in runtimes {
            for (&kind, stats) in rt.wire_census() {
                let labels = [("transport", kind.name())];
                let [messages, bytes] = &mut ids[kind as usize];
                let id = *messages
                    .get_or_insert_with(|| m.counter_id("ninja_mpi_messages_total", &labels));
                m.add(id, stats.messages);
                let id = *bytes
                    .get_or_insert_with(|| m.counter_id("ninja_mpi_message_bytes_total", &labels));
                m.add(id, stats.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_net::TransportKind;

    #[test]
    fn boot_ib_vms_trains_links() {
        let mut w = World::agc(1);
        let vms = w.boot_ib_vms(4);
        assert_eq!(vms.len(), 4);
        // Clock advanced past the ~30 s training.
        assert!(w.clock().as_secs_f64() > 29.0);
        for &vm in &vms {
            let t = w.pool.available_transports(vm, &w.dc, w.clock());
            assert!(t.contains(&TransportKind::OpenIb));
        }
    }

    #[test]
    fn job_on_ib_uses_openib() {
        let mut w = World::agc(2);
        let vms = w.boot_ib_vms(4);
        let rt = w.start_job(vms, 1);
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
    }

    #[test]
    fn job_on_eth_uses_tcp() {
        let mut w = World::agc(3);
        let vms = w.boot_eth_vms(4);
        let rt = w.start_job(vms, 1);
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
    }

    #[test]
    fn clock_never_reverses() {
        let mut w = World::agc(4);
        w.advance(SimDuration::from_secs(10));
        w.advance_to(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(w.clock().as_secs_f64(), 10.0);
    }
}
