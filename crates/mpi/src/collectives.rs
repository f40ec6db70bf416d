//! Point-to-point and collective communication cost engine.
//!
//! Computes the wall-clock time of MPI operations over whatever BTL
//! connections the runtime currently holds — so the *same benchmark
//! code* runs faster on InfiniBand and slower on TCP, and slower still
//! under CPU over-commit, exactly the behaviour Fig. 8 plots.
//!
//! Collectives use binomial trees (Open MPI's default `tuned` decision
//! for these sizes), with per-round costs taken as the maximum over the
//! concurrent transfers of the round.

use crate::layout::Rank;
use crate::runtime::MpiRuntime;
use ninja_cluster::DataCenter;
use ninja_net::TransportKind;
use ninja_sim::{Bytes, SimDuration};
use ninja_vmm::{VmId, VmPool};
use std::collections::BTreeMap;

/// Per-VM execution environment affecting communication cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmEnv {
    /// CPU over-commit factor of the hosting node (>= 1).
    pub cpu_contention: f64,
    /// Number of VMs sharing the hosting node's NIC (>= 1).
    pub nic_share: u32,
    /// The VM sits on an InfiniBand cluster, so its TCP traffic rides
    /// IPoIB (faster than virtio 10 GbE) rather than the Ethernet NIC.
    pub ipoib: bool,
}

impl Default for VmEnv {
    fn default() -> Self {
        VmEnv {
            cpu_contention: 1.0,
            nic_share: 1,
            ipoib: false,
        }
    }
}

/// Where the cost model reads each VM's environment: a [`CommEnv`]
/// snapshot, or the current placement itself through a [`LiveEnv`].
pub trait EnvSource {
    /// The environment of `vm`.
    fn env(&self, vm: VmId) -> VmEnv;
}

/// What the placement in `pool` and `dc` gives VM `id`.
fn placement_env(pool: &VmPool, dc: &DataCenter, id: VmId) -> VmEnv {
    let vm = pool.get(id);
    VmEnv {
        cpu_contention: dc.node(vm.node).cpu_contention(),
        nic_share: pool.residents_on(vm.node).max(1),
        ipoib: dc.fabric_at(vm.node) == ninja_cluster::FabricKind::Infiniband,
    }
}

/// Environment snapshot for a whole job.
#[derive(Debug, Clone, Default)]
pub struct CommEnv {
    per_vm: BTreeMap<u32, VmEnv>,
}

impl CommEnv {
    /// Everything dedicated (unit factors).
    pub fn dedicated() -> Self {
        CommEnv::default()
    }

    /// Snapshot the environment from the current VM placement: CPU
    /// contention from each node's vCPU commitment, NIC share from the
    /// number of co-resident VMs.
    pub fn from_world(pool: &VmPool, dc: &DataCenter) -> Self {
        let per_vm = pool
            .iter()
            .map(|vm| (vm.id.0, placement_env(pool, dc, vm.id)));
        CommEnv {
            per_vm: per_vm.collect(),
        }
    }

    /// Set one VM's environment explicitly (tests, what-if analyses).
    pub fn set(&mut self, vm: VmId, env: VmEnv) {
        self.per_vm.insert(vm.0, env);
    }
}

impl EnvSource for CommEnv {
    /// The snapshot's entry for `vm`; the default environment outside it.
    fn env(&self, vm: VmId) -> VmEnv {
        self.per_vm.get(&vm.0).copied().unwrap_or_default()
    }
}

/// The environment of the current placement, read VM by VM when asked:
/// what [`CommEnv::from_world`] would snapshot, with no snapshot. Use
/// it on per-job paths that cost at one instant (a migration's
/// quiesce): a job's collectives consult only its own VMs, so nothing
/// is built for the rest of the pool, and nothing is allocated.
#[derive(Debug, Clone, Copy)]
pub struct LiveEnv<'a> {
    /// The VMs and where they run.
    pub pool: &'a VmPool,
    /// The nodes and fabrics they run on.
    pub dc: &'a DataCenter,
}

impl EnvSource for LiveEnv<'_> {
    fn env(&self, vm: VmId) -> VmEnv {
        placement_env(self.pool, self.dc, vm)
    }
}

/// Segment size for pipelined collectives (Open MPI's default segment).
pub const PIPELINE_SEGMENT: Bytes = Bytes::from_kib(128);

/// Effective GFLOP/s of one vCPU for reduction arithmetic (Nehalem-era
/// core doing streaming adds).
const REDUCE_FLOPS_PER_SEC: f64 = 2.0e9;
/// Bytes per reduction element (double precision).
const REDUCE_ELEM_BYTES: f64 = 8.0;

fn ceil_log2(n: u32) -> u32 {
    debug_assert!(n > 0);
    32 - (n - 1).leading_zeros()
}

impl MpiRuntime {
    /// Wall-clock time of one point-to-point message between two ranks
    /// over the currently established connection.
    pub fn p2p_time(&self, a: Rank, b: Rank, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        let kind = self
            .transport_between(a, b)
            .expect("ranks are connected after init");
        if kind == TransportKind::SelfLoop {
            // In-process handoff: a memcpy.
            return ninja_net::models::sm()
                .message(bytes, 1.0)
                .elapsed
                .mul_f64(0.5);
        }
        let va = self.layout().vm_of(a);
        let vb = self.layout().vm_of(b);
        let ea = env.env(va);
        let eb = env.env(vb);
        let contention = ea.cpu_contention.max(eb.cpu_contention);
        let share = ea.nic_share.max(eb.nic_share);
        let model = match kind {
            TransportKind::OpenIb => ninja_net::models::openib(),
            // TCP between two IB-cluster VMs rides IPoIB; anywhere else
            // it is virtio over the 10 GbE network.
            TransportKind::Tcp if ea.ipoib && eb.ipoib => ninja_net::models::tcp_ipoib(),
            TransportKind::Tcp => ninja_net::models::tcp(),
            TransportKind::SharedMemory | TransportKind::SelfLoop => ninja_net::models::sm(),
        };
        // NIC sharing stretches the wire term only (compute it as the
        // message cost with bandwidth derated by the share count).
        let derated = if share > 1 && kind != TransportKind::SharedMemory {
            ninja_net::CostModel::new(
                kind,
                ninja_net::TransportCalib {
                    bandwidth: model.bandwidth().scale(1.0 / share as f64),
                    ..model.calib().clone()
                },
            )
        } else {
            model
        };
        derated.message(bytes, contention).elapsed
    }

    /// Pipelined (chain) broadcast: the payload is cut into
    /// [`PIPELINE_SEGMENT`]-sized segments streamed down a rank chain.
    /// Latency-heavy for small messages, but asymptotically
    /// bandwidth-optimal for large ones — the algorithm Open MPI's
    /// `tuned` component switches to above ~128 KiB.
    pub fn bcast_time_pipelined(
        &self,
        root: Rank,
        bytes: Bytes,
        env: &impl EnvSource,
    ) -> SimDuration {
        let p = self.layout().total_ranks();
        if p <= 1 || bytes.is_zero() {
            return SimDuration::ZERO;
        }
        let segments = bytes.get().div_ceil(PIPELINE_SEGMENT.get()).max(1);
        let seg_bytes = Bytes::new(bytes.get().div_ceil(segments));
        // The chain visits ranks in order from the root; the slowest
        // link paces the pipeline.
        let mut seg_time = SimDuration::ZERO;
        for i in 0..(p - 1) {
            let a = Rank((root.0 + i) % p);
            let b = Rank((root.0 + i + 1) % p);
            seg_time = seg_time.max(self.p2p_time(a, b, seg_bytes, env));
        }
        // Fill + drain: (S + P - 2) stages.
        seg_time * (segments + p as u64 - 2)
    }

    /// Binomial-tree broadcast of `bytes` from `root`.
    pub fn bcast_time(&self, root: Rank, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        let p = self.layout().total_ranks();
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let mut total = SimDuration::ZERO;
        for k in 0..ceil_log2(p) {
            let stride = 1u32 << k;
            let mut round_max = SimDuration::ZERO;
            for i in 0..stride {
                let j = i + stride;
                if j >= p {
                    break;
                }
                let a = Rank((root.0 + i) % p);
                let b = Rank((root.0 + j) % p);
                round_max = round_max.max(self.p2p_time(a, b, bytes, env));
            }
            total += round_max;
        }
        total
    }

    /// Binomial-tree reduction of `bytes` to `root` (communication
    /// mirror of broadcast plus the arithmetic at each combining step).
    pub fn reduce_time(&self, root: Rank, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        let p = self.layout().total_ranks();
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let mut total = SimDuration::ZERO;
        for k in (0..ceil_log2(p)).rev() {
            let stride = 1u32 << k;
            let mut round_max = SimDuration::ZERO;
            for i in 0..stride {
                let j = i + stride;
                if j >= p {
                    break;
                }
                let a = Rank((root.0 + i) % p);
                let b = Rank((root.0 + j) % p);
                let comm = self.p2p_time(a, b, bytes, env);
                let contention = env.env(self.layout().vm_of(a)).cpu_contention;
                let flops = bytes.as_f64() / REDUCE_ELEM_BYTES;
                let arith = SimDuration::from_secs_f64(flops / REDUCE_FLOPS_PER_SEC * contention);
                round_max = round_max.max(comm + arith);
            }
            total += round_max;
        }
        total
    }

    /// Allreduce = reduce to rank 0 + broadcast from rank 0.
    pub fn allreduce_time(&self, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        self.reduce_time(Rank(0), bytes, env) + self.bcast_time(Rank(0), bytes, env)
    }

    /// Barrier: binomial fan-in plus fan-out of empty messages.
    pub fn barrier_time(&self, env: &impl EnvSource) -> SimDuration {
        let probe = Bytes::new(0);
        self.reduce_time(Rank(0), probe, env) + self.bcast_time(Rank(0), probe, env)
    }

    /// All-to-all personalized exchange, `bytes` per rank pair
    /// (pairwise-exchange algorithm: P-1 rounds).
    pub fn alltoall_time(&self, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        let p = self.layout().total_ranks();
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let mut total = SimDuration::ZERO;
        for round in 1..p {
            let mut round_max = SimDuration::ZERO;
            for i in 0..p {
                let j = i ^ round;
                if j < p && i < j {
                    round_max = round_max.max(self.p2p_time(Rank(i), Rank(j), bytes, env));
                }
            }
            total += round_max;
        }
        total
    }

    /// Nearest-neighbour halo exchange along a ring: every rank swaps
    /// `bytes` with both neighbours (two concurrent-phase rounds).
    pub fn ring_exchange_time(&self, bytes: Bytes, env: &impl EnvSource) -> SimDuration {
        let p = self.layout().total_ranks();
        if p <= 1 {
            return SimDuration::ZERO;
        }
        let mut phase_even = SimDuration::ZERO;
        let mut phase_odd = SimDuration::ZERO;
        for i in 0..p {
            let j = (i + 1) % p;
            let t = self.p2p_time(Rank(i), Rank(j), bytes, env);
            if i % 2 == 0 {
                phase_even = phase_even.max(t);
            } else {
                phase_odd = phase_odd.max(t);
            }
        }
        phase_even + phase_odd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::JobLayout;
    use crate::runtime::MpiConfig;
    use ninja_cluster::StorageId;
    use ninja_sim::{SimRng, SimTime};
    use ninja_vmm::{VmPool, VmSpec};

    fn world(
        on_ib: bool,
        vms_n: usize,
        procs_per_vm: u32,
    ) -> (MpiRuntime, CommEnv, DataCenter, VmPool) {
        let (mut dc, ib, eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(21);
        let mut vms = Vec::new();
        let mut ready = SimTime::ZERO;
        for i in 0..vms_n {
            let node = if on_ib {
                dc.cluster(ib).nodes[i]
            } else {
                dc.cluster(eth).nodes[i]
            };
            let vm = pool
                .create(
                    format!("vm{i}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            if on_ib {
                let (_, at) = pool
                    .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                    .unwrap();
                ready = ready.max(at);
            }
            vms.push(vm);
        }
        let mut rt = MpiRuntime::new(JobLayout::new(vms, procs_per_vm), MpiConfig::default());
        rt.init(&pool, &mut dc, ready).unwrap();
        let env = CommEnv::from_world(&pool, &dc);
        (rt, env, dc, pool)
    }

    #[test]
    fn ib_collectives_beat_tcp() {
        let (ib_rt, ib_env, _, _) = world(true, 4, 1);
        let (tcp_rt, tcp_env, _, _) = world(false, 4, 1);
        let data = Bytes::from_gib(1);
        let t_ib = ib_rt.bcast_time(Rank(0), data, &ib_env);
        let t_tcp = tcp_rt.bcast_time(Rank(0), data, &tcp_env);
        assert!(
            t_tcp.as_secs_f64() > 2.0 * t_ib.as_secs_f64(),
            "tcp {t_tcp} vs ib {t_ib}"
        );
    }

    #[test]
    fn bcast_scales_with_log_p() {
        let (rt2, env, _, _) = world(true, 2, 1);
        let (rt4, env4, _, _) = world(true, 4, 1);
        let data = Bytes::from_mib(64);
        let t2 = rt2.bcast_time(Rank(0), data, &env);
        let t4 = rt4.bcast_time(Rank(0), data, &env4);
        // log2(4)/log2(2) = 2 rounds vs 1.
        let ratio = t4.as_secs_f64() / t2.as_secs_f64();
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn collectives_monotone_in_size() {
        let (rt, env, _, _) = world(true, 4, 1);
        let mut prev = SimDuration::ZERO;
        for mib in [1u64, 4, 16, 64, 256] {
            let t = rt.allreduce_time(Bytes::from_mib(mib), &env);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn barrier_is_cheap() {
        let (rt, env, _, _) = world(true, 4, 1);
        let t = rt.barrier_time(&env);
        assert!(t.as_secs_f64() < 1e-3, "barrier {t}");
    }

    #[test]
    fn consolidation_slows_tcp_iterations() {
        // 4 VMs spread over 4 Ethernet hosts vs packed onto 2 hosts:
        // the packed layout over-commits CPUs 2:1 and shares NICs,
        // reproducing the Fig. 8 "2 hosts (TCP)" hump.
        let (mut dc, _, eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut vms = Vec::new();
        for i in 0..4 {
            // Packed: two VMs per node.
            let node = dc.cluster(eth).nodes[i / 2];
            let vm = pool
                .create(
                    format!("vm{i}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            vms.push(vm);
        }
        let mut rt = MpiRuntime::new(JobLayout::new(vms, 8), MpiConfig::default());
        rt.init(&pool, &mut dc, SimTime::ZERO).unwrap();
        let packed_env = CommEnv::from_world(&pool, &dc);
        let (spread_rt, spread_env, _, _) = world(false, 4, 8);
        let data = Bytes::from_gib(1);
        let packed = rt.bcast_time(Rank(0), data, &packed_env);
        let spread = spread_rt.bcast_time(Rank(0), data, &spread_env);
        assert!(
            packed.as_secs_f64() > 1.5 * spread.as_secs_f64(),
            "packed {packed} vs spread {spread}"
        );
    }

    #[test]
    fn alltoall_heavier_than_bcast() {
        let (rt, env, _, _) = world(true, 4, 1);
        let data = Bytes::from_mib(16);
        assert!(rt.alltoall_time(data, &env) > rt.bcast_time(Rank(0), data, &env));
    }

    #[test]
    fn ring_exchange_two_phases() {
        let (rt, env, _, _) = world(true, 4, 1);
        let data = Bytes::from_mib(8);
        let ring = rt.ring_exchange_time(data, &env);
        let single = rt.p2p_time(Rank(0), Rank(1), data, &env);
        let ratio = ring.as_secs_f64() / single.as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pipelined_bcast_wins_for_large_payloads() {
        let (rt, env, _, _) = world(true, 4, 1);
        let big = Bytes::from_gib(8);
        let binomial = rt.bcast_time(Rank(0), big, &env);
        let pipelined = rt.bcast_time_pipelined(Rank(0), big, &env);
        assert!(
            pipelined.as_secs_f64() < 0.7 * binomial.as_secs_f64(),
            "pipeline {pipelined} vs binomial {binomial}"
        );
        // ...and loses for tiny ones (chain latency > tree latency).
        let tiny = Bytes::new(64);
        let b_small = rt.bcast_time(Rank(0), tiny, &env);
        let p_small = rt.bcast_time_pipelined(Rank(0), tiny, &env);
        assert!(p_small >= b_small, "{p_small} vs {b_small}");
    }

    #[test]
    fn forced_tcp_on_ib_cluster_uses_ipoib() {
        // Same forced-TCP job, IB cluster vs Ethernet cluster: the IB
        // side's TCP rides IPoIB (7.5 Gb/s) and beats virtio (4.6 Gb/s).
        let forced = || crate::runtime::MpiConfig {
            registry: crate::btl::BtlRegistry::restricted(&[
                TransportKind::Tcp,
                TransportKind::SharedMemory,
                TransportKind::SelfLoop,
            ]),
            ..Default::default()
        };
        let (mut dc1, _, _) = DataCenter::agc();
        let mut pool1 = VmPool::new();
        let mut rng = ninja_sim::SimRng::new(5);
        let mut vms1 = Vec::new();
        let mut ready = ninja_sim::SimTime::ZERO;
        for i in 0..4 {
            let node = dc1.cluster(ninja_cluster::ClusterId(0)).nodes[i];
            let vm = pool1
                .create(
                    format!("v{i}"),
                    ninja_vmm::VmSpec::paper_vm(),
                    node,
                    ninja_cluster::StorageId(0),
                    &mut dc1,
                )
                .unwrap();
            let (_, at) = pool1
                .attach_ib_hca(vm, &mut dc1, ninja_sim::SimTime::ZERO, &mut rng)
                .unwrap();
            ready = ready.max(at);
            vms1.push(vm);
        }
        let mut rt1 = MpiRuntime::new(crate::layout::JobLayout::new(vms1, 1), forced());
        rt1.init(&pool1, &mut dc1, ready).unwrap();
        let env1 = CommEnv::from_world(&pool1, &dc1);
        let on_ib = rt1.bcast_time(Rank(0), Bytes::from_gib(1), &env1);

        let (rt2, env2, _, _) = world(false, 4, 1); // Ethernet cluster
        let on_eth = rt2.bcast_time(Rank(0), Bytes::from_gib(1), &env2);
        assert!(
            on_ib.as_secs_f64() < 0.8 * on_eth.as_secs_f64(),
            "IPoIB {on_ib} vs virtio {on_eth}"
        );
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let vm = pool
            .create(
                "solo",
                VmSpec::paper_vm(),
                dc.cluster(ib).nodes[0],
                StorageId(0),
                &mut dc,
            )
            .unwrap();
        let mut rt = MpiRuntime::new(JobLayout::new(vec![vm], 1), MpiConfig::default());
        rt.init(&pool, &mut dc, SimTime::ZERO).unwrap();
        let env = CommEnv::dedicated();
        assert_eq!(
            rt.bcast_time(Rank(0), Bytes::from_gib(1), &env),
            SimDuration::ZERO
        );
        assert_eq!(rt.barrier_time(&env), SimDuration::ZERO);
    }
}
