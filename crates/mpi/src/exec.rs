//! A real multi-threaded executor for rank programs.
//!
//! The cost engine in [`crate::collectives`] answers "how long would
//! this take"; this module answers "does the communication actually
//! work" — it runs genuine rank functions on OS threads, moving real
//! data through `std::sync::mpsc` channels, with each message routed
//! over the transport the BTL layer selected for that pair. The integration
//! tests use it to verify the *semantics* of interconnect-transparent
//! migration: the same rank program computes the same answer before and
//! after the job's connections are rebuilt onto a different transport,
//! and the per-message transport labels show the switch really
//! happened.
//!
//! The executor implements the core MPI-1 surface the paper's
//! benchmarks need: point-to-point send/recv and Bcast / Reduce /
//! Allreduce / Barrier / Alltoall over binomial trees, matching the
//! algorithms the cost engine models.

use crate::layout::Rank;
use ninja_net::TransportKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::sync::Mutex;

/// A tag distinguishing concurrent message streams.
pub type Tag = u32;

/// One message on the wire.
#[derive(Debug)]
struct Packet {
    from: u32,
    tag: Tag,
    payload: Vec<f64>,
    /// Transport this packet travelled over (as selected by the BTL).
    transport: TransportKind,
}

/// Routing table: transport per unordered rank pair. Rebuilt by the
/// caller whenever the simulated runtime reconstructs its modules.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: BTreeMap<(u32, u32), TransportKind>,
}

impl RouteTable {
    /// Build from a closure (e.g. wrapping
    /// [`crate::runtime::MpiRuntime::transport_between`]).
    pub fn from_fn(n: u32, mut f: impl FnMut(Rank, Rank) -> TransportKind) -> Self {
        let mut routes = BTreeMap::new();
        for i in 0..n {
            for j in (i + 1)..n {
                routes.insert((i, j), f(Rank(i), Rank(j)));
            }
        }
        RouteTable { routes }
    }

    /// Uniform transport for every pair (tests).
    pub fn uniform(n: u32, kind: TransportKind) -> Self {
        Self::from_fn(n, |_, _| kind)
    }

    fn lookup(&self, a: u32, b: u32) -> TransportKind {
        let key = if a < b { (a, b) } else { (b, a) };
        self.routes
            .get(&key)
            .copied()
            .unwrap_or(TransportKind::SelfLoop)
    }
}

/// Shared executor state.
struct Fabric {
    senders: Vec<Sender<Packet>>,
    routes: Mutex<RouteTable>,
    /// Per-transport delivered-message counters (telemetry).
    counters: BTreeMap<TransportKind, AtomicU64>,
}

impl Fabric {
    fn count(&self, kind: TransportKind) {
        if let Some(c) = self.counters.get(&kind) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Telemetry snapshot: messages delivered per transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficCensus {
    /// (transport, delivered messages), only nonzero entries.
    pub by_kind: Vec<(TransportKind, u64)>,
}

impl TrafficCensus {
    /// Messages delivered over one transport.
    pub fn count(&self, kind: TransportKind) -> u64 {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// Total messages delivered.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().map(|&(_, n)| n).sum()
    }
}

/// Handle each rank program receives: its communicator.
pub struct Comm {
    rank: u32,
    size: u32,
    fabric: Arc<Fabric>,
    inbox: Receiver<Packet>,
    /// Out-of-order receive buffer: (from, tag) -> packets.
    stash: BTreeMap<(u32, Tag), Vec<Packet>>,
}

impl Comm {
    /// This process's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Blocking send of a payload to `dst` with a tag.
    pub fn send(&self, dst: u32, tag: Tag, payload: Vec<f64>) {
        assert!(dst < self.size, "rank {dst} out of range");
        let transport = self.fabric.routes.lock().unwrap().lookup(self.rank, dst);
        self.fabric.count(transport);
        self.fabric.senders[dst as usize]
            .send(Packet {
                from: self.rank,
                tag,
                payload,
                transport,
            })
            .expect("peer alive");
    }

    /// Blocking receive from `src` with a tag; returns the payload and
    /// the transport it travelled over.
    pub fn recv(&mut self, src: u32, tag: Tag) -> (Vec<f64>, TransportKind) {
        // Serve from the stash first.
        if let Some(q) = self.stash.get_mut(&(src, tag)) {
            if !q.is_empty() {
                let p = q.remove(0);
                return (p.payload, p.transport);
            }
        }
        loop {
            let p = self.inbox.recv().expect("fabric alive");
            if p.from == src && p.tag == tag {
                return (p.payload, p.transport);
            }
            self.stash.entry((p.from, p.tag)).or_default().push(p);
        }
    }

    /// Binomial-tree broadcast from `root`; every rank returns the data.
    pub fn bcast(&mut self, root: u32, mut data: Vec<f64>, tag: Tag) -> Vec<f64> {
        let p = self.size;
        if p <= 1 {
            return data;
        }
        let vrank = (self.rank + p - root) % p; // rotate so root is 0
        let rounds = 32 - (p - 1).leading_zeros();
        for k in 0..rounds {
            let stride = 1u32 << k;
            if vrank < stride {
                let peer_v = vrank + stride;
                if peer_v < p {
                    let peer = (peer_v + root) % p;
                    self.send(peer, tag, data.clone());
                }
            } else if vrank < 2 * stride {
                let peer = ((vrank - stride) + root) % p;
                let (d, _) = self.recv(peer, tag);
                data = d;
            }
        }
        data
    }

    /// Binomial-tree reduction to `root` with an arbitrary associative,
    /// commutative element-wise operator; root returns the result,
    /// others return `None`.
    pub fn reduce_with(
        &mut self,
        root: u32,
        mut data: Vec<f64>,
        tag: Tag,
        op: impl Fn(f64, f64) -> f64,
    ) -> Option<Vec<f64>> {
        let p = self.size;
        if p <= 1 {
            return Some(data);
        }
        let vrank = (self.rank + p - root) % p;
        let rounds = 32 - (p - 1).leading_zeros();
        for k in (0..rounds).rev() {
            let stride = 1u32 << k;
            if vrank < stride {
                let peer_v = vrank + stride;
                if peer_v < p {
                    let peer = (peer_v + root) % p;
                    let (d, _) = self.recv(peer, tag);
                    for (a, b) in data.iter_mut().zip(d) {
                        *a = op(*a, b);
                    }
                }
            } else if vrank < 2 * stride {
                let peer = ((vrank - stride) + root) % p;
                self.send(peer, tag, data.clone());
                return None; // contributed and done
            }
        }
        Some(data)
    }

    /// Binomial-tree sum-reduction to `root` (MPI_SUM).
    pub fn reduce_sum(&mut self, root: u32, data: Vec<f64>, tag: Tag) -> Option<Vec<f64>> {
        self.reduce_with(root, data, tag, |a, b| a + b)
    }

    /// Allreduce (sum): reduce to 0 then broadcast.
    pub fn allreduce_sum(&mut self, data: Vec<f64>, tag: Tag) -> Vec<f64> {
        let reduced = self.reduce_sum(0, data, tag);
        let payload = reduced.unwrap_or_default();
        self.bcast(0, payload, tag.wrapping_add(1))
    }

    /// Barrier: a zero-payload allreduce.
    pub fn barrier(&mut self, tag: Tag) {
        self.allreduce_sum(vec![], tag);
    }

    /// Gather: every rank's payload arrives at `root`, indexed by
    /// source rank; non-roots return `None`.
    pub fn gather(&mut self, root: u32, mine: Vec<f64>, tag: Tag) -> Option<Vec<Vec<f64>>> {
        if self.rank == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.size as usize];
            out[root as usize] = mine;
            for src in 0..self.size {
                if src != root {
                    let (d, _) = self.recv(src, tag);
                    out[src as usize] = d;
                }
            }
            Some(out)
        } else {
            self.send(root, tag, mine);
            None
        }
    }

    /// All-to-all personalized exchange: `chunks[i]` goes to rank `i`;
    /// returns what every rank sent to us, indexed by source.
    pub fn alltoall(&mut self, chunks: Vec<Vec<f64>>, tag: Tag) -> Vec<Vec<f64>> {
        assert_eq!(chunks.len(), self.size as usize);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.size as usize];
        out[self.rank as usize] = chunks[self.rank as usize].clone();
        // Pairwise exchange, XOR schedule (matches the cost model).
        for round in 1..self.size {
            let peer = self.rank ^ round;
            if peer < self.size {
                // Deterministic order to avoid send/recv deadlock with
                // rendezvous-free channels: channels are buffered, so
                // send-then-receive is safe either way.
                self.send(peer, tag, chunks[peer as usize].clone());
                let (d, _) = self.recv(peer, tag);
                out[peer as usize] = d;
            }
        }
        out
    }
}

/// Spawn `n` ranks, each running `program(comm) -> T`, and collect the
/// per-rank results in rank order. Messages route per `routes`.
///
/// ```
/// use ninja_mpi::{run_job, RouteTable};
/// use ninja_net::TransportKind;
/// let routes = RouteTable::uniform(4, TransportKind::Tcp);
/// let (sums, census) = run_job(4, routes, |comm| {
///     comm.allreduce_sum(vec![comm.rank() as f64], 1)[0]
/// });
/// assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3 on every rank
/// assert!(census.count(TransportKind::Tcp) > 0);
/// ```
pub fn run_job<T, F>(n: u32, routes: RouteTable, program: F) -> (Vec<T>, TrafficCensus)
where
    T: Send + 'static,
    F: Fn(&mut Comm) -> T + Send + Sync + 'static,
{
    assert!(n > 0);
    let mut senders = Vec::with_capacity(n as usize);
    let mut inboxes = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        inboxes.push(rx);
    }
    let mut counters = BTreeMap::new();
    for kind in [
        TransportKind::Tcp,
        TransportKind::OpenIb,
        TransportKind::SharedMemory,
        TransportKind::SelfLoop,
    ] {
        counters.insert(kind, AtomicU64::new(0));
    }
    let fabric = Arc::new(Fabric {
        senders,
        routes: Mutex::new(routes),
        counters,
    });
    let program = Arc::new(program);
    let mut handles = Vec::with_capacity(n as usize);
    for (rank, inbox) in inboxes.into_iter().enumerate() {
        let fabric = Arc::clone(&fabric);
        let program = Arc::clone(&program);
        handles.push(std::thread::spawn(move || {
            let mut comm = Comm {
                rank: rank as u32,
                size: n,
                fabric,
                inbox,
                stash: BTreeMap::new(),
            };
            program(&mut comm)
        }));
    }
    let results: Vec<T> = handles
        .into_iter()
        .map(|h| h.join().expect("rank program must not panic"))
        .collect();
    let by_kind = fabric
        .counters
        .iter()
        .map(|(&k, c)| (k, c.load(Ordering::Relaxed)))
        .filter(|&(_, n)| n > 0)
        .collect();
    (results, TrafficCensus { by_kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_delivers_to_everyone() {
        let routes = RouteTable::uniform(8, TransportKind::OpenIb);
        let (results, census) = run_job(8, routes, |comm| {
            let data = if comm.rank() == 3 {
                vec![1.0, 2.0, 3.0]
            } else {
                vec![]
            };
            comm.bcast(3, data, 10)
        });
        for r in &results {
            assert_eq!(r, &vec![1.0, 2.0, 3.0]);
        }
        assert!(census.count(TransportKind::OpenIb) > 0);
    }

    #[test]
    fn reduce_sums_correctly() {
        let routes = RouteTable::uniform(6, TransportKind::Tcp);
        let (results, _) = run_job(6, routes, |comm| {
            let mine = vec![comm.rank() as f64, 1.0];
            comm.reduce_sum(0, mine, 20)
        });
        // 0+1+2+3+4+5 = 15, count = 6
        assert_eq!(results[0], Some(vec![15.0, 6.0]));
        for r in &results[1..] {
            assert_eq!(r, &None);
        }
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let routes = RouteTable::uniform(7, TransportKind::SharedMemory);
        let (results, _) = run_job(7, routes, |comm| {
            comm.allreduce_sum(vec![(comm.rank() + 1) as f64], 30)
        });
        for r in &results {
            assert_eq!(r, &vec![28.0]); // 1+..+7
        }
    }

    #[test]
    fn alltoall_routes_chunks() {
        let n = 4u32;
        let routes = RouteTable::uniform(n, TransportKind::OpenIb);
        let (results, _) = run_job(n, routes, move |comm| {
            // Chunk for rank j from rank i is [i*10 + j].
            let chunks: Vec<Vec<f64>> = (0..n)
                .map(|j| vec![(comm.rank() * 10 + j) as f64])
                .collect();
            comm.alltoall(chunks, 40)
        });
        for (j, r) in results.iter().enumerate() {
            for (i, c) in r.iter().enumerate() {
                assert_eq!(c, &vec![(i * 10 + j) as f64], "chunk from {i} to {j}");
            }
        }
    }

    #[test]
    fn point_to_point_with_tags() {
        let routes = RouteTable::uniform(2, TransportKind::Tcp);
        let (results, census) = run_job(2, routes, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![10.0]);
                comm.send(1, 2, vec![20.0]);
                0.0
            } else {
                // Receive out of order: tag 2 first.
                let (b, t2) = comm.recv(0, 2);
                let (a, t1) = comm.recv(0, 1);
                assert_eq!(t1, TransportKind::Tcp);
                assert_eq!(t2, TransportKind::Tcp);
                a[0] + b[0]
            }
        });
        assert_eq!(results[1], 30.0);
        assert_eq!(census.count(TransportKind::Tcp), 2);
    }

    #[test]
    fn transport_switch_mid_run_is_visible() {
        // The same program runs twice with different route tables —
        // the executor's telemetry shows the "migration".
        let before = RouteTable::uniform(4, TransportKind::OpenIb);
        let (sum_ib, census_ib) = run_job(4, before, |comm| {
            comm.allreduce_sum(vec![comm.rank() as f64], 1)[0]
        });
        let after = RouteTable::uniform(4, TransportKind::Tcp);
        let (sum_tcp, census_tcp) = run_job(4, after, |comm| {
            comm.allreduce_sum(vec![comm.rank() as f64], 1)[0]
        });
        assert_eq!(sum_ib, sum_tcp, "same answer on both transports");
        assert_eq!(census_ib.count(TransportKind::Tcp), 0);
        assert_eq!(census_tcp.count(TransportKind::OpenIb), 0);
        assert_eq!(
            census_ib.total(),
            census_tcp.total(),
            "same message pattern"
        );
    }

    #[test]
    fn reduce_max_and_custom_ops() {
        let routes = RouteTable::uniform(5, TransportKind::OpenIb);
        let (results, _) = run_job(5, routes, |comm| {
            let mine = vec![comm.rank() as f64, -(comm.rank() as f64)];
            comm.reduce_with(0, mine, 12, f64::min)
        });
        assert_eq!(results[0].as_ref().unwrap(), &vec![0.0, -4.0]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let routes = RouteTable::uniform(5, TransportKind::OpenIb);
        let (results, _) = run_job(5, routes, |comm| {
            comm.gather(2, vec![comm.rank() as f64 * 10.0], 60)
        });
        let at_root = results[2].as_ref().unwrap();
        for (i, c) in at_root.iter().enumerate() {
            assert_eq!(c, &vec![i as f64 * 10.0]);
        }
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.is_some(), i == 2);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let flag = Arc::new(AtomicU32::new(0));
        let routes = RouteTable::uniform(5, TransportKind::SharedMemory);
        let flag2 = Arc::clone(&flag);
        let (results, _) = run_job(5, routes, move |comm| {
            flag2.fetch_add(1, Ordering::SeqCst);
            comm.barrier(7);
            // After the barrier, every rank's increment is visible.
            flag2.load(Ordering::SeqCst)
        });
        for r in results {
            assert_eq!(r, 5);
        }
    }

    #[test]
    fn single_rank_job() {
        let routes = RouteTable::uniform(1, TransportKind::SelfLoop);
        let (results, census) = run_job(1, routes, |comm| {
            let r = comm.bcast(0, vec![42.0], 0);
            comm.allreduce_sum(r, 1)
        });
        assert_eq!(results[0], vec![42.0]);
        assert_eq!(census.total(), 0, "no wire traffic for a solo rank");
    }
}
