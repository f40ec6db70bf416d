//! InfiniBand fabric and HCA resource model.
//!
//! Models exactly the IB behaviours the paper depends on:
//!
//! * **Location-dependent identifiers.** LIDs (port addresses) and queue
//!   pair numbers are allocated by the fabric and *change* when an HCA is
//!   re-attached after a migration. Nomad virtualized these; Ninja
//!   migration instead relies on Open MPI rebuilding all connections, "so
//!   there are no problems even if Local IDs or Queue Pair Numbers are
//!   changed after a migration" (Section III-C). Our tests assert both
//!   halves: the identifiers do change, and the MPI layer still works.
//! * **Pinned resources.** Registered memory regions and QPs pin the
//!   device; detaching an HCA that still holds them is unsafe. The CRS
//!   pre-checkpoint phase must release everything first — the
//!   failure-injection tests exercise the unsafe path.
//! * **Link training.** A freshly attached port spends ~30 s in POLLING
//!   (see [`crate::link::LinkFsm`]).

use crate::calib::TransportCalib;
use crate::link::LinkFsm;
use ninja_sim::{Bytes, SimRng, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// An InfiniBand local identifier (port address), fabric-assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lid(pub u16);

/// A queue pair number, HCA-assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpNum(pub u32);

/// A memory-region key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrKey(pub u32);

impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lid{:#06x}", self.0)
    }
}

/// Errors from IB resource operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbError {
    /// Operation requires an active (trained) port.
    PortNotActive,
    /// The referenced QP does not exist.
    NoSuchQp(QpNum),
    /// The referenced MR does not exist.
    NoSuchMr(MrKey),
    /// The subnet manager ran out of LIDs (fabric misconfiguration).
    LidSpaceExhausted,
}

impl fmt::Display for IbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IbError::PortNotActive => write!(f, "IB port is not active"),
            IbError::NoSuchQp(q) => write!(f, "no such queue pair {}", q.0),
            IbError::NoSuchMr(m) => write!(f, "no such memory region {}", m.0),
            IbError::LidSpaceExhausted => write!(f, "subnet manager LID space exhausted"),
        }
    }
}

impl std::error::Error for IbError {}

/// State of one queue pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePair {
    /// The num.
    pub num: QpNum,
    /// Remote endpoint this QP is connected to, once transitioned to RTS.
    pub peer: Option<(Lid, QpNum)>,
}

/// Fabric-wide identifier allocation (the subnet manager's job).
///
/// LIDs are handed out monotonically and never reused, which is how we
/// guarantee (and test) that a re-attached HCA observes a different LID.
#[derive(Debug, Clone)]
pub struct IbFabric {
    name: String,
    next_lid: u16,
    next_qpn: u32,
}

impl IbFabric {
    /// How many LIDs one fabric hands out before [`IbFabric::assign_lid`]
    /// fails: LID 0 is reserved and `0xFFFF` is never assigned.
    pub const LID_CAPACITY: usize = u16::MAX as usize - 1;

    /// Creates a new instance.
    pub fn new(name: impl Into<String>) -> Self {
        IbFabric {
            name: name.into(),
            next_lid: 1, // LID 0 is reserved in real IB
            next_qpn: 0x100,
        }
    }

    /// The name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Assign the next LID.
    pub fn assign_lid(&mut self) -> Result<Lid, IbError> {
        if self.next_lid == u16::MAX {
            return Err(IbError::LidSpaceExhausted);
        }
        let lid = Lid(self.next_lid);
        self.next_lid += 1;
        Ok(lid)
    }

    /// Assign the next queue pair number.
    pub fn assign_qpn(&mut self) -> QpNum {
        let q = QpNum(self.next_qpn);
        self.next_qpn = self.next_qpn.wrapping_add(1).max(0x100);
        q
    }
}

/// A host channel adapter assigned to a guest via VMM-bypass
/// (PCI passthrough).
#[derive(Debug, Clone)]
pub struct IbHca {
    /// Node GUID (stable across attach/detach, like real hardware).
    guid: u64,
    link: LinkFsm,
    lid: Option<Lid>,
    qps: BTreeMap<QpNum, QueuePair>,
    mrs: BTreeMap<MrKey, Bytes>,
    next_mr: u32,
    pinned: Bytes,
}

impl IbHca {
    /// A detached HCA (port down, no fabric identity).
    pub fn new(guid: u64) -> Self {
        IbHca {
            guid,
            link: LinkFsm::down(),
            lid: None,
            qps: BTreeMap::new(),
            mrs: BTreeMap::new(),
            next_mr: 1,
            pinned: Bytes::ZERO,
        }
    }

    /// Returns the guid.
    pub fn guid(&self) -> u64 {
        self.guid
    }

    /// Current LID, if the port has a fabric identity.
    pub fn lid(&self) -> Option<Lid> {
        self.lid
    }

    /// Attach the HCA's port to a fabric at `now`: the subnet manager
    /// assigns a fresh LID and the port begins training. Returns the time
    /// the link becomes active.
    pub fn plug_into(
        &mut self,
        fabric: &mut IbFabric,
        now: SimTime,
        calib: &TransportCalib,
        rng: &mut SimRng,
    ) -> Result<SimTime, IbError> {
        self.lid = Some(fabric.assign_lid()?);
        Ok(self.link.begin_training(now, calib, rng))
    }

    /// Detach from the fabric: the port drops and the LID is forgotten.
    /// QPs and MRs become invalid — callers must have released them first
    /// (see [`IbHca::has_resources`]); if not, this returns how many were
    /// torn down unsafely so the caller can surface data loss.
    pub fn unplug(&mut self) -> usize {
        let leaked = self.qps.len() + self.mrs.len();
        self.qps.clear();
        self.mrs.clear();
        self.pinned = Bytes::ZERO;
        self.lid = None;
        self.link.take_down();
        leaked
    }

    /// Is the port usable at `now`?
    pub fn is_active_at(&self, now: SimTime) -> bool {
        self.link.is_active_at(now)
    }

    /// When will a polling port become active?
    pub fn active_at(&self) -> Option<SimTime> {
        self.link.active_at()
    }

    /// Link FSM access (for monitoring).
    pub fn link(&self) -> &LinkFsm {
        &self.link
    }

    /// Create a queue pair. Requires an active port.
    pub fn create_qp(&mut self, fabric: &mut IbFabric, now: SimTime) -> Result<QpNum, IbError> {
        if !self.is_active_at(now) {
            return Err(IbError::PortNotActive);
        }
        let num = fabric.assign_qpn();
        self.qps.insert(num, QueuePair { num, peer: None });
        Ok(num)
    }

    /// Connect a local QP to a remote (lid, qpn) endpoint (RESET->RTS).
    pub fn connect_qp(&mut self, qp: QpNum, peer: (Lid, QpNum)) -> Result<(), IbError> {
        let entry = self.qps.get_mut(&qp).ok_or(IbError::NoSuchQp(qp))?;
        entry.peer = Some(peer);
        Ok(())
    }

    /// Destroy a queue pair.
    pub fn destroy_qp(&mut self, qp: QpNum) -> Result<(), IbError> {
        self.qps
            .remove(&qp)
            .map(|_| ())
            .ok_or(IbError::NoSuchQp(qp))
    }

    /// Register (pin) a memory region of `len` bytes.
    pub fn register_mr(&mut self, len: Bytes) -> MrKey {
        let key = MrKey(self.next_mr);
        self.next_mr += 1;
        self.mrs.insert(key, len);
        self.pinned += len;
        key
    }

    /// Deregister a memory region.
    pub fn deregister_mr(&mut self, key: MrKey) -> Result<(), IbError> {
        let len = self.mrs.remove(&key).ok_or(IbError::NoSuchMr(key))?;
        self.pinned = self.pinned.saturating_sub(len);
        Ok(())
    }

    /// Release every QP and MR — what the Open MPI CRS does in the
    /// pre-checkpoint phase so the device can be detached safely.
    pub fn release_all(&mut self) {
        self.qps.clear();
        self.mrs.clear();
        self.pinned = Bytes::ZERO;
    }

    /// True if any QPs or MRs are still allocated (detach would be unsafe).
    pub fn has_resources(&self) -> bool {
        !self.qps.is_empty() || !self.mrs.is_empty()
    }

    /// Bytes currently pinned by registered MRs. Pinned guest memory is
    /// what breaks naive live migration of VMM-bypass devices.
    pub fn pinned_bytes(&self) -> Bytes {
        self.pinned
    }

    /// Returns the qp count.
    pub fn qp_count(&self) -> usize {
        self.qps.len()
    }

    /// Returns the mr count.
    pub fn mr_count(&self) -> usize {
        self.mrs.len()
    }

    /// Iterate over queue pairs (diagnostics).
    pub fn qps(&self) -> impl Iterator<Item = &QueuePair> {
        self.qps.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use ninja_sim::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn fabric_hands_out_lid_capacity_lids() {
        let mut fabric = IbFabric::new("ib0");
        for _ in 0..IbFabric::LID_CAPACITY {
            fabric.assign_lid().expect("within the LID space");
        }
        assert_eq!(fabric.assign_lid(), Err(IbError::LidSpaceExhausted));
    }

    fn active_hca(fabric: &mut IbFabric, rng: &mut SimRng) -> (IbHca, SimTime) {
        let mut hca = IbHca::new(0xdead_beef);
        let cal = calib::infiniband_qdr();
        let at = hca.plug_into(fabric, t(0.0), &cal, rng).unwrap();
        (hca, at)
    }

    #[test]
    fn lid_changes_on_reattach() {
        let mut fabric = IbFabric::new("agc-ib");
        let mut rng = SimRng::new(1);
        let (mut hca, _) = active_hca(&mut fabric, &mut rng);
        let first = hca.lid().unwrap();
        hca.unplug();
        assert_eq!(hca.lid(), None);
        let cal = calib::infiniband_qdr();
        hca.plug_into(&mut fabric, t(100.0), &cal, &mut rng)
            .unwrap();
        let second = hca.lid().unwrap();
        assert_ne!(
            first, second,
            "LID must change after re-attach (Section III-C)"
        );
        assert_eq!(hca.guid(), 0xdead_beef, "GUID is stable hardware identity");
    }

    #[test]
    fn qp_requires_active_port() {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(2);
        let (mut hca, active_at) = active_hca(&mut fabric, &mut rng);
        // Port still polling:
        assert_eq!(
            hca.create_qp(&mut fabric, t(1.0)).unwrap_err(),
            IbError::PortNotActive
        );
        // After training:
        let qp = hca.create_qp(&mut fabric, active_at).unwrap();
        assert!(hca.qp_count() == 1);
        hca.connect_qp(qp, (Lid(99), QpNum(0x200))).unwrap();
        assert_eq!(
            hca.qps().next().unwrap().peer,
            Some((Lid(99), QpNum(0x200)))
        );
    }

    #[test]
    fn qpn_changes_on_reconstruction() {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(3);
        let (mut hca, active_at) = active_hca(&mut fabric, &mut rng);
        let q1 = hca.create_qp(&mut fabric, active_at).unwrap();
        hca.release_all();
        let q2 = hca.create_qp(&mut fabric, active_at).unwrap();
        assert_ne!(q1, q2, "QPNs are not reused after teardown");
    }

    #[test]
    fn mr_pinning_accounting() {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(4);
        let (mut hca, _) = active_hca(&mut fabric, &mut rng);
        let a = hca.register_mr(Bytes::from_mib(64));
        let b = hca.register_mr(Bytes::from_mib(32));
        assert_eq!(hca.pinned_bytes(), Bytes::from_mib(96));
        hca.deregister_mr(a).unwrap();
        assert_eq!(hca.pinned_bytes(), Bytes::from_mib(32));
        assert!(hca.deregister_mr(a).is_err(), "double deregister rejected");
        hca.deregister_mr(b).unwrap();
        assert!(!hca.has_resources());
    }

    #[test]
    fn release_all_enables_safe_detach() {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(5);
        let (mut hca, active_at) = active_hca(&mut fabric, &mut rng);
        hca.create_qp(&mut fabric, active_at).unwrap();
        hca.register_mr(Bytes::from_mib(8));
        assert!(hca.has_resources());
        hca.release_all();
        assert!(!hca.has_resources());
        assert_eq!(hca.unplug(), 0, "no leaked resources after release_all");
    }

    #[test]
    fn unsafe_unplug_reports_leaks() {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(6);
        let (mut hca, active_at) = active_hca(&mut fabric, &mut rng);
        hca.create_qp(&mut fabric, active_at).unwrap();
        hca.register_mr(Bytes::from_mib(8));
        assert_eq!(hca.unplug(), 2, "two resources torn down unsafely");
    }

    #[test]
    fn fabric_lids_monotonic() {
        let mut fabric = IbFabric::new("f");
        let l1 = fabric.assign_lid().unwrap();
        let l2 = fabric.assign_lid().unwrap();
        assert!(l2 > l1);
    }
}
