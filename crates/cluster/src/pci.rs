//! PCI device inventory.
//!
//! Devices are owned by a flat [`DeviceTable`] and referenced by
//! [`DeviceId`] from nodes and VMs, mirroring how the paper's SymVirt
//! scripts name devices by PCI address (`'host': '04:00.0'`) and tag
//! (`'tag': 'vf0'`).

use ninja_net::{EthKind, EthNic, IbHca};
use std::fmt;

/// Identifier of a device in the [`DeviceTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A PCI address (`bus:slot.func`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PciAddr {
    /// The bus.
    pub bus: u8,
    /// The slot.
    pub slot: u8,
    /// The func.
    pub func: u8,
}

impl PciAddr {
    /// Creates a new instance.
    pub fn new(bus: u8, slot: u8, func: u8) -> Self {
        PciAddr { bus, slot, func }
    }
}

impl fmt::Display for PciAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.slot, self.func)
    }
}

/// Broad device class (drives hotplug costs and link-up behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// VMM-bypass InfiniBand host channel adapter.
    IbHca,
    /// Ethernet NIC (physical or virtio).
    EthNic,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceClass::IbHca => write!(f, "ib-hca"),
            DeviceClass::EthNic => write!(f, "eth-nic"),
        }
    }
}

/// The concrete device state.
#[derive(Debug, Clone)]
pub enum DeviceKind {
    /// An InfiniBand HCA (see [`ninja_net::IbHca`]).
    IbHca(IbHca),
    /// An Ethernet NIC (see [`ninja_net::EthNic`]).
    EthNic(EthNic),
}

impl DeviceKind {
    /// Returns the class.
    pub fn class(&self) -> DeviceClass {
        match self {
            DeviceKind::IbHca(_) => DeviceClass::IbHca,
            DeviceKind::EthNic(_) => DeviceClass::EthNic,
        }
    }
}

/// Where a device currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// In the host's free pool on node `node` (not assigned to any VM).
    /// Host.
    Host {
        /// The hosting node's id.
        node: u32,
    },
    /// Passed through to VM `vm` (VMM-bypass).
    /// Guest.
    Guest {
        /// The owning VM's id.
        vm: u32,
    },
    /// Physically unplugged / in transit.
    Detached,
}

/// A device's SymVirt script tag (the paper's `vf0`): a fixed name,
/// followed for the tags the topology and the VM pool give out by the
/// id of the node or VM the device was made for (`hca-3`,
/// `virtio-17`). The text is rendered when read, so a tag is two words
/// that copy without allocating.
#[derive(Debug, Clone, Copy)]
pub struct DeviceTag {
    name: &'static str,
    index: Option<u32>,
}

impl DeviceTag {
    /// The tag `{name}{index}`: `indexed("hca-", 3)` reads `hca-3`.
    pub const fn indexed(name: &'static str, index: u32) -> Self {
        DeviceTag {
            name,
            index: Some(index),
        }
    }

    /// The tag's text in two pieces: the name and the index's digits,
    /// rendered into `digits`.
    fn parts<'a>(&self, digits: &'a mut [u8; 10]) -> (&'static str, &'a str) {
        let Some(mut v) = self.index else {
            return (self.name, "");
        };
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
        (self.name, digits)
    }

    /// Whether the tag's text starts with `prefix`.
    pub fn starts_with(&self, prefix: &str) -> bool {
        let mut buf = [0; 10];
        let (name, digits) = self.parts(&mut buf);
        match prefix.strip_prefix(name) {
            Some(rest) => digits.starts_with(rest),
            None => name.starts_with(prefix),
        }
    }
}

/// A tag with no index: the text is `name` itself.
impl From<&'static str> for DeviceTag {
    fn from(name: &'static str) -> Self {
        DeviceTag { name, index: None }
    }
}

impl PartialEq<str> for DeviceTag {
    fn eq(&self, text: &str) -> bool {
        let mut buf = [0; 10];
        let (name, digits) = self.parts(&mut buf);
        text.len() == name.len() + digits.len() && text.starts_with(name) && text.ends_with(digits)
    }
}

impl PartialEq<&str> for DeviceTag {
    fn eq(&self, text: &&str) -> bool {
        *self == **text
    }
}

/// Tags are equal when their texts are: `indexed("vf", 0)` equals
/// `"vf0".into()`.
impl PartialEq for DeviceTag {
    fn eq(&self, other: &DeviceTag) -> bool {
        // One name: the texts are equal exactly when the indices are
        // (an index renders at least one digit).
        if std::ptr::eq(self.name, other.name) || self.name == other.name {
            return self.index == other.index;
        }
        let (mut x, mut y) = ([0; 10], [0; 10]);
        let (a, b) = self.parts(&mut x);
        let (c, d) = other.parts(&mut y);
        a.len() + b.len() == c.len() + d.len()
            && a.bytes().chain(b.bytes()).eq(c.bytes().chain(d.bytes()))
    }
}

impl Eq for DeviceTag {}

impl fmt::Display for DeviceTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0; 10];
        let (name, digits) = self.parts(&mut buf);
        f.write_str(name)?;
        f.write_str(digits)
    }
}

/// One PCI device.
#[derive(Debug, Clone)]
pub struct PciDevice {
    /// The id.
    pub id: DeviceId,
    /// The addr.
    pub addr: PciAddr,
    /// SymVirt script tag (e.g. `vf0`).
    pub tag: DeviceTag,
    /// The kind.
    pub kind: DeviceKind,
    /// Private so that [`DeviceTable::set_attachment`] is the only
    /// writer and the table's attachment index cannot go stale.
    attachment: Attachment,
    /// The next device at the same attachment, in id order; [`END`] for
    /// the last.
    next: u32,
}

impl PciDevice {
    /// Where the device currently lives.
    pub fn attachment(&self) -> Attachment {
        self.attachment
    }
}

/// The end of an attachment's device list.
const END: u32 = u32::MAX;

/// Flat arena of all devices in the data center.
///
/// Lookups go through an index of the devices attached at each place
/// (one list per node, one per VM, one for detached devices), each
/// list linked through the devices themselves in ascending id order
/// from a head per place: a lookup touches only the devices on one
/// node or VM, and its first match is the lowest id — the device a
/// scan of the whole table in id order would find. The index holds no
/// allocation per list.
#[derive(Debug)]
pub struct DeviceTable {
    devices: Vec<PciDevice>,
    /// `host[node]`: the first device in the node's free pool.
    host: Vec<u32>,
    /// `guest[vm]`: the first device passed through to the VM.
    guest: Vec<u32>,
    /// The first detached device.
    detached: u32,
}

impl Default for DeviceTable {
    fn default() -> Self {
        DeviceTable {
            devices: Vec::new(),
            host: Vec::new(),
            guest: Vec::new(),
            detached: END,
        }
    }
}

impl DeviceTable {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more devices.
    pub fn reserve(&mut self, additional: usize) {
        self.devices.reserve(additional);
    }

    /// Register a device and return its id.
    pub fn insert(
        &mut self,
        addr: PciAddr,
        tag: impl Into<DeviceTag>,
        kind: DeviceKind,
        attachment: Attachment,
    ) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(PciDevice {
            id,
            addr,
            tag: tag.into(),
            kind,
            attachment,
            next: END,
        });
        self.link(id);
        id
    }

    /// Moves device `id` to `attachment` (hotplug, migration, teardown).
    pub fn set_attachment(&mut self, id: DeviceId, attachment: Attachment) {
        let old = self.devices[id.0 as usize].attachment;
        if old == attachment {
            return;
        }
        self.unlink(id);
        self.devices[id.0 as usize].attachment = attachment;
        self.link(id);
    }

    /// Links `id` into its attachment's list, before the first larger
    /// id.
    fn link(&mut self, id: DeviceId) {
        let at = self.devices[id.0 as usize].attachment;
        let mut prev = END;
        let mut cur = self.head(at);
        while cur < id.0 {
            prev = cur;
            cur = self.devices[cur as usize].next;
        }
        debug_assert_ne!(cur, id.0, "not yet indexed here");
        self.devices[id.0 as usize].next = cur;
        match prev {
            END => *self.head_mut(at) = id.0,
            p => self.devices[p as usize].next = id.0,
        }
    }

    /// Unlinks `id` from its attachment's list.
    fn unlink(&mut self, id: DeviceId) {
        let at = self.devices[id.0 as usize].attachment;
        let mut prev = END;
        let mut cur = self.head(at);
        while cur != id.0 {
            assert_ne!(cur, END, "indexed under its attachment");
            prev = cur;
            cur = self.devices[cur as usize].next;
        }
        let next = self.devices[id.0 as usize].next;
        match prev {
            END => *self.head_mut(at) = next,
            p => self.devices[p as usize].next = next,
        }
    }

    /// The head of `attachment`'s list, grown to cover its node or VM.
    fn head_mut(&mut self, attachment: Attachment) -> &mut u32 {
        let (heads, i) = match attachment {
            Attachment::Host { node } => (&mut self.host, node),
            Attachment::Guest { vm } => (&mut self.guest, vm),
            Attachment::Detached => return &mut self.detached,
        };
        let i = i as usize;
        if heads.len() <= i {
            heads.resize(i + 1, END);
        }
        &mut heads[i]
    }

    /// The first device attached at `attachment`, or [`END`].
    fn head(&self, attachment: Attachment) -> u32 {
        let (heads, i) = match attachment {
            Attachment::Host { node } => (&self.host, node),
            Attachment::Guest { vm } => (&self.guest, vm),
            Attachment::Detached => return self.detached,
        };
        heads.get(i as usize).copied().unwrap_or(END)
    }

    /// Ids attached at `attachment`, ascending.
    fn attached(&self, attachment: Attachment) -> impl Iterator<Item = DeviceId> + '_ {
        let first = Some(self.head(attachment)).filter(|&d| d != END);
        std::iter::successors(first, |&d| {
            Some(self.devices[d as usize].next).filter(|&n| n != END)
        })
        .map(DeviceId)
    }

    /// Borrow the entry by id.
    pub fn get(&self, id: DeviceId) -> &PciDevice {
        &self.devices[id.0 as usize]
    }

    /// Mutably borrow the entry by id.
    pub fn get_mut(&mut self, id: DeviceId) -> &mut PciDevice {
        &mut self.devices[id.0 as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether this is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &PciDevice> {
        self.devices.iter()
    }

    /// Ids attached to VM `vm`, ascending: its passthrough devices and
    /// its virtio NIC.
    pub fn on_vm(&self, vm: u32) -> impl Iterator<Item = DeviceId> + '_ {
        self.attached(Attachment::Guest { vm })
    }

    /// Find a device by its script tag (a `&str` or a [`DeviceTag`])
    /// attached to a given VM (the lowest id when several match).
    pub fn find_by_tag_on_vm<T>(&self, vm: u32, tag: &T) -> Option<DeviceId>
    where
        T: ?Sized,
        DeviceTag: PartialEq<T>,
    {
        self.on_vm(vm).find(|&id| self.get(id).tag == *tag)
    }

    /// Find a free (host-pool) device of a class on a node (the lowest
    /// id when several match).
    pub fn find_free_on_node(&self, node: u32, class: DeviceClass) -> Option<DeviceId> {
        self.attached(Attachment::Host { node })
            .find(|&id| self.get(id).kind.class() == class)
    }

    /// Convenience accessors for the typed device state.
    pub fn as_ib(&self, id: DeviceId) -> Option<&IbHca> {
        match &self.get(id).kind {
            DeviceKind::IbHca(h) => Some(h),
            _ => None,
        }
    }

    /// Views this as ib mut, if applicable.
    pub fn as_ib_mut(&mut self, id: DeviceId) -> Option<&mut IbHca> {
        match &mut self.get_mut(id).kind {
            DeviceKind::IbHca(h) => Some(h),
            _ => None,
        }
    }

    /// Views this as eth, if applicable.
    pub fn as_eth(&self, id: DeviceId) -> Option<&EthNic> {
        match &self.get(id).kind {
            DeviceKind::EthNic(n) => Some(n),
            _ => None,
        }
    }

    /// Views this as eth mut, if applicable.
    pub fn as_eth_mut(&mut self, id: DeviceId) -> Option<&mut EthNic> {
        match &mut self.get_mut(id).kind {
            DeviceKind::EthNic(n) => Some(n),
            _ => None,
        }
    }
}

/// Helper constructing a standard virtio NIC device kind.
pub fn virtio_nic(mac: u64) -> DeviceKind {
    DeviceKind::EthNic(EthNic::up(EthKind::Virtio, mac))
}

/// Helper constructing an IB HCA device kind (port down until plugged).
pub fn ib_hca(guid: u64) -> DeviceKind {
    DeviceKind::IbHca(IbHca::new(guid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pci_addr_formats_like_lspci() {
        assert_eq!(PciAddr::new(4, 0, 0).to_string(), "04:00.0");
        assert_eq!(PciAddr::new(0x1a, 3, 1).to_string(), "1a:03.1");
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = DeviceTable::new();
        let id = t.insert(
            PciAddr::new(4, 0, 0),
            "vf0",
            ib_hca(0x1),
            Attachment::Guest { vm: 7 },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).tag, "vf0");
        assert_eq!(t.find_by_tag_on_vm(7, "vf0"), Some(id));
        assert_eq!(t.find_by_tag_on_vm(8, "vf0"), None);
        assert_eq!(t.get(id).kind.class(), DeviceClass::IbHca);
    }

    #[test]
    fn free_pool_search() {
        let mut t = DeviceTable::new();
        let a = t.insert(
            PciAddr::new(4, 0, 0),
            "hca0",
            ib_hca(0x1),
            Attachment::Host { node: 0 },
        );
        let _b = t.insert(
            PciAddr::new(4, 0, 1),
            "hca1",
            ib_hca(0x2),
            Attachment::Guest { vm: 0 },
        );
        assert_eq!(t.find_free_on_node(0, DeviceClass::IbHca), Some(a));
        assert_eq!(t.find_free_on_node(1, DeviceClass::IbHca), None);
        assert_eq!(t.find_free_on_node(0, DeviceClass::EthNic), None);
    }

    #[test]
    fn lookups_return_the_lowest_matching_id() {
        let mut t = DeviceTable::new();
        let ids: Vec<DeviceId> = (0..4u8)
            .map(|i| {
                t.insert(
                    PciAddr::new(4, i, 0),
                    "vf0",
                    ib_hca(u64::from(i)),
                    Attachment::Detached,
                )
            })
            .collect();
        // Attach in descending id order: the index must not return the
        // most recently moved device.
        for &id in ids.iter().rev() {
            t.set_attachment(id, Attachment::Host { node: 3 });
        }
        assert_eq!(t.find_free_on_node(3, DeviceClass::IbHca), Some(ids[0]));
        t.set_attachment(ids[0], Attachment::Guest { vm: 9 });
        assert_eq!(t.find_free_on_node(3, DeviceClass::IbHca), Some(ids[1]));
        for &id in &ids[1..] {
            t.set_attachment(id, Attachment::Guest { vm: 9 });
        }
        assert_eq!(t.find_free_on_node(3, DeviceClass::IbHca), None);
        assert_eq!(t.find_by_tag_on_vm(9, "vf0"), Some(ids[0]));
        t.set_attachment(ids[0], Attachment::Detached);
        assert_eq!(t.find_by_tag_on_vm(9, "vf0"), Some(ids[1]));
        assert_eq!(t.get(ids[0]).attachment(), Attachment::Detached);
    }

    /// Random inserts and moves across host pools, guests and detached,
    /// with repeated tags and both classes on one node: every indexed
    /// lookup agrees with a scan of the whole table in id order.
    #[test]
    fn seeded_churn_matches_a_full_scan() {
        let mut rng = ninja_sim::SimRng::new(0x9c1);
        let mut t = DeviceTable::new();
        let place = |rng: &mut ninja_sim::SimRng| match rng.below(3) {
            0 => Attachment::Host {
                node: rng.below(6) as u32,
            },
            1 => Attachment::Guest {
                vm: rng.below(6) as u32,
            },
            _ => Attachment::Detached,
        };
        for step in 0..2_000u32 {
            if t.is_empty() || rng.below(4) == 0 {
                let kind = if rng.chance(0.5) {
                    ib_hca(u64::from(step))
                } else {
                    virtio_nic(u64::from(step))
                };
                let at = place(&mut rng);
                let tag = DeviceTag::indexed("vf", rng.below(3) as u32);
                t.insert(PciAddr::new(4, 0, 0), tag, kind, at);
            } else {
                let id = DeviceId(rng.below(t.len() as u64) as u32);
                let at = place(&mut rng);
                t.set_attachment(id, at);
                assert_eq!(t.get(id).attachment(), at);
            }
            for x in 0..7u32 {
                for class in [DeviceClass::IbHca, DeviceClass::EthNic] {
                    let scan = t
                        .iter()
                        .find(|d| {
                            d.kind.class() == class
                                && d.attachment() == Attachment::Host { node: x }
                        })
                        .map(|d| d.id);
                    assert_eq!(t.find_free_on_node(x, class), scan, "step {step}");
                }
                for tag in ["vf0", "vf1", "vf2"] {
                    let scan = t
                        .iter()
                        .find(|d| d.tag == *tag && d.attachment() == Attachment::Guest { vm: x })
                        .map(|d| d.id);
                    assert_eq!(t.find_by_tag_on_vm(x, tag), scan, "step {step}");
                }
            }
        }
    }

    #[test]
    fn tags_read_as_their_text() {
        let hca = DeviceTag::indexed("hca-", 3);
        assert_eq!(hca.to_string(), "hca-3");
        assert_eq!(hca, "hca-3");
        for other in ["hca-03", "hca-", "hca-30", "hca-3 ", "", "hca-4"] {
            assert!(hca != other, "{other:?}");
        }
        for prefix in ["", "h", "hca", "hca-", "hca-3"] {
            assert!(hca.starts_with(prefix), "{prefix:?}");
        }
        for prefix in ["hca-4", "hca-33", "vf", "hca-3-"] {
            assert!(!hca.starts_with(prefix), "{prefix:?}");
        }
        assert_eq!(DeviceTag::indexed("vf", 0), DeviceTag::from("vf0"));
        assert_ne!(DeviceTag::indexed("vf", 1), DeviceTag::from("vf0"));
        assert_ne!(DeviceTag::indexed("vf", 0), DeviceTag::from("vf"));
        // Equal texts are equal tags, however they split.
        assert_eq!(DeviceTag::indexed("vf", 10), DeviceTag::indexed("vf1", 0));
        assert_ne!(DeviceTag::indexed("vf", 10), DeviceTag::indexed("vf1", 1));
        let max = DeviceTag::indexed("virtio-", u32::MAX);
        assert_eq!(max.to_string(), "virtio-4294967295");
        assert_eq!(max, "virtio-4294967295");
        assert_eq!(DeviceTag::from("vf0").to_string(), "vf0");
    }

    #[test]
    fn typed_access() {
        let mut t = DeviceTable::new();
        let e = t.insert(
            PciAddr::new(0, 3, 0),
            "net0",
            virtio_nic(0xaa),
            Attachment::Guest { vm: 0 },
        );
        assert!(t.as_eth(e).is_some());
        assert!(t.as_ib(e).is_none());
        assert_eq!(t.as_eth(e).unwrap().mac(), 0xaa);
    }
}
