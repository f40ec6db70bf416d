//! QEMU-monitor-style command interface (QMP analogue).
//!
//! The paper's SymVirt agents drive each QEMU process through its monitor
//! with `device_add`, `device_del`, and `migrate` commands. This module
//! is that surface: a [`QemuMonitor`] executes [`MonitorCommand`]s
//! against the VM pool and data center, sampling realistic durations for
//! each operation and returning them in the reply so the orchestrator
//! can advance virtual time accordingly.
//!
//! As in QMP, `migrate` only starts a migration: it checks the VM, plans
//! its precopy and moves its memory to the destination in the node
//! ledger ([`VmPool::start_migration`]). The wire decides when the
//! stream drains; the caller then lands the VM
//! ([`VmPool::complete_migration`]), and `query-migrate` reports the
//! landed migration.

use crate::error::VmmError;
use crate::migration::{plan_precopy, MigrationConfig, PrecopyPlan};
use crate::vm::{VmId, VmPool, VmState};
use ninja_cluster::{DataCenter, DeviceClass, DeviceId, DeviceTag, HotplugOp, NodeId};
use ninja_sim::{SimDuration, SimRng, SimTime};

/// A command sent to a VMM's monitor.
#[derive(Debug, Clone)]
pub enum MonitorCommand {
    /// `device_del`: detach the device tagged `tag` from the VM.
    DeviceDel {
        /// The vm.
        vm: VmId,
        /// The tag.
        tag: DeviceTag,
        /// Skip the resource-safety check (used by failure injection).
        force: bool,
    },
    /// `device_add`: pass a free host IB HCA through to the VM.
    DeviceAddIb {
        /// Target VM.
        vm: VmId,
    },
    /// `migrate`: start a precopy live migration to another node.
    Migrate {
        /// The vm.
        vm: VmId,
        /// The dst.
        dst: NodeId,
    },
    /// `query-migrate`: statistics of the VM's last landed migration.
    QueryMigrate {
        /// Target VM.
        vm: VmId,
    },
    /// `stop`: pause the vCPUs.
    Stop {
        /// Target VM.
        vm: VmId,
    },
    /// `cont`: resume the vCPUs.
    Cont {
        /// Target VM.
        vm: VmId,
    },
}

/// The monitor's reply, carrying the sampled durations.
#[derive(Debug, Clone)]
pub enum MonitorReply {
    /// Device removed; `duration` is the hotplug (ACPI) latency.
    DeviceDeleted {
        /// The device.
        device: DeviceId,
        /// The duration.
        duration: SimDuration,
        /// IB resources torn down unsafely (nonzero only under `force`).
        leaked: usize,
    },
    /// Device added; the link trains until `link_active_at`.
    DeviceAdded {
        /// The device.
        device: DeviceId,
        /// The duration.
        duration: SimDuration,
        /// The link active at.
        link_active_at: SimTime,
    },
    /// Migration started: the destination holds the guest's memory, and
    /// the guest stays on its source until the caller lands it
    /// ([`VmPool::complete_migration`]).
    MigrationStarted {
        /// The precopy schedule (wire bytes, scan floor).
        plan: PrecopyPlan,
    },
    /// Reply to `query-migrate`.
    MigrateStatus {
        /// Completed migrations of this VM.
        completed: u32,
        /// Wire bytes of the last migration, if any.
        last_wire_bytes: Option<u64>,
        /// Duration of the last migration, if any.
        last_duration: Option<SimDuration>,
    },
    /// Plain acknowledgement.
    Ok,
}

/// One logical QEMU monitor shared by the SymVirt agents.
#[derive(Debug, Clone, Default)]
pub struct QemuMonitor {
    cfg: MigrationConfig,
}

impl QemuMonitor {
    /// Creates a new instance.
    pub fn new(cfg: MigrationConfig) -> Self {
        QemuMonitor { cfg }
    }

    /// Returns the config.
    pub fn config(&self) -> &MigrationConfig {
        &self.cfg
    }

    /// Execute a command at `now`. `migration_in_progress` tells the
    /// hotplug model to apply the paper's "migration noise" slowdown.
    pub fn execute(
        &self,
        cmd: MonitorCommand,
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
        migration_in_progress: bool,
    ) -> Result<MonitorReply, VmmError> {
        match cmd {
            MonitorCommand::DeviceDel { vm, tag, force } => {
                let class = {
                    let dev = dc.devices.find_by_tag_on_vm(vm.0, &tag).ok_or_else(|| {
                        VmmError::NoSuchDeviceTag {
                            tag: tag.to_string(),
                        }
                    })?;
                    dc.devices.get(dev).kind.class()
                };
                let duration =
                    dc.hotplug
                        .duration(HotplugOp::Detach, class, migration_in_progress, rng);
                let (device, leaked) = pool.detach_by_tag(vm, &tag, force, dc)?;
                Ok(MonitorReply::DeviceDeleted {
                    device,
                    duration,
                    leaked,
                })
            }
            MonitorCommand::DeviceAddIb { vm } => {
                let duration = dc.hotplug.duration(
                    HotplugOp::Attach,
                    DeviceClass::IbHca,
                    migration_in_progress,
                    rng,
                );
                // The guest sees the device once the hotplug completes;
                // link training starts then.
                let (device, link_active_at) = pool.attach_ib_hca(vm, dc, now + duration, rng)?;
                Ok(MonitorReply::DeviceAdded {
                    device,
                    duration,
                    link_active_at,
                })
            }
            MonitorCommand::Migrate { vm, dst } => {
                pool.check_migratable(vm, dst, dc)?;
                let v = pool.get(vm);
                // Plan against the raw NIC rate; the wire applies
                // contention.
                let link_rate = dc.node(v.node).spec.eth_bandwidth;
                let running = v.state == VmState::Running;
                let plan = plan_precopy(&v.memory, running, link_rate, &self.cfg);
                pool.start_migration(vm, dst, dc);
                Ok(MonitorReply::MigrationStarted { plan })
            }
            MonitorCommand::QueryMigrate { vm } => {
                let v = pool.get(vm);
                Ok(MonitorReply::MigrateStatus {
                    completed: v.migrations,
                    last_wire_bytes: v.last_migration.map(|(b, _)| b),
                    last_duration: v.last_migration.map(|(_, d)| d),
                })
            }
            MonitorCommand::Stop { vm } => {
                pool.pause(vm)?;
                Ok(MonitorReply::Ok)
            }
            MonitorCommand::Cont { vm } => {
                pool.resume(vm)?;
                Ok(MonitorReply::Ok)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;
    use ninja_cluster::StorageId;

    struct Fix {
        dc: DataCenter,
        pool: VmPool,
        rng: SimRng,
        mon: QemuMonitor,
        ib_node: NodeId,
        eth_node: NodeId,
        vm: VmId,
    }

    fn fix() -> Fix {
        let (mut dc, ib, eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let ib_node = dc.cluster(ib).nodes[0];
        let eth_node = dc.cluster(eth).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), ib_node, StorageId(0), &mut dc)
            .unwrap();
        Fix {
            dc,
            pool,
            rng: SimRng::new(11),
            mon: QemuMonitor::default(),
            ib_node,
            eth_node,
            vm,
        }
    }

    #[test]
    fn device_add_then_del_roundtrip() {
        let mut f = fix();
        let now = SimTime::ZERO;
        let reply = f
            .mon
            .execute(
                MonitorCommand::DeviceAddIb { vm: f.vm },
                &mut f.pool,
                &mut f.dc,
                now,
                &mut f.rng,
                false,
            )
            .unwrap();
        let (device, add_dur) = match reply {
            MonitorReply::DeviceAdded {
                device, duration, ..
            } => (device, duration),
            r => panic!("unexpected {r:?}"),
        };
        assert!(add_dur.as_secs_f64() > 1.0, "IB attach is slow: {add_dur}");
        let tag = f.dc.devices.get(device).tag;
        let reply = f
            .mon
            .execute(
                MonitorCommand::DeviceDel {
                    vm: f.vm,
                    tag,
                    force: false,
                },
                &mut f.pool,
                &mut f.dc,
                now,
                &mut f.rng,
                false,
            )
            .unwrap();
        match reply {
            MonitorReply::DeviceDeleted {
                duration, leaked, ..
            } => {
                assert!(duration.as_secs_f64() > 2.0, "IB detach ~2.8 s: {duration}");
                assert_eq!(leaked, 0);
            }
            r => panic!("unexpected {r:?}"),
        }
        f.pool.check_migratable(f.vm, f.eth_node, &f.dc).unwrap();
    }

    #[test]
    fn migrate_with_passthrough_fails() {
        let mut f = fix();
        f.mon
            .execute(
                MonitorCommand::DeviceAddIb { vm: f.vm },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap();
        let err = f
            .mon
            .execute(
                MonitorCommand::Migrate {
                    vm: f.vm,
                    dst: f.eth_node,
                },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap_err();
        assert!(matches!(err, VmmError::PassthroughAttached { .. }));
    }

    #[test]
    fn migrate_holds_memory_without_landing() {
        let mut f = fix();
        f.mon
            .execute(
                MonitorCommand::Stop { vm: f.vm },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap();
        let reply = f
            .mon
            .execute(
                MonitorCommand::Migrate {
                    vm: f.vm,
                    dst: f.eth_node,
                },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap();
        let MonitorReply::MigrationStarted { plan } = reply else {
            panic!("unexpected {reply:?}");
        };
        assert!(plan.wire_bytes().get() > 0);
        // Started, not landed: the guest and its vCPUs stay on the
        // source, and the destination holds its memory.
        let v = f.pool.get(f.vm);
        assert_eq!(
            (v.node, v.migrations, v.last_migration),
            (f.ib_node, 0, None)
        );
        let dst = f.dc.node(f.eth_node);
        assert_eq!(dst.committed_memory(), v.spec.memory);
        assert_eq!(dst.committed_vcpus(), 0);
        assert_eq!(f.dc.node(f.ib_node).committed_vcpus(), v.spec.vcpus);
        // The held memory counts: a node holding it beside a resident
        // guest has no room for another 20 GiB.
        f.pool
            .create(
                "squatter",
                VmSpec::paper_vm(),
                f.eth_node,
                StorageId(0),
                &mut f.dc,
            )
            .unwrap();
        let err = f
            .mon
            .execute(
                MonitorCommand::Migrate {
                    vm: f.vm,
                    dst: f.eth_node,
                },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap_err();
        assert!(matches!(err, VmmError::InsufficientCapacity { .. }));
    }

    #[test]
    fn migration_noise_flag_slows_hotplug() {
        let mut f = fix();
        let quiet =
            f.dc.hotplug
                .duration(HotplugOp::Detach, DeviceClass::IbHca, false, &mut f.rng);
        let noisy =
            f.dc.hotplug
                .duration(HotplugOp::Detach, DeviceClass::IbHca, true, &mut f.rng);
        assert!(noisy.as_secs_f64() > 2.0 * quiet.as_secs_f64());
        let _ = f.ib_node;
    }

    #[test]
    fn cont_resumes() {
        let mut f = fix();
        f.mon
            .execute(
                MonitorCommand::Stop { vm: f.vm },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap();
        f.mon
            .execute(
                MonitorCommand::Cont { vm: f.vm },
                &mut f.pool,
                &mut f.dc,
                SimTime::ZERO,
                &mut f.rng,
                false,
            )
            .unwrap();
        assert_eq!(f.pool.get(f.vm).state, VmState::Running);
    }
}
