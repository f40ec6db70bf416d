//! SymVirt error types.

use ninja_mpi::MpiError;
use ninja_vmm::{VmId, VmmError};
use std::fmt;

/// Failures of the SymVirt control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymVirtError {
    /// `wait_all` found a VM that has not issued SymVirt wait — the
    /// controller must not manipulate devices under a running guest.
    VmNotWaiting(VmId),
    /// An underlying VMM operation failed.
    Vmm(VmmError),
    /// An underlying MPI runtime operation failed.
    Runtime(MpiError),
    /// The destination host list is empty.
    EmptyHostlist,
    /// An agent lost its QEMU monitor connection.
    AgentDisconnected(VmId),
    /// One or more agents lost their QEMU monitor connections; every
    /// failed VM is listed (sorted), so an operator sees the full blast
    /// radius in one report rather than one VM per attempt.
    AgentsDisconnected(Vec<VmId>),
    /// The migration's clock reached the last representable instant
    /// (a stall or backoff ran it off the end of simulated time).
    ClockExhausted,
}

impl fmt::Display for SymVirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymVirtError::VmNotWaiting(vm) => {
                write!(f, "VM {vm:?} has not issued SymVirt wait")
            }
            SymVirtError::Vmm(e) => write!(f, "VMM error: {e}"),
            SymVirtError::Runtime(e) => write!(f, "MPI runtime error: {e}"),
            SymVirtError::EmptyHostlist => write!(f, "empty destination host list"),
            SymVirtError::AgentDisconnected(vm) => {
                write!(f, "SymVirt agent for {vm:?} lost its monitor connection")
            }
            SymVirtError::AgentsDisconnected(vms) => {
                write!(
                    f,
                    "{} SymVirt agent(s) lost their monitor connections: {vms:?}",
                    vms.len()
                )
            }
            SymVirtError::ClockExhausted => {
                write!(f, "the migration ran past the end of simulated time")
            }
        }
    }
}

impl std::error::Error for SymVirtError {}

impl From<VmmError> for SymVirtError {
    fn from(e: VmmError) -> Self {
        SymVirtError::Vmm(e)
    }
}

impl From<MpiError> for SymVirtError {
    fn from(e: MpiError) -> Self {
        SymVirtError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_vmm::VmId;

    #[test]
    fn conversions_wrap_sources() {
        let e: SymVirtError = VmmError::NotRunning.into();
        assert!(matches!(e, SymVirtError::Vmm(_)));
        assert!(e.to_string().contains("VMM error"));
        let e: SymVirtError = MpiError::NotActive.into();
        assert!(matches!(e, SymVirtError::Runtime(_)));
        assert!(e.to_string().contains("MPI runtime error"));
    }

    #[test]
    fn messages_are_specific() {
        assert!(SymVirtError::VmNotWaiting(VmId(4))
            .to_string()
            .contains("VmId(4)"));
        assert!(SymVirtError::EmptyHostlist.to_string().contains("empty"));
        assert!(SymVirtError::AgentDisconnected(VmId(1))
            .to_string()
            .contains("monitor connection"));
        let multi = SymVirtError::AgentsDisconnected(vec![VmId(1), VmId(3)]);
        let s = multi.to_string();
        assert!(s.contains("VmId(1)") && s.contains("VmId(3)"), "{s}");
        assert!(s.starts_with("2 SymVirt agent(s)"), "{s}");
        assert!(SymVirtError::ClockExhausted
            .to_string()
            .contains("end of simulated time"));
    }
}
