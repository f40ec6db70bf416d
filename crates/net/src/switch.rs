//! Switch model.
//!
//! Table I lists the testbed's switches: a Mellanox M3601Q (36-port QDR
//! InfiniBand) and a Dell PowerConnect M8024 (10 GbE blade switch). Both
//! are non-blocking at the paper's scale, which is why the evaluation
//! never hits a fabric bottleneck — but a library user modelling larger
//! or oversubscribed fabrics needs the general model: per-port rate, a
//! backplane capacity, and the oversubscription ratio between them.

use ninja_sim::Bandwidth;

/// A crossbar switch with a finite backplane.
#[derive(Debug, Clone)]
pub struct Switch {
    name: String,
    ports: u32,
    port_bandwidth: Bandwidth,
    backplane: Bandwidth,
}

impl Switch {
    /// A switch with an explicit backplane capacity.
    pub fn new(
        name: impl Into<String>,
        ports: u32,
        port_bandwidth: Bandwidth,
        backplane: Bandwidth,
    ) -> Self {
        assert!(ports > 0);
        Switch {
            name: name.into(),
            ports,
            port_bandwidth,
            backplane,
        }
    }

    /// A fully non-blocking switch (backplane = ports x port rate).
    pub fn nonblocking(name: impl Into<String>, ports: u32, port_bandwidth: Bandwidth) -> Self {
        let backplane = port_bandwidth.scale(ports as f64);
        Switch::new(name, ports, port_bandwidth, backplane)
    }

    /// The paper's IB switch: Mellanox M3601Q, 36 QDR ports,
    /// non-blocking.
    pub fn mellanox_m3601q() -> Self {
        Switch::nonblocking("Mellanox M3601Q", 36, Bandwidth::from_gbps(32.0))
    }

    /// The paper's Ethernet switch: Dell M8024, 24 x 10 GbE,
    /// non-blocking.
    pub fn dell_m8024() -> Self {
        Switch::nonblocking("Dell M8024", 24, Bandwidth::from_gbps(10.0))
    }

    /// The switch's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Port count.
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Per-port line rate.
    pub fn port_bandwidth(&self) -> Bandwidth {
        self.port_bandwidth
    }

    /// Aggregate backplane capacity.
    pub fn backplane(&self) -> Bandwidth {
        self.backplane
    }

    /// Oversubscription ratio (1.0 = non-blocking, 2.0 = 2:1, ...).
    pub fn oversubscription(&self) -> f64 {
        let full = self.port_bandwidth.as_gbps() * self.ports as f64;
        if self.backplane.as_gbps() <= 0.0 {
            f64::INFINITY
        } else {
            (full / self.backplane.as_gbps()).max(1.0)
        }
    }

    /// True when every port can run at line rate simultaneously.
    pub fn is_nonblocking(&self) -> bool {
        let full = u128::from(self.port_bandwidth.bits_per_sec()) * u128::from(self.ports);
        u128::from(self.backplane.bits_per_sec()) >= full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_switches_are_nonblocking() {
        for sw in [Switch::mellanox_m3601q(), Switch::dell_m8024()] {
            assert!(sw.is_nonblocking(), "{} must be non-blocking", sw.name());
            assert_eq!(sw.oversubscription(), 1.0);
        }
    }

    #[test]
    fn oversubscribed_switch_derates() {
        // A hypothetical 48-port 10G switch with a 240G backplane (2:1).
        let sw = Switch::new(
            "busy-tor",
            48,
            Bandwidth::from_gbps(10.0),
            Bandwidth::from_gbps(240.0),
        );
        assert!(!sw.is_nonblocking());
        assert_eq!(sw.oversubscription(), 2.0);
    }
}
