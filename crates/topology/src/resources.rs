//! Multi-dimensional server resources: ⟨CPU, memory, network⟩.
//!
//! This is the 3-dimensional vector the paper uses for both capacity-graph
//! vertex weights (Section III-A) and container resource demands.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A resource vector: CPU (in units of cores × 100 %, so `2400.0` = 24 cores
/// at 100 %), memory in GB and network bandwidth in Mbps.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Resources {
    /// CPU demand/capacity, in core-percent (1 core fully busy = 100.0).
    pub cpu: f64,
    /// Memory, in GB.
    pub memory_gb: f64,
    /// Network bandwidth, in Mbps.
    pub network_mbps: f64,
}

impl Resources {
    /// Creates a resource vector.
    pub fn new(cpu: f64, memory_gb: f64, network_mbps: f64) -> Self {
        Resources {
            cpu,
            memory_gb,
            network_mbps,
        }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Resources::default()
    }

    /// The paper's testbed server: 32 cores, 64 GB, 1 GbE.
    pub fn testbed_server() -> Self {
        Resources::new(3200.0, 64.0, 1000.0)
    }

    /// True when every component of `self` fits within `other` (with a small
    /// epsilon for float error).
    pub fn fits_within(&self, other: &Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.cpu <= other.cpu + EPS
            && self.memory_gb <= other.memory_gb + EPS
            && self.network_mbps <= other.network_mbps + EPS
    }

    /// Component-wise scaling.
    pub fn scaled(&self, factor: f64) -> Resources {
        Resources {
            cpu: self.cpu * factor,
            memory_gb: self.memory_gb * factor,
            network_mbps: self.network_mbps * factor,
        }
    }

    /// The worst-case utilization of `self` as a demand against `capacity`,
    /// i.e. the max component-wise ratio. Returns `f64::INFINITY` when a
    /// non-zero demand meets a zero capacity.
    pub fn utilization_against(&self, capacity: &Resources) -> f64 {
        let ratio = |d: f64, c: f64| {
            if d <= 0.0 {
                0.0
            } else if c <= 0.0 {
                f64::INFINITY
            } else {
                d / c
            }
        };
        ratio(self.cpu, capacity.cpu)
            .max(ratio(self.memory_gb, capacity.memory_gb))
            .max(ratio(self.network_mbps, capacity.network_mbps))
    }

    /// CPU-only utilization ratio against `capacity` (the paper's packing
    /// thresholds are CPU utilizations).
    pub fn cpu_utilization_against(&self, capacity: &Resources) -> f64 {
        if capacity.cpu <= 0.0 {
            if self.cpu <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cpu / capacity.cpu
        }
    }

    /// The 3-component array ⟨cpu, memory, network⟩ (for graph weights).
    pub fn as_array(&self) -> [f64; 3] {
        [self.cpu, self.memory_gb, self.network_mbps]
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu + rhs.cpu,
            memory_gb: self.memory_gb + rhs.memory_gb,
            network_mbps: self.network_mbps + rhs.network_mbps,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu - rhs.cpu,
            memory_gb: self.memory_gb - rhs.memory_gb,
            network_mbps: self.network_mbps - rhs.network_mbps,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{:.1} cpu%, {:.1} GB, {:.1} Mbps⟩",
            self.cpu, self.memory_gb, self.network_mbps
        )
    }
}

impl std::iter::Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Resources::new(100.0, 4.0, 24.0);
        let b = Resources::new(50.0, 2.0, 12.0);
        assert_eq!(a + b, Resources::new(150.0, 6.0, 36.0));
        assert_eq!(a - b, b);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn fits_within_componentwise() {
        let demand = Resources::new(100.0, 4.0, 24.0);
        let server = Resources::testbed_server();
        assert!(demand.fits_within(&server));
        assert!(!Resources::new(4000.0, 1.0, 1.0).fits_within(&server));
        assert!(!Resources::new(1.0, 100.0, 1.0).fits_within(&server));
        assert!(!Resources::new(1.0, 1.0, 2000.0).fits_within(&server));
    }

    #[test]
    fn utilization_is_worst_dimension() {
        let demand = Resources::new(1600.0, 16.0, 100.0);
        let server = Resources::testbed_server(); // 3200, 64, 1000
        let u = demand.utilization_against(&server);
        assert!((u - 0.5).abs() < 1e-12, "worst dim is CPU at 50 %, got {u}");
        let mem_heavy = Resources::new(100.0, 48.0, 100.0);
        assert!((mem_heavy.utilization_against(&server) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_is_infinite_utilization() {
        let demand = Resources::new(1.0, 0.0, 0.0);
        assert!(demand.utilization_against(&Resources::zero()).is_infinite());
        assert_eq!(
            Resources::zero().utilization_against(&Resources::zero()),
            0.0
        );
    }

    #[test]
    fn array_roundtrip() {
        let r = Resources::new(1.0, 2.0, 3.0);
        let [cpu, memory_gb, network_mbps] = r.as_array();
        assert_eq!(Resources::new(cpu, memory_gb, network_mbps), r);
    }

    #[test]
    fn sum_and_scale() {
        let total: Resources = (0..4).map(|_| Resources::new(1.0, 2.0, 3.0)).sum();
        assert_eq!(total, Resources::new(4.0, 8.0, 12.0));
        assert_eq!(total.scaled(0.5), Resources::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn display_mentions_units() {
        let s = format!("{}", Resources::new(1.0, 2.0, 3.0));
        assert!(s.contains("cpu%") && s.contains("GB") && s.contains("Mbps"));
    }
}
