//! IPMI-style server power gating (Section V: "servers can be remotely
//! turned ON/OFF using an additional IPMI port").
//!
//! Turning a server on is not instant; during boot it draws near-peak power
//! without serving load, so flapping servers on and off wastes energy. The
//! gate tracks per-server state machines with a configurable boot delay.

/// Power state of one server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerState {
    /// Powered off (0 W).
    Off,
    /// Booting: draws `boot_power_frac` of peak until ready.
    Booting {
        /// Seconds of boot remaining.
        remaining_s: u32,
    },
    /// Serving.
    On,
}

/// The power-gate controller for a fleet of servers.
#[derive(Clone, Debug)]
pub struct PowerGate {
    states: Vec<PowerState>,
    /// Boot duration in seconds (IPMI power-on to service-ready).
    pub boot_seconds: u32,
    /// Fraction of peak power drawn while booting.
    pub boot_power_frac: f64,
}

impl PowerGate {
    /// Creates a gate with every server initially on.
    pub fn all_on(servers: usize) -> Self {
        PowerGate {
            states: vec![PowerState::On; servers],
            boot_seconds: 180,
            boot_power_frac: 0.6,
        }
    }

    /// Restores a gate from recovered per-server states (boot parameters
    /// take their defaults; callers override the public fields if they
    /// customized them).
    pub fn from_states(states: Vec<PowerState>) -> Self {
        PowerGate {
            states,
            boot_seconds: 180,
            boot_power_frac: 0.6,
        }
    }

    /// The full per-server state vector, for snapshotting.
    pub fn states(&self) -> &[PowerState] {
        &self.states
    }

    /// Number of servers tracked.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when tracking no servers.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current state of server `s`.
    pub fn state(&self, s: usize) -> PowerState {
        self.states[s]
    }

    /// True when server `s` can host load right now.
    pub fn is_ready(&self, s: usize) -> bool {
        self.states[s] == PowerState::On
    }

    /// Applies the desired on/off vector and advances time by
    /// `elapsed_seconds`. Servers turned on enter `Booting`; servers turned
    /// off drop immediately (graceful container drain is the scheduler's
    /// job — it migrates containers *before* gating).
    ///
    /// # Panics
    ///
    /// Panics if `desired_on.len()` differs from the fleet size.
    pub fn step(&mut self, desired_on: &[bool], elapsed_seconds: u32) {
        assert_eq!(desired_on.len(), self.states.len());
        for (s, &want_on) in desired_on.iter().enumerate() {
            self.states[s] = match (self.states[s], want_on) {
                (PowerState::Off, true) => {
                    // The boot starts at the beginning of the interval and
                    // progresses through it.
                    if self.boot_seconds <= elapsed_seconds {
                        PowerState::On
                    } else {
                        PowerState::Booting {
                            remaining_s: self.boot_seconds - elapsed_seconds,
                        }
                    }
                }
                (PowerState::Booting { remaining_s }, true) => {
                    if remaining_s <= elapsed_seconds {
                        PowerState::On
                    } else {
                        PowerState::Booting {
                            remaining_s: remaining_s - elapsed_seconds,
                        }
                    }
                }
                (PowerState::On, true) => PowerState::On,
                (_, false) => PowerState::Off,
            };
        }
    }

    /// Count of ready servers.
    pub fn ready_count(&self) -> usize {
        self.states.iter().filter(|s| **s == PowerState::On).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_takes_time() {
        let mut g = PowerGate::all_on(2);
        g.step(&[false, true], 60);
        assert_eq!(g.state(0), PowerState::Off);
        assert!(g.is_ready(1));
        // Turn 0 back on: it must boot first.
        g.step(&[true, true], 60);
        assert!(matches!(
            g.state(0),
            PowerState::Booting { remaining_s: 120 }
        ));
        assert!(!g.is_ready(0));
        g.step(&[true, true], 120);
        assert!(g.is_ready(0));
    }

    #[test]
    fn off_interrupts_boot() {
        let mut g = PowerGate::all_on(1);
        g.step(&[false], 1);
        g.step(&[true], 1);
        assert!(matches!(g.state(0), PowerState::Booting { .. }));
        g.step(&[false], 1);
        assert_eq!(g.state(0), PowerState::Off);
    }

    #[test]
    fn ready_count() {
        let mut g = PowerGate::all_on(4);
        assert_eq!(g.ready_count(), 4);
        g.step(&[true, true, false, false], 1);
        assert_eq!(g.ready_count(), 2);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
    }
}
