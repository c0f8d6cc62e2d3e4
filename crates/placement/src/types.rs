//! Placement results and errors shared by every scheduler.

use std::collections::BTreeSet;

use goldilocks_topology::{DcTree, Resources, ServerId};
use goldilocks_workload::Workload;

/// A container → server assignment for one epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Placement {
    /// `assignment[c]` is the server hosting container `c`, or `None` when
    /// unplaced.
    pub assignment: Vec<Option<ServerId>>,
}

impl Placement {
    /// An empty placement for `containers` containers.
    pub fn unplaced(containers: usize) -> Self {
        Placement {
            assignment: vec![None; containers],
        }
    }

    /// The set of servers hosting at least one container.
    pub fn active_servers(&self) -> BTreeSet<ServerId> {
        self.assignment.iter().flatten().copied().collect()
    }

    /// Number of distinct active servers.
    pub fn active_server_count(&self) -> usize {
        self.active_servers().len()
    }

    /// Number of containers whose server changed between `old` and `self`.
    /// Containers unplaced in either epoch don't count (they start or stop,
    /// they don't migrate). Only indices present in both epochs compare.
    pub fn migrations_from(&self, old: &Placement) -> usize {
        self.assignment
            .iter()
            .zip(&old.assignment)
            .filter(|(new, old)| matches!((new, old), (Some(n), Some(o)) if n != o))
            .count()
    }

    /// Per-server aggregate demand under this placement. The returned vector
    /// is indexed by raw server id and covers all servers of `tree`.
    pub fn server_loads(&self, workload: &Workload, tree: &DcTree) -> Vec<Resources> {
        let mut loads = vec![Resources::zero(); tree.server_count()];
        for (c, assigned) in self.assignment.iter().enumerate() {
            if let Some(s) = assigned {
                loads[s.0] += workload.containers[c].demand;
            }
        }
        loads
    }

    /// Per-server worst-dimension utilization (`0.0` for empty servers).
    pub fn server_utilizations(&self, workload: &Workload, tree: &DcTree) -> Vec<f64> {
        self.server_loads(workload, tree)
            .iter()
            .enumerate()
            .map(|(s, load)| load.utilization_against(&tree.server(ServerId(s)).resources))
            .collect()
    }

    /// Per-server CPU utilization (`0.0` for empty servers). The paper's
    /// packing thresholds (70 % PEE, 95 % max) are CPU utilizations.
    pub fn server_cpu_utilizations(&self, workload: &Workload, tree: &DcTree) -> Vec<f64> {
        self.server_loads(workload, tree)
            .iter()
            .enumerate()
            .map(|(s, load)| load.cpu_utilization_against(&tree.server(ServerId(s)).resources))
            .collect()
    }

    /// True when every container is assigned.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }
}

/// Why a placement attempt failed.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PlaceError {
    /// A container could not be hosted anywhere.
    Unplaceable {
        /// Index of the container.
        container: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The workload and topology disagree (e.g. empty topology).
    Infeasible {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::Unplaceable { container, reason } => {
                write!(f, "container {container} cannot be placed: {reason}")
            }
            PlaceError::Infeasible { reason } => write!(f, "placement infeasible: {reason}"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A placement policy. Implementations are epoch-stateless: they compute a
/// fresh assignment from the current workload and topology; migration deltas
/// are derived by diffing successive [`Placement`]s.
pub trait Placer {
    /// Short policy name (used in experiment tables).
    fn name(&self) -> &str;

    /// Computes an assignment for every container of `workload` onto the
    /// healthy servers of `tree`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when some container cannot be hosted without
    /// violating the policy's utilization cap.
    fn place(&mut self, workload: &Workload, tree: &DcTree) -> Result<Placement, PlaceError>;
}

impl<P: Placer + ?Sized> Placer for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(&mut self, workload: &Workload, tree: &DcTree) -> Result<Placement, PlaceError> {
        (**self).place(workload, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_topology::builders::single_rack;

    fn tiny() -> (Workload, DcTree) {
        let tree = single_rack(3, Resources::new(100.0, 10.0, 100.0), 100.0);
        let mut w = Workload::new();
        w.add_container("a", Resources::new(40.0, 2.0, 10.0), None);
        w.add_container("b", Resources::new(40.0, 2.0, 10.0), None);
        (w, tree)
    }

    #[test]
    fn active_servers_and_counts() {
        let p = Placement {
            assignment: vec![
                Some(ServerId(0)),
                Some(ServerId(0)),
                Some(ServerId(2)),
                None,
            ],
        };
        assert_eq!(p.active_server_count(), 2);
        assert!(!p.is_complete());
    }

    #[test]
    fn migrations_ignore_starts_and_stops() {
        let old = Placement {
            assignment: vec![Some(ServerId(0)), Some(ServerId(1)), None],
        };
        let new = Placement {
            assignment: vec![Some(ServerId(2)), Some(ServerId(1)), Some(ServerId(0))],
        };
        assert_eq!(new.migrations_from(&old), 1);
    }

    #[test]
    fn server_loads_accumulate() {
        let (w, tree) = tiny();
        let p = Placement {
            assignment: vec![Some(ServerId(1)), Some(ServerId(1))],
        };
        let loads = p.server_loads(&w, &tree);
        assert_eq!(loads[0], Resources::zero());
        assert!((loads[1].cpu - 80.0).abs() < 1e-9);
        let utils = p.server_utilizations(&w, &tree);
        assert!((utils[1] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = PlaceError::Unplaceable {
            container: 3,
            reason: "too big".into(),
        };
        assert!(e.to_string().contains("container 3"));
        let e2 = PlaceError::Infeasible {
            reason: "no servers".into(),
        };
        assert!(e2.to_string().contains("no servers"));
    }
}
