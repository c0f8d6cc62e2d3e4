//! The unified error type of the cluster control plane.
//!
//! The crate grew one ad-hoc error enum per mechanism — lifecycle, and then
//! the write-ahead log and recovery paths. [`ClusterError`] folds them into
//! a single composable type with `From` impls, so controller code can use
//! `?` across module boundaries instead of inventing yet another one-off
//! wrapper per call site.

use std::fmt;

use crate::lifecycle::LifecycleError;
use crate::wal::WalError;

/// Any error the cluster control plane can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// An illegal container-lifecycle transition.
    Lifecycle(LifecycleError),
    /// A malformed write-ahead-log record (outside the tolerated torn
    /// tail).
    Wal(WalError),
    /// A [`crate::MigrationModel`] with out-of-domain parameters.
    Model {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Why the value is out of domain.
        reason: &'static str,
    },
    /// Recovery replayed a log that is internally inconsistent (a checksummed
    /// record stream whose transitions do not form a legal history).
    Recovery(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Lifecycle(e) => write!(f, "lifecycle: {e}"),
            ClusterError::Wal(e) => write!(f, "wal: {e}"),
            ClusterError::Model {
                field,
                value,
                reason,
            } => write!(f, "invalid migration model: {field} = {value} ({reason})"),
            ClusterError::Recovery(msg) => write!(f, "recovery: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<LifecycleError> for ClusterError {
    fn from(e: LifecycleError) -> Self {
        ClusterError::Lifecycle(e)
    }
}

impl From<WalError> for ClusterError {
    fn from(e: WalError) -> Self {
        ClusterError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_topology::ServerId;

    #[test]
    fn from_impls_compose_with_question_mark() {
        fn lifecycle() -> Result<(), LifecycleError> {
            Err(LifecycleError::NotRunning(3))
        }
        fn wal() -> Result<(), WalError> {
            Err(WalError::BadTag(9))
        }
        fn unified(which: u8) -> Result<(), ClusterError> {
            match which {
                0 => lifecycle()?,
                _ => wal()?,
            }
            Ok(())
        }
        assert_eq!(
            unified(0),
            Err(ClusterError::Lifecycle(LifecycleError::NotRunning(3)))
        );
        assert_eq!(unified(1), Err(ClusterError::Wal(WalError::BadTag(9))));
    }

    #[test]
    fn display_is_informative() {
        let e = ClusterError::Lifecycle(LifecycleError::WrongSource {
            container: 7,
            claimed: ServerId(1),
            actual: ServerId(2),
        });
        assert!(e.to_string().contains("container 7"));
        let m = ClusterError::Model {
            field: "timeout_s",
            value: -1.0,
            reason: "must be non-negative",
        };
        let msg = m.to_string();
        assert!(msg.contains("timeout_s") && msg.contains("non-negative"));
    }
}
