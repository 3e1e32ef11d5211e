//! Error types for the message-passing substrate.

use std::fmt;

/// Errors that can arise in communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank index is outside `0..size`.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// The channel to or from a peer was disconnected — a peer rank
    /// panicked or exited while others were still communicating.
    Disconnected {
        /// The peer whose channel broke.
        peer: usize,
    },
    /// A payload failed to decode as the requested type.
    Decode {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A collective was invoked with inconsistent arguments across ranks
    /// (detected where cheaply possible, e.g. mismatched lengths).
    CollectiveMismatch {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A deadline-bounded receive (`recv_deadline`) expired before the
    /// expected message arrived —
    /// the peer is slow or gone. The graceful-degradation paths (e.g.
    /// deadline compositing) treat this as "drop the contributor", not
    /// as a fatal error.
    Timeout {
        /// The peer waited on.
        peer: usize,
        /// Milliseconds waited before giving up.
        waited_ms: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            CommError::Disconnected { peer } => {
                write!(f, "channel to/from rank {peer} disconnected")
            }
            CommError::Decode { reason } => write!(f, "payload decode error: {reason}"),
            CommError::CollectiveMismatch { reason } => {
                write!(f, "inconsistent collective arguments: {reason}")
            }
            CommError::Timeout { peer, waited_ms } => {
                write!(
                    f,
                    "deadline expired after {waited_ms} ms waiting on rank {peer}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Convenience alias used throughout the crate.
pub type CommResult<T> = Result<T, CommError>;
