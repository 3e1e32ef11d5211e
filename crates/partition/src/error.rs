//! Typed errors for fallible partitioning entry points.
//!
//! The adaptive load-balance loop (see [`crate::adaptive`]) calls into
//! the partitioner from inside a running simulation; a malformed input
//! there must surface as a recoverable error, not a panic that takes
//! down the whole SPMD job.

use std::fmt;

/// Errors returned by fallible partitioning operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The owner map's length does not match the graph's vertex count.
    OwnerLengthMismatch {
        /// Length of the supplied owner map.
        owner_len: usize,
        /// Number of vertices in the graph.
        graph_len: usize,
    },
    /// An owner value is out of the `0..k` range.
    OwnerOutOfRange {
        /// The offending vertex.
        vertex: usize,
        /// Its owner value.
        owner: usize,
        /// The number of parts.
        k: usize,
    },
    /// A weight vector's length does not match the graph.
    WeightLengthMismatch {
        /// Length of the supplied weight vector.
        weights_len: usize,
        /// Number of vertices in the graph.
        graph_len: usize,
    },
    /// `k` was zero.
    ZeroParts,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::OwnerLengthMismatch {
                owner_len,
                graph_len,
            } => write!(
                f,
                "owner map has {owner_len} entries but the graph has {graph_len} vertices"
            ),
            PartitionError::OwnerOutOfRange { vertex, owner, k } => write!(
                f,
                "vertex {vertex} is owned by part {owner}, outside 0..{k}"
            ),
            PartitionError::WeightLengthMismatch {
                weights_len,
                graph_len,
            } => write!(
                f,
                "weight vector has {weights_len} entries but the graph has {graph_len} vertices"
            ),
            PartitionError::ZeroParts => write!(f, "number of parts must be at least 1"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Convenience alias for fallible partition operations.
pub type PartitionResult<T> = Result<T, PartitionError>;
