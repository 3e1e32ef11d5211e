//! The steering-layer error type.
//!
//! Steering failures are *expected* events — a human closes the client
//! window mid-run — so nothing in the library path may panic on them.
//! Transport and protocol failures funnel into [`SteeringError`] and
//! the closed loop degrades (a vanished client becomes a terminate
//! request) instead of taking the master rank down.

use hemelb_parallel::CommError;
use std::fmt;

/// Anything that can go wrong in the steering layer.
#[derive(Debug)]
pub enum SteeringError {
    /// The peer is gone for good: the connection closed or reset and no
    /// further I/O on this transport can succeed. Callers with a
    /// reconnect policy may dial again; everything else treats it as a
    /// clean end of the steering session.
    Disconnected(String),
    /// Transport I/O failed in a way that does not prove the peer is
    /// gone (timeout, invalid data, resource pressure).
    Transport(std::io::Error),
    /// A frame arrived but did not decode as a protocol message.
    Protocol(String),
    /// A rank-communicator collective failed underneath the loop.
    Comm(CommError),
    /// The loop was wired up inconsistently (e.g. a steering transport
    /// on a non-master rank).
    Config(String),
}

impl SteeringError {
    /// Classify an I/O error: the error kinds that mean "the peer is
    /// gone" become [`SteeringError::Disconnected`]; everything else
    /// stays a generic transport error.
    pub(crate) fn from_io(e: std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            UnexpectedEof | BrokenPipe | ConnectionReset | ConnectionAborted | NotConnected => {
                SteeringError::Disconnected(e.to_string())
            }
            _ => SteeringError::Transport(e),
        }
    }

    /// Whether this error is terminal for the current connection.
    pub fn is_disconnected(&self) -> bool {
        matches!(self, SteeringError::Disconnected(_))
    }
}

impl fmt::Display for SteeringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteeringError::Disconnected(m) => write!(f, "steering peer disconnected: {m}"),
            SteeringError::Transport(e) => write!(f, "steering transport: {e}"),
            SteeringError::Protocol(m) => write!(f, "steering protocol: {m}"),
            SteeringError::Comm(e) => write!(f, "steering collective: {e}"),
            SteeringError::Config(m) => write!(f, "steering configuration: {m}"),
        }
    }
}

impl std::error::Error for SteeringError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SteeringError::Transport(e) => Some(e),
            SteeringError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SteeringError {
    fn from(e: std::io::Error) -> Self {
        SteeringError::from_io(e)
    }
}

impl From<CommError> for SteeringError {
    fn from(e: CommError) -> Self {
        SteeringError::Comm(e)
    }
}

/// Shorthand for steering-layer results.
pub type SteeringResult<T> = Result<T, SteeringError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        // Peer-gone I/O errors classify as Disconnected…
        let e: SteeringError =
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone").into();
        assert!(matches!(e, SteeringError::Disconnected(_)));
        assert!(e.is_disconnected());
        assert!(e.to_string().contains("peer gone"));
        // …while transient ones stay generic transport errors.
        let e = SteeringError::from_io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "slow peer",
        ));
        assert!(matches!(e, SteeringError::Transport(_)));
        assert!(!e.is_disconnected());
        let e: SteeringError = CommError::Decode {
            reason: "short".into(),
        }
        .into();
        assert!(matches!(e, SteeringError::Comm(_)));
        let e = SteeringError::Config("bad wiring".into());
        assert!(e.to_string().contains("bad wiring"));
        use std::error::Error;
        assert!(SteeringError::Protocol("x".into()).source().is_none());
    }
}
