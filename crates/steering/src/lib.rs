//! # hemelb-steering
//!
//! Computational steering — the part that "closes the loop" in the
//! paper's Fig. 2. A [`SteeringClient`] connects to the simulation
//! master, sends visualisation parameters and simulation-parameter
//! changes, and receives images and status reports back, following the
//! six-step in situ loop of §IV-C-1 verbatim:
//!
//! 1. a simulation runs on the (simulated) cluster;
//! 2. a steering client connects to the master rank;
//! 3. the client sends visualisation parameters (view point, field, …);
//! 4. the master propagates them to the visualisation component
//!    (a broadcast to all ranks);
//! 5. the visualisation component renders from the live fields
//!    (brick ray casting + sort-last compositing);
//! 6. the image returns to the master and thence to the client.
//!
//! Transports: an in-memory duplex for tests/benches and a real TCP
//! framing for out-of-process clients. The closed-loop runner couples a
//! [`hemelb_core::DistSolver`] with the in situ renderer and the
//! master-side endpoint in [`server`]: one seat, so one client steers
//! at a time; a lost client leaves the run headless until the next one
//! dials in, and a slow one is thinned out rather than waited for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod client;
pub mod closedloop;
pub mod error;
pub mod protocol;
pub mod server;
pub mod transport;

pub use adaptive::{AdaptiveDriver, WindowDecision};
pub use client::{BackoffPolicy, SteeringClient, TransportFactory};
pub use closedloop::{run_closed_loop, run_closed_loop_opts, ClosedLoopConfig, ClosedLoopOutcome};
pub use error::{SteeringError, SteeringResult};
pub use protocol::{
    FieldChoice, ImageFrame, ObservableReport, StatusReport, SteeringCommand, MAX_FRAME_LEN,
};
pub use transport::{
    duplex_listener, duplex_pair, Acceptor, DuplexAcceptor, DuplexConnector, InMemoryTransport,
    TcpAcceptor, TcpTransport, Transport,
};
