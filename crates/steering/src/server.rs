//! The two halves of the master's side of steering: the replicated
//! [`SteeringState`] every rank applies the command stream to, and the
//! `SteeringEndpoint` on the master rank that produces that stream.
//!
//! The paper's in situ loop (§IV-C-1, Fig. 2) has *a* steering client
//! that connects to the master, so the endpoint has **one seat**:
//!
//! * a transport handed in at construction is seated silently;
//! * with an [`Acceptor`], a client that dials while the seat is empty
//!   is seated at the next poll. A dial made while a client is seated
//!   is not accepted: it waits in the listener until the seat frees;
//! * when the client is lost the run goes **headless** if there is an
//!   acceptor (a client can attach later and resume steering), and
//!   otherwise ends: nobody can ever attach again, so
//!   `SteeringEndpoint::poll_commands` yields
//!   [`SteeringCommand::Terminate`];
//! * sends never block ([`Transport::try_send_frame`]), so a slow or
//!   dead client cannot stall the simulation loop. A backlogged client
//!   walks a degradation ladder: past `DEGRADE_QUEUED_BYTES` it stops
//!   receiving images (status-only), past `DETACH_QUEUED_BYTES` — or
//!   once its backlog has failed to drain for `DRAIN_DEADLINE` — it
//!   is detached (the deadline spares a client nobody could replace).

use crate::protocol::{
    FieldChoice, ObservableReport, ServerMessage, StatusReport, SteeringCommand,
};
use crate::transport::{Acceptor, Transport};
use hemelb_parallel::Wire;
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Steering-relevant state, replicated on every rank by broadcasting
/// the command stream (so the whole SPMD job stays consistent).
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringState {
    /// Camera eye.
    pub eye: [f64; 3],
    /// Camera target.
    pub target: [f64; 3],
    /// Camera up hint.
    pub up: [f64; 3],
    /// Vertical FOV (radians).
    pub fov_y: f64,
    /// Displayed field.
    pub field: FieldChoice,
    /// Render every this many steps.
    pub vis_rate: u32,
    /// Optional region of interest (lattice cells).
    pub roi: Option<([u32; 3], [u32; 3])>,
    /// Whether stepping is paused.
    pub paused: bool,
    /// Whether a frame was explicitly requested.
    pub frame_requested: bool,
    /// Whether an observable extraction was requested.
    pub observables_requested: bool,
    /// Whether termination was requested.
    pub terminate: bool,
    /// Pending inlet-pressure changes `(id, rho)`.
    pub pressure_changes: Vec<(u32, f64)>,
    /// Client override for adaptive load balancing: `None` until a
    /// client sends [`SteeringCommand::SetAdaptiveLb`], then the last
    /// value sent. The closed loop combines this with its configured
    /// default (`ClosedLoopConfig::adaptive_lb`).
    pub adaptive_lb_override: Option<bool>,
    /// Domain shape in lattice cells; ROIs are validated against it.
    pub domain: [u32; 3],
    /// Notices about rejected commands, drained into the next status
    /// report's `problems` list.
    pub rejections: Vec<String>,
}

impl SteeringState {
    /// Defaults: camera along −y, speed field, render every 50 steps.
    pub fn new(domain_shape: [usize; 3]) -> Self {
        let c = [
            domain_shape[0] as f64 / 2.0,
            domain_shape[1] as f64 / 2.0,
            domain_shape[2] as f64 / 2.0,
        ];
        let radius = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        SteeringState {
            eye: [c[0], c[1] - 3.0 * radius, c[2]],
            target: c,
            up: [0.0, 0.0, 1.0],
            fov_y: 45f64.to_radians(),
            field: FieldChoice::Speed,
            vis_rate: 50,
            roi: None,
            paused: false,
            frame_requested: false,
            observables_requested: false,
            terminate: false,
            pressure_changes: Vec::new(),
            adaptive_lb_override: None,
            domain: [
                domain_shape[0] as u32,
                domain_shape[1] as u32,
                domain_shape[2] as u32,
            ],
            rejections: Vec::new(),
        }
    }

    /// Apply one command.
    pub fn apply(&mut self, cmd: &SteeringCommand) {
        match cmd {
            SteeringCommand::SetCamera {
                eye,
                target,
                up,
                fov_y,
            } => {
                self.eye = *eye;
                self.target = *target;
                self.up = *up;
                self.fov_y = *fov_y;
            }
            SteeringCommand::SetField(f) => self.field = *f,
            SteeringCommand::SetVisRate(n) => self.vis_rate = (*n).max(1),
            SteeringCommand::SetRoi { lo, hi } => {
                // Clamp to the domain, then reject empty or inverted
                // boxes instead of silently analysing nothing. The old
                // behaviour accepted any box verbatim, so an ROI past
                // the domain (or with lo ≥ hi) produced zero-site
                // observables with no indication why.
                let lo = [
                    lo[0].min(self.domain[0]),
                    lo[1].min(self.domain[1]),
                    lo[2].min(self.domain[2]),
                ];
                let hi = [
                    hi[0].min(self.domain[0]),
                    hi[1].min(self.domain[1]),
                    hi[2].min(self.domain[2]),
                ];
                if (0..3).all(|a| lo[a] < hi[a]) {
                    self.roi = Some((lo, hi));
                } else {
                    self.rejections.push(format!(
                        "rejected ROI {lo:?}..{hi:?}: empty or inverted after clamping \
                         to domain {:?}; keeping {:?}",
                        self.domain, self.roi
                    ));
                }
            }
            SteeringCommand::SetInletPressure { id, rho } => {
                // A NaN or non-positive density would spread through
                // every population downstream of the inlet.
                if rho.is_finite() && *rho > 0.0 {
                    self.pressure_changes.push((*id, *rho));
                } else {
                    self.rejections.push(format!(
                        "rejected inlet pressure {rho} at inlet {id}: density must be \
                         finite and positive"
                    ));
                }
            }
            SteeringCommand::Pause => self.paused = true,
            SteeringCommand::Resume => self.paused = false,
            SteeringCommand::RequestFrame => self.frame_requested = true,
            SteeringCommand::RequestObservables => self.observables_requested = true,
            SteeringCommand::SetAdaptiveLb(on) => self.adaptive_lb_override = Some(*on),
            SteeringCommand::Terminate => self.terminate = true,
        }
    }

    /// Drain and return pending pressure changes.
    pub fn take_pressure_changes(&mut self) -> Vec<(u32, f64)> {
        std::mem::take(&mut self.pressure_changes)
    }

    /// Drain and return pending rejection notices (reported to the
    /// client via the next status report's `problems`).
    pub fn take_rejections(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rejections)
    }
}

/// Send backlog (bytes) past which the client degrades to status-only:
/// image frames stop being sent to it.
const DEGRADE_QUEUED_BYTES: u64 = 4 << 20;
/// Send backlog (bytes) past which the client is detached outright.
const DETACH_QUEUED_BYTES: u64 = 16 << 20;
/// How long the backlog may stay non-empty before the client is
/// declared wedged and detached. Not applied to the pre-connected
/// client of an endpoint without an acceptor.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// The three limits of the degradation ladder.
#[derive(Debug, Clone, Copy)]
struct Limits {
    degrade_queued_bytes: u64,
    detach_queued_bytes: u64,
    drain_deadline: Duration,
}

/// The seated client.
struct Link {
    transport: Box<dyn Transport>,
    /// When the send backlog last became non-empty (`None` = drained).
    backlog_since: Option<Instant>,
    /// Degraded: receives status reports but no image frames.
    status_only: bool,
}

impl Link {
    fn new(transport: Box<dyn Transport>) -> Self {
        Link {
            transport,
            backlog_since: None,
            status_only: false,
        }
    }
}

/// The steering endpoint living on the master rank. The closed loop
/// holds it by shared reference, hence the interior mutability.
pub(crate) struct SteeringEndpoint {
    acceptor: Option<Box<dyn Acceptor>>,
    limits: Limits,
    seat: RefCell<Option<Link>>,
    events: RefCell<Vec<String>>,
    /// Commands drained off a dying transport at detach time, returned
    /// by the next [`SteeringEndpoint::poll_commands`]. A loss is
    /// usually noticed on a *send*, when the client may still have
    /// decodable commands in flight.
    salvaged: RefCell<Vec<SteeringCommand>>,
    bytes_retired: Cell<u64>,
}

impl SteeringEndpoint {
    /// The endpoint over either or both ends the closed loop receives:
    /// an already-connected `transport`, seated without an event
    /// (nothing happened that a client needs telling), and an
    /// `acceptor` through which a client dials in when the seat is
    /// empty.
    pub(crate) fn new(
        transport: Option<Box<dyn Transport>>,
        acceptor: Option<Box<dyn Acceptor>>,
    ) -> Self {
        Self::with_limits(
            transport,
            acceptor,
            Limits {
                degrade_queued_bytes: DEGRADE_QUEUED_BYTES,
                detach_queued_bytes: DETACH_QUEUED_BYTES,
                drain_deadline: DRAIN_DEADLINE,
            },
        )
    }

    fn with_limits(
        transport: Option<Box<dyn Transport>>,
        acceptor: Option<Box<dyn Acceptor>>,
        limits: Limits,
    ) -> Self {
        SteeringEndpoint {
            acceptor,
            limits,
            seat: RefCell::new(transport.map(Link::new)),
            events: RefCell::new(Vec::new()),
            salvaged: RefCell::new(Vec::new()),
            bytes_retired: Cell::new(0),
        }
    }

    /// Whether a client is seated right now.
    pub(crate) fn attached(&self) -> bool {
        self.seat.borrow().is_some()
    }

    /// Drain pending events (attach / detach / degrade / recover
    /// notices), for `StatusReport.problems`.
    pub(crate) fn take_events(&self) -> Vec<String> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Steering bytes sent across all clients, past and present.
    pub(crate) fn bytes_sent(&self) -> u64 {
        let seated = self.seat.borrow();
        self.bytes_retired.get() + seated.as_ref().map_or(0, |l| l.transport.bytes_sent())
    }

    fn event(&self, msg: String) {
        self.events.borrow_mut().push(msg);
    }

    /// Empty the seat, salvaging the client's decodable commands first.
    fn detach(&self, why: &str) {
        let Some(link) = self.seat.borrow_mut().take() else {
            return;
        };
        let (mut salvaged, mut rejected) = (0usize, 0usize);
        while let Ok(Some(frame)) = link.transport.try_recv_frame() {
            match SteeringCommand::from_bytes(frame) {
                Ok(cmd) => {
                    self.salvaged.borrow_mut().push(cmd);
                    salvaged += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        self.bytes_retired
            .set(self.bytes_retired.get() + link.transport.bytes_sent());
        let mut msg = format!("client detached: {why}");
        if salvaged > 0 || rejected > 0 {
            msg.push_str(&format!(
                " (salvaged {salvaged} queued command(s), rejected {rejected} undecodable)"
            ));
        }
        self.event(msg);
    }

    /// Drain the seated client's inbound queue into `out`, detaching it
    /// if it is dead or garbling.
    fn drain_inbound(&self, out: &mut Vec<SteeringCommand>) {
        loop {
            let polled = match &*self.seat.borrow() {
                None => return,
                Some(link) => link.transport.try_recv_frame(),
            };
            let failure = match polled {
                Ok(None) => return,
                Ok(Some(frame)) => match SteeringCommand::from_bytes(frame) {
                    Ok(cmd) => {
                        out.push(cmd);
                        continue;
                    }
                    Err(e) => format!("undecodable command: {e}"),
                },
                Err(e) => e.to_string(),
            };
            return self.detach(&failure);
        }
    }

    /// Walk the seated client down the degradation ladder:
    /// opportunistic flush, then status-only past the degrade
    /// threshold, then detach past the byte cap or the drain deadline.
    ///
    /// The clock spares the one client an endpoint without an acceptor
    /// can have: nobody could replace it, so detaching it could only end
    /// the run. A slow link thins out to status-only; only the byte cap
    /// (a peer that reads nothing at all) removes it.
    fn pump(&self) {
        let irreplaceable = self.acceptor.is_none();
        let verdict = {
            let mut seat = self.seat.borrow_mut();
            let Some(link) = seat.as_mut() else {
                return;
            };
            match link.transport.flush_pending() {
                Err(e) => Err(e.to_string()),
                Ok(0) => {
                    if link.backlog_since.take().is_some() && link.status_only {
                        link.status_only = false;
                        Ok(Some("client recovered: backlog drained".to_string()))
                    } else {
                        Ok(None)
                    }
                }
                Ok(pending) => {
                    let since = *link.backlog_since.get_or_insert_with(Instant::now);
                    if pending > self.limits.detach_queued_bytes
                        || (!irreplaceable && since.elapsed() > self.limits.drain_deadline)
                    {
                        Err(format!(
                            "wedged: {pending} bytes backlogged for {:.1?}",
                            since.elapsed()
                        ))
                    } else if pending > self.limits.degrade_queued_bytes && !link.status_only {
                        link.status_only = true;
                        Ok(Some(format!(
                            "client degraded to status-only ({pending} bytes backlogged)"
                        )))
                    } else {
                        Ok(None)
                    }
                }
            }
        };
        match verdict {
            Ok(Some(msg)) => self.event(msg),
            Ok(None) => {}
            Err(why) => self.detach(&why),
        }
    }

    /// Drain the seated client's commands, seat the next dial if the
    /// seat is empty, and pump the send queue. Returns the commands to
    /// apply, in order (salvaged commands first).
    ///
    /// The seated client is drained — and detached if dead — *before*
    /// the acceptor is polled, so a client redialing in the poll that
    /// reaps its predecessor is seated at once. While the seat is taken
    /// the acceptor is not polled at all: a further dial waits in the
    /// listener.
    ///
    /// With no client and no acceptor nobody can ever attach again: the
    /// stream ends in [`SteeringCommand::Terminate`].
    pub(crate) fn poll_commands(&self) -> Vec<SteeringCommand> {
        let mut out = std::mem::take(&mut *self.salvaged.borrow_mut());
        self.drain_inbound(&mut out);
        if !self.attached() {
            if let Some(Ok(Some(transport))) = self.acceptor.as_ref().map(|a| a.try_accept()) {
                *self.seat.borrow_mut() = Some(Link::new(transport));
                self.event("client attached".into());
                self.drain_inbound(&mut out);
            }
        }
        self.pump();
        if self.acceptor.is_none() && !self.attached() {
            out.push(SteeringCommand::Terminate);
        }
        out
    }

    /// Pump until the send backlog has drained, giving up once it has
    /// not shrunk for the drain deadline (a slow link gets all the time
    /// it uses, a wedged one none beyond the deadline). Sends never
    /// block, so without this the tail of a run — its last frame —
    /// could still sit in the transport's buffer when the endpoint is
    /// dropped.
    pub(crate) fn flush(&self) {
        let mut least = u64::MAX;
        let mut since = Instant::now();
        loop {
            self.pump();
            let pending = self
                .seat
                .borrow()
                .as_ref()
                .map_or(0, |l| l.transport.pending_bytes());
            if pending == 0 {
                return;
            }
            if pending < least {
                least = pending;
                since = Instant::now();
            } else if since.elapsed() > self.limits.drain_deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Send an encoded [`ServerMessage`] to the seated client, unless
    /// it `is_image` and the client is status-only. A send error
    /// detaches the client (terminal — never retry mid-frame).
    fn send_bytes(&self, bytes: Vec<u8>, is_image: bool) {
        let result = match &*self.seat.borrow() {
            Some(link) if !(is_image && link.status_only) => link.transport.try_send_frame(bytes),
            _ => return,
        };
        if let Err(e) = result {
            self.detach(&e.to_string());
        }
    }

    /// Send a status report (a status-only client included — status is
    /// exactly what it still receives).
    pub(crate) fn send_status(&self, status: StatusReport) {
        self.send_bytes(ServerMessage::Status(status).to_bytes(), false);
    }

    /// Send an observable report.
    pub(crate) fn send_observables(&self, report: ObservableReport) {
        self.send_bytes(ServerMessage::Observables(report).to_bytes(), false);
    }

    /// Send an already-encoded image message; withheld from a
    /// status-only client.
    pub(crate) fn send_frame_bytes(&self, bytes: Vec<u8>) {
        self.send_bytes(bytes, true);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::ImageFrame;
    use crate::transport::{duplex_listener, duplex_pair, DuplexConnector, InMemoryTransport};
    use crossbeam_channel::{unbounded, Receiver, Sender};
    use std::sync::Mutex;

    #[test]
    fn state_applies_commands() {
        let mut st = SteeringState::new([32, 16, 16]);
        assert!(!st.paused);
        st.apply(&SteeringCommand::Pause);
        assert!(st.paused);
        st.apply(&SteeringCommand::Resume);
        assert!(!st.paused);
        st.apply(&SteeringCommand::SetVisRate(0));
        assert_eq!(st.vis_rate, 1, "vis rate clamps to 1");
        st.apply(&SteeringCommand::SetField(FieldChoice::Density));
        assert_eq!(st.field, FieldChoice::Density);
        st.apply(&SteeringCommand::SetInletPressure { id: 0, rho: 1.03 });
        assert_eq!(st.take_pressure_changes(), vec![(0, 1.03)]);
        assert!(st.take_pressure_changes().is_empty(), "drained");
        st.apply(&SteeringCommand::Terminate);
        assert!(st.terminate);
    }

    #[test]
    fn valid_roi_is_accepted_and_clamped() {
        let mut st = SteeringState::new([32, 16, 16]);
        st.apply(&SteeringCommand::SetRoi {
            lo: [0, 0, 0],
            hi: [16, 16, 16],
        });
        assert_eq!(st.roi, Some(([0, 0, 0], [16, 16, 16])));
        assert!(st.take_rejections().is_empty());
        // A box poking past the domain is clamped, not rejected.
        st.apply(&SteeringCommand::SetRoi {
            lo: [8, 0, 0],
            hi: [1000, 1000, 1000],
        });
        assert_eq!(st.roi, Some(([8, 0, 0], [32, 16, 16])));
        assert!(st.take_rejections().is_empty());
    }

    #[test]
    fn inverted_or_empty_roi_is_rejected_and_reported() {
        let mut st = SteeringState::new([32, 16, 16]);
        let good = ([0, 0, 0], [8, 8, 8]);
        st.apply(&SteeringCommand::SetRoi {
            lo: good.0,
            hi: good.1,
        });
        // Inverted: lo > hi on the x axis.
        st.apply(&SteeringCommand::SetRoi {
            lo: [10, 0, 0],
            hi: [5, 16, 16],
        });
        assert_eq!(st.roi, Some(good), "previous valid ROI survives");
        // Empty: lo == hi.
        st.apply(&SteeringCommand::SetRoi {
            lo: [4, 4, 4],
            hi: [4, 8, 8],
        });
        // Entirely outside: clamping makes it empty.
        st.apply(&SteeringCommand::SetRoi {
            lo: [100, 0, 0],
            hi: [200, 16, 16],
        });
        assert_eq!(st.roi, Some(good));
        let rejections = st.take_rejections();
        assert_eq!(rejections.len(), 3);
        for r in &rejections {
            assert!(r.contains("rejected ROI"), "{r}");
        }
        assert!(st.take_rejections().is_empty(), "drained");
    }

    /// An endpoint behind an in-memory acceptor, no pre-connected client.
    fn listening() -> (DuplexConnector, SteeringEndpoint) {
        let (connector, acceptor) = duplex_listener();
        (
            connector,
            SteeringEndpoint::new(None, Some(Box::new(acceptor))),
        )
    }

    /// An endpoint over one pre-connected client and no acceptor — what
    /// `run_closed_loop` builds. Returns the client end.
    fn preconnected() -> (InMemoryTransport, SteeringEndpoint) {
        let (client_end, server_end) = duplex_pair();
        (
            client_end,
            SteeringEndpoint::new(Some(Box::new(server_end)), None),
        )
    }

    fn status(step: u64) -> StatusReport {
        StatusReport {
            step,
            mass: 1.0,
            max_speed: 0.0,
            residual: 0.0,
            problems: vec![],
            eta_steps: 0,
            paused: false,
            rebalances: 0,
            lb_imbalance: 1.0,
            sessions: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    fn image_bytes(step: u64) -> Vec<u8> {
        ServerMessage::Image(ImageFrame {
            step,
            width: 1,
            height: 1,
            rgb: vec![step as u8, 0, 0],
        })
        .to_bytes()
    }

    #[test]
    fn status_then_image_reach_the_client_and_are_counted() {
        let (client, ep) = preconnected();
        ep.send_status(status(7));
        ep.send_frame_bytes(image_bytes(7));
        let s = ServerMessage::from_bytes(client.recv_frame().unwrap()).unwrap();
        assert!(matches!(s, ServerMessage::Status(s) if s.step == 7));
        let img = ServerMessage::from_bytes(client.recv_frame().unwrap()).unwrap();
        assert!(matches!(img, ServerMessage::Image(i) if i.step == 7));
        assert!(client.try_recv_frame().unwrap().is_none());
        let sent = ServerMessage::Status(status(7)).to_bytes().len() + image_bytes(7).len();
        assert_eq!(ep.bytes_sent(), sent as u64);
    }

    #[test]
    fn commands_are_salvaged_at_detach() {
        let (connector, ep) = listening();
        let c1 = connector.connect().unwrap();
        ep.poll_commands();
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        c1.send_frame(SteeringCommand::SetVisRate(7).to_bytes())
            .unwrap();
        drop(c1);
        // The loss is noticed on a failed *send*, before the commands
        // are polled: the send detaches, the next poll returns them.
        ep.send_status(status(0));
        assert!(!ep.attached(), "failed send detaches the client");
        assert_eq!(
            ep.poll_commands(),
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(7)]
        );
        let events = ep.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("detached") && e.contains("salvaged 2")),
            "{events:?}"
        );
    }

    #[test]
    fn undecodable_leftovers_at_detach_are_rejected_explicitly() {
        let (connector, ep) = listening();
        let c1 = connector.connect().unwrap();
        ep.poll_commands();
        c1.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        c1.send_frame(vec![250, 9, 9]).unwrap();
        drop(c1);
        ep.send_status(status(0));
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Resume]);
        let events = ep.take_events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("salvaged 1") && e.contains("rejected 1")),
            "{events:?}"
        );
    }

    #[test]
    fn preconnected_client_steers_in_order_without_an_event() {
        let (client, ep) = preconnected();
        assert!(ep.attached());
        client
            .send_frame(SteeringCommand::Pause.to_bytes())
            .unwrap();
        client
            .send_frame(SteeringCommand::SetVisRate(10).to_bytes())
            .unwrap();
        assert_eq!(
            ep.poll_commands(),
            vec![SteeringCommand::Pause, SteeringCommand::SetVisRate(10)]
        );
        assert!(ep.poll_commands().is_empty());
        // Adoption is not news: any event would land in every status
        // report's `problems`.
        assert!(ep.take_events().is_empty());
    }

    #[test]
    fn losing_the_only_client_without_an_acceptor_terminates() {
        // Dead peer.
        let (client, ep) = preconnected();
        drop(client);
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Terminate]);
        assert!(!ep.attached());
        // Garbage frame.
        let (client, ep) = preconnected();
        client.send_frame(vec![250, 1, 2]).unwrap();
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Terminate]);
        // Nobody can attach any more, so every later poll says so too.
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Terminate]);
    }

    #[test]
    fn headless_endpoint_survives_loss_and_reattach() {
        let (connector, ep) = listening();
        assert!(ep.poll_commands().is_empty(), "no client yet, no Terminate");
        ep.send_status(status(0)); // no-op with nobody attached

        // First client attaches and steers.
        let c1 = connector.connect().unwrap();
        c1.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Pause]);
        assert!(ep.attached());
        ep.send_frame_bytes(image_bytes(1));
        let sent_to_c1 = ep.bytes_sent();
        assert!(sent_to_c1 > 0);

        // It dies: the run goes headless instead of terminating.
        drop(c1);
        assert!(ep.poll_commands().is_empty(), "no Terminate injected");
        assert!(!ep.attached());

        // A second client takes over; byte accounting spans both.
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Resume]);
        assert!(ep.attached());
        ep.send_frame_bytes(image_bytes(2));
        assert!(ep.bytes_sent() > sent_to_c1);

        let events = ep.take_events();
        assert_eq!(events.len(), 3, "attach, loss, attach: {events:?}");
        assert!(events[0].contains("client attached"));
        assert!(events[1].contains("detached"));
        assert!(events[2].contains("client attached"));
        assert!(ep.take_events().is_empty(), "drained");
    }

    #[test]
    fn redial_in_the_poll_that_reaps_the_predecessor_is_seated() {
        let (connector, ep) = listening();
        let c1 = connector.connect().unwrap();
        ep.poll_commands();
        ep.send_frame_bytes(image_bytes(3));
        // c1 dies and c2 dials before the endpoint polls again: the one
        // poll must reap first, then accept into the freed seat.
        drop(c1);
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Resume.to_bytes()).unwrap();
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Resume]);
        assert!(ep.attached());
        // c1's stale frame must not answer c2's first `RequestFrame`.
        assert!(c2.try_recv_frame().unwrap().is_none());
    }

    #[test]
    fn a_dial_while_a_client_is_seated_waits_for_the_seat() {
        let (connector, ep) = listening();
        let c1 = connector.connect().unwrap();
        ep.poll_commands();
        let c2 = connector.connect().unwrap();
        c2.send_frame(SteeringCommand::Pause.to_bytes()).unwrap();
        c1.send_frame(SteeringCommand::SetVisRate(3).to_bytes())
            .unwrap();
        // Only the seated client is read and written to.
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::SetVisRate(3)]);
        ep.send_status(status(1));
        ep.send_frame_bytes(image_bytes(1));
        assert!(c1.try_recv_frame().unwrap().is_some());
        assert!(c2.try_recv_frame().unwrap().is_none(), "c2 is not seated");
        let events = ep.take_events();
        assert_eq!(events.len(), 1, "one attach, no refusal: {events:?}");

        // The seat frees: the waiting dial takes it in the same poll,
        // its queued command is applied and it gets the next status.
        drop(c1);
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Pause]);
        ep.send_status(status(2));
        let msg = ServerMessage::from_bytes(c2.try_recv_frame().unwrap().unwrap()).unwrap();
        assert!(matches!(msg, ServerMessage::Status(s) if s.step == 2));
        assert!(c2.try_recv_frame().unwrap().is_none(), "and nothing older");
    }

    /// A transport whose send side backs up: try_send accepts frames
    /// into a fake backlog that drains `drains` bytes per flush — never,
    /// when wedged.
    struct WedgedTransport {
        pending: Mutex<u64>,
        sent: Mutex<u64>,
        drains: u64,
    }

    pub(crate) fn backlogging(drains: u64) -> Box<dyn Transport> {
        Box::new(WedgedTransport {
            pending: Mutex::new(0),
            sent: Mutex::new(0),
            drains,
        })
    }

    impl Transport for WedgedTransport {
        fn send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
            self.try_send_frame(frame)
        }
        fn try_recv_frame(&self) -> std::io::Result<Option<Vec<u8>>> {
            Ok(None)
        }
        fn recv_frame(&self) -> std::io::Result<Vec<u8>> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "wedged",
            ))
        }
        fn bytes_sent(&self) -> u64 {
            *self.sent.lock().unwrap()
        }
        fn try_send_frame(&self, frame: Vec<u8>) -> std::io::Result<()> {
            *self.sent.lock().unwrap() += frame.len() as u64;
            *self.pending.lock().unwrap() += frame.len() as u64;
            Ok(())
        }
        fn flush_pending(&self) -> std::io::Result<u64> {
            let mut pending = self.pending.lock().unwrap();
            *pending = pending.saturating_sub(self.drains);
            Ok(*pending)
        }
        fn pending_bytes(&self) -> u64 {
            *self.pending.lock().unwrap()
        }
    }

    /// An acceptor handing out arbitrary transports (to inject mocks).
    struct PushAcceptor {
        rx: Receiver<Box<dyn Transport>>,
    }

    fn push_acceptor() -> (Sender<Box<dyn Transport>>, Box<dyn Acceptor>) {
        let (tx, rx) = unbounded();
        (tx, Box::new(PushAcceptor { rx }))
    }

    impl Acceptor for PushAcceptor {
        fn try_accept(&self) -> std::io::Result<Option<Box<dyn Transport>>> {
            Ok(self.rx.try_recv().ok())
        }
    }

    fn limits(degrade: u64, detach: u64, drain_deadline: Duration) -> Limits {
        Limits {
            degrade_queued_bytes: degrade,
            detach_queued_bytes: detach,
            drain_deadline,
        }
    }

    #[test]
    fn wedged_client_degrades_to_status_only_then_detaches_at_the_byte_cap() {
        let (tx, acceptor) = push_acceptor();
        let ep = SteeringEndpoint::with_limits(
            None,
            Some(acceptor),
            limits(64, 4096, Duration::from_secs(3600)),
        );
        assert!(tx.send(backlogging(0)).is_ok());
        ep.poll_commands();
        assert!(ep.attached());

        // Push past the degrade threshold: images stop, status flows.
        let big = vec![0u8; 200];
        ep.send_frame_bytes(big.clone());
        ep.poll_commands();
        assert!(ep.take_events().iter().any(|e| e.contains("status-only")));
        assert!(ep.attached(), "degraded, not detached");
        let sent_before = ep.bytes_sent();
        ep.send_frame_bytes(big);
        assert_eq!(ep.bytes_sent(), sent_before, "image withheld");

        // Status still reaches it — until the backlog passes the detach
        // threshold (status frames keep accumulating on a wedge).
        for step in 0..200 {
            ep.send_status(status(step));
            ep.poll_commands();
            if !ep.attached() {
                break;
            }
        }
        assert!(!ep.attached(), "wedged client finally detached");
        assert!(ep.bytes_sent() > sent_before, "status kept flowing");
        assert!(ep.take_events().iter().any(|e| e.contains("wedged")));
    }

    #[test]
    fn drain_deadline_detaches_a_replaceable_client() {
        let (tx, acceptor) = push_acceptor();
        let ep = SteeringEndpoint::with_limits(
            None,
            Some(acceptor),
            limits(1 << 30, 1 << 30, Duration::from_millis(10)),
        );
        assert!(tx.send(backlogging(0)).is_ok());
        ep.poll_commands();
        ep.send_status(status(0));
        ep.poll_commands(); // backlog noticed; clock starts
        assert!(ep.attached());
        std::thread::sleep(Duration::from_millis(30));
        ep.poll_commands();
        assert!(!ep.attached(), "deadline detach");
        assert!(ep.take_events().iter().any(|e| e.contains("wedged")));
    }

    #[test]
    fn flush_drains_a_slow_client_and_gives_up_on_a_wedged_one() {
        // Returns once nothing is pending: the slow client (64 B a
        // pump) needs several pumps, the wedged one runs out its
        // deadline and is detached.
        for (drains, survives) in [(64, true), (0, false)] {
            let (tx, acceptor) = push_acceptor();
            let ep = SteeringEndpoint::with_limits(
                None,
                Some(acceptor),
                limits(1 << 30, 1 << 30, Duration::from_millis(20)),
            );
            assert!(tx.send(backlogging(drains)).is_ok());
            ep.poll_commands();
            ep.send_frame_bytes(vec![0u8; 300]);
            ep.flush();
            assert_eq!(ep.attached(), survives, "draining {drains} B a pump");
        }
    }

    #[test]
    fn drain_deadline_spares_an_irreplaceable_client() {
        // Non-blocking sends let a slow link's backlog outlive any
        // deadline — zero here, so every backlogged pump is "past it" —
        // and that must not cost the run its only possible client.
        let ep = SteeringEndpoint::with_limits(
            Some(backlogging(8)),
            None,
            limits(64, 4096, Duration::ZERO),
        );
        ep.send_frame_bytes(vec![0u8; 400]);
        for _ in 0..3 {
            assert!(ep.poll_commands().is_empty(), "no Terminate");
        }
        assert!(ep.attached());
        assert!(ep.take_events().iter().any(|e| e.contains("status-only")));
        // The final flush lasts as long as the backlog keeps shrinking.
        ep.flush();
        assert!(ep.attached());
        assert!(ep.take_events().iter().any(|e| e.contains("recovered")));

        // A peer that reads nothing at all: flush gives up at the
        // deadline, and the byte cap still ends it (and so the run).
        let ep = SteeringEndpoint::with_limits(
            Some(backlogging(0)),
            None,
            limits(1 << 30, 4096, Duration::ZERO),
        );
        ep.send_frame_bytes(vec![0u8; 400]);
        ep.flush();
        assert!(ep.attached());
        ep.send_frame_bytes(vec![0u8; 4000]);
        assert_eq!(ep.poll_commands(), vec![SteeringCommand::Terminate]);
    }
}
